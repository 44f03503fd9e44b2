"""Exit code and SHA-256 of every CLI artifact on every shipped scenario.

Runs ``fluidq simulate``, ``solve``, ``compare`` and ``gc-check`` on each
``scenarios/*.scn`` with the scenario's own seeds and n ladder, then
``simulate``, ``compare`` and ``gc-check`` on ``OVERRIDE_SCENARIO`` with
the ``--seed``/``--n`` overrides ``OVERRIDE_FLAGS``, one fresh interpreter
per command, and prints one line per command followed by one line per
artifact it wrote.  A command still running after ``TIMEOUT_S`` seconds
is killed and printed as ``exit timeout``:

    python3 tools/artifact_digests.py              # this checkout
    python3 tools/artifact_digests.py OTHER_ROOT   # another checkout's src/ and scenarios/

A refactor that claims no change in behaviour shows it by running this on
the parent commit and on the change and diffing the two outputs.
"""

import hashlib
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "solve", "compare", "gc-check")
TIMEOUT_S = 120  # a shipped scenario's command takes a few seconds
OVERRIDE_SCENARIO = "underloaded_exp"
OVERRIDE_FLAGS = ("--seed", "3", "--n", "10,100")


def _run(command, scn, out, env, flags=()):
    """The command's exit code, or ``timeout`` after TIMEOUT_S seconds,
    when its process group (the forked workers too) is killed."""
    with subprocess.Popen(
        [sys.executable, "-m", "fluidq.cli", command, "--scenario", str(scn),
         "--out", str(out), "--quiet", *flags],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    ) as proc:
        try:
            return proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    root = root.resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = [(command, scn, ()) for scn in sorted((root / "scenarios").glob("*.scn"))
            for command in COMMANDS]
    runs += [(command, root / "scenarios" / f"{OVERRIDE_SCENARIO}.scn", OVERRIDE_FLAGS)
             for command in COMMANDS if command != "solve"]
    artifacts = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, scn, flags) in enumerate(runs):
            out = Path(tmp) / str(i)
            code = _run(command, scn, out, env, flags)
            print(f"{' '.join((command, scn.stem, *flags))}: exit {code}", flush=True)
            for path in sorted(out.rglob("*")) if out.exists() else ():
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"  {digest}  {path.relative_to(out)}")
                    artifacts += 1
    print(f"{artifacts} artifacts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
