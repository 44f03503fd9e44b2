"""Benchmark of the fluidq command line: solve, compare and simulate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; the program is imported
from ``src/`` of that checkout.  Each repetition runs one fluidq command in
a fresh process (bench/child.py) and its artifacts are checked by
bench/checks.py outside the timed region.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median time from spawning the process to the scenario being
               loaded (interpreter start, numpy/scipy/fluidq imports and
               load_scenario), over set-up-only spawns and every repetition
  wall_s       median time of ``fluidq.cli.main`` after set-up, over the
               repetitions, which run until ``--seconds`` would be exceeded
               (at least MIN_REPS of them)
  peak_rss_mb  median peak resident memory of one command's process
``--trace 1`` runs the command once untraced and once traced (tracer.py)
and reports the per-layer metrics; see bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from child import PROBE_DTS, PROBE_SCENARIO
from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

SETUP_SPAWNS = 3      # set-up-only processes per run, besides each repetition's
MIN_REPS = 3          # wall_s is a median of at least this many repetitions
MAX_REPS = 50
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    command: str
    scenario: str
    n: str | None
    model: checks.Model


WORKLOADS = {
    # nearly all time in the fluid layer: 5000 one-step windows of the march
    "solve_state_dependent": Workload(
        "solve", "scenarios/state_dependent.scn", None, checks.STATE_DEPENDENT),
    # simulation, Prohorov and a constant-rate solve; no state-dependent march
    "compare_underloaded_n1e4": Workload(
        "compare", "scenarios/underloaded_exp.scn", "100,1000,10000", checks.UNDERLOADED_EXP),
    # the event loop with its log and records kept and written out
    "simulate_state_dependent_n1e4": Workload(
        "simulate", "scenarios/state_dependent.scn", "10000", checks.STATE_DEPENDENT),
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def spawn(result_path: Path, child_flags, cli_args) -> dict:
    """Run child.py to completion; return its stamps with the spawn time,
    exit code and peak RSS (MiB) added.  The child is always reaped.
    FLUIDQ_THREADS is dropped, so compare keeps its default fan-out of 1
    and every traced span runs on the main thread."""
    env = dict(os.environ)
    env.pop("FLUIDQ_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "child.py"), "--result", str(result_path),
           *child_flags, "--", *cli_args]
    if result_path.exists():
        result_path.unlink()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - t_spawn > CHILD_TIMEOUT_S:
                raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s: {cmd}")
            time.sleep(0.01)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "exit": proc.returncode}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result.update(ok=result["rc"] in (None, 0), exit=proc.returncode,
                  t_spawn=t_spawn, rss_mb=usage.ru_maxrss / 1024.0)
    return result


def setup_s(r) -> float:
    return r["stamps"]["loaded"] - r["t_spawn"]


def wall_s(r) -> float:
    return r["stamps"]["done"] - r["stamps"]["loaded"]


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.out = OUT / name
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_digests = None
        self.setups = []
        self._fluid = None

    def cli_args(self, out_dir: Path):
        args = [self.w.command, "--scenario", self.w.scenario, "--out", str(out_dir),
                "--seed", str(self.seed), "--quiet"]
        return args + (["--n", self.w.n] if self.w.n else [])

    def prepare(self):
        for rel in ("src/fluidq/cli.py", self.w.scenario, PROBE_SCENARIO):
            if not (ROOT / rel).is_file():
                raise BenchError(f"{rel} is missing; run from a fluidq source checkout")
        checks.verify_scenario(ROOT / self.w.scenario, self.w.model)
        checks.verify_scenario(ROOT / PROBE_SCENARIO, checks.STATE_DEPENDENT)
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        # the first is untimed: it compiles bytecode and fills the page
        # cache, which users do not pay on every run
        for i in range(SETUP_SPAWNS + 1):
            r = spawn(self.out / "setup.json", ["--setup-only"], self.cli_args(self.out / "unused"))
            if not r["ok"]:
                raise BenchError(f"fluidq does not import or load the scenario (exit {r['exit']})")
            if i:
                self.setups.append(r)

    def check(self, out_dir: Path):
        m, seed = self.w.model, self.seed
        if self.w.command == "solve":
            checks.check_solve(m, out_dir)
        elif self.w.command == "compare":
            checks.check_compare(m, out_dir, seed, tuple(int(v) for v in self.w.n.split(",")))
        else:
            if self._fluid is None:
                self._fluid = checks.solve_count_equation(m)
            checks.check_simulate(m, out_dir, seed, int(self.w.n), self._fluid)
        digests = checks.artifact_digests(out_dir)
        if self.first_digests is None:
            self.first_digests = digests
        checks.check_same_artifacts(self.first_digests, digests, str(out_dir))

    def operation(self, tag: str, child_flags=()):
        """One command run plus its checks; returns the child's result, or
        None when the command failed or its artifacts did not pass."""
        out_dir = self.out / tag
        self.attempted += 1
        r = spawn(self.out / f"{tag}.json", list(child_flags), self.cli_args(out_dir))
        if not r["ok"]:
            self.failed += 1
            print(f"{tag}: command failed (exit {r['exit']}, rc {r.get('rc')})", file=sys.stderr)
            return None
        try:
            self.check(out_dir)
        except checks.CheckError as exc:
            self.failed += 1
            self.correct = False
            print(f"{tag}: check failed: {exc}", file=sys.stderr)
            return None
        return r

    def measure(self, seconds: float) -> dict:
        reps = []
        durations = []
        begin = time.monotonic()
        while self.attempted < MAX_REPS:
            elapsed = time.monotonic() - begin
            if self.attempted >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
                break
            t0 = time.monotonic()
            r = self.operation(f"rep{self.attempted}")
            durations.append(time.monotonic() - t0)
            if r is not None:
                reps.append(r)
        if not reps:
            raise BenchError("every repetition failed")
        return {
            "setup_s": (statistics.median(setup_s(r) for r in self.setups + reps), "s"),
            "wall_s": (statistics.median(wall_s(r) for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        }

    def trace(self) -> dict:
        plain = self.operation("untraced")
        spans_path = self.out / "spans.json"
        traced = self.operation("traced", ["--trace", str(spans_path)])
        if plain is None or traced is None:
            raise BenchError("the command failed, traced or not")
        with open(spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        metrics = layer_metrics(spans, "cli.main")
        probe = [layer_metrics(spans, f"probe.dt_{dt!r}")["fluid.count_path_s"][0]
                 for dt in PROBE_DTS]
        starts = [r["stamps"] for r in self.setups + [plain, traced]]
        artifact_bytes = sum(p.stat().st_size for p in (self.out / "traced").iterdir())
        metrics.update({
            "fluid.count_path_dt_halving_ratio": (probe[1] / probe[0], "ratio"),
            "scenario.load_s": (statistics.median(s["loaded"] - s["imported"] for s in starts), "s"),
            "cli.import_s": (statistics.median(s["imported"] - s["start"] for s in starts), "s"),
            "cli.artifact_mb": (artifact_bytes / 2**20, "MB"),
            "trace.overhead_s": (wall_s(traced) - wall_s(plain), "s"),
        })
        return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="handed to fluidq as --seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    run = Run(args.workload, args.seed)
    try:
        run.prepare()
        metrics = run.trace() if args.trace else run.measure(args.seconds)
    except (BenchError, checks.CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
