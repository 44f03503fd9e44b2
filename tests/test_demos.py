"""Each demo in ``demos/`` runs to exit 0 in a fresh interpreter with the
checkout's ``src/`` on the path: a demo that no longer matches the
package's API fails here."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would leave nothing to run


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
