"""The layer recorder's probes, each run once on this checkout at its
smallest size, in a fresh interpreter as ``tools/record_layers.py`` runs
them: a probe that no longer matches the program's API fails here."""

import math
import sys

import pytest

from conftest import ROOT

sys.path.insert(0, str(ROOT / "tools"))
import record_layers  # noqa: E402


def test_fluid_probe(tmp_path):
    row = record_layers.run_once(ROOT, "fluid", ("state_dependent", 2e-3), tmp_path / "z.npy")
    assert row["march"] == "drain"
    assert (row["windows"], row["picard_iterations"]) == (6827, 15862)
    # the surface is solve's one tail_on_grid call, not one call per row
    assert row["tail_surface_spans"] == 1
    assert min(row[k] for k in ("count_path_s", "defect_s", "tail_surface_s")) > 0.0
    assert (tmp_path / "z.npy").exists()


@pytest.mark.parametrize("scenario, events", [("state_dependent", 16894),
                                              ("underloaded_exp", 6904)])
def test_simulator_probe(tmp_path, scenario, events):
    row = record_layers.run_once(ROOT, "simulator", (scenario, 1000), tmp_path / "unused")
    assert row["events"] == events
    assert len(row["digest"]) == 64
    assert row["run_s"] > 0.0


def test_prohorov_probe(tmp_path):
    row = record_layers.run_once(ROOT, "prohorov", (1000,), tmp_path / "unused")
    assert row["atoms"] == [1000, 200]
    assert math.isfinite(row["distance"]) and 0.0 < row["distance"] < 1.0
