import contextlib
import importlib.util
import io
import multiprocessing
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fluidq import cli, harness
from fluidq import fluid as fluid_mod
from fluidq import scenario as scenario_mod
from fluidq.laws import ServiceLaw
from fluidq.scenario import (
    KEYS,
    Scenario,
    ScenarioError,
    check_n_list,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

# Every artifact header carries the scenario hash, so a change to
# serialize_scenario rewrites every artifact; these pin it.
SHIPPED_HASHES = {
    "deterministic_service": "96165d600cec4cff",
    "overloaded_exp": "9731b8dd782448be",
    "queue_start": "e4af3376dce470ce",
    "state_dependent": "3f58f9db97704219",
    "underloaded_exp": "c19c574ccf513b78",
    "warm_start": "87a4cf3130d5515d",
    "zero_arrivals": "58c21f0f5f8a775b",
}

MINIMAL = """
name = minimal
lambda = 0.5
service = exponential rate=1.0
rate = constant value=1.0
horizon = 5.0
"""

TINY = """
name = tiny
lambda = 0.8
service = exponential rate=1.0
rate = constant value=1.0
horizon = 0.5
dt = 0.005
x_max = 6.0
x_step = 0.1
n_list = 5,10
replications = 2
seed = 99
snapshot_times = 0.25,0.5
"""


# Values a fuzzed scenario draws for each key: valid literals first, then
# the kinds of breakage a hand-written file shows.
VALID = {
    "name": ("fuzz", "two words", "a=b"),
    "lambda": ("0.5", "0", "2.0"),
    "service": ("exponential rate=1.0", "lognormal mu=0.0 sigma=0.5",
                "uniform a=0.0 b=2.0", "deterministic value=0.5"),
    "rate": ("constant value=1.0", "capped_linear base=0.5 slope=1.0 cap=2.0",
             "table knots=0:1,2:1.5"),
    "horizon": ("1.0", "3.0", "0.0"),
    "arrival": ("exponential", "deterministic", "uniform"),
    "initial": ("empty", "scaled_tail mass=0.6", "scaled_tail mass=1.0",
                "grid points=0:0.6,1:0.3,2:0"),
    "q0": ("0", "0.5"),
    "dt": ("0.001", "0.01", "0.5"),
    "x_max": ("10.0", "2"),
    "x_step": ("0.05", "0.5"),
    "n_list": ("10,100", "5"),
    "replications": ("3", "1"),
    "seed": ("12345", "7"),
    "snapshot_times": ("0.5", "0.0,1.0", "0.6,3.0"),
}
REQUIRED = ("name", "lambda", "service", "rate", "horizon")
BROKEN = (
    "nan", "inf", "-inf", "1e400", "1e-320", "-1", "-0.5", "", "1 2", "x", "=", "1,,2",
    "exponential", "exponential rate=nan", "exponential rate=1 rate=2",
    "exponential rate=1 stray", "lognormal mu=1e400 sigma=1",
    "lognormal mu=800 sigma=0.5", "bogus value=1",
    "capped_linear base=nan slope=1 cap=2", "capped_linear base=-1 slope=1 cap=2",
    "table knots=0:1,1:nan", "table knots=0:1", "table knots=0;1,1:2",
    "table knots=0:1,1:2 lipschitz=1", "grid points=", "grid points=0:inf",
    "scaled_tail mass=-1", "empty mass=1",
)


@st.composite
def scenario_texts(draw):
    """A valid file with each optional key kept or left to its default,
    then up to three faults: a broken value, a dropped key or a repeat."""
    lines = [(key, draw(st.sampled_from(valid))) for key, valid in VALID.items()
             if key in REQUIRED or draw(st.booleans())]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(("break", "break", "drop", "repeat")))
        if fault == "break":
            lines[i] = (lines[i][0], draw(st.sampled_from(BROKEN)))
        elif fault == "drop" and len(lines) > 1:
            del lines[i]
        elif fault == "repeat":
            lines.append(lines[i])
    lines = draw(st.permutations(lines))
    return "".join(f"{key} = {value}\n" for key, value in lines)


def _with_line(text, line):
    """``text`` with ``line`` as its last line in place of any line for the
    same key, and the number of that line."""
    key = line.split("=", 1)[0].strip()
    kept = [l for l in text.strip().splitlines() if l.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n", len(kept) + 1


BAD_NUMBER_LINES = [
    "service =",
    "horizon = inf",
    "seed = 1e400",
    "replications = nan",
    "lambda = nan",
    "rate = capped_linear base=nan slope=1 cap=2",
    "dt = 1e-320",  # T/dt overflows the step count
    "replications = 2.7",
    "seed = 4.9",
    "seed = -1",
    "replications = 1e9",  # the CLI would build a billion seeds
    "x_step = 1e-9",  # a 1e10-point x-grid
    "x_max = 1e9",
    # a builder's or a check's error names the key it comes from
    "initial = grid points=1:0.5,2:0",
    "service = lognormal mu=0 sigma=-1",
    "q0 = 1.0",  # the empty initial tail leaves no queue
    "n_list = 10,10",
    # a check across keys names the first of its keys that the file gives
    "horizon = 100000",  # 10^8 steps at the default dt
    "initial = grid points=0:1.5,1:0",  # mass 1.5 and the default q0 = 0
    "n_list = 10,1000000000",  # 2.5e9 customers per run at lambda*T = 2.5
    "lambda = 1e7",  # 5e10 customers per run at the default n = 1000
]


class TestParse:
    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.name == "minimal"
        assert sc.arrival == "exponential"
        assert sc.initial == ("empty", ())
        assert sc.q0 == 0.0
        assert sc.dt == 1e-3
        assert sc.x_max == 10.0 and sc.x_step == 0.05
        assert sc.n_list == (10, 100, 1000)
        assert sc.replications == 3
        assert sc.seed == 12345
        assert sc.snapshot_times == (1.0, 2.5, 5.0)

    def test_docstring_lists_the_key_table(self):
        # one schema line per key, in the table's order, with its default text
        listed = re.findall(r"^    (\w+) +(?:required|default ([^;\s]+))", scenario_mod.__doc__, re.M)
        assert listed == [(key, "" if k.default is scenario_mod.REQUIRED
                           else "T/5,T/2,T" if callable(k.default) else k.default)
                          for key, k in KEYS.items()]

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ScenarioError, match="line 3: unknown key 'colour'"):
            parse_scenario("name = x\nlambda = 1\ncolour = blue\n")

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing required key 'rate'"):
            parse_scenario("name = x\nlambda = 1\nservice = exponential rate=1\nhorizon = 1\n")

    def test_negative_lambda_rejected(self):
        with pytest.raises(ScenarioError, match="lambda"):
            parse_scenario(MINIMAL.replace("lambda = 0.5", "lambda = -1"))

    def test_queue_without_full_tail_rejected(self):
        text = MINIMAL + "initial = scaled_tail mass=0.5\nq0 = 1.0\n"
        with pytest.raises(ScenarioError, match="queue must equal"):
            parse_scenario(text)

    def test_queue_with_full_tail_accepted(self):
        text = MINIMAL + "initial = scaled_tail mass=1.0\nq0 = 1.0\n"
        sc = parse_scenario(text)
        assert sc.q0 == 1.0

    def test_one_point_initial_tail_rejected(self):
        # on one grid point the tail's inverse maps every level to 0, so the
        # initial draw of the simulator could find no positive residual
        with pytest.raises(ScenarioError, match="two or more points"):
            parse_scenario(MINIMAL + "initial = grid points=0:0.5\n")
        sc = parse_scenario(MINIMAL + "initial = grid points=0:0\n")
        assert sc.build_initial_tail().total_mass == 0.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(MINIMAL + "lambda = 0.7\n")

    def test_bad_service_parameters(self):
        with pytest.raises(ScenarioError, match="service"):
            parse_scenario(MINIMAL.replace("exponential rate=1.0", "exponential scale=2"))

    def test_table_rate_parses(self):
        text = MINIMAL.replace(
            "rate = constant value=1.0",
            "rate = table knots=0:1,2:1.5,4:1.5",
        )
        sc = parse_scenario(text)
        k = sc.build_rate()
        assert float(k(1.0)) == pytest.approx(1.25)
        assert k.bound == 1.5

    def test_snapshot_beyond_horizon_rejected(self):
        with pytest.raises(ScenarioError, match="snapshot"):
            parse_scenario(MINIMAL + "snapshot_times = 1.0,9.0\n")

    @pytest.mark.parametrize("text, match", [
        # the default snapshot T/5 = 0.6 falls between the grid points 0.5
        # and 1, so the check names the key that gives the grid
        (MINIMAL.replace("horizon = 5.0", "horizon = 3.0") + "dt = 0.5\n", r"^line \d+: dt: "),
        (MINIMAL + "dt = 0.5\nsnapshot_times = 1.0,2.25\n", r"^line \d+: snapshot_times: "),
        # the default dt = 0.001 makes one step on [0, 0.0013], which T/5 misses
        (MINIMAL.replace("horizon = 5.0", "horizon = 0.0013"), r"^line \d+: horizon: "),
    ], ids=["default", "explicit", "default_dt"])
    def test_snapshot_off_time_grid_rejected(self, text, match):
        with pytest.raises(ScenarioError, match=match + ".*not on the dt grid"):
            parse_scenario(text)

    def test_snapshot_on_coarse_time_grid_accepted(self):
        sc = parse_scenario(MINIMAL + "dt = 0.5\nsnapshot_times = 0.5,2.5\n")
        assert sc.time_grid().tolist() == [0.5 * i for i in range(11)]

    def test_one_time_grid_rule(self, scenario_dir):
        # the simulation grid of simulate and compare is the fluid solver's
        for path in sorted(scenario_dir.glob("*.scn")):
            sc = load_scenario(path)
            assert np.array_equal(sc.time_grid(), sc.fluid_params().times), path.stem
        assert parse_scenario(TINY.replace("horizon = 0.5", "horizon = 0.0")
                              .replace("snapshot_times = 0.25,0.5", "snapshot_times = 0.0")
                              ).time_grid().tolist() == [0.0]

    def test_round_trip(self):
        for text in (MINIMAL, TINY):
            sc = parse_scenario(text)
            again = parse_scenario(serialize_scenario(sc))
            assert again == sc
            assert scenario_hash(again) == scenario_hash(sc)

    def test_round_trip_rich_scenario(self):
        text = """
name = rich
lambda = 1.1
arrival = uniform
service = lognormal mu=0.2 sigma=0.7
rate = capped_linear base=0.5 slope=1.0 cap=2.0
initial = grid points=0:0.8,1:0.5,3:0.0
q0 = 0.0
horizon = 2.0
"""
        sc = parse_scenario(text)
        assert parse_scenario(serialize_scenario(sc)) == sc

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(scenario_texts())
    def test_parse_rejects_or_round_trips(self, text):
        try:
            sc = parse_scenario(text)
        except ScenarioError:
            return
        again = parse_scenario(serialize_scenario(sc))
        assert again == sc
        assert scenario_hash(again) == scenario_hash(sc)

    @pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
    def test_shipped_scenario_hash_pinned(self, name, scenario_dir):
        sc = load_scenario(scenario_dir / f"{name}.scn")
        assert scenario_hash(sc) == SHIPPED_HASHES[name]


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return path


def table_oracle(header_lines, names, rows, sep="\t"):
    """The artifact layout written one row at a time."""
    lines = [f"# {line}" for line in header_lines]
    if names:
        lines.append(sep.join(names))
    lines.extend(sep.join(map(repr, row)) for row in rows)
    return "".join(f"{line}\n" for line in lines)


class TestTable:
    """``cli._table`` takes columns; its text must be the per-row oracle's."""

    SPECIAL = [0, -7, 2**70, 0.0, -0.0, 5e-324, 1e16, 1.0 / 3.0, float("nan"), float("inf"),
               float("-inf")]

    @pytest.mark.parametrize("sep", ["\t", ","])
    def test_special_cells(self, sep):
        columns = [self.SPECIAL, self.SPECIAL[::-1], [float(i) for i in range(len(self.SPECIAL))]]
        text = cli._table(["h: 1", "x_grid: 0.0,1.0"], ("a", "b", "c"), columns, sep=sep)
        assert text == table_oracle(["h: 1", "x_grid: 0.0,1.0"], ("a", "b", "c"),
                                    zip(*columns), sep=sep)
        assert "-0.0" in text and "5e-324" in text and "nan" in text

    @pytest.mark.parametrize("header, names, columns", [
        (["h"], ("t", "X"), [[], []]),                # zero rows
        (["h"], ("t",), [[0.5, 1e16, -0.0]]),         # one column
        ([], (), [[1.5], [2]]),                        # no header, no names
        (["h", "g"], (), []),                          # header only
        ([], (), []),                                  # nothing at all
        (["h"], ("a", "b"), [[1.0, 2.0, 3.0], [4]]),   # rows stop at the shortest column
    ])
    def test_shapes(self, header, names, columns):
        assert cli._table(header, names, columns) == table_oracle(header, names, zip(*columns))

    @given(st.lists(st.tuples(st.floats(allow_nan=True), st.integers()), max_size=20),
           st.sampled_from(["\t", ","]))
    @settings(max_examples=50, deadline=None)
    def test_matches_the_row_oracle(self, rows, sep):
        columns = [list(col) for col in zip(*rows)] or [[], []]
        assert cli._table(["h"], ("x", "k"), columns, sep=sep) == \
            table_oracle(["h"], ("x", "k"), rows, sep=sep)


class TestCli:
    def test_solve_zero_scenario_all_zeros(self, tmp_path, scenario_dir):
        out = tmp_path / "out"
        code = run_cli(["solve", "--scenario", str(scenario_dir / "zero_arrivals.scn"),
                        "--out", str(out), "--quiet"])
        assert code == 0
        rows = [l for l in (out / "solution.tsv").read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("t\t")]
        xs = {float(r.split("\t")[1]) for r in rows}
        assert xs == {0.0}

    def test_simulate_horizon_zero(self, tmp_path):
        scn = tmp_path / "h0.scn"
        scn.write_text(TINY.replace("horizon = 0.5", "horizon = 0.0")
                           .replace("snapshot_times = 0.25,0.5", "snapshot_times = 0.0"))
        out = tmp_path / "out"
        code = run_cli(["simulate", "--scenario", str(scn), "--out", str(out),
                        "--n", "5", "--quiet"])
        assert code == 0
        body = (out / "trajectory_n5_seed99.tsv").read_text()
        data = [l for l in body.splitlines() if l and not l.startswith("#")]
        assert data[0].startswith("time\t")
        assert len(data) == 2  # header plus the t = 0 row
        assert data[1].split("\t")[0] == "0.0"

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_fluid_commands_reject_horizon_zero(self, tmp_path, command, monkeypatch, capsys):
        # refused before any solving, with a message that names horizon
        def no_solving(*args, **kwargs):
            raise AssertionError("solved a zero horizon")

        monkeypatch.setattr(cli, "solve", no_solving)
        monkeypatch.setattr(cli, "convergence_experiment", no_solving)
        scn = tmp_path / "h0.scn"
        scn.write_text(TINY.replace("horizon = 0.5", "horizon = 0.0")
                           .replace("snapshot_times = 0.25,0.5", "snapshot_times = 0.0"))
        out = tmp_path / "out"
        code = run_cli([command, "--scenario", str(scn), "--out", str(out), "--quiet"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {command} needs horizon > 0, got 0.0\n")
        assert not out.exists()

    def test_byte_identical_artifacts(self, tmp_path, tiny_scenario):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            for cmd in ("simulate", "solve", "compare", "gc-check"):
                assert run_cli([cmd, "--scenario", str(tiny_scenario),
                                "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_headers_carry_hash_and_seed(self, tmp_path, tiny_scenario):
        sc = load_scenario(tiny_scenario)
        for cmd in ("simulate", "solve", "compare", "gc-check"):
            out = tmp_path / cmd
            assert run_cli([cmd, "--scenario", str(tiny_scenario),
                            "--out", str(out), "--quiet"]) == 0
            for artifact in out.iterdir():
                text = artifact.read_text()
                assert f"# scenario_hash: {scenario_hash(sc)}" in text, artifact.name
                assert "# seed: " in text, artifact.name

    @pytest.mark.parametrize("rate,march,du", [
        ("constant value=1.0", "drain", "0.005"),
        ("capped_linear base=0.0 slope=1.0 cap=2.0", "time", "nan"),
    ], ids=["drain", "time"])
    def test_solve_header_carries_march_diagnostics(self, tmp_path, rate, march, du):
        scn = tmp_path / "march.scn"
        scn.write_text(TINY.replace("rate = constant value=1.0", f"rate = {rate}"))
        out = tmp_path / "out"
        assert run_cli(["solve", "--scenario", str(scn), "--out", str(out), "--quiet"]) == 0
        for name in ("solution.tsv", "tail_surface.tsv"):
            header = [line for line in (out / name).read_text().splitlines() if line.startswith("# ")]
            assert f"# march: {march}" in header and f"# du: {du}" in header
            nodes = next(int(line.split(": ")[1]) for line in header if line.startswith("# nodes: "))
            iterations = next(int(line.split(": ")[1]) for line in header
                              if line.startswith("# iterations: "))
            defect = next(line for line in header if line.startswith("# defect: "))
            assert nodes >= 100 and iterations >= nodes  # 100 time steps
            assert float(defect.split(": ")[1]) <= 1e-6 and "e" in defect

    def test_seed_and_n_overrides(self, tmp_path, tiny_scenario):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--scenario", str(tiny_scenario), "--out",
                        str(out), "--seed", "7", "--n", "3", "--quiet"]) == 0
        assert (out / "trajectory_n3_seed7.tsv").exists()
        assert not (out / "trajectory_n5_seed99.tsv").exists()

    @pytest.mark.parametrize("command", ["simulate", "solve", "compare", "gc-check"])
    def test_negative_seed_override_is_config_error(self, tmp_path, tiny_scenario, command, capsys):
        out = tmp_path / "out"
        assert run_cli([command, "--scenario", str(tiny_scenario), "--out", str(out),
                        "--seed", "-5", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "gc-check"])
    def test_repeated_n_override_is_config_error(self, tmp_path, tiny_scenario, command, capsys):
        out = tmp_path / "out"
        assert run_cli([command, "--scenario", str(tiny_scenario), "--out", str(out),
                        "--n", "10,5,10", "--quiet"]) == 2
        assert capsys.readouterr().err == "error: --n repeats an n, got '10,5,10'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "solve", "compare", "gc-check"])
    def test_n_override_past_the_customer_cap_is_config_error(self, tmp_path, tiny_scenario,
                                                             command, capsys):
        # refused before any run: 10^12 servers would meet 10^12 customers
        out = tmp_path / "out"
        assert run_cli([command, "--scenario", str(tiny_scenario), "--out", str(out),
                        "--n", "5,1000000000000", "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --n 1000000000000 gives about 4e+11 customers per run, "
            "n*(lambda*horizon + X0), more than 5000000")
        assert not out.exists()

    def test_gc_check_draws_held_to_the_customer_cap(self, tmp_path, scenario_dir, capsys):
        # gc-check draws 2*round(2n) + floor(2n) = 6n requirements whatever
        # lambda is, so on zero_arrivals the per-run cap admits any n; the
        # draw count is refused before anything is drawn
        scn = str(scenario_dir / "zero_arrivals.scn")
        out = tmp_path / "out"
        assert run_cli(["gc-check", "--scenario", scn, "--out", str(out),
                        "--n", "1000000000000", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: gc-check at n 1000000000000 draws 6000000000000 service requirements, "
            "more than 5000000\n")
        assert not out.exists()
        assert run_cli(["gc-check", "--scenario", scn, "--out", str(out), "--n", "100000",
                        "--quiet"]) == 0
        assert (out / "gc.tsv").exists()

    def test_gc_check_sizes_every_block_before_the_first_draw(self, tmp_path, scenario_dir,
                                                              capsys, monkeypatch):
        # n = 800000 alone passes the cap; 1000000 draws 6000000 > 5000000,
        # so nothing is drawn for either
        def sample(self, rng, size):
            raise AssertionError("a service requirement was drawn")

        monkeypatch.setattr(ServiceLaw, "sample", sample)
        out = tmp_path / "out"
        assert run_cli(["gc-check", "--scenario", str(scenario_dir / "zero_arrivals.scn"),
                        "--out", str(out), "--n", "800000,1000000", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: gc-check at n 1000000 draws 6000000 service requirements, "
            "more than 5000000\n")
        assert not out.exists()

    def test_customer_cap_is_inclusive(self):
        # lambda*T = 2.5 per server: 2 000 000 servers meet the cap exactly
        assert parse_scenario(MINIMAL + "n_list = 2000000\n").n_list == (2000000,)
        with pytest.raises(ScenarioError, match=r"^line \d+: n_list: 2000001 gives about"):
            parse_scenario(MINIMAL + "n_list = 10,2000001\n")

    def test_shipped_scenarios_admit_n_1e5(self, scenario_dir):
        for path in sorted(scenario_dir.glob("*.scn")):
            sc = load_scenario(path)
            assert check_n_list(sc, (100000,)) == (100000,), path.stem

    def test_non_utf8_scenario_is_config_error(self, tmp_path, capsys):
        scn = tmp_path / "latin1.scn"
        scn.write_bytes(MINIMAL.replace("minimal", "caf\xe9").encode("latin-1"))
        assert run_cli(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out"),
                        "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read scenario: 'utf-8' codec")

    def test_out_that_is_a_file_is_config_error(self, tmp_path, tiny_scenario, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run_cli(["gc-check", "--scenario", str(tiny_scenario), "--out", str(out),
                        "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write --out {out}: ") and err.count("\n") == 1

    def test_failed_write_removes_the_artifacts_written_before(self, tmp_path, tiny_scenario,
                                                               capsys):
        # solution.tsv is written, then tail_surface.tsv cannot be
        out = tmp_path / "out"
        (out / "tail_surface.tsv").mkdir(parents=True)
        assert run_cli(["solve", "--scenario", str(tiny_scenario), "--out", str(out),
                        "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}: ")
        assert [p.name for p in out.iterdir()] == ["tail_surface.tsv"]

    @pytest.mark.parametrize("line", BAD_NUMBER_LINES)
    def test_bad_number_is_config_error_naming_its_line(self, tmp_path, line):
        text, line_no = _with_line(MINIMAL, line)
        key = line.split("=", 1)[0].strip()
        with pytest.raises(ScenarioError, match=f"^line {line_no}: {key}: "):
            parse_scenario(text)
        scn = tmp_path / "bad.scn"
        scn.write_text(text)
        assert run_cli(["solve", "--scenario", str(scn),
                        "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("name = broken\nlambda = -2\n")
        assert run_cli(["solve", "--scenario", str(bad),
                        "--out", str(tmp_path / "out"), "--quiet"]) == 2

    def test_solve_without_density_is_config_error(self, tmp_path, scenario_dir):
        out = tmp_path / "out"
        code = run_cli(["solve", "--scenario",
                        str(scenario_dir / "deterministic_service.scn"),
                        "--out", str(out), "--quiet"])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())

    def test_numeric_failure_exit_code_and_cleanup(self, tmp_path):
        # one-step window with a drain term of slope ~15: the fixed-point
        # map cannot contract, so the solve must abort with exit 3
        scn = tmp_path / "diverge.scn"
        scn.write_text(
            "name = diverge\nlambda = 3.0\nservice = exponential rate=30.0\n"
            "rate = constant value=1.0\nhorizon = 1.0\ndt = 1.0\n"
            "snapshot_times = 1.0\n"
        )
        out = tmp_path / "out"
        code = run_cli(["solve", "--scenario", str(scn), "--out", str(out), "--quiet"])
        assert code == 3
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("laws", [
        "service = exponential rate=50.0\nrate = capped_linear base=0.5 slope=4.0 cap=6.0\n",
        "service = exponential rate=300.0\nrate = constant value=1.0\n",
    ], ids=["capped_linear_rate", "constant_rate"])
    def test_overflowing_growth_bound_solves(self, tmp_path, laws):
        # steep service densities, g_sup * k_sup = 300 in both.  The constant
        # rate keeps its drain march; on the capped-linear rate the t-grid
        # defect rejects the drain path and solve marches in time.  Both succeed
        scn = tmp_path / "steep.scn"
        scn.write_text("name = steep\nlambda = 1.2\n" + laws + "horizon = 3.0\n")
        out = tmp_path / "out"
        code = run_cli(["solve", "--scenario", str(scn), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "solution.tsv").exists()

    def test_overflow_is_numeric_failure(self, tmp_path):
        # the Picard iterate overflows on the single step: exit 3 with the
        # overflow named, no artifacts and no RuntimeWarning on stderr
        scn = tmp_path / "overflow.scn"
        scn.write_text(
            "name = overflow\nlambda = 3.0\nservice = exponential rate=1000000.0\n"
            "rate = constant value=1.0\nhorizon = 1.0\ndt = 1.0\n"
            "snapshot_times = 1.0\n"
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fluidq.cli", "solve", "--scenario", str(scn),
             "--out", str(out), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert not out.exists() or not list(out.iterdir())
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
        assert "overflow" in lines[0]

    @pytest.mark.parametrize("sigma", ["40.0", "1e200", "1e300"])
    def test_overflowing_lognormal_names_sigma(self, tmp_path, scenario_dir, sigma):
        # the lognormal's mean or density constants overflow: exit 2 with
        # the parameters named, before any overflow or warning
        text = (scenario_dir / "state_dependent.scn").read_text()
        scn = tmp_path / "wide.scn"
        scn.write_text(text.replace("sigma=0.5", f"sigma={sigma}"))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")])
        assert code == 2
        assert caught == []
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and "lognormal" in lines[0] and "sigma" in lines[0], lines

    @pytest.mark.parametrize("name, imported", [("underloaded_exp", False), ("state_dependent", True)])
    def test_scipy_imported_only_for_the_lognormal(self, scenario_dir, name, imported):
        code = ("import sys\nfrom fluidq import cli\nfrom fluidq.scenario import load_scenario\n"
                "load_scenario(sys.argv[1])\nprint('scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, str(scenario_dir / f"{name}.scn")],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == str(imported)

    def test_compare_simulation_only(self, tmp_path, scenario_dir):
        out = tmp_path / "out"
        code = run_cli(["compare", "--scenario",
                        str(scenario_dir / "deterministic_service.scn"),
                        "--out", str(out), "--n", "5,10", "--quiet"])
        assert code == 0
        assert "simulation only" in (out / "summary.txt").read_text()

    def test_deterministic_arrivals_run(self, tmp_path):
        scn = tmp_path / "det_arr.scn"
        scn.write_text(TINY.replace("name = tiny", "name = det_arr")
                           .replace("lambda = 0.8", "lambda = 1.0\narrival = deterministic"))
        out = tmp_path / "out"
        assert run_cli(["simulate", "--scenario", str(scn), "--out", str(out),
                        "--n", "4", "--quiet"]) == 0
        # renewal gaps are 1/(lambda*n) = 0.25/n... at n=4 arrivals land every 1/4
        body = (out / "trajectory_n4_seed99.tsv").read_text()
        final = body.strip().splitlines()[-1].split("\t")
        assert final[0] == "0.5"
        assert int(final[1]) >= 1  # two deterministic arrivals happened by then

    def _refused_huge_table(self, tmp_path, capsys, dt, horizon):
        scn = tmp_path / "huge.scn"
        scn.write_text("name = huge\nlambda = 1.2\nservice = lognormal mu=0.0 sigma=0.5\n"
                       f"rate = capped_linear base=0.5 slope=1.0 cap=2.0\nhorizon = {horizon}\n"
                       f"dt = {dt}\nx_max = 1e308\nx_step = 1e304\nsnapshot_times = 0.1\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--scenario", str(scn), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: x_max 1e+308 at x_step 1e+304 and dt {float(dt)!r} needs a tail table of "
            f"more than {fluid_mod.MAX_TABLE_ENTRIES} entries; lower x_max or raise dt\n")

    @pytest.mark.parametrize("dt", ["0.1", "0.0001"])
    def test_oversized_tail_table_refused(self, tmp_path, capsys, dt):
        # the lattice table would span x_max/(k_min*dt) entries; it is
        # refused before it is allocated, with the three keys named
        self._refused_huge_table(tmp_path, capsys, dt, "0.1")

    def test_oversized_tail_table_refused_before_the_defect(self, tmp_path, capsys, monkeypatch):
        # the count path's drain sizes the table, so the O(N^2) defect never runs
        def defect(params, count):
            raise AssertionError("the defect ran before the refusal")

        monkeypatch.setattr(fluid_mod, "fixed_point_defect", defect)
        self._refused_huge_table(tmp_path, capsys, "0.001", "1.0")

    def test_console_entry_point(self, tmp_path, tiny_scenario):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fluidq.cli", "gc-check", "--scenario",
             str(tiny_scenario), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "gc.tsv").exists()
        assert "gc-check n=5" in proc.stdout


class TestWorkers:
    """simulate and compare run their (n, seed) jobs, and solve its defect
    blocks and surface rows, on one forked worker per CPU; nothing a run
    writes or prints may depend on that count."""

    @pytest.fixture()
    def coarse_state_dependent(self, tmp_path, scenario_dir):
        # the shipped scenario at a coarser dt, to keep the solves short
        text = (scenario_dir / "state_dependent.scn").read_text()
        scn = tmp_path / "state_dependent.scn"
        scn.write_text(text.replace("dt = 0.001", "dt = 0.005"))
        assert load_scenario(scn).replications >= 3
        return scn

    def _main(self, monkeypatch, cpus, args):
        """(exit code, stdout, stderr) of cli.main with ``cpus`` CPUs; no
        worker outlives it."""
        monkeypatch.setattr(fluid_mod, "_cpus", lambda: cpus)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        assert multiprocessing.active_children() == []
        return code, out.getvalue(), err.getvalue()

    def test_same_output_for_any_cpu_count(self, tmp_path, monkeypatch, coarse_state_dependent):
        seen = {}
        for cpus in (1, 2, 3):
            for command in ("simulate", "compare", "solve"):
                out = tmp_path / f"{command}_{cpus}"
                code, stdout, stderr = self._main(monkeypatch, cpus, [
                    command, "--scenario", str(coarse_state_dependent), "--out", str(out),
                    "--n", "10,30,20"])
                assert (code, stderr) == (0, "")
                files = {p.name: p.read_bytes() for p in out.iterdir()}
                seen.setdefault(command, []).append((stdout, files))
        assert len(seen["simulate"][0][1]) == 2 * 3 * 5 and seen["simulate"][0][0].count("\n") == 15
        assert sorted(seen["solve"][0][1]) == ["solution.tsv", "tail_surface.tsv"]
        for command, runs in seen.items():
            assert runs[1:] == runs[:1] * 2, command

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_first_failing_key_decides_across_workers(self, tmp_path, monkeypatch, command,
                                                      coarse_state_dependent):
        # (30, seed+2) fails before (100, seed) in key order, while the
        # largest n is handed out first: the exit and message are the
        # serial loop's, and nothing is left behind
        seed = load_scenario(coarse_state_dependent).seed
        run_once = cli.run_scenario_once

        def failing(scenario, n, s, *args, **kwargs):
            if (n, s) == (30, seed + 2):
                raise FloatingPointError("first key")
            if (n, s) == (100, seed):
                raise ValueError("later key")
            return run_once(scenario, n, s, *args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario_once", failing)
        monkeypatch.setattr(harness, "run_scenario_once", failing)
        results = []
        for cpus in (1, 2, 3):
            out = tmp_path / f"out{cpus}"
            results.append(self._main(monkeypatch, cpus, [
                command, "--scenario", str(coarse_state_dependent), "--out", str(out),
                "--n", "30,100", "--quiet"]))
            assert not out.exists() or not list(out.iterdir())
        assert results == [(3, "", "numeric failure: first key\n")] * 3

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_worker_errors_keep_their_exit_codes(self, tmp_path, monkeypatch, command,
                                                 coarse_state_dependent):
        # a worker runs under cli.main's numpy error state: an overflow
        # there raises and exits 3; a ValueError there exits 2
        def overflowing(*args, **kwargs):
            return np.exp(np.float64(1000.0))

        def invalid(*args, **kwargs):
            raise ValueError("bad job")

        for job, expected in ((overflowing, (3, "numeric failure: overflow encountered in exp\n")),
                              (invalid, (2, "error: bad job\n"))):
            monkeypatch.setattr(cli, "run_scenario_once", job)
            monkeypatch.setattr(harness, "run_scenario_once", job)
            out = tmp_path / job.__name__
            code, _, stderr = self._main(monkeypatch, 2, [
                command, "--scenario", str(coarse_state_dependent), "--out", str(out),
                "--n", "10,20", "--quiet"])
            assert (code, stderr) == expected
            assert not out.exists() or not list(out.iterdir())


# Laws, rates and initial conditions a CLI run draws, a few values each.
CLI_SERVICES = ("exponential rate=1.0", "exponential rate=40.0", "lognormal mu=0.0 sigma=0.5",
                "lognormal mu=-1.0 sigma=1.5", "uniform a=0.5 b=1.5", "deterministic value=0.7")
CLI_RATES = ("constant value=1.0", "constant value=0.0", "capped_linear base=0.5 slope=1.0 cap=2.0",
             "capped_linear base=0.0 slope=2.0 cap=1.0", "table knots=0:1,1:0.5,2:1.5",
             "table knots=0:0,1:2")
CLI_INITIALS = ("empty", "scaled_tail mass=0.6", "scaled_tail mass=1.0",
                "grid points=0:0.6,1:0.3,2:0", "grid points=0:0.6")


@st.composite
def cli_runs(draw):
    """A command and a small scenario drawn from every service, rate and
    initial kind, with its own dt, horizon, lambda and q0."""
    horizon = draw(st.sampled_from(("0.0", "0.5", "1.0", "2.0")))
    text = "".join(f"{key} = {value}\n" for key, value in (
        ("name", "cli_fuzz"),
        ("lambda", draw(st.sampled_from(("0", "0.6", "1.5")))),
        ("arrival", draw(st.sampled_from(("exponential", "deterministic", "uniform")))),
        ("service", draw(st.sampled_from(CLI_SERVICES))),
        ("rate", draw(st.sampled_from(CLI_RATES))),
        ("initial", draw(st.sampled_from(CLI_INITIALS))),
        ("q0", draw(st.sampled_from(("0", "0.4")))),
        ("horizon", horizon),
        ("dt", draw(st.sampled_from(("0.01", "0.05", "0.25", "0.3")))),
        ("x_max", "3.0"),
        ("x_step", "0.25"),
        ("n_list", draw(st.sampled_from(("1", "3,5")))),
        ("replications", "1"),
        ("seed", "5"),
        ("snapshot_times", horizon),
    ))
    return draw(st.sampled_from(("simulate", "solve", "compare", "gc-check"))), text


def _artifacts(command, scenario):
    """The files a successful run of ``command`` writes."""
    if command == "simulate":
        return {f"{kind}_n{n}_seed{scenario.seed}.{ext}" for n in scenario.n_list
                for kind, ext in (("trajectory", "tsv"), ("snapshots", "txt"))}
    return {"solve": {"solution.tsv", "tail_surface.tsv"},
            "compare": {"report.tsv", "summary.txt"}, "gc-check": {"gc.tsv"}}[command]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_runs())
def test_cli_exits_with_a_documented_code(run):
    # every run ends in exit 0 with all of its artifacts, or in exit 2 or 3
    # with a one-line cause on stderr and no artifacts; never in a traceback
    command, text = run
    with tempfile.TemporaryDirectory() as tmp:
        scn, out = Path(tmp) / "fuzz.scn", Path(tmp) / "out"
        scn.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--scenario", str(scn), "--out", str(out), "--quiet"])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 0:
            assert set(written) == _artifacts(command, load_scenario(scn)), text
            assert all((out / name).read_text().endswith("\n") for name in written)
        else:
            assert code in (2, 3), text
            assert written == [], text
            assert err.getvalue().startswith(("error: ", "numeric failure: ")), err.getvalue()


def test_benchmark_trace_points_resolve():
    # bench/tracer.py wraps these module attributes for --trace 1; a name
    # that no longer exists there would silently drop its per-layer metric
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [pair for attrs, _ in tracer.TRACED.values() for pair in attrs]
    assert len(pairs) >= 10
    for module, attr in pairs:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
