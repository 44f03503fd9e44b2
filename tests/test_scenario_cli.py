import pytest

from fluidq import cli
from fluidq.scenario import (
    Scenario,
    ScenarioError,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

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


class TestParse:
    def test_minimal_defaults(self):
        sc = parse_scenario(MINIMAL)
        assert sc.name == "minimal"
        assert sc.arrival_kind == "exponential"
        assert sc.initial_kind == "empty"
        assert sc.q0 == 0.0
        assert sc.dt == 1e-3
        assert sc.x_max == 10.0 and sc.x_step == 0.05
        assert sc.n_list == (10, 100, 1000)
        assert sc.replications == 3
        assert sc.seed == 12345
        assert sc.snapshot_times == (1.0, 2.5, 5.0)

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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(MINIMAL + "lambda = 0.7\n")

    def test_bad_service_parameters(self):
        with pytest.raises(ScenarioError, match="service"):
            parse_scenario(MINIMAL.replace("exponential rate=1.0", "exponential scale=2"))

    def test_table_rate_parses(self):
        text = MINIMAL.replace(
            "rate = constant value=1.0",
            "rate = table knots=0:1,2:1.5,4:1.5 lipschitz=0.25",
        )
        sc = parse_scenario(text)
        k = sc.build_rate()
        assert float(k(1.0)) == pytest.approx(1.25)
        assert k.bound == 1.5

    def test_snapshot_beyond_horizon_rejected(self):
        with pytest.raises(ScenarioError, match="snapshot"):
            parse_scenario(MINIMAL + "snapshot_times = 1.0,9.0\n")

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


def run_cli(args):
    return cli.main(args)


@pytest.fixture()
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return path


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
        from fluidq.scenario import load_scenario

        sc = load_scenario(tiny_scenario)
        for cmd in ("simulate", "solve", "compare", "gc-check"):
            out = tmp_path / cmd
            assert run_cli([cmd, "--scenario", str(tiny_scenario),
                            "--out", str(out), "--quiet"]) == 0
            for artifact in out.iterdir():
                text = artifact.read_text()
                assert f"# scenario_hash: {scenario_hash(sc)}" in text, artifact.name
                assert "# seed: " in text, artifact.name

    def test_seed_and_n_overrides(self, tmp_path, tiny_scenario):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--scenario", str(tiny_scenario), "--out",
                        str(out), "--seed", "7", "--n", "3", "--quiet"]) == 0
        assert (out / "trajectory_n3_seed7.tsv").exists()
        assert not (out / "trajectory_n5_seed99.tsv").exists()

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
        # exp(k_sup * g_sup * T) overflows a float: the invariant radius is
        # infinite, the window floors at one step and the solve still succeeds
        scn = tmp_path / "steep.scn"
        scn.write_text("name = steep\nlambda = 1.2\n" + laws + "horizon = 3.0\n")
        out = tmp_path / "out"
        code = run_cli(["solve", "--scenario", str(scn), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "solution.tsv").exists()

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

    def test_console_entry_point(self, tmp_path, tiny_scenario):
        import subprocess
        import sys

        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fluidq.cli", "gc-check", "--scenario",
             str(tiny_scenario), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "gc.tsv").exists()
        assert "gc-check n=5" in proc.stdout
