"""One fluidq command in a fresh process, timed from the inside.

    python3 bench/child.py --result R.json [--setup-only] [--trace SPANS.json] -- <fluidq args>

Stamps come from the system-wide monotonic clock, so the parent can take
set-up time as "loaded" minus the moment it spawned this process.  The
command itself runs through ``fluidq.cli.main``, exactly as the console
script does.  With ``--trace`` the public functions listed in tracer.py
are wrapped after set-up, and the count path of PROBE_SCENARIO is then
solved at each of PROBE_DTS (its own dt and half of it), each under a
root span.
"""

import argparse
import json
import time

PROBE_SCENARIO = "scenarios/state_dependent.scn"
PROBE_DTS = (1e-3, 5e-4)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", default=None)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = p.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    stamps = {"start": time.monotonic()}
    import fluidq.cli as cli
    stamps["imported"] = time.monotonic()
    scenario_path = cli_args[cli_args.index("--scenario") + 1]
    cli.load_scenario(scenario_path)
    stamps["loaded"] = time.monotonic()
    result = {"stamps": stamps, "rc": None}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result["rc"] = tracer.span("cli.main", cli.main, cli_args)
        else:
            result["rc"] = cli.main(cli_args)
        stamps["done"] = time.monotonic()
        if tracer is not None:
            import dataclasses

            import fluidq.fluid as fluid

            probe = cli.load_scenario(PROBE_SCENARIO)
            for dt in PROBE_DTS:
                params = dataclasses.replace(probe, dt=dt).fluid_params()
                tracer.span(f"probe.dt_{dt!r}", fluid.solve_count_path, params)
            tracer.dump(args.trace)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
