"""Workload process of the benchmark: one fresh interpreter, one thread.

    python3 worker.py PLAN MODE [SECONDS TRACE]

PLAN is a JSON file written by run.py; the worker runs in its directory and
calls ``netentropy.cli.main`` in-process with the plan's argument lists.  It
first runs the plan's ``first`` call and notes the monotonic clock, so the
parent can time set-up from interpreter start.  MODE ``setup`` stops there.
MODE ``measure`` then runs one traced warm-up round and timed rounds for
SECONDS seconds: all untraced with TRACE 0, alternately untraced and traced
with TRACE 1.  The last line of standard output is one JSON object.
"""

import json
import os
import sys
import time
import traceback


def _run_call(cli, argv, tracer=None):
    """Exit code of one CLI call; an exception counts as a failed call."""
    try:
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli", cli.main, argv)
    except (Exception, SystemExit):  # the gate counts it; the round goes on
        traceback.print_exc()
        return "raised"


def main(argv):
    plan_path, mode = argv[0], argv[1]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(plan_path)))
    from netentropy import cli

    first_rc = _run_call(cli, plan["first"]["argv"])
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready, "first_rc": first_rc}))
        return 0

    import resource

    import spans
    import workloads
    from netentropy import channel, entropy, geometry, quadrature, simulator
    modules = (cli, channel, entropy, geometry, quadrature, simulator)
    seconds, trace = float(argv[2]), argv[3] == "1"
    calls = plan["calls"]

    def run_round(traced):
        tracer = spans.Tracer() if traced else None
        if tracer is not None:
            tracer.install(*modules)
        t0 = time.perf_counter()
        rcs = [_run_call(cli, call["argv"], tracer) for call in calls]
        wall = time.perf_counter() - t0
        record = {"wall": wall, "traced": traced, "rcs": rcs}
        if tracer is not None:
            tracer.uninstall()
            record["layers"] = tracer.metrics(wall)
            record["unhooked"] = tracer.unhooked
        record["digests"] = [[workloads.file_digest(name) if os.path.isfile(name)
                              else None for name in call["outputs"]]
                             for call in calls]
        return record

    warmup = run_round(traced=True)
    rounds = []
    start = time.perf_counter()
    # at least three untraced rounds, and as many traced ones when tracing
    while (len(rounds) < (6 if trace else 3)
           or time.perf_counter() - start < seconds):
        rounds.append(run_round(traced=trace and len(rounds) % 2 == 1))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "first_rc": first_rc, "warmup": warmup,
                      "rounds": rounds, "peak_rss_mb": peak_rss_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
