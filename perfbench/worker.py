"""The timed loop of one workload, run in a process of its own.

    PYTHONPATH=src python3 perfbench/worker.py --workload verify --seed 1 --seconds 10 --trace 0

Operations run one at a time (a closed loop, one client) in this single
process, which ``run.py`` keeps on one CPU.  Each operation's output is captured; its latency
is taken around the ``run_cli`` call alone, less the time of the
host-speed probes of ``hostspeed.py`` made during it.  Whole rounds run
for about ``--seconds``: as many as fit, and at least one.  The last line
of standard output is a JSON object with every operation's (round index,
latency, exit code, stdout, stderr), every operation's mean probe time
and this process's peak resident set.  With ``--trace 1`` the layer
modules are wrapped first and the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time

import hostspeed
from workloads import round_ops


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from soliton_lab import cli

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    sampler = hostspeed.Sampler(during=not args.trace)
    ops = round_ops(args.workload, args.seed)
    records = []
    probes = []
    rounds = 0
    start = time.perf_counter()
    elapsed = 0.0
    # Whole rounds only; stop before the round that would overrun, judged
    # by the mean round so far.  The first round always runs.
    while rounds == 0 or elapsed * (rounds + 1) / rounds <= args.seconds:
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = len(records)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, latency, probe_s = sampler.time_call(lambda: cli.run_cli(list(op.argv)))
            records.append([index, latency, code, out.getvalue(), err.getvalue()])
            probes.append(probe_s)
        rounds += 1
        elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"latencies": [r[1] for r in records], "spans": recorder.spans}, handle)
    print(json.dumps({"ops": records, "probes": probes, "peak_rss_mb": peak_rss_mb}))


if __name__ == "__main__":
    main()
