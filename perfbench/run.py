"""soliton-lab benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
time is scaled to the reference host speed by the probe of ``hostspeed.py``;
the unscaled figures go to standard error.  See README.md in this directory
for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS, delivered_cells, round_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


def _environment() -> dict[str, str]:
    """One thread: no package thread pool and no threaded BLAS."""
    env = dict(os.environ)
    env.pop("SOLITON_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Fixed string hashing, so dict layouts do not change from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str]) -> tuple[float, float]:
    """Median time of a fresh interpreter until ``import soliton_lab`` returns,
    at the reference host speed and as measured."""
    scaled, raw = [], []
    before = hostspeed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import soliton_lab"], env=env, check=True)
        raw.append(time.perf_counter() - t0)
        after = hostspeed.probe()
        scaled.append(hostspeed.scaled(raw[-1], (before + after) / 2.0))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "soliton_lab" / "__init__.py").is_file():
        print(f"error: no soliton_lab package under {SRC}", file=sys.stderr)
        return 2

    env = _environment()
    hostspeed.pin_to_one_cpu()
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(env)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spans", str(spans_path)],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if worker.returncode != 0:
        print(worker.stderr, file=sys.stderr)
        print(f"error: workload process exited {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.splitlines()[-1])

    sys.path.insert(0, str(SRC))
    import checks
    import reference
    import tracing

    ref = reference.load()
    ops = round_ops(args.workload, args.seed)
    records = result["ops"]
    problems = []
    for index, _, code, out, err in records:
        problems += checks.check_op(ops[index], code, out, err, ref)
    problems += checks.check_profiles(delivered_cells(args.workload), ref)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        layer = tracing.layer_metrics(spans, len(records))
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        probes = result["probes"]
        raw = [r[1] for r in records]
        scaled = [hostspeed.scaled(t, p) for t, p in zip(raw, probes)]
        rounds = len(records) // len(ops)
        cells = rounds * sum(op.cells for op in ops)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cells_per_s": {"value": cells / sum(scaled), "unit": "cells/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"unscaled: setup_s {setup_raw_s:.4f}, cells_per_s {cells / sum(raw):.4f}, "
              f"op_p50_ms {1e3 * statistics.median(raw):.2f}, "
              f"probe median {1e3 * statistics.median(probes):.3f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[2] != 0),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
