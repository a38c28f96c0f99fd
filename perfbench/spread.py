"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cycle-sweep --seeds 1-10 [--record FILE]

Each run is a separate ``run.py`` process, one at a time, measuring for
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric this
prints the median of the runs and the distance between the first and
third quartile as a share of the median, beside the metric's bound from
``BENCHMARK.json``.  ``--trace-seed`` adds one
traced run.  ``--record`` merges the runs, the summary and the emitted
table hashes into a JSON file, per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"tables"') or line.startswith('{"env"'):
            out.update(json.loads(line))
    return out


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a-b range, inclusive")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--record", type=Path)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = {}
    for seed in range(lo, hi + 1):
        r = run_once(args.workload, seed, seconds, 0)
        runs[seed] = r
        print(f"seed {seed}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        med, share = spread([r["metrics"][m["name"]]["value"] for r in runs.values()])
        summary[m["name"]] = {"median": med, "iqr_share": share, "bound": m["bound"]}
        print(f"{m['name']}: median {med:.6g} {m['unit']}, IQR/median {share:.4f} "
              f"(bound {m['bound']}, bound/3 {m['bound'] / 3:.4f})")

    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        entry = {"seconds": seconds, "env": runs[lo]["env"], "summary": summary,
                 "runs": {str(s): {k: r[k] for k in ("correct", "attempted", "failed", "metrics",
                                                       "tables")}
                          for s, r in runs.items()}}
        if args.trace_seed is not None:
            t = run_once(args.workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "metrics": {k: v["value"] for k, v in t["metrics"].items()}}
        record[args.workload] = entry
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
