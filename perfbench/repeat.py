#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarize each metric.

For every workload, runs ``run.py`` once per seed, one run at a time, and
reports each metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread (interquartile distance over the median).  From the root of a
checkout::

    python3 perfbench/repeat.py --seeds 1-10 --out summary.json
    python3 perfbench/repeat.py --workload detect-trace --seeds 1-5 --trace 1

The summary records the machine of the first run; summaries from different
machines must never be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    parser.add_argument("--seeds", required=True, help="a range such as 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))

    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    for workload in args.workload or run.WORKLOADS:
        metrics: dict = {}
        failed = attempted = 0
        for seed in seeds:
            details, result = one_run(workload, seed, args.seconds, args.trace)
            summary.setdefault("machine", details["machine"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"], "values": []})
                metrics[name]["values"].append(metric["value"])
            print(workload, seed, result["correct"],
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                           if not k.endswith(".calls")),
                  file=sys.stderr, flush=True)
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "metrics": {name: dict(summarize(m["values"]), unit=m["unit"])
                        for name, m in metrics.items()},
        }
        for name, m in summary["workloads"][workload]["metrics"].items():
            if "spread" in m:
                print(f"  {workload} {name}: median {m['median']:.4g} {m['unit']}, "
                      f"spread {m['spread']:.3f}", file=sys.stderr)
    text = json.dumps(summary, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
