"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sweep_grid,validate --seeds 1-10 --seconds 10 [--out FILE]

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
the bounds in BENCHMARK.json are held against.  With ``--out`` the runs,
medians, spreads, machine and load averages are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = {"machine": run.machine(), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            before, started = run.loadavg(), time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
            elapsed = time.perf_counter() - started
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, "exit": proc.returncode, "elapsed_s": elapsed, "loadavg_before": before,
                         "loadavg_after": run.loadavg(), **result})
            ok = ok and proc.returncode == 0 and result["correct"]
            print(f"{name} seed {seed}: exit {proc.returncode} correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} in {elapsed:.1f} s", flush=True)
        stats = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else None
            stats[metric] = {"median": median, "spread": spread, "unit": runs[0]["metrics"][metric]["unit"]}
            bound = bounds.get(metric)
            flag = "" if bound is None or spread is None or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {metric:36s} median {median:12.6g} spread "
                  + ("   n/a " if spread is None else f"{spread:7.4f}")
                  + (f" bound {bound}" if bound is not None else "") + flag)
        summary["workloads"][name] = {"stats": stats, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
