"""Steadiness: run each workload N times and compare each metric's spread with its bound.

    python3 perfbench/steady.py --runs 10 --first-seed 1
    python3 perfbench/steady.py --runs 5 --workloads cached_zipf --seconds 10

For each end-to-end metric of ``BENCHMARK.json`` it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the
spread (third minus first quartile, as a share of the median) and that
spread as a share of the metric's bound.  Each run gets its own seed.
``--out FILE`` keeps every run's values, so that two sets can be compared
with ``--against FILE``: the second median's change against the first,
as a share of the bound, and whether the failed share matches.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", help="write every run's values here (JSON)")
    parser.add_argument("--against", help="an earlier --out file to compare with")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    collected: dict = {}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, args.seconds)
                for i in range(args.runs)]
        collected[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {args.runs} runs, all correct: "
              f"{all(r['correct'] for r in runs)}, failed shares: {sorted(shares)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            median, q1, q3 = summary(values)
            spread = (q3 - q1) / median
            if metric != "setup_s":
                worst = max(worst, spread / bound)
            line = (f"  {metric:24s} median {median:10.4f}  q1 {q1:10.4f}  "
                    f"q3 {q3:10.4f}  spread {spread:6.1%}  "
                    f"= {spread / bound:4.2f} of bound {bound}")
            if workload in earlier:
                before = summary([r["metrics"][metric]["value"]
                                  for r in earlier[workload]])[0]
                better = next(m["better"] for m in spec["end_to_end"]
                              if m["name"] == metric)
                change = (median - before) / before
                worse = change if better == "lower" else -change
                line += f"  vs earlier median {change:+6.1%} (worse by {worse / bound:+.2f} of bound)"
            print(line)
        if workload in earlier:
            old = {r["failed"] / r["attempted"] for r in earlier[workload]}
            print(f"  failed share equal to earlier set: {old == shares}")
    print(f"largest spread (setup_s aside): {worst:.2f} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(collected))
    return 0


if __name__ == "__main__":
    sys.exit(main())
