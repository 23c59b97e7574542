"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10 --seconds 60 [--workload NAME ...]

Runs are interleaved across workloads (seed 1 of every workload, then seed 2,
and so on), so a drift in machine speed spreads over all of them instead of
landing on one. For each metric it prints the median, the quartiles, and the
spread: the distance between the quartiles as a share of the median. An
end-to-end metric's spread is compared with its bound in BENCHMARK.json:
"steady" below a third of it, "within" up to it, "WIDE" beyond it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="default: the workloads in BENCHMARK.json")
    a = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    values: dict = {w: {} for w in workloads}
    for seed in a.seeds:
        for w in workloads:
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(a.seconds),
                 "--trace", str(a.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=200)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(json.dumps({"workload": w, "seed": seed,
                              "correct": result["correct"],
                              "failed": result["failed"],
                              "rounds": record["rounds"],
                              "rounds_cut": record["rounds_cut"],
                              "loadavg": record["environment"]["loadavg"][0],
                              "unscaled": record["unscaled"],
                              "metrics": {n: m["value"] for n, m
                                          in result["metrics"].items()}}),
                  flush=True)
            for n, m in result["metrics"].items():
                values[w].setdefault(n, []).append(m["value"])
    for w in workloads:
        print(f"\n{w} ({len(a.seeds)} seeds)")
        for n, xs in values[w].items():
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(n)
            verdict = "" if bound is None else (
                f"  bound {bound:.2f}: " + ("steady" if spread < bound / 3 else
                                            "within" if spread <= bound else "WIDE"))
            print(f"  {n:34s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}{verdict}")


if __name__ == "__main__":
    main()
