#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--baseline bench/BASELINE.json]

Runs the benchmark command of BENCHMARK.json once per listed workload and
seed, one run at a time, for its `run_seconds`, and prints
for each metric the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the bound in BENCHMARK.json.  With
--baseline the figures are also written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        failed = []
        for seed in args.seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            provenance = next(ln[len("# provenance "):] for ln in lines
                              if ln.startswith("# provenance "))
            ok = ok and proc.returncode == 0 and result["correct"]
            failed.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {"provenance": json.loads(provenance), "seeds": args.seeds,
                            "run_seconds": spec["run_seconds"], "failed_frac": failed,
                            "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            report[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{workload:13s} {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} (bound {bounds[name]})", flush=True)
        print(f"{workload:13s} failed_frac {failed}", flush=True)
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
