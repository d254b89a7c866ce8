"""Record a trajectory entry: run.py over many seeds per workload.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/NAME.json
    python3 perfbench/record.py --seeds 1-5 --workloads grid --trace-seeds 0

For each workload it runs ``run.py --trace 0`` once per seed (with
run_seconds from BENCHMARK.json) and reports, per end-to-end metric, the
median and quartiles of the per-run values and their spread, the
interquartile distance as a share of the median. Then it runs ``--trace 1``
for the first ``--trace-seeds`` seeds and reports the per-layer medians.
Runs are sequential: one load-generating process at a time.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[0].removeprefix("provenance "))
    return provenance, json.loads(lines[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace-seeds", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the entry as JSON here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    entry: dict = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            provenance, result = run_once(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} (failed {result['failed']}"
                  f"/{result['attempted']})", flush=True)
        entry["provenance"] = {k: v for k, v in provenance.items()
                               if k not in ("workload", "seed", "trace", "batches")}
        row: dict = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name in results[0]["metrics"]:
            row["end_to_end"][name] = stats([r["metrics"][name]["value"] for r in results])
            s = row["end_to_end"][name]
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload} {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}"
                  f"  q3 {s['q3']:.5g}  spread {s['spread']:.3f} (bound {bounds[name]}){flag}",
                  flush=True)
        layers = [run_once(workload, seed, bench["run_seconds"], 1)[1]
                  for seed in seeds[: args.trace_seeds]]
        if layers:
            row["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in layers)
                for name in layers[0]["metrics"]
            }
            row["per_layer_failed"] = sum(r["failed"] for r in layers)
        entry["workloads"][workload] = row
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
