"""Repeat run.py over seeds and report each metric's median, quartiles and spread.

Run from the repository root:

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --workloads stokes-cube --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --traced-seeds 1-3 --write perfbench/baseline.json

The spread of a metric is (q3 - q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4).  Each end-to-end
metric's spread is compared with its bound from BENCHMARK.json (setup_s
is exempt) and with a third of it, the margin the benchmark aims for.
--write records the machine, each workload's commands and input sizes,
and every metric's median and quartiles in one JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from run import quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return result


def summarize(results):
    """{metric: {median, q1, q3, spread, unit, values}} over a list of run results."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        out[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def workload_record(name: str, seed: int) -> dict:
    scratch = BENCH_DIR / "out" / f"record-{name}"
    scratch.mkdir(parents=True, exist_ok=True)
    commands, sizes = inputs.WORKLOADS[name].build(seed, scratch)
    return {
        "why": inputs.WORKLOADS[name].why,
        "commands": [{"label": c.label, "argv": ["extcalc", *(Path(a).name if "/" in a else a for a in c.argv)]}
                     for c in commands],
        "input_sizes": sizes,
        "input_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(inputs.WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced-seeds", type=seed_list, default=[])
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"machine": machine(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = {}
    for name in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4f}" for k, v in results[-1]["metrics"].items()), flush=True)
        summary = summarize(results)
        print(f"{name}: {len(results)} runs")
        for metric, s in summary.items():
            bound = bounds[metric]
            flag = "" if metric == "setup_s" or s["spread"] < bound / 3 else (
                "  ABOVE bound/3" if s["spread"] <= bound else "  ABOVE BOUND")
            worst[metric] = max(worst.get(metric, 0.0), s["spread"])
            print(f"  {metric:<14} median {s['median']:.4f} {s['unit']:<3} q1 {s['q1']:.4f}"
                  f" q3 {s['q3']:.4f}  spread {s['spread']:.4f} (bound {bound}){flag}")
        entry = workload_record(name, args.seeds[0])
        entry["end_to_end"] = summary
        if args.traced_seeds:
            traced = [run_once(name, seed, seconds, 1) for seed in args.traced_seeds]
            entry["per_layer"] = {k: {x: v[x] for x in ("median", "q1", "q3", "unit")}
                                  for k, v in summarize(traced).items()}
            entry["traced_seeds"] = args.traced_seeds
        record["workloads"][name] = entry
    print("worst spread per metric: " + "  ".join(f"{k}={v:.4f}" for k, v in worst.items()))
    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
