"""Check that the end-to-end metrics are steady across runs and across sets.

    python3 bench/spread.py

Runs ``run.py --trace 0`` on every workload with seeds ``SEEDS``, each run in
its own process for the ``run_seconds`` of ``BENCHMARK.json``: all workloads
once (set 1), then all again (set 2). For each set, workload and metric it
records the values, their median and their spread, (Q3 - Q1) / median with
the quartiles of ``statistics.quantiles(values, n=4)``, and the spread of
the unscaled times (see ``timing.py``); and for each metric
the change of the median from set 1 to set 2, signed so that positive is
worse. It exits with 1 when a run fails, when a spread other than that of
``setup_s`` exceeds the metric's bound, or when a median gets worse by more
than the bound. The report goes to ``results/spread-check.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from collections import defaultdict

import record
import workloads as wl

SEEDS = range(101, 111)
SETS = 2


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> None:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    values = {name: [{m: [] for m in bounds} for _ in range(SETS)] for name in wl.WORKLOADS}
    unscaled = {name: [defaultdict(list) for _ in range(SETS)] for name in wl.WORKLOADS}
    ok = True
    for s in range(SETS):
        for name in wl.WORKLOADS:
            for seed in SEEDS:
                out = record.run(name, seed, seconds, 0)
                res = out["result"]
                if not res["correct"] or out["exit_code"]:
                    print(f"set {s + 1} {name} seed {seed}: failed {out['detail']['failures']}")
                    ok = False
                for m, v in res["metrics"].items():
                    values[name][s][m].append(v["value"])
                for m, v in out["detail"]["unscaled"].items():
                    unscaled[name][s][m].append(v)
                shown = " ".join(f"{m}={v['value']:.6g}" for m, v in res["metrics"].items())
                print(f"set {s + 1} {name} seed {seed}: {shown}", flush=True)

    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": list(SEEDS),
        "seconds": seconds,
        "bounds": bounds,
        "workloads": {},
    }
    for name, sets in values.items():
        entry = {}
        for s, per_metric in enumerate(sets):
            entry[f"set_{s + 1}"] = {
                m: {"median": statistics.median(v), "spread": spread(v), "values": v}
                for m, v in per_metric.items()
            }
            entry[f"set_{s + 1}"]["unscaled_spread"] = {m: spread(v) for m, v in unscaled[name][s].items()}
        change = {}
        for m in bounds:
            first, last = entry["set_1"][m]["median"], entry[f"set_{SETS}"][m]["median"]
            c = last / first - 1
            change[m] = c if better[m] == "lower" else -c
            spreads = [entry[f"set_{s + 1}"][m]["spread"] for s in range(SETS)]
            if change[m] > bounds[m] or (m != "setup_s" and max(spreads) > bounds[m]):
                ok = False
            print(f"{name:10} {m:12} spreads {' '.join(f'{x:.3f}' for x in spreads)} "
                  f"median change {change[m]:+.3f} bound {bounds[m]}")
        entry["median_change"] = change
        report["workloads"][name] = entry
    report["within_bounds"] = ok
    with open(wl.BENCH_DIR / "results" / "spread-check.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
