"""Run every workload, end to end and traced, and record one result file.

    python3 bench/record.py [--out bench/results/NAME.json]

Each workload runs in its own process (``run.py``), once with ``--trace 0``
and once with ``--trace 1``, so memory peaks do not add up; each run uses
seed ``SEED`` and the ``run_seconds`` of ``BENCHMARK.json``. The table printed
here names every metric with its unit; the file also keeps the interpreter
version, ``nproc`` and the verdict counts of each workload, so that a faster
but wrong change shows in the record itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import workloads as wl

SEED = 1


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(wl.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=wl.ROOT)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"error: {' '.join(argv[1:])} printed no result:\n{proc.stderr}")
    return {"exit_code": proc.returncode, "result": json.loads(lines[-1]),
            "detail": json.loads(lines[-2])["detail"]}


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=wl.ROOT)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(wl.BENCH_DIR / "results" / "latest.json"))
    args = parser.parse_args()
    seconds = json.loads((wl.ROOT / "BENCHMARK.json").read_text("utf-8"))["run_seconds"]

    record = {
        "package_commit": commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for name in wl.WORKLOADS:
        plain = run(name, SEED, seconds, 0)
        traced = run(name, SEED, seconds, 1)
        record["workloads"][name] = {"end_to_end": plain, "per_layer": traced}
        print(f"== {name}: {plain['detail']['sizes']}")
        for part in (plain, traced):
            for metric, m in part["result"]["metrics"].items():
                print(f"  {metric:26} {m['value']:14.6g} {m['unit']}")
            d = part["detail"]
            print(f"  {'error_rate':26} {d['error_rate']:14.6g} "
                  f"({part['result']['failed']}/{part['result']['attempted']} commands)")
        print(f"  verdicts {plain['detail']['verdicts']}")
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    ok = all(p["result"]["correct"] for w in record["workloads"].values() for p in w.values())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
