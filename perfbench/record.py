"""Steadiness record: many seeded runs per workload, summarized.

    python3 perfbench/record.py [--no-trace] [--out perfbench/RECORD] [--compare OLD.json]

Run from the repository root.  For each workload of ``BENCHMARK.json`` it
runs ``run.py`` once per seed 1..10 with ``--trace 0`` and reports, per end-to-end metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median -- the spread the bounds in
``BENCHMARK.json`` are judged against.  Unless ``--no-trace``, one traced
run per workload (seed 1) adds the per-layer table.  Writes
``OUT.json`` and ``OUT.md`` with the host fingerprint (``nproc``, CPU
model, Python version), so later runs compare against numbers measured
on a named host.  ``--compare OLD.json`` adds, per metric, how far this
set's median moved from that earlier record's (positive = worse).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))


def host_fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """``(stdout lines, final JSON)`` of one ``run.py`` invocation."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return lines, json.loads(lines[-1])


def host_line(lines: list) -> dict:
    """The host share and the raw (uncorrected) times a run printed."""
    line = next(line for line in lines if line.strip().startswith("host share"))
    words = line.split()
    raw = line.split("raw", 1)[1].split()
    return {
        "share": float(words[2]),
        "factor": float(words[4]),
        "raw": {raw[i]: float(raw[i + 1]) for i in range(0, len(raw), 2)},
    }


def spread(values: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", default=str(HERE / "RECORD"))
    parser.add_argument("--compare")
    args = parser.parse_args(argv)
    baseline = json.loads(Path(args.compare).read_text()) if args.compare else None

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    record = {
        "host": host_fingerprint(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "started": time.strftime("%Y-%m-%d %H:%M:%S"),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            began = time.perf_counter()
            lines, final = run_once(workload, seed, seconds, 0)
            final["run_s"] = time.perf_counter() - began
            final["host"] = host_line(lines)
            runs.append(final)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in final["metrics"].items())
            print(f"{workload} seed {seed}: {values} ({final['run_s']:.0f}s)", flush=True)
        entry = {
            "metrics": {
                metric["name"]: spread([run["metrics"][metric["name"]]["value"] for run in runs])
                for metric in bench["end_to_end"]
            },
            "raw": {
                name: spread([run["host"]["raw"][name] for run in runs])
                for name in runs[0]["host"]["raw"]
            },
            "host_share": spread([run["host"]["share"] for run in runs]),
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "correct": all(run["correct"] for run in runs),
            "run_s": spread([run["run_s"] for run in runs]),
        }
        for name, stats in entry["metrics"].items():
            print(f"  {workload} {name}: median {stats['median']:.4f} spread {stats['spread']:.4f}", flush=True)
        if not args.no_trace:
            began = time.perf_counter()
            lines, _final = run_once(workload, SEEDS[0], seconds, 1)
            entry["traced"] = {"seed": SEEDS[0], "output": lines[:-1], "run_s": time.perf_counter() - began}
        record["workloads"][workload] = entry

    if baseline is not None:
        record["compared_with"] = baseline["started"]
        for workload, entry in record["workloads"].items():
            old = baseline["workloads"].get(workload, {}).get("metrics", {})
            for name, stats in entry["metrics"].items():
                if name in old:
                    stats["shift"] = stats["median"] / old[name]["median"] - 1.0
    out = Path(args.out)
    out.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    out.with_suffix(".md").write_text(render(record, bench))
    return 0


def render(record: dict, bench: dict) -> str:
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    host = record["host"]
    lines = [
        "# Benchmark steadiness record",
        "",
        f"Host: {host['nproc']} CPUs, {host['cpu_model']}, Python {host['python']} ({host['platform']}).",
        f"Started {record['started']}; `--seconds {record['run_seconds']}`; seeds {record['seeds'][0]}..{record['seeds'][-1]}, one run each, `--trace 0`.",
        "Spread = (Q3 - Q1) / median over the runs, with `statistics.quantiles(values, n=4)`.",
        "",
    ]
    if "compared_with" in record:
        lines += [
            f"Shift = this median / the median of the record started {record['compared_with']} - 1.",
            "",
        ]
    lines += [
        "Raw spread = the same for the times before the host correction (`hostprobe.py`).",
        "",
        "| workload | metric | median | Q1 | Q3 | spread | raw spread | shift | bound |",
        "|---|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for workload, entry in record["workloads"].items():
        for name, stats in entry["metrics"].items():
            shift = f"{stats['shift']:+.4f}" if "shift" in stats else "-"
            raw = f"{entry['raw'][name]['spread']:.4f}" if name in entry["raw"] else "-"
            lines.append(
                f"| {workload} | {name} | {stats['median']:.4f} | {stats['q1']:.4f} | "
                f"{stats['q3']:.4f} | {stats['spread']:.4f} | {raw} | {shift} | {bounds[name]} |"
            )
    lines += ["", "Host share of the timed phase over the runs (1 = the host shared nothing):", ""]
    for workload, entry in record["workloads"].items():
        share = entry["host_share"]
        lines.append(
            f"- {workload}: median {share['median']:.3f}, range "
            f"{min(share['values']):.3f}-{max(share['values']):.3f}"
        )
    lines += ["", "Operations attempted / failed per run:", ""]
    for workload, entry in record["workloads"].items():
        lines.append(
            f"- {workload}: attempted {entry['attempted']}, failed {entry['failed']}, "
            f"all checks passed: {entry['correct']}; run time median {entry['run_s']['median']:.1f} s"
        )
    for workload, entry in record["workloads"].items():
        traced = entry.get("traced")
        if not traced:
            continue
        lines += ["", f"## Traced run: {workload} (seed {traced['seed']})", "", "```"]
        lines += traced["output"]
        lines += ["```"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
