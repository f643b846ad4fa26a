"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {study,campaign,serve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Every process of the system under test
is a fresh interpreter with ``src`` on ``PYTHONPATH`` and one fixed
``PYTHONHASHSEED``.  With ``--trace 0`` the last line of standard output
holds the end-to-end metrics; with ``--trace 1`` the workload runs once
untraced and once with span wrappers installed (``tracer.py``), and the
last line holds the per-layer metrics, including the tracing overhead
(traced minus untraced ``wall_s``).  A failed output check prints
``"correct": false`` and exits 1.  Every reported time is corrected for
the CPU time the host gave to other tenants meanwhile (``hostprobe.py``);
the raw times are printed beside it.

Workloads (see README.md for why each exists):

- ``study``: the paper end to end at ``repro run``'s defaults on the
  serial executor, once, however long ``--seconds`` is.
- ``campaign``: ``run_campaign`` over the catalog on the process pool
  ``--executor auto`` picks, 1,200 planned sessions of seeded users,
  once, however long ``--seconds`` is.
- ``serve``: ``repro serve --no-recon`` with ingest enabled, driven
  open-loop for ``--seconds`` (``serve_load.py``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostprobe import HostProbe  # noqa: E402
from serve_load import serve_cycle  # noqa: E402
from tracer import PER_LAYER, layer_table, load_spans, summarize  # noqa: E402

HASH_SEED = "0"
#: Extra set-up samples (fresh interpreters) per batch run, half before
#: the job and half after it; ``setup_s`` is the median of these and the
#: workload process's own, each corrected by the host factor.
SETUP_SAMPLES = 10
#: Every run must end within 180 s; children get what is left of this.
RUN_LIMIT_S = 175.0
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The workload could not be run or measured."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def _child(root: Path, work: Path, args: list, env: dict, deadline: float, cpus) -> dict:
    """Run ``child.py ARGS`` on the CPUs ``cpus``, in its own session; the JSON it wrote.

    The child and its pool workers are killed if it is still running at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    out = work / f"child-{time.monotonic_ns()}.json"
    command = [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)]
    proc = subprocess.Popen(
        command,
        cwd=root,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"child {args[:2]} did not finish in time") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise BenchError(f"child {args[:2]} exited with {code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def _source_key(root: Path) -> str:
    """Hash of the sources the ``serve`` inputs are made from."""
    files = [(str(path.relative_to(root)), path) for path in sorted((root / "src").rglob("*.py"))]
    files.append(("perfbench/child.py", HERE / "child.py"))
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _serve_inputs(root: Path, work: Path, env: dict, deadline: float) -> Path:
    """The saved dataset and upload bodies, made once per source tree."""
    inputs = root / ".perfbench" / f"serve-inputs-{_source_key(root)}"
    if not inputs.is_dir():
        staging = work / "serve-inputs"
        staging.mkdir()
        cpus = sorted(os.sched_getaffinity(0))
        _child(root, work, ["prepare-serve", str(staging)], env, deadline, cpus)
        try:
            staging.rename(inputs)
        except OSError:
            if not inputs.is_dir():
                raise
    return inputs


def _corrected(result: dict, probe: HostProbe, job_cpus: tuple, setup_cpus: tuple) -> dict:
    """Times of ``result`` multiplied by the host factor of their CPUs.

    ``wall_s`` and ``cpu_s`` take the factor over the timed phase,
    ``setup_s`` the factor over the set-up; the raw figures stay under
    ``raw``.
    """
    factor = probe.factor(*result["phase"], job_cpus)
    result["raw"] = {key: result[key] for key in ("setup_s", "wall_s", "cpu_s")}
    result["host_share"] = probe.share(*result["phase"], job_cpus)
    result["host_factor"] = factor
    result["wall_s"] *= factor
    result["cpu_s"] *= factor
    result["setup_s"] *= probe.factor(*result["setup_phase"], setup_cpus)
    return result


def run_workload(root: Path, work: Path, args, env: dict) -> dict:
    """Measure one workload: end-to-end, or (``--trace 1``) untraced then traced.

    Single-process parts of the system under test (the study, every
    set-up sample, the server) are pinned to the first CPU this process
    may use, the campaign's pool to all of them and the ``serve``
    generator to the last one, and a :class:`HostProbe` samples the
    CPUs whose times are reported.
    """
    cpus = tuple(sorted(os.sched_getaffinity(0)))
    setup_cpus = cpus[:1]
    if args.workload == "serve":
        inputs = _serve_inputs(root, work, env, args.deadline)
        job_cpus = setup_cpus
        os.sched_setaffinity(0, cpus[-1:])

        def once(trace_dir=None) -> dict:
            return serve_cycle(
                root, work, inputs, args.seed, args.seconds, env, setup_cpus, trace_dir
            )

        extra_setups = 0
    else:
        job_cpus = setup_cpus if args.workload == "study" else cpus
        run = ["run", args.workload, "--seed", str(args.seed)]

        def once(trace_dir=None) -> dict:
            extra = ["--trace-dir", str(trace_dir)] if trace_dir else []
            return _child(root, work, run + extra, env, args.deadline, job_cpus)

        def setup_sample() -> dict:
            return _child(root, work, ["setup", args.workload], env, args.deadline, setup_cpus)

        extra_setups = SETUP_SAMPLES
    with HostProbe(work, job_cpus) as probe:
        if not args.trace:
            # Set-up samples taken before and after the measured job, so
            # they span the run rather than one moment of it.
            before = [setup_sample() for _ in range(extra_setups // 2)]
            result = once()
            after = [setup_sample() for _ in range(extra_setups - extra_setups // 2)]
        else:
            untraced = once()
            trace_dir = work / "spans"
            trace_dir.mkdir()
            result = once(trace_dir)
    _corrected(result, probe, job_cpus, setup_cpus)
    result["probe_mode"] = probe.mode
    if not args.trace:
        result["setup_samples"] = [result["setup_s"]] + [
            sample["setup_s"] * probe.factor(*sample["setup_phase"], setup_cpus)
            for sample in before + after
        ]
        result["setup_s"] = statistics.median(result["setup_samples"])
        return result
    _corrected(untraced, probe, job_cpus, setup_cpus)
    if args.workload != "serve":
        result["layers"] = summarize(load_spans(trace_dir), result["pid"], tuple(result["phase"]))
    result["layers"]["trace.overhead_s"] = result["wall_s"] - untraced["wall_s"]
    result["untraced"] = {key: untraced[key] for key in ("wall_s", "cpu_s")}
    result["checks"]["untraced_run_correct"] = all(untraced["checks"].values())
    return result


def _report(workload: str, args, result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"workload {workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, unit in END_TO_END:
        print(f"  {name:16s} {result[name]:12.4f} {unit}")
    raw = "  ".join(f"{name} {value:.4f}" for name, value in result["raw"].items())
    print(
        f"  host share {result['host_share']:.4f} factor {result['host_factor']:.4f}"
        f" ({result['probe_mode']} probe); raw {raw}"
    )
    if workload == "serve":
        for name, unit in (
            ("read_p50_ms", "ms"),
            ("read_p99_ms", "ms"),
            ("upload_p50_ms", "ms"),
            ("lateness_p99_ms", "ms"),
            ("request_sum_s", "s"),
            ("client_wait_s", "s"),
            ("generator_cpu_s", "s"),
        ):
            print(f"  {name:16s} {result[name]:12.4f} {unit}")
        print(f"  reads done/scheduled {result['reads']}  uploads done/scheduled {result['uploads']}")
        print(f"  server requests by route {result['scraped']}")
        if result["errors"]:
            print(f"  first errors: {result['errors']}")
    else:
        print(f"  job {result['detail']}")
    if "setup_samples" in result:
        samples = " ".join(f"{value:.3f}" for value in result["setup_samples"])
        print(f"  setup samples (s): {samples}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(f"  digest {result['digest']}")
    correct = all(result["checks"].values()) and result["failed"] == 0
    if args.trace:
        layers = result["layers"]
        print(f"  untraced wall_s {result['untraced']['wall_s']:.4f}  cpu_s {result['untraced']['cpu_s']:.4f}")
        print(layer_table(layers))
        classes = layers.get("request_classes")
        if classes:
            total = sum(handle_s for _count, handle_s in classes.values())
            print("request class         count  handler_s  share of handler time")
            for name, (count, handle_s) in sorted(classes.items()):
                print(f"{name:20s} {count:6d} {handle_s:10.3f} {handle_s / total:8.1%}")
        metrics = {
            name: {"value": float(layers[name]), "unit": unit} for name, unit in PER_LAYER
        }
    else:
        metrics = {name: {"value": float(result[name]), "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": bool(correct),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["study", "campaign", "serve"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    # SIGTERM unwinds like an exception, so every process this run
    # started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} has no src/repro; run from the repository root", file=sys.stderr)
        return 2
    # Byte-compile up front so no timed import pays for compilation.
    compileall.compile_dir(str(root / "src"), quiet=1)
    work = root / ".perfbench" / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = _env(root)
    try:
        result = run_workload(root, work, args, env)
    except (BenchError, OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    final = _report(args.workload, args, result)
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
