"""The system-under-test process for the ``study`` and ``campaign`` workloads.

``run.py`` starts this script in a fresh interpreter (``src`` on
``PYTHONPATH``, one fixed ``PYTHONHASHSEED``) and reads one JSON object
from the file named by ``--out``:

    child.py setup WORKLOAD --out FILE
        import repro and build the catalog (campaign) or the world
        (study), then report the time that took -- one set-up sample.
    child.py run WORKLOAD --seed N --out FILE [--trace-dir D]
        set up, then run the workload's job once, check every result,
        and report wall time, CPU and peak RSS of this process and its
        reaped pool workers.  A run does the job once, however long
        ``--seconds`` is (the study takes 30-50 s, the campaign 11-21 s
        on 2 CPUs), so every run measures the same work.
    child.py prepare-serve DIR --out FILE
        save the 50-service seed-2016 dataset ``repro serve`` is started
        over, and the single-session upload bodies, into DIR.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: The paper's study runs at ``repro run``'s defaults.
STUDY_SEED = 2016
STUDY_DURATION = 240.0
#: Table 1's All row at the study defaults (paper Table 1; ``repro table 1``).
ALL_ROW_PERCENT = {"app": "92.0", "web": "78.0"}
#: Campaign size: the fewest users whose planned sessions reach this
#: many, so every seed simulates the same number of sessions (a fixed
#: user count varies the session count by about 4 % between seeds).
CAMPAIGN_SESSIONS = 1200
#: Single-session upload bodies saved for the ``serve`` workload: one
#: upload every 0.5 s uploads each of them once per 10 s of window.
UPLOAD_BODIES = 20


def _cpu_and_rss() -> tuple:
    """(user+system CPU s, peak RSS MB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _setup(workload: str) -> dict:
    """Import repro and build what the workload starts from."""
    import repro  # noqa: F401
    from repro.services import world as world_module
    from repro.services.catalog import build_catalog

    specs = build_catalog()
    state = {"specs": specs}
    if workload == "study":
        state["world"] = world_module.build_world(specs)
    return state


def _study_once(state: dict, world) -> dict:
    from repro.analysis import columnar, tables
    from repro.core import pipeline

    specs = state["specs"]
    study = pipeline.run_study(
        services=specs,
        seed=STUDY_SEED,
        duration=STUDY_DURATION,
        train_recon=True,
        world=world,
        executor="serial",
    )
    # What `repro run --executor serial` prints (--agg auto = columnar).
    view = columnar.study_aggregate(study, executor="serial")
    rows1 = tables.table1(view)
    text = "\n\n".join(
        [
            tables.render_table1(rows1),
            tables.render_table2(tables.table2(view)),
            tables.render_table3(tables.table3(view)),
        ]
    )
    planned = sum(len(spec.oses) * 2 for spec in specs)
    analysed = len(study.analyses())
    checks = {"sessions_analysed": analysed == planned == len(study.dataset)}
    all_rows = {row.medium: row for row in rows1 if row.group == "All"}
    for medium, percent in ALL_ROW_PERCENT.items():
        row = all_rows.get(medium)
        checks[f"table1_all_{medium}_{percent}"] = (
            row is not None and row.n_services == len(specs) and f"{row.pct_leaking:.1f}" == percent
        )
    return {
        "attempted": planned,
        "failed": planned - analysed,
        "checks": checks,
        "digest": _digest(text),
        "detail": {"sessions": analysed, "flows": study.dataset.total_flows()},
    }


def _campaign_population(specs: list, seed: int) -> tuple:
    from repro.campaign.population import PersonaSampler, PopulationSpec

    sampler = PersonaSampler(PopulationSpec(), specs, seed)
    users = sessions = 0
    while sessions < CAMPAIGN_SESSIONS:
        sessions += len(sampler.user(users).plans)
        users += 1
    return users, sessions


def _campaign_once(state: dict, seed: int) -> dict:
    from repro.campaign import PopulationSpec, render_campaign, run_campaign
    from repro.par import resolve_executor

    population, planned = state["population"]
    engine = resolve_executor("auto", 1)  # what `repro campaign` picks by default
    campaign = run_campaign(
        population,
        seed=seed,
        population_spec=PopulationSpec(),
        services=state["specs"],
        executor=engine,
    )
    text = render_campaign(campaign)
    checks = {
        "users_equal_population": campaign.users == population,
        "sessions_equal_planned": campaign.sessions == planned,
        "report_rendered": bool(text.strip()),
    }
    return {
        "attempted": planned,
        "failed": max(0, planned - campaign.sessions),
        "checks": checks,
        "digest": campaign.digest()[:16],
        "detail": {
            "users": campaign.users,
            "sessions": campaign.sessions,
            "executor": repr(engine),
        },
    }


def cmd_setup(args) -> dict:
    _setup(args.workload)
    end = time.perf_counter()
    return {"setup_s": end - _T0, "setup_phase": [_T0, end]}


def cmd_run(args) -> dict:
    tracer = None
    if args.trace_dir:
        from tracer import Tracer, install

        tracer = Tracer(args.trace_dir)
        install(tracer)
    state = _setup(args.workload)
    setup_end = time.perf_counter()
    if args.workload == "campaign":
        state["population"] = _campaign_population(state["specs"], args.seed)

    cpu0, _ = _cpu_and_rss()
    start = time.perf_counter()
    if args.workload == "study":
        job = _study_once(state, state["world"])
    else:
        job = _campaign_once(state, args.seed)
    end = time.perf_counter()
    cpu1, peak_rss_mb = _cpu_and_rss()
    result = {
        "setup_s": setup_end - _T0,
        "setup_phase": [_T0, setup_end],
        "wall_s": end - start,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        **job,
        "phase": [start, end],
        "pid": os.getpid(),
    }
    if tracer is not None:
        tracer.dump()
    return result


def cmd_prepare_serve(args) -> dict:
    """Save the served dataset and the upload bodies (inputs, untimed)."""
    from repro.experiment.dataset import Dataset
    from repro.experiment.runner import ExperimentRunner
    from repro.net import codec
    from repro.services.catalog import build_catalog
    from repro.services.world import build_world

    specs = build_catalog()
    runner = ExperimentRunner(build_world(specs), seed=STUDY_SEED)
    dataset = runner.run_study(specs, duration=STUDY_DURATION)
    dataset.save(os.path.join(args.dir, "dataset"))
    records = list(Dataset.load(os.path.join(args.dir, "dataset")))
    step = max(1, len(records) // UPLOAD_BODIES)
    uploads = os.path.join(args.dir, "uploads")
    os.makedirs(uploads)
    for index, record in enumerate(records[::step][:UPLOAD_BODIES]):
        body = codec.frame(codec.KIND_RECORD, codec.encode_record(record))
        with open(os.path.join(uploads, f"{index:03d}.bin"), "wb") as handle:
            handle.write(body)
    return {"sessions": len(records), "uploads": min(UPLOAD_BODIES, len(records[::step]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("workload", choices=["study", "campaign"])
    setup.add_argument("--out", required=True)
    run = sub.add_parser("run")
    run.add_argument("workload", choices=["study", "campaign"])
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--trace-dir")
    prepare = sub.add_parser("prepare-serve")
    prepare.add_argument("dir")
    prepare.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "run": cmd_run, "prepare-serve": cmd_prepare_serve}[args.cmd]
    result = handler(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
