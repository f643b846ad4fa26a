"""Command-line interface.

``repro run`` executes the full measurement campaign and prints the
paper's tables; subcommands regenerate individual artifacts or make
app-vs-web recommendations.  Everything is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.figures import ALL_FIGURES, render_series
from .analysis.tables import (
    render_table1,
    render_table2,
    render_table3,
    table1,
    table2,
    table3,
)
from .core.pipeline import run_study
from .core.recommend import PrivacyPreferences, Recommender
from .services.catalog import build_catalog


def _selected_services(args):
    services = build_catalog()
    if getattr(args, "services", None):
        wanted = {slug.strip() for slug in args.services.split(",")} - {""}
        unknown = sorted(wanted - {s.slug for s in services})
        if unknown:
            raise SystemExit(
                f"unknown service(s) in --services: {', '.join(unknown)} "
                "(`repro catalog` lists them)"
            )
        services = [s for s in services if s.slug in wanted]
        if not services:
            raise SystemExit(f"no catalog services match {args.services!r}")
    return services


def _build_study(args):
    return run_study(
        services=_selected_services(args),
        seed=args.seed,
        duration=args.duration,
        train_recon=not args.no_recon,
        executor=args.workers,
        cache_dir=args.cache_dir,
    )


def _aggregate(study, args):
    """The study's columnar aggregate, reduced once on ``--workers``
    and shared by every table/figure/reach consumer."""
    from .analysis import columnar

    return columnar.study_aggregate(study, executor=args.workers)


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = every usable CPU): {value}")
    return value


def _add_workers(parser, what="analysis", flag="--workers", default=0) -> None:
    """The one fan-out setting (see :class:`repro.par.Executor`)."""
    parser.add_argument(
        flag,
        type=_worker_count,
        default=default,
        metavar="N",
        help=f"{what} fan-out: 1 = in-process, N > 1 = N processes, "
        "0 = every usable CPU (default: %(default)s); results are "
        "byte-identical for any value",
    )


def _add_study_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2016, help="study RNG seed")
    parser.add_argument(
        "--duration", type=float, default=240.0, help="session length in seconds"
    )
    parser.add_argument(
        "--services", help="comma-separated service slugs (default: all 50)"
    )


def _add_analysis(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    """``--no-recon`` and ``--workers``, plus ``--cache-dir`` on the
    verbs that read it."""
    parser.add_argument(
        "--no-recon", action="store_true", help="skip ReCon training (matching only)"
    )
    _add_workers(parser)
    if cache:
        parser.add_argument(
            "--cache-dir",
            help="persistent incremental-analysis cache directory: collected "
            "campaigns, the classifier, and per-session results are reused "
            "when their content and config are unchanged",
        )


def _add_common(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    _add_study_inputs(parser)
    _add_analysis(parser, cache)


def cmd_run(args) -> int:
    agg = _aggregate(_build_study(args), args)
    print(render_table1(table1(agg)))
    print()
    print(render_table2(table2(agg)))
    print()
    print(render_table3(table3(agg)))
    return 0


def cmd_tables(args) -> int:
    agg = _aggregate(_build_study(args), args)
    renderers = {"1": (table1, render_table1), "2": (table2, render_table2), "3": (table3, render_table3)}
    if args.table not in renderers:
        raise SystemExit(f"unknown table {args.table!r} (choose 1, 2, or 3)")
    generate, render = renderers[args.table]
    print(render(generate(agg)))
    return 0


def cmd_figure(args) -> int:
    agg = _aggregate(_build_study(args), args)
    generator = ALL_FIGURES.get(args.figure)
    if generator is None:
        raise SystemExit(f"unknown figure {args.figure!r} (choose {sorted(ALL_FIGURES)})")
    for os_name, series in generator(agg).items():
        print(render_series(series))
        print()
    return 0


def _preferences_from_args(args) -> PrivacyPreferences:
    """``--prefs FILE.json`` plus ``--weight TYPE=VAL`` overrides."""
    import json

    from .core.recommend import apply_weight_overrides, preferences_from_dict

    preferences = PrivacyPreferences()
    try:
        if getattr(args, "prefs", None):
            with open(args.prefs, "r", encoding="utf-8") as handle:
                preferences = preferences_from_dict(json.load(handle))
        preferences = apply_weight_overrides(preferences, getattr(args, "weight", None) or [])
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bad preferences: {exc}")
    return preferences


def _recommend_json_payload(study, preferences) -> dict:
    """``{os: recommend_payload(...)}`` for every OS the study covers.

    The inner etag is empty — exactly the shape an ingest job's
    ``recommendations`` section carries, so CI can diff the two
    byte-for-byte (see the ``ingest-smoke`` job).
    """
    from .serve.app import recommend_payload

    oses = sorted(
        {os_name for result in study.services for (os_name, _medium) in result.sessions}
    )
    return {
        os_name: recommend_payload(study, preferences, os_name, etag="")
        for os_name in oses
    }


def cmd_recommend(args) -> int:
    study = _build_study(args)
    preferences = _preferences_from_args(args)
    if getattr(args, "json", False):
        from .serve.app import canonical_json

        payload = _recommend_json_payload(study, preferences)
        print(canonical_json(payload).decode("utf-8"))
        return 0
    recommender = Recommender(study, preferences)
    for os_name in ("android", "ios"):
        print(f"--- {os_name} ---")
        for rec in recommender.recommend_all(os_name):
            print(
                f"{rec.service:15s} use the {rec.choice:6s} "
                f"(app={rec.app_score:.2f}, web={rec.web_score:.2f})"
            )
        print("summary:", recommender.summary(os_name))
    return 0


def cmd_report(args) -> int:
    from .analysis.report import render_markdown

    agg = _aggregate(_build_study(args), args)
    print(render_markdown(agg, seed=args.seed, duration=args.duration))
    return 0


def cmd_collect(args) -> int:
    from .experiment.runner import ExperimentRunner
    from .services.world import build_world

    services = _selected_services(args)
    world = build_world(services)
    runner = ExperimentRunner(world, seed=args.seed)
    dataset = runner.run_study(services, duration=args.duration)
    dataset.save(args.out)
    print(f"saved {len(dataset)} sessions ({dataset.total_flows()} flows) to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    from .core.pipeline import analyze_dataset
    from .experiment.dataset import Dataset

    dataset = Dataset.load(args.dataset)
    slugs = set(dataset.services())
    services = [s for s in build_catalog() if s.slug in slugs]
    cache = None
    if args.cache_dir:
        from .core.cache import AnalysisCache

        cache = AnalysisCache(args.cache_dir)
    study = analyze_dataset(
        dataset,
        services,
        train_recon=not args.no_recon,
        executor=args.workers,
        cache=cache,
    )
    agg = _aggregate(study, args)
    print(render_table1(table1(agg)))
    print()
    print(render_table3(table3(agg)))
    return 0


def cmd_stream(args) -> int:
    """Streaming analysis: live capture export or dataset replay."""
    from .stream.analyzer import DatasetStreamer

    if args.dataset:
        from .experiment.dataset import Dataset

        dataset = Dataset.load(args.dataset)
        slugs = set(dataset.services())
        services = [s for s in build_catalog() if s.slug in slugs]
        streamer = DatasetStreamer(
            dataset,
            services,
            shards=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            executor=args.workers,
        )
        streamer.run()
        study = streamer.finalize(train_recon=not args.no_recon)
        stats = streamer.analyzer.bus.stats
        throughput = streamer.analyzer.flows_per_second
    else:
        if args.resume:
            raise SystemExit("--resume requires --dataset (live runs start fresh)")
        study = run_study(
            services=_selected_services(args),
            seed=args.seed,
            duration=args.duration,
            train_recon=not args.no_recon,
            streaming=True,
            shards=args.shards,
            checkpoint_dir=args.checkpoint_dir,
            executor=args.workers,
        )
        stats = throughput = None
    agg = _aggregate(study, args)
    print(render_table1(table1(agg)))
    print()
    print(render_table3(table3(agg)))
    if stats is not None:
        print()
        print(
            f"streamed {stats.flows} flows / {stats.sessions} sessions across "
            f"{args.shards} shard(s) at {throughput:,.0f} flows/s"
        )
    return 0


def cmd_serve(args) -> int:
    """Serve the recommender + study-query API over saved results."""
    import logging

    from .par import usable_cpus
    from .serve import LruTtlCache, RateLimiter, ResultStore, ServeApp, ServeServer
    from .serve.server import MAX_BODY_BYTES

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    store = ResultStore(args.result, train_recon=not args.no_recon)
    limiter = None
    if args.rate > 0:
        limiter = RateLimiter(rate=args.rate, burst=args.burst or max(1, int(args.rate)))
    ingest = None
    max_body_bytes = MAX_BODY_BYTES
    if getattr(args, "ingest_dir", None):
        from .ingest import IngestService

        ingest = IngestService(
            args.ingest_dir,
            executor=args.ingest_workers,
            per_tenant=args.tenant_queue,
            max_queued=args.ingest_queue,
            tenant_rate=args.ingest_rate,
            max_upload_bytes=args.max_upload_bytes,
            ttl_seconds=args.ingest_ttl,
        )
        # Leave headroom over the app-level upload cap so oversize
        # uploads get the app's 413 payload instead of a dropped socket.
        max_body_bytes = max(MAX_BODY_BYTES, args.max_upload_bytes + 64 * 1024)
    app = ServeApp(
        store,
        cache=LruTtlCache(maxsize=args.cache_size, ttl=args.cache_ttl),
        limiter=limiter,
        ingest=ingest,
    )
    server = ServeServer(
        app,
        host=args.host,
        port=args.port,
        max_concurrency=args.workers or usable_cpus(),
        request_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        max_body_bytes=max_body_bytes,
    )
    snapshot = store.snapshot
    print(
        f"serving {snapshot.service_count} service(s) from {args.result} "
        f"({snapshot.source}, etag {snapshot.etag}) on http://{args.host}:{args.port}"
    )
    if ingest is not None:
        ingest.start(threads=args.ingest_threads)
        print(
            f"ingest enabled: jobs under {args.ingest_dir} on "
            f"{ingest.engine!r} ({args.ingest_threads} worker thread(s))"
        )
    server.run(install_signal_handlers=True)
    if ingest is not None:
        # Drain the job workers the same way the listener drained:
        # finish the record in flight, park the rest durably for resume.
        ingest.shutdown(timeout=args.drain_timeout)
    print("drained; bye")
    return 0


def _load_upload_body(path) -> bytes:
    """Turn ``repro upload PATH`` input into framed upload bytes.

    A directory is a saved dataset — encoded as one framed bundle.  A
    file must already be a codec-framed record or bundle (e.g. written
    by ``repro.net.codec.write_record``/``write_bundle``).
    """
    import os

    from .net import codec

    if os.path.isdir(path):
        from .experiment.dataset import Dataset

        dataset = Dataset.load(path)
        return codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(list(dataset)))
    with open(path, "rb") as handle:
        return handle.read()


def cmd_upload(args) -> int:
    """Upload a trace to a running ingest server; optionally wait."""
    import http.client
    import json
    import time

    body = _load_upload_body(args.path)
    headers = {
        "Content-Type": "application/octet-stream",
        "X-Client-Id": args.tenant,
    }

    def request(method, path, payload=None):
        conn = http.client.HTTPConnection(args.host, args.port, timeout=args.timeout)
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        except (ConnectionError, http.client.HTTPException, OSError) as exc:
            # A server that rejects an over-limit body mid-upload resets
            # the socket instead of answering; report it, don't traceback.
            raise SystemExit(
                f"connection to {args.host}:{args.port} failed: {exc} "
                "(is the server running with --ingest-dir, and the upload "
                "within its --max-upload-bytes?)"
            ) from None
        finally:
            conn.close()

    status, response_body = request("POST", "/v1/traces", body)
    if status != 202:
        print(f"upload rejected: HTTP {status} {response_body.decode('utf-8', 'replace').strip()}", file=sys.stderr)
        return 1
    accepted = json.loads(response_body)
    job_id = accepted["job"]
    print(
        f"accepted job {job_id} ({accepted['records']} record(s), "
        f"etag {accepted['etag']})",
        file=sys.stderr,
    )
    if not args.wait:
        print(job_id)
        return 0

    deadline = time.monotonic() + args.wait_timeout
    state = accepted["state"]
    while time.monotonic() < deadline:
        status, response_body = request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            print(f"status poll failed: HTTP {status}", file=sys.stderr)
            return 1
        job = json.loads(response_body)
        state = job["state"]
        if state in ("done", "failed"):
            break
        time.sleep(args.poll_interval)
    if state == "failed":
        print(f"job {job_id} failed: {job.get('error', '')}", file=sys.stderr)
        return 1
    if state != "done":
        print(f"timed out waiting for job {job_id} (state {state})", file=sys.stderr)
        return 1

    status, result = request("GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        print(f"result fetch failed: HTTP {status}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(result)
        print(f"wrote result to {args.out}", file=sys.stderr)
    if args.print == "result":
        sys.stdout.buffer.write(result)
    elif args.print == "recommendations":
        from .serve.app import canonical_json

        payload = json.loads(result)
        print(canonical_json(payload["recommendations"]).decode("utf-8"))
    else:
        print(job_id)
    return 0


def cmd_har(args) -> int:
    from .experiment.runner import ExperimentRunner
    from .net.har import dump_har
    from .services.world import build_world

    services = [s for s in build_catalog() if s.slug == args.service]
    if not services:
        raise SystemExit(f"unknown service {args.service!r}")
    world = build_world(services)
    runner = ExperimentRunner(world, seed=args.seed)
    record = runner.run_session(services[0], args.os, args.medium, duration=args.duration)
    dump_har(record.trace, args.out)
    print(f"wrote {len(record.trace)} flows to {args.out}")
    return 0


def cmd_blocking(args) -> int:
    from .core.countermeasures import evaluate_blocking, summarize_outcomes

    services = _selected_services(args)
    outcomes = []
    for spec in services:
        os_name = "android" if "android" in spec.oses else spec.oses[0]
        outcome = evaluate_blocking(spec, os_name, seed=args.seed, duration=args.duration)
        outcomes.append(outcome)
        print(
            f"{spec.slug:15s} A&A domains {len(outcome.baseline.aa_domains):3d} -> "
            f"{len(outcome.protected.aa_domains):2d}  leaks "
            f"{len(outcome.baseline.leaks):4d} -> {len(outcome.protected.leaks):4d}  "
            f"residual 3rd parties: {sorted(outcome.residual_third_parties) or '-'}"
        )
    summary = summarize_outcomes(outcomes)
    print(
        f"\noverall leak reduction: {100 * summary['reduction']:.0f}%  "
        f"residual types: {sorted(t.code for t in summary['residual_types'])}"
    )
    return 0


def _load_policy(arg):
    from .mitigate import default_policy
    from .mitigate.policy import MitigationPolicy

    if arg is None or arg == "default":
        return default_policy()
    try:
        return MitigationPolicy.load(arg)
    except (OSError, ValueError) as exc:  # PolicyError and bad JSON included
        raise SystemExit(f"invalid mitigation policy {arg}: {exc}")


def cmd_mitigate(args) -> int:
    from .mitigate import evaluate_mitigation, render_mitigation

    policy = _load_policy(args.policy)
    if args.save_policy:
        policy.save(args.save_policy)
        print(f"wrote policy {policy.label!r} to {args.save_policy}")
    outcome = evaluate_mitigation(
        _selected_services(args),
        policy,
        seed=args.seed,
        duration=args.duration,
        train_recon=not args.no_recon,
        executor=args.workers,
        blocking=not args.no_blocking,
    )
    if args.baseline_out:
        # Exactly what ``repro analyze`` prints for the same dataset —
        # CI diffs the two byte-for-byte to pin "mitigation off changes
        # nothing".
        agg = _aggregate(outcome.baseline, args)
        text = (
            render_table1(table1(agg))
            + "\n\n"
            + render_table3(table3(agg))
            + "\n"
        )
        with open(args.baseline_out, "w") as handle:
            handle.write(text)
    print(render_mitigation(outcome))
    return 0


def cmd_reach(args) -> int:
    from .analysis.reach import render_reach, summarize_reach

    agg = _aggregate(_build_study(args), args)
    print(render_reach(agg))
    summary = summarize_reach(agg)
    print(
        f"\n{summary.trackers} A&A domains observed; "
        f"{summary.cross_platform_trackers} present on both media; "
        f"{len(summary.linkers)} hold a cross-platform join key "
        f"({', '.join(summary.linkers) or 'none'})"
    )
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing: batch ≡ stream ≡ serve, under chaos."""
    import json
    import time

    from .qa.oracle import Divergence, OracleReport, run_oracle
    from .qa.scenarios import Scenario, generate_scenario
    from .qa.shrink import shrink, write_reproducer

    def run_safely(scenario) -> OracleReport:
        try:
            return run_oracle(scenario)
        except Exception as exc:
            return OracleReport(
                seed=scenario.seed,
                ok=False,
                divergences=[Divergence("crash", type(exc).__name__, "no exception", repr(exc)[:200])],
            )

    def describe(report: OracleReport) -> str:
        stats = report.stats
        return (
            f"{stats.get('sessions', 0)} sessions, {stats.get('flows', 0)} flows, "
            f"{stats.get('paths', 0)} paths, {stats.get('matcher_probes', 0)} matcher + "
            f"{stats.get('filter_probes', 0)} filter probes, "
            f"{stats.get('recon_trees', 0)} recon trees, "
            f"{stats.get('fault_checks', 0)} fault checks"
        )

    if args.replay:
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read reproducer {args.replay!r}: {exc}")
        scenario = Scenario.from_dict(data.get("scenario", data))
        report = run_safely(scenario)
        if report.ok:
            print(f"replay seed {scenario.seed}: OK ({describe(report)})")
            return 0
        div = report.divergences[0]
        print(
            f"replay seed {scenario.seed}: FAIL {div.component} at {div.path}: "
            f"expected {div.expected}, got {div.actual}"
        )
        return 1

    started = time.perf_counter()
    completed = 0
    for seed in range(args.seed, args.seed + args.rounds):
        scenario = generate_scenario(seed, faults=args.faults, max_services=args.max_services)
        report = run_safely(scenario)
        completed += 1
        if report.ok:
            print(f"seed {seed}: OK ({describe(report)})")
            continue
        div = report.divergences[0]
        print(
            f"seed {seed}: FAIL [{len(report.divergences)} divergence(s)] "
            f"{div.component} at {div.path}: expected {div.expected}, got {div.actual}"
        )
        if args.no_shrink:
            smallest = scenario
        else:
            print("shrinking...")
            smallest = shrink(
                scenario, lambda candidate: not run_safely(candidate).ok, max_steps=args.shrink_steps
            )
        out = args.out or f"repro-fail-{seed}.json"
        write_reproducer(smallest, report, out)
        print(f"reproducer written to {out}; replay with: repro fuzz --replay {out}")
        elapsed = time.perf_counter() - started
        print(f"{completed} scenario(s) in {elapsed:.1f}s ({completed / elapsed:.2f}/s)")
        return 1
    elapsed = time.perf_counter() - started
    print(f"{completed} scenario(s) in {elapsed:.1f}s ({completed / elapsed:.2f}/s), 0 divergences")
    return 0


def cmd_campaign(args) -> int:
    """Population campaign: N sampled users folded into cohort aggregates."""
    import dataclasses
    import time

    from .campaign import (
        CampaignAborted,
        CampaignError,
        PopulationError,
        PopulationSpec,
        render_campaign,
        run_campaign,
    )
    from .par import resolve_executor

    if args.population < 1:
        raise SystemExit(f"--population must be >= 1: {args.population}")
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    overrides = {}
    if args.duration is not None:
        overrides["session_duration"] = args.duration
    if args.bootstrap is not None:
        overrides["bootstrap_replicates"] = args.bootstrap
    try:
        if args.population_spec:
            spec = PopulationSpec.load(args.population_spec)
        else:
            spec = PopulationSpec()
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
    except (OSError, ValueError, PopulationError) as exc:
        raise SystemExit(f"invalid population spec: {exc}")

    engine = resolve_executor(args.workers)
    log = (lambda message: print(message, file=sys.stderr)) if args.progress else None
    started = time.perf_counter()
    try:
        campaign = run_campaign(
            args.population,
            seed=args.seed,
            population_spec=spec,
            services=_selected_services(args),
            cohorts=args.cohorts,
            shards=args.shards,
            executor=engine,
            log=log,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            abort_after_users=args.abort_after_users,
        )
    except CampaignAborted as exc:
        print(f"{exc}", file=sys.stderr)
        return 3
    except CampaignError as exc:
        raise SystemExit(f"campaign: {exc}")
    elapsed = time.perf_counter() - started
    print(render_campaign(campaign, confidence=args.confidence, tables=args.tables))
    if args.progress:
        rate = campaign.sessions / elapsed if elapsed > 0 else 0.0
        print(
            f"{campaign.users} users / {campaign.sessions} sessions in "
            f"{elapsed:.1f}s ({rate:.1f} sessions/s) on {engine!r}",
            file=sys.stderr,
        )
    return 0


def cmd_catalog(args) -> int:
    for spec in build_catalog():
        oses = "/".join(spec.oses)
        print(
            f"{spec.name:28s} {spec.category:14s} rank={spec.rank:3d} "
            f"{spec.domain:18s} [{oses}]"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Should You Use the App for That?' (IMC 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="full study: all tables")
    _add_common(run_parser)
    run_parser.set_defaults(func=cmd_run)

    tables_parser = sub.add_parser("table", help="print one table (1, 2, or 3)")
    tables_parser.add_argument("table", help="table number")
    _add_common(tables_parser)
    tables_parser.set_defaults(func=cmd_tables)

    figure_parser = sub.add_parser("figure", help="print one figure (1a..1f)")
    figure_parser.add_argument("figure", help="figure id, e.g. 1a")
    _add_common(figure_parser)
    figure_parser.set_defaults(func=cmd_figure)

    rec_parser = sub.add_parser("recommend", help="app-or-web per service")
    _add_common(rec_parser)
    rec_parser.add_argument(
        "--weight",
        action="append",
        metavar="TYPE=VAL",
        help="override one identifier weight (e.g. --weight location=1.0); repeatable",
    )
    rec_parser.add_argument(
        "--prefs",
        metavar="FILE.json",
        help="preference JSON (weights/tracker_aversion/plaintext_aversion); "
        "same schema as the POST /v1/recommend body's 'preferences' field",
    )
    rec_parser.add_argument(
        "--json",
        action="store_true",
        help="print canonical JSON ({os: recommend payload}) instead of the "
        "table — byte-comparable to an ingest job's recommendations section",
    )
    rec_parser.set_defaults(func=cmd_recommend)

    serve_parser = sub.add_parser(
        "serve", help="HTTP recommender + study-query API over saved results"
    )
    serve_parser.add_argument(
        "--result",
        required=True,
        help="result directory: a saved dataset ('repro collect --out') or a "
        "streaming checkpoint ('repro stream --checkpoint-dir')",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080)
    serve_parser.add_argument(
        "--workers",
        type=_worker_count,
        default=16,
        help="max concurrent requests (0 = one per usable CPU)",
    )
    serve_parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="per-client rate limit in requests/second (0 = unlimited)",
    )
    serve_parser.add_argument(
        "--burst", type=int, default=0, help="rate-limit burst size (default: ceil(rate))"
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=4096, help="recommendation cache entries"
    )
    serve_parser.add_argument(
        "--cache-ttl", type=float, default=300.0, help="recommendation cache TTL (s)"
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=10.0, help="per-request timeout (s)"
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="max seconds to finish in-flight requests on SIGTERM",
    )
    serve_parser.add_argument(
        "--no-recon", action="store_true", help="skip ReCon training at store load"
    )
    serve_parser.add_argument(
        "--ingest-dir",
        help="enable POST /v1/traces: durable job state lives here "
        "(jobs parked by a SIGTERM drain resume from it on restart)",
    )
    _add_workers(
        serve_parser, "uploaded-trace analysis", flag="--ingest-workers", default=1
    )
    serve_parser.add_argument(
        "--ingest-threads",
        type=int,
        default=1,
        help="background job-worker threads feeding off the queue",
    )
    serve_parser.add_argument(
        "--max-upload-bytes",
        type=int,
        default=8 * 1024 * 1024,
        help="largest accepted upload body (413 above this)",
    )
    serve_parser.add_argument(
        "--tenant-queue",
        type=int,
        default=8,
        help="max queued jobs per tenant (429 above this)",
    )
    serve_parser.add_argument(
        "--ingest-queue",
        type=int,
        default=64,
        help="max queued jobs across all tenants (503 above this)",
    )
    serve_parser.add_argument(
        "--ingest-rate",
        type=float,
        default=0.0,
        help="per-tenant upload rate limit in jobs/second (0 = unlimited)",
    )
    serve_parser.add_argument(
        "--ingest-ttl",
        type=float,
        default=0.0,
        help="prune finished ingest jobs older than this many seconds "
        "(0 = keep forever); swept jobs answer 404",
    )
    serve_parser.set_defaults(func=cmd_serve)

    upload_parser = sub.add_parser(
        "upload", help="upload a trace to a running ingest server"
    )
    upload_parser.add_argument(
        "path",
        help="a saved dataset directory (sent as one bundle) or a "
        "codec-framed record/bundle file",
    )
    upload_parser.add_argument("--host", default="127.0.0.1")
    upload_parser.add_argument("--port", type=int, default=8080)
    upload_parser.add_argument(
        "--tenant", default="cli", help="tenant identity (X-Client-Id header)"
    )
    upload_parser.add_argument(
        "--wait", action="store_true", help="poll until the job completes"
    )
    upload_parser.add_argument(
        "--wait-timeout", type=float, default=300.0, help="max seconds to wait"
    )
    upload_parser.add_argument(
        "--poll-interval", type=float, default=0.2, help="seconds between polls"
    )
    upload_parser.add_argument(
        "--timeout", type=float, default=30.0, help="per-request HTTP timeout"
    )
    upload_parser.add_argument("--out", help="write the raw result bytes to a file")
    upload_parser.add_argument(
        "--print",
        choices=["job", "result", "recommendations"],
        default="job",
        help="what to print on stdout after completion (with --wait)",
    )
    upload_parser.set_defaults(func=cmd_upload)

    catalog_parser = sub.add_parser("catalog", help="list the 50 services")
    catalog_parser.set_defaults(func=cmd_catalog)

    report_parser = sub.add_parser("report", help="paper-vs-measured markdown report")
    _add_common(report_parser)
    report_parser.set_defaults(func=cmd_report)

    collect_parser = sub.add_parser("collect", help="run the campaign, save the dataset")
    _add_study_inputs(collect_parser)
    collect_parser.add_argument("--out", required=True, help="output directory")
    collect_parser.set_defaults(func=cmd_collect)

    analyze_parser = sub.add_parser("analyze", help="analyze a saved dataset")
    analyze_parser.add_argument("dataset", help="dataset directory from 'collect'")
    _add_analysis(analyze_parser)
    analyze_parser.set_defaults(func=cmd_analyze)

    stream_parser = sub.add_parser(
        "stream", help="streaming capture + online analysis (live or replay)"
    )
    _add_common(stream_parser, cache=False)
    stream_parser.add_argument(
        "--dataset", help="replay a saved dataset instead of capturing live"
    )
    stream_parser.add_argument(
        "--shards", type=int, default=1, help="parallel analyzer shards"
    )
    stream_parser.add_argument(
        "--checkpoint-dir", help="directory for crash-safe snapshots + flow journal"
    )
    stream_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=200,
        help="flows between shard snapshots",
    )
    stream_parser.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run from --checkpoint-dir",
    )
    stream_parser.set_defaults(func=cmd_stream)

    har_parser = sub.add_parser("har", help="export one session as a HAR file")
    har_parser.add_argument("service", help="service slug")
    har_parser.add_argument("--os", default="android", choices=["android", "ios"])
    har_parser.add_argument("--medium", default="web", choices=["app", "web"])
    har_parser.add_argument("--out", default="session.har")
    har_parser.add_argument("--seed", type=int, default=2016)
    har_parser.add_argument("--duration", type=float, default=240.0)
    har_parser.set_defaults(func=cmd_har)

    blocking_parser = sub.add_parser(
        "blocking", help="tracker-blocking effectiveness (§5 future work)"
    )
    _add_study_inputs(blocking_parser)
    blocking_parser.set_defaults(func=cmd_blocking)

    mitigate_parser = sub.add_parser(
        "mitigate", help="inline PII mitigation: re-score the study under a policy"
    )
    _add_common(mitigate_parser, cache=False)
    mitigate_parser.add_argument(
        "--policy",
        default="default",
        help="mitigation policy: 'default' (calibrated) or a policy JSON file",
    )
    mitigate_parser.add_argument(
        "--save-policy",
        metavar="FILE.json",
        help="write the resolved policy as JSON, then run",
    )
    mitigate_parser.add_argument(
        "--no-blocking",
        action="store_true",
        help="skip the blocking-only contrast runs (2 web sessions/service)",
    )
    mitigate_parser.add_argument(
        "--baseline-out",
        metavar="FILE",
        help="write the mitigation-off study in 'repro analyze' format "
        "(byte-identical when diffed against a plain analyze)",
    )
    mitigate_parser.set_defaults(func=cmd_mitigate)

    reach_parser = sub.add_parser("reach", help="cross-platform tracker reach (§4.2)")
    _add_common(reach_parser)
    reach_parser.set_defaults(func=cmd_reach)

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing: batch ≡ stream ≡ serve under chaos"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="first scenario seed")
    fuzz_parser.add_argument(
        "--rounds", type=int, default=1, help="number of consecutive seeds to run"
    )
    fuzz_parser.add_argument(
        "--faults",
        action="store_true",
        help="also derive a fault plan per seed (kills, torn tails, transport chaos, "
        "exploding addons, serve snapshot checks)",
    )
    fuzz_parser.add_argument(
        "--replay", metavar="FILE.json", help="re-run a written reproducer instead"
    )
    fuzz_parser.add_argument(
        "--out", help="reproducer path on failure (default: repro-fail-<seed>.json)"
    )
    fuzz_parser.add_argument(
        "--max-services", type=int, default=4, help="service-catalog size cap per scenario"
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true", help="skip minimization on failure"
    )
    fuzz_parser.add_argument(
        "--shrink-steps",
        type=int,
        default=40,
        help="max oracle evaluations spent shrinking a failure",
    )
    fuzz_parser.set_defaults(func=cmd_fuzz)

    campaign_parser = sub.add_parser(
        "campaign",
        help="population campaign: simulate N users as mergeable cohorts",
    )
    campaign_parser.add_argument(
        "--population", type=int, required=True, help="number of simulated users"
    )
    campaign_parser.add_argument(
        "--seed", type=int, default=7, help="campaign RNG seed"
    )
    campaign_parser.add_argument(
        "--cohorts",
        default="os",
        help="cohort dimensions, comma-separated from os/medium/intensity "
        "('none' = one cohort; default: os)",
    )
    campaign_parser.add_argument(
        "--shards",
        type=int,
        help="pin a fixed plan of this many shards (default: on one worker "
        "a pure function of the population, on a process pool adaptive "
        "chunks); results are identical for any value",
    )
    campaign_parser.add_argument(
        "--services", help="comma-separated service slugs (default: all 50)"
    )
    campaign_parser.add_argument(
        "--population-spec",
        metavar="FILE.json",
        help="load persona distributions from a PopulationSpec JSON file",
    )
    campaign_parser.add_argument(
        "--duration",
        type=float,
        help="override the spec's base session length in seconds",
    )
    campaign_parser.add_argument(
        "--bootstrap",
        type=int,
        help="override the spec's Poisson-bootstrap replicate count",
    )
    campaign_parser.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level for Wilson/bootstrap intervals",
    )
    campaign_parser.add_argument(
        "--tables",
        action="store_true",
        help="also render Tables 1 and 3 per cohort",
    )
    campaign_parser.add_argument(
        "--progress",
        action="store_true",
        help="log per-shard progress and a throughput summary to stderr",
    )
    _add_workers(campaign_parser, "simulation")
    campaign_parser.add_argument(
        "--checkpoint-dir",
        help="write crash-safe periodic checkpoints (merged partial + "
        "next-user index) into this directory",
    )
    campaign_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue from the checkpoint directory's last saved state "
        "(requires --checkpoint-dir; a finished run returns immediately)",
    )
    campaign_parser.add_argument(
        "--checkpoint-every",
        type=int,
        help="users between checkpoint writes (default: 1024)",
    )
    campaign_parser.add_argument(
        "--abort-after-users",
        type=int,
        help="chaos hook: abort (exit 3) once this many users have "
        "folded — simulates a mid-campaign kill for resume testing",
    )
    campaign_parser.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
