"""Differential oracle: batch ≡ stream ≡ twins, byte for byte.

One scenario is collected exactly once; the resulting dataset is then
pushed through every execution path the repo offers and each path's
study is serialized to canonical JSON bytes.  Any byte difference is a
failure, reported as the first divergent field (recursive structural
diff), so a fuzz failure points straight at the layer that broke.

Paths compared against the one-worker (in-process) batch reference:

- batch through a four-worker :mod:`repro.par` process pool,
  whose workers re-serialize every session through the binary codec
  and own a fresh string-hash seed;
- the stream: a live capture of the scenario journaled through
  ``run_study(checkpoint_dir=...)``, its journal read back with
  :func:`repro.stream.dataset_from_journal` and analyzed;
- the serving store's build from the saved dataset
  (:class:`repro.serve.store.ResultStore`), which decodes, analyzes and
  drops one session's trace at a time;
- the memoized PII matcher vs ``GroundTruthMatcher(slow=True)``, the
  same scan without memos, per decrypted transaction and per generated
  probe text;
- the indexed EasyList engine vs the whole-list scan
  :func:`repro.qa.reference.match_linear` over the scenario's URL
  probes (scenario filters and the bundled list);
- PSL invariants (idempotence, reflexivity) over generated hostnames;
- every ReCon tree ``ReconClassifier.fit`` grows vs the row-wise
  reference grower of :mod:`repro.qa.reference`;
- the columnar aggregate and the study consumers vs the row-wise
  walkers of :mod:`repro.qa.reference`;
- every cell's recommender score from the exposure table vs the
  reference walk over its leak records, bit for bit, under four
  preference sets;
- the mitigation data plane: an installed all-allow policy is
  byte-inert, mitigated traffic analyzes identically in-process and on
  the process pool, re-collection under the same policy and
  seed reproduces the mitigated study, and every residual leak is of a
  (type, party) cell the policy explicitly allows.

``mutators`` deliberately corrupt one path's output before comparison —
the mutation canary tests use this to prove the oracle actually looks.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core.pipeline import analyze_dataset, run_study
from ..experiment.runner import ExperimentRunner
from ..pii.matcher import GroundTruthMatcher
from ..serve.store import ResultStore
from ..services.world import build_world
from ..stream.checkpoint import JOURNAL_NAME, dataset_from_journal
from ..trackerdb.abpfilter import FilterList
from ..trackerdb.easylist import bundled_easylist
from ..trackerdb.psl import DomainError, domain_key, registrable_domain, same_party
from .scenarios import Scenario, scenario_ground_truth


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two supposedly equal paths."""

    component: str  # which comparison failed, e.g. "serve[saved-dataset]"
    path: str  # dotted path of the first divergent field
    expected: str
    actual: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class OracleReport:
    """Outcome of one scenario run through every path."""

    seed: int
    ok: bool
    divergences: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "stats": self.stats,
        }


def canonical_bytes(study) -> bytes:
    """Canonical serialization of a study: sorted keys, stable floats."""
    payload = {
        f"{analysis.service}|{analysis.os_name}|{analysis.medium}": analysis.to_dict()
        for analysis in study.analyses()
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def first_divergent_field(expected: bytes, actual: bytes):
    """Locate the first structural difference between two JSON payloads.

    Returns ``(dotted_path, expected_repr, actual_repr)``.  Falls back
    to a whole-document diff marker when either side fails to parse.
    """
    try:
        left = json.loads(expected.decode("utf-8"))
        right = json.loads(actual.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return ("<document>", repr(expected[:80]), repr(actual[:80]))
    return _diff(left, right, "$")


def _diff(left, right, path):
    if type(left) is not type(right):
        return (path, f"{type(left).__name__}:{left!r}"[:200], f"{type(right).__name__}:{right!r}"[:200])
    if isinstance(left, dict):
        for key in sorted(set(left) | set(right)):
            if key not in left:
                return (f"{path}.{key}", "<missing>", repr(right[key])[:200])
            if key not in right:
                return (f"{path}.{key}", repr(left[key])[:200], "<missing>")
            found = _diff(left[key], right[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(left, list):
        for index in range(max(len(left), len(right))):
            if index >= len(left):
                return (f"{path}[{index}]", "<missing>", repr(right[index])[:200])
            if index >= len(right):
                return (f"{path}[{index}]", repr(left[index])[:200], "<missing>")
            found = _diff(left[index], right[index], f"{path}[{index}]")
            if found:
                return found
        return None
    if left != right:
        return (path, repr(left)[:200], repr(right)[:200])
    return None


def _first_divergent_line(expected: str, actual: str):
    """First differing line of two rendered texts (for render pins)."""
    left = expected.splitlines()
    right = actual.splitlines()
    for index in range(max(len(left), len(right))):
        want = left[index] if index < len(left) else "<missing>"
        got = right[index] if index < len(right) else "<missing>"
        if want != got:
            return (f"line {index}: {want}"[:200], f"line {index}: {got}"[:200])
    return (repr(expected)[:200], repr(actual)[:200])


def _match_signature(matches) -> tuple:
    """Order-independent fingerprint of a matcher result."""
    return tuple(
        sorted(
            (m.pii_type.value, m.value, m.encoding, m.source, getattr(m, "key", ""))
            for m in matches
        )
    )


def _identity(value):
    return value


def run_oracle(scenario: Scenario, mutators=None) -> OracleReport:
    """Run every differential comparison for one scenario."""
    mutators = dict(mutators or {})

    def mutate(name, value):
        return mutators.get(name, _identity)(value)

    divergences = []
    stats = {"paths": 0, "matcher_probes": 0, "filter_probes": 0}

    specs = scenario.build_specs()
    world = build_world(specs)
    runner = ExperimentRunner(world, seed=scenario.study_seed)
    dataset = runner.run_study(specs, duration=scenario.duration)
    stats["sessions"] = len(dataset)
    stats["flows"] = dataset.total_flows()

    reference = analyze_dataset(dataset, specs, train_recon=scenario.train_recon)
    expected = canonical_bytes(reference)

    def check_study(component, study, mutator_key):
        stats["paths"] += 1
        actual = canonical_bytes(mutate(mutator_key, study))
        if actual != expected:
            path, want, got = first_divergent_field(expected, actual)
            divergences.append(Divergence(component, path, want, got))

    # -- batch through the process pool -------------------------------------
    pooled = analyze_dataset(
        dataset, specs, train_recon=scenario.train_recon, executor=4
    )
    check_study("batch[process,workers=4]", pooled, "process")

    # -- the stream: a live capture's journal, read back --------------------
    # Only the journal is compared: the run's own study is the batch path
    # over a second, identical capture.
    with tempfile.TemporaryDirectory(prefix="repro-qa-stream-") as stream_dir:
        run_study(
            specs,
            seed=scenario.study_seed,
            duration=scenario.duration,
            train_recon=False,
            world=build_world(specs),
            checkpoint_dir=stream_dir,
        )
        journaled = dataset_from_journal(Path(stream_dir) / JOURNAL_NAME)
    check_study(
        "stream",
        analyze_dataset(journaled, specs, train_recon=scenario.train_recon),
        "stream",
    )

    # -- the serving store's streamed build ---------------------------------
    with tempfile.TemporaryDirectory(prefix="repro-qa-store-") as store_dir:
        dataset.save(store_dir)
        store = ResultStore(store_dir, services=specs, train_recon=scenario.train_recon)
        check_study("serve[saved-dataset]", store.snapshot.study, "serve")

    # -- ReCon trees ---------------------------------------------------------
    # The bitset grower behind ReconClassifier.fit vs the row-wise
    # reference grower, trained on every session's labeled traffic
    # whether or not the scenario trains ReCon: each global and
    # specialist tree is compared by shape (split features, leaf
    # probabilities).
    from ..core.cache import recon_shapes
    from ..core.pipeline import label_record
    from ..pii.recon import ReconClassifier
    from . import reference as rows

    examples = [
        example
        for record in sorted(dataset, key=lambda r: r.key)
        for example in label_record(record)
    ]
    stats["recon_trees"] = 0
    if examples:
        recon_expected = json.dumps(recon_shapes(rows.reference_recon(examples)))
        trees = recon_shapes(mutate("recon", ReconClassifier().fit(examples)))
        stats["recon_trees"] = len(trees["global"]) + len(trees["specialists"])
        recon_actual = json.dumps(trees)
        if recon_actual != recon_expected:
            path, want, got = first_divergent_field(
                recon_expected.encode("utf-8"), recon_actual.encode("utf-8")
            )
            divergences.append(Divergence("recon[reference-tree]", path, want, got))

    # -- columnar aggregation engine ----------------------------------------
    # Two pins per seed: (a) the encode + kernel aggregate equals the
    # row-wise fold, and sharded partial-aggregate merges equal the
    # single-batch aggregate in any merge order; (b) every consumer's
    # rendering is byte-identical to its row-wise reference walker.
    from ..analysis import columnar
    from ..analysis.figures import fig1e, render_series
    from ..analysis.longitudinal import render_drift, summarize_drift
    from ..analysis.reach import render_reach
    from ..analysis.tables import (
        render_table1,
        render_table2,
        render_table3,
        table1,
        table2,
        table3,
    )

    stats["columnar_checks"] = 0

    def check_columnar_bytes(component, expected_payload, actual_payload):
        stats["columnar_checks"] += 1
        if actual_payload != expected_payload:
            path, want, got = first_divergent_field(expected_payload, actual_payload)
            divergences.append(Divergence(component, path, want, got))

    def check_columnar_text(component, expected_text, actual_text):
        stats["columnar_checks"] += 1
        actual_text = mutate("columnar", actual_text)
        if actual_text != expected_text:
            want, got = _first_divergent_line(expected_text, actual_text)
            divergences.append(Divergence(component, "<render>", want, got))

    whole = columnar.study_aggregate(reference)
    metas, cells = columnar._study_cells(reference)
    partials = [
        columnar.aggregate_blob(columnar.encode_cells(metas, cells[index::3]))
        for index in range(3)
    ]
    agg_expected = whole.canonical_bytes()
    check_columnar_bytes(
        "columnar[reference-aggregate]",
        rows.reference_aggregate(reference).canonical_bytes(),
        mutate("aggregate", whole).canonical_bytes(),
    )
    check_columnar_bytes(
        "columnar[merge shards=3]",
        agg_expected,
        columnar.merge_aggregates(partials).canonical_bytes(),
    )
    check_columnar_bytes(
        "columnar[merge reversed]",
        agg_expected,
        columnar.merge_aggregates(partials[::-1]).canonical_bytes(),
    )

    check_columnar_text(
        "columnar[table1]",
        render_table1(rows.table1(reference)),
        render_table1(table1(whole)),
    )
    check_columnar_text(
        "columnar[table2]",
        render_table2(rows.table2(reference)),
        render_table2(table2(whole)),
    )
    check_columnar_text(
        "columnar[table3]",
        render_table3(rows.table3(reference)),
        render_table3(table3(whole)),
    )
    for os_name, series in rows.figure("1e", reference).items():
        check_columnar_text(
            f"columnar[fig1e:{os_name}]",
            render_series(series),
            render_series(fig1e(whole)[os_name]),
        )
    check_columnar_text(
        "columnar[reach]", rows.render_reach(reference), render_reach(whole)
    )
    check_columnar_text(
        "columnar[drift]",
        render_drift(rows.summarize_drift(reference, reference)),
        render_drift(summarize_drift(whole, whole)),
    )

    # -- recommender scoring -------------------------------------------------
    # Each cell's score from the exposure table (what serving scores
    # from) vs the reference walk over its leak records, compared as
    # float bits under default, uniform, single-type and high-aversion
    # preferences.
    from ..core.recommend import PrivacyPreferences, exposure_table
    from ..pii.types import PiiType

    stats["recommend_checks"] = 0
    preference_sets = {
        "default": PrivacyPreferences(),
        "uniform": PrivacyPreferences.uniform(),
        "only": PrivacyPreferences.only(PiiType.LOCATION, PiiType.UNIQUE_ID),
        "averse": PrivacyPreferences(tracker_aversion=0.9, plaintext_aversion=3.0),
    }
    exposures = mutate("recommend", exposure_table(reference))
    for result in reference.services:
        for (os_name, medium), analysis in sorted(result.sessions.items()):
            cell = f"{result.spec.slug}|{os_name}|{medium}"
            exposure = exposures.get((result.spec.slug, os_name, medium))
            for label, preferences in preference_sets.items():
                stats["recommend_checks"] += 1
                want = rows.reference_score(analysis, preferences).hex()
                got = "<missing>" if exposure is None else exposure.score(preferences).hex()
                if got != want:
                    divergences.append(
                        Divergence("recommend[exposure-table]", f"{cell}|{label}", want, got)
                    )

    # -- campaign engine -----------------------------------------------------
    # A small population over the scenario's own specs, pinned three
    # ways: shard-count invariance (1 vs 3), merge-order invariance
    # (forward vs reversed fold of the same partials), and serial ≡
    # process-pool execution — all byte-for-byte on the canonical
    # campaign aggregate.  The fold itself is the columnar kernel,
    # pinned against the row-wise fold by columnar[reference-aggregate].
    from ..campaign import CampaignContext, PopulationSpec, merge_campaigns, plan_shards, run_campaign

    stats["campaign_checks"] = 0
    population = 6
    pop_spec = PopulationSpec(
        services_per_user=(1, 3),
        sessions_per_service=(1, 2),
        session_duration=scenario.duration,
        bootstrap_replicates=25,
    )

    def check_campaign_bytes(component, expected_payload, actual_payload):
        stats["campaign_checks"] += 1
        if actual_payload != expected_payload:
            path, want, got = first_divergent_field(expected_payload, actual_payload)
            divergences.append(Divergence(component, path, want, got))

    campaign_reference = run_campaign(
        population,
        seed=scenario.study_seed,
        population_spec=pop_spec,
        services=specs,
        shards=1,
    )
    campaign_expected = campaign_reference.canonical_bytes()

    campaign_context = CampaignContext(
        pop_spec, specs, scenario.study_seed, dims=("os",)
    )
    campaign_partials = [
        campaign_context.run_shard(start, stop)
        for start, stop in plan_shards(population, 3)
    ]
    check_campaign_bytes(
        "campaign[shards=3]",
        campaign_expected,
        mutate("campaign", merge_campaigns(campaign_partials)).canonical_bytes(),
    )
    check_campaign_bytes(
        "campaign[merge reversed]",
        campaign_expected,
        merge_campaigns(campaign_partials[::-1]).canonical_bytes(),
    )
    campaign_process = run_campaign(
        population,
        seed=scenario.study_seed,
        population_spec=pop_spec,
        services=specs,
        executor=2,
        shards=2,
    )
    check_campaign_bytes(
        "campaign[process,workers=2]",
        campaign_expected,
        campaign_process.canonical_bytes(),
    )

    # Scale-out data plane pins: the KIND_CAGG codec must round-trip to
    # identical canonical bytes, and a pool campaign without pinned
    # shards (pool workers folding adaptive chunks locally) must match
    # the serial fixed-plan fold.
    from ..net import codec as _codec

    check_campaign_bytes(
        "campaign[codec roundtrip]",
        campaign_expected,
        mutate(
            "campaign", _codec.decode_campaign(_codec.encode_campaign(campaign_reference))
        ).canonical_bytes(),
    )
    campaign_worker = run_campaign(
        population,
        seed=scenario.study_seed,
        population_spec=pop_spec,
        services=specs,
        executor=2,
    )
    check_campaign_bytes(
        "campaign[process,adaptive]",
        campaign_expected,
        campaign_worker.canonical_bytes(),
    )

    # -- mitigation data plane ----------------------------------------------
    # Four pins per seed: (a) an installed-but-inert (all-allow) policy
    # leaves the study byte-identical to the reference; (b) the
    # mitigated dataset analyzes identically in-process and on the
    # process pool; (c) re-collecting under the same policy and seed
    # reproduces the mitigated study byte for byte; (d) the residual
    # invariant — every leak surviving mitigation is of a (type, party)
    # cell the policy explicitly allows.
    from ..core.pipeline import categorizer_for
    from ..mitigate.policy import (
        ACTION_ALLOW,
        FIRST_PARTY,
        THIRD_PARTY,
        MitigationPolicy,
        default_policy,
    )

    stats["mitigate_checks"] = 0
    stats["mitigate_residual_probes"] = 0

    def check_mitigated(component, study, expected_payload):
        stats["mitigate_checks"] += 1
        actual = canonical_bytes(mutate("mitigate", study))
        if actual != expected_payload:
            path, want, got = first_divergent_field(expected_payload, actual)
            divergences.append(Divergence(component, path, want, got))

    inert_world = build_world(specs)
    inert_runner = ExperimentRunner(inert_world, seed=scenario.study_seed)
    inert_dataset = inert_runner.run_study(
        specs,
        duration=scenario.duration,
        mitigation=MitigationPolicy(label="inert"),
    )
    check_mitigated(
        "mitigate[inert-policy]",
        analyze_dataset(inert_dataset, specs, train_recon=scenario.train_recon),
        expected,
    )

    policy = default_policy()

    def collect_mitigated():
        world = build_world(specs)
        mitigated_runner = ExperimentRunner(world, seed=scenario.study_seed)
        return mitigated_runner.run_study(
            specs, duration=scenario.duration, mitigation=policy
        )

    mitigated_dataset = collect_mitigated()
    mitigated_reference = analyze_dataset(
        mitigated_dataset, specs, train_recon=scenario.train_recon
    )
    mitigated_expected = canonical_bytes(mitigated_reference)

    check_mitigated(
        "mitigate[process,workers=2]",
        analyze_dataset(
            mitigated_dataset, specs, train_recon=scenario.train_recon, executor=2
        ),
        mitigated_expected,
    )
    check_mitigated(
        "mitigate[recollect]",
        analyze_dataset(collect_mitigated(), specs, train_recon=scenario.train_recon),
        mitigated_expected,
    )

    covered = policy.covered_types()
    categorizers = {spec.slug: categorizer_for(spec) for spec in specs}
    for analysis in mitigated_reference.analyses():
        categorizer = categorizers[analysis.service]
        for leak in analysis.leaks:
            stats["mitigate_residual_probes"] += 1
            host = leak.observation.hostname
            party = (
                FIRST_PARTY
                if leak.category.is_first_party or categorizer.is_sso_host(host)
                else THIRD_PARTY
            )
            action = policy.action_for(leak.pii_type, party)
            if action != ACTION_ALLOW or leak.pii_type in covered:
                divergences.append(
                    Divergence(
                        component=(
                            f"mitigate[residual:{analysis.service}|"
                            f"{analysis.os_name}|{analysis.medium}]"
                        ),
                        path=f"{leak.pii_type.value}@{host}",
                        expected=ACTION_ALLOW,
                        actual=action,
                    )
                )

    # -- fast vs slow PII matcher -------------------------------------------
    for record in sorted(dataset, key=lambda r: r.key):
        fast = GroundTruthMatcher(record.ground_truth)
        slow = GroundTruthMatcher(record.ground_truth, slow=True)
        for flow in record.trace:
            if not flow.decrypted:
                continue
            for txn in flow.transactions:
                fast_sig = _match_signature(fast.match_request(txn.request))
                slow_sig = _match_signature(
                    mutate("matcher", slow.match_request(txn.request))
                )
                stats["matcher_probes"] += 1
                if fast_sig != slow_sig:
                    divergences.append(
                        Divergence(
                            component=f"matcher[{'|'.join(record.key)}]",
                            path=txn.request.url,
                            expected=repr(fast_sig)[:200],
                            actual=repr(slow_sig)[:200],
                        )
                    )

    truth = scenario_ground_truth(scenario.seed)
    fast_text = GroundTruthMatcher(truth)
    slow_text = GroundTruthMatcher(truth, slow=True)
    for index, text in enumerate(scenario.texts):
        fast_sig = _match_signature(fast_text.match_text(text))
        slow_sig = _match_signature(mutate("matcher", slow_text.match_text(text)))
        stats["matcher_probes"] += 1
        if fast_sig != slow_sig:
            divergences.append(
                Divergence(
                    component=f"matcher[text:{index}]",
                    path=text[:80],
                    expected=repr(fast_sig)[:200],
                    actual=repr(slow_sig)[:200],
                )
            )

    # -- indexed vs linear EasyList engine ----------------------------------
    filter_lists = [
        ("scenario", FilterList.parse("\n".join(scenario.filters))),
        ("easylist", bundled_easylist()),
    ]
    for list_name, filter_list in filter_lists:
        for url, page_host, resource_type in scenario.urls:
            indexed = filter_list.match(url, page_host, resource_type)
            linear = mutate(
                "filters", rows.match_linear(filter_list, url, page_host, resource_type)
            )
            stats["filter_probes"] += 1
            indexed_raw = indexed.raw if indexed is not None else None
            linear_raw = linear.raw if linear is not None else None
            if indexed_raw != linear_raw:
                divergences.append(
                    Divergence(
                        component=f"filters[{list_name}]",
                        path=f"{url} page={page_host} type={resource_type}",
                        expected=repr(indexed_raw),
                        actual=repr(linear_raw),
                    )
                )

    # -- PSL invariants ------------------------------------------------------
    for host in scenario.hostnames:
        try:
            key = domain_key(host)
            if domain_key(key) != key:
                divergences.append(
                    Divergence("psl[idempotent]", host, key, domain_key(key))
                )
            if not same_party(host, host):
                divergences.append(
                    Divergence("psl[reflexive]", host, "same_party(h, h)", "False")
                )
            try:
                registrable = registrable_domain(host)
            except DomainError:
                pass
            else:
                if registrable_domain(registrable) != registrable:
                    divergences.append(
                        Divergence(
                            "psl[registrable-idempotent]",
                            host,
                            registrable,
                            registrable_domain(registrable),
                        )
                    )
        except Exception as exc:  # invariants must never raise
            divergences.append(Divergence("psl[crash]", host, "no exception", repr(exc)))

    # -- ingest service ------------------------------------------------------
    # The server's second execution engine: uploading this scenario's
    # records as one codec bundle and draining the job queue must
    # produce result bytes identical to the offline pipeline assembled
    # through the same payload builder.  Ingest analyzes with matching
    # only (no ReCon training), so the reference here is the no-recon
    # study.
    from ..ingest import IngestService, job_result_payload
    from ..net import codec
    from ..serve.app import canonical_json

    stats["ingest_checks"] = 0
    offline_no_recon = (
        reference
        if not scenario.train_recon
        else analyze_dataset(dataset, specs, train_recon=False)
    )
    with tempfile.TemporaryDirectory(prefix="repro-qa-ingest-") as ingest_tmp:
        ingest = IngestService(ingest_tmp, specs=specs)
        upload = codec.frame(codec.KIND_BUNDLE, codec.encode_bundle(list(dataset)))
        ingest_job = ingest.submit(upload, tenant="oracle")
        ingest.run_pending()
        stats["ingest_checks"] += 1
        ingest_actual = ingest.store.result_bytes(ingest_job.job_id) or b'"<missing>"'
        ingest_expected = (
            canonical_json(
                job_result_payload(
                    ingest_job.job_id,
                    ingest_job.etag,
                    len(dataset),
                    mutate("ingest", offline_no_recon),
                )
            )
            + b"\n"
        )
        if ingest_actual != ingest_expected:
            path, want, got = first_divergent_field(ingest_expected, ingest_actual)
            divergences.append(Divergence("ingest[bundle]", path, want, got))

    # -- fault plan ----------------------------------------------------------
    if scenario.fault_plan:
        from .faults import run_fault_checks

        fault_divergences, fault_stats = run_fault_checks(
            scenario, specs, dataset, expected, mutators
        )
        divergences.extend(fault_divergences)
        stats.update(fault_stats)

    return OracleReport(
        seed=scenario.seed,
        ok=not divergences,
        divergences=divergences,
        stats=stats,
    )
