"""Row-wise reference implementations production is pinned against (test-only).

Production computes Tables 1–3, Figure 1, reach and drift from one
columnar :class:`~repro.analysis.columnar.StudyAggregate`.  These are
the walks over ``ServiceResult``/``SessionAnalysis`` objects it
replaced, logic unchanged, kept as the oracle production is pinned
against (:mod:`repro.qa.oracle`, ``tests/test_columnar.py``, ``make
bench-columnar``).  They share the production row builders and render
tails, so a difference points at aggregation; :func:`figure` pins
Figure 1 at the diff level (production panels over
:func:`~repro.core.compare.study_diffs`).

:func:`reference_tree` is the row-wise ReCon grower that the bitset
grower of :mod:`repro.pii.recon` replaced, and :func:`reference_recon`
trains a whole classifier with it (``recon[reference-tree]``,
``tests/test_recon.py``, ``make bench-recon``).  :func:`match_linear`
is the whole-list EasyList scan the indexed ``FilterList.match``
replaced (the oracle's ``filters`` pin, ``tests/test_fastpath.py``,
``tests/test_properties.py``).  Only :mod:`repro.qa`, the tests and
the benchmarks import this module.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from ..analysis import longitudinal, reach, tables
from ..analysis.columnar import CellAggregate, StudyAggregate, _study_cells
from ..analysis.figures import OSES, panel_series
from ..core.compare import study_diffs
from ..experiment.dataset import APP, WEB
from ..pii.recon import DecisionTree, ReconClassifier, _entropy, _Node
from ..trackerdb.abpfilter import _host_of
from ..trackerdb.easylist import bundled_easylist
from ..trackerdb.psl import domain_key, same_party


def fold_rows(study: StudyAggregate, metas: list, cells: list) -> None:
    """Row-wise fold of ``(order, analysis)`` pairs into ``study`` —
    mirrors :func:`~repro.analysis.columnar.aggregate_batch` exactly
    (same groupings, same Moments updates), so the canonical aggregate
    is byte-identical to the encode + kernel path."""
    for meta in metas:
        mine = study.services.get(meta.slug)
        if mine is None or meta.order < mine.order:
            study.services[meta.slug] = meta
    moments = study.moments
    for order, analysis in cells:
        cell = CellAggregate(
            analysis.service, analysis.os_name, analysis.medium, order
        )
        cell.flows_total = analysis.flows_total
        cell.aa_flows = analysis.aa_flows
        cell.aa_bytes = analysis.aa_bytes
        cell.aa_domains = set(analysis.aa_domains)
        groups: dict = {}
        events = 0
        for leak in analysis.leaks:
            key = (
                leak.observation.domain,
                leak.observation.hostname,
                leak.observation.pii_type,
            )
            groups[key] = groups.get(key, 0) + 1
            events += 1
        cell.leak_groups = groups
        existing = study.cells.get(cell.key)
        if existing is None:
            study.cells[cell.key] = cell
        else:
            existing.merge(cell)
        moments["flows_total"].add(cell.flows_total)
        moments["aa_flows"].add(cell.aa_flows)
        moments["aa_bytes"].add(cell.aa_bytes)
        moments["leak_events"].add(events)


def reference_aggregate(study) -> StudyAggregate:
    """A study's aggregate by :func:`fold_rows` (no codec, no kernel)."""
    agg = StudyAggregate()
    metas, cells = _study_cells(study)
    fold_rows(agg, metas, cells)
    return agg


def _medium_leak_domains(result, medium: str, os_name: str = None) -> set:
    domains: set = set()
    for (osn, med), analysis in result.sessions.items():
        if med != medium:
            continue
        if os_name is not None and osn != os_name:
            continue
        domains |= analysis.leak_domains
    return domains


def _medium_types(result, medium: str, os_name: str = None) -> set:
    types: set = set()
    for (osn, med), analysis in result.sessions.items():
        if med != medium:
            continue
        if os_name is not None and osn != os_name:
            continue
        types |= analysis.leak_types
    return types


def _row(group: str, medium: str, results: list, os_name: str = None):
    leak_domain_counts = []
    identifiers: set = set()
    leaking = 0
    for result in results:
        domains = _medium_leak_domains(result, medium, os_name)
        types = _medium_types(result, medium, os_name)
        if types:
            leaking += 1
            leak_domain_counts.append(len(domains))
            identifiers |= types
    return tables._finish_table1_row(
        group,
        medium,
        len(results),
        sum(r.spec.rank for r in results),
        leaking,
        leak_domain_counts,
        identifiers,
    )


def table1(study) -> list:
    """Every row of Table 1 in presentation order, walking sessions."""
    rows = []
    all_results = study.services
    for medium in (APP, WEB):
        rows.append(_row("All", medium, all_results))
    for os_name, label in (("android", "Android"), ("ios", "iOS")):
        tested = [r for r in all_results if os_name in r.spec.oses]
        for medium in (APP, WEB):
            rows.append(_row(label, medium, tested, os_name=os_name))
    for category in tables.CATEGORY_ORDER:
        members = [r for r in all_results if r.spec.category == category]
        if not members:
            continue
        for medium in (APP, WEB):
            rows.append(_row(category, medium, members))
    return rows


def table2(study, top: int = 20) -> list:
    """Top A&A domains by total leaks, one EasyList verdict per event."""
    easylist = bundled_easylist()
    contact: dict = defaultdict(lambda: {APP: set(), WEB: set()})
    leaks: dict = defaultdict(lambda: {APP: defaultdict(int), WEB: defaultdict(int)})
    identifiers: dict = defaultdict(lambda: {APP: set(), WEB: set()})

    for result in study.services:
        page_host = result.spec.domain
        for (os_name, medium), analysis in result.sessions.items():
            for domain in analysis.aa_domains:
                contact[domain][medium].add(result.spec.slug)
            for record in analysis.leaks:
                domain = record.domain
                if not easylist.matches(f"https://{record.observation.hostname}/", page_host=page_host):
                    continue
                leaks[domain][medium][result.spec.slug] += 1
                identifiers[domain][medium].add(record.pii_type)

    return tables._table2_rows(contact, leaks, identifiers, top)


def table3(study) -> list:
    """Per-PII-type aggregation, walking every leak record."""
    per_type = tables._table3_buckets()
    for result in study.services:
        slug = result.spec.slug
        for (os_name, medium), analysis in result.sessions.items():
            for record in analysis.leaks:
                bucket = per_type[record.pii_type]
                bucket["svc"][medium].add(slug)
                bucket["leaks"][medium][slug] += 1
                bucket["domains"][medium].add(record.domain)
    return tables._table3_rows(per_type)


def figure(key: str, study) -> dict:
    """One Figure 1 panel per OS from the row-wise per-service diffs."""
    return {
        os_name: panel_series(key, os_name, study_diffs(study, os_name))
        for os_name in OSES
    }


def tracker_reach(study) -> dict:
    """:class:`~repro.analysis.reach.TrackerReach` per A&A domain."""
    reaches: dict = {}
    for result in study.services:
        slug = result.spec.slug
        for (os_name, medium), analysis in result.sessions.items():
            # Sorted, not raw set iteration: entry creation order is
            # dict insertion order, which the summary's max() and the
            # table's stable sort break ties by.
            for domain in sorted(analysis.aa_domains):
                entry = reaches.get(domain)
                if entry is None:
                    entry = reaches[domain] = reach.TrackerReach(domain=domain)
                (entry.services_app if medium == APP else entry.services_web).add(slug)
            for record in analysis.leaks:
                entry = reaches.get(record.domain)
                if entry is None:
                    continue  # non-A&A recipient (identity providers)
                if medium == APP:
                    entry.types_app.add(record.pii_type)
                else:
                    entry.types_web.add(record.pii_type)
    return reaches


def summarize_reach(study):
    return reach._summarize_reaches(tracker_reach(study))


def render_reach(study, top: int = 15) -> str:
    return reach._render_reaches(tracker_reach(study), top)


def _medium_metrics(result, medium):
    types: set = set()
    aa_domains: set = set()
    events = 0
    for (os_name, med), analysis in result.sessions.items():
        if med != medium:
            continue
        types |= analysis.leak_types
        aa_domains |= analysis.aa_domains
        events += len(analysis.leaks)
    return types, aa_domains, events


def diff_studies(before, after) -> list:
    """Per-service, per-medium drift, walking both studies' sessions."""
    before_by_slug = {r.spec.slug: r for r in before.services}
    drifts = []
    for result in after.services:
        earlier = before_by_slug.get(result.spec.slug)
        if earlier is None:
            continue
        for medium in (APP, WEB):
            old_types, old_domains, old_events = _medium_metrics(earlier, medium)
            new_types, new_domains, new_events = _medium_metrics(result, medium)
            drifts.append(
                longitudinal.ServiceDrift(
                    service=result.spec.slug,
                    medium=medium,
                    types_added=frozenset(new_types - old_types),
                    types_removed=frozenset(old_types - new_types),
                    aa_domains_delta=len(new_domains) - len(old_domains),
                    leak_events_delta=new_events - old_events,
                )
            )
    return drifts


def summarize_drift(before, after):
    return longitudinal._summarize_drifts(diff_studies(before, after))


def reference_tree(
    samples: list,
    labels: list,
    max_depth: int = 8,
    min_samples_leaf: int = 3,
    max_features: int = 400,
) -> _Node:
    """Root of the ID3 tree the row-wise grower builds: every
    vocabulary feature is tested against every sample at every node."""
    if len(samples) != len(labels):
        raise ValueError("samples and labels must align")
    if not samples:
        raise ValueError("cannot fit an empty training set")
    counts: Counter = Counter()
    for features in samples:
        counts.update(features)
    vocabulary = sorted(f for f, _ in counts.most_common(max_features))
    return _grow_rows(samples, labels, vocabulary, 0, max_depth, min_samples_leaf)


def _grow_rows(
    samples: list,
    labels: list,
    vocabulary: list,
    depth: int,
    max_depth: int,
    min_samples_leaf: int,
) -> _Node:
    positives = sum(labels)
    total = len(labels)
    probability = positives / total if total else 0.0
    if (
        depth >= max_depth
        or total < 2 * min_samples_leaf
        or positives == 0
        or positives == total
    ):
        return _Node(probability=probability)

    parent_entropy = _entropy(positives, total)
    best_feature = None
    best_gain = 1e-9
    for feature in vocabulary:
        pos_with = pos_without = n_with = 0
        for features, label in zip(samples, labels):
            if feature in features:
                n_with += 1
                pos_with += label
            else:
                pos_without += label
        n_without = total - n_with
        if n_with < min_samples_leaf or n_without < min_samples_leaf:
            continue
        children_entropy = (
            n_with / total * _entropy(pos_with, n_with)
            + n_without / total * _entropy(pos_without, n_without)
        )
        gain = parent_entropy - children_entropy
        if gain > best_gain:
            best_gain = gain
            best_feature = feature
    if best_feature is None:
        return _Node(probability=probability)

    with_samples, with_labels, without_samples, without_labels = [], [], [], []
    for features, label in zip(samples, labels):
        if best_feature in features:
            with_samples.append(features)
            with_labels.append(label)
        else:
            without_samples.append(features)
            without_labels.append(label)
    remaining = [f for f in vocabulary if f != best_feature]
    return _Node(
        feature=best_feature,
        present=_grow_rows(
            with_samples, with_labels, remaining, depth + 1, max_depth, min_samples_leaf
        ),
        absent=_grow_rows(
            without_samples, without_labels, remaining, depth + 1, max_depth, min_samples_leaf
        ),
        probability=probability,
    )


def reference_recon(examples: list, **params) -> ReconClassifier:
    """A :class:`ReconClassifier` trained like ``fit`` trains one, but
    with every global and specialist tree grown by :func:`reference_tree`
    from its own sample list."""
    if not examples:
        raise ValueError("no training examples")
    classifier = ReconClassifier(**params)
    by_domain: dict = defaultdict(list)
    for example in examples:
        by_domain[example.domain].append(example)
    present_types = set()
    for example in examples:
        present_types.update(example.labels)

    def tree(subset: list, labels: list) -> DecisionTree:
        grown = DecisionTree(max_depth=classifier.max_depth)
        grown._root = reference_tree(
            [ex.features for ex in subset],
            labels,
            grown.max_depth,
            grown.min_samples_leaf,
            grown.max_features,
        )
        return grown

    for pii_type in sorted(present_types, key=lambda t: t.value):
        labels = [pii_type in ex.labels for ex in examples]
        if not any(labels) or all(labels):
            continue
        classifier._global[pii_type] = tree(examples, labels)
        classifier.trained_types.add(pii_type)
        for domain, domain_examples in by_domain.items():
            if len(domain_examples) < classifier.min_domain_samples:
                continue
            domain_labels = [pii_type in ex.labels for ex in domain_examples]
            if not any(domain_labels) or all(domain_labels):
                continue
            classifier._specialists[(domain, pii_type)] = tree(
                domain_examples, domain_labels
            )
    return classifier


def match_linear(
    filter_list, url: str, page_host: str = "", resource_type: str = "other"
):
    """``filter_list.match`` by probing every rule in list order (the
    seed engine): exceptions first, then the first blocking rule."""
    request_host = _host_of(url)
    third_party = not same_party(request_host, page_host) if page_host else True
    page_domain = domain_key(page_host) if page_host else ""
    for rule in filter_list.exceptions:
        if rule.matches(url, third_party, resource_type, page_domain):
            return None
    for rule in filter_list.blocking:
        if rule.matches(url, third_party, resource_type, page_domain):
            return rule
    return None
