"""Equivalence and property tests for the fast-path detection engine.

Every fast path in the detection stack keeps a reference mode: the
memoized ground-truth matcher against the same per-form scan without
its text and request memos (``GroundTruthMatcher(slow=True)``), so these
checks pin the memo keys, and the indexed EasyList engine against the
whole-list probe (``repro.qa.reference.match_linear``).  These tests pin the
equivalences — the optimizations must change *how fast* answers arrive,
never *which* answers (§3.2 fidelity: same matches, faster search) —
plus the matcher's build cost and the determinism of the ``workers``
analysis fan-out.
"""

from __future__ import annotations

import random
import string
import tracemalloc

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import analyze_dataset, run_study
from repro.device.persona import generate_persona
from repro.device.phone import Phone, PhoneSpec
from repro.experiment.runner import ExperimentRunner
from repro.http.transport import Network
from repro.net.flow import CapturedRequest
from repro.pii.encodings import encode_value, variants
from repro.pii.matcher import GroundTruthMatcher, matcher_for
from repro.pii.types import PiiType
from repro.qa.reference import match_linear
from repro.services.catalog import build_catalog
from repro.services.world import build_world
from repro.trackerdb.easylist import bundled_easylist

# ---------------------------------------------------------------------------
# Fast matcher vs. slow=True reference

_GROUND_TRUTH = {
    PiiType.EMAIL: ["signup1234@testmail.example"],
    PiiType.UNIQUE_ID: ["358240051234567", "aa:bb:cc:dd:ee:ff"],
    PiiType.LOCATION: ["42.361500", "-71.058900", "02115"],
    PiiType.NAME: ["Jordan"],
    PiiType.PASSWORD: ["pwSecretXYZ"],
}


def _match_keys(matches):
    return sorted((m.pii_type.value, m.value, m.encoding, m.source, m.key) for m in matches)


pii_values = st.text(
    alphabet=string.ascii_letters + string.digits + "@._-",
    min_size=8,
    max_size=24,
).filter(lambda v: v.strip("._-@") == v and len(set(v)) > 3)


class TestFastSlowMatcherEquivalence:
    def _pair(self, ground_truth):
        return (
            GroundTruthMatcher(ground_truth),
            GroundTruthMatcher(ground_truth, slow=True),
        )

    def test_identical_on_planted_forms(self):
        fast, slow = self._pair(_GROUND_TRUTH)
        texts = []
        for values in _GROUND_TRUTH.values():
            for value in values:
                for form in variants(value):
                    texts.append(f"https://t.example/c?x={form}&junk=0")
        texts += [
            "plain text with nothing in it",
            "uid=d41d8cd98f00b204e9800998ecf8427e",
            "lat=42.3614&lon=-71.0590",
            "JORDAN went to jordan",
        ]
        for text in texts:
            assert _match_keys(fast.match_text(text)) == _match_keys(
                slow.match_text(text)
            ), text

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        value=pii_values,
        encoding=st.sampled_from(
            ["identity", "base64", "hex", "md5", "sha1", "sha256", "urlencoded"]
        ),
        prefix=st.text(alphabet=string.printable, max_size=30),
        suffix=st.text(alphabet=string.printable, max_size=30),
    )
    def test_identical_on_random_embeddings(self, value, encoding, prefix, suffix):
        fast, slow = self._pair({PiiType.EMAIL: [value]})
        text = prefix + encode_value(value, encoding) + suffix
        assert _match_keys(fast.match_text(text)) == _match_keys(slow.match_text(text))

    @settings(max_examples=40, deadline=None)
    @given(noise=st.text(alphabet=string.ascii_letters + string.digits + "&=?/:.", max_size=80))
    def test_identical_on_noise(self, noise):
        fast, slow = self._pair(_GROUND_TRUTH)
        assert _match_keys(fast.match_text(noise)) == _match_keys(slow.match_text(noise))

    def test_match_request_identical(self):
        fast, slow = self._pair(_GROUND_TRUTH)
        request = CapturedRequest(
            "POST",
            "https://ads.example/collect?email=signup1234%40testmail.example&zip=02115",
            headers=[
                ("Host", "ads.example"),
                ("Cookie", "uid=358240051234567"),
                ("X-Device", "aa:bb:cc:dd:ee:ff"),
            ],
            body=b'{"name": "Jordan", "lat": 42.3615, "password": "pwSecretXYZ"}',
        )
        assert _match_keys(fast.match_request(request)) == _match_keys(
            slow.match_request(request)
        )
        # Memoized second call must answer identically.
        assert _match_keys(fast.match_request(request)) == _match_keys(
            slow.match_request(request)
        )


class TestMatcherBuild:
    def test_warm_build_keeps_little_memory(self):
        """Campaign sessions each build a matcher for new ground truth, and
        ``matcher_for`` keeps up to 256 of them, so a build must hold no
        per-ground-truth index."""
        rng = random.Random(1)
        phone = Phone(PhoneSpec.nexus5(), Network(), rng)
        phone.sign_in(generate_persona(rng))
        truth = phone.ground_truth()
        GroundTruthMatcher(truth)  # warms the memoized encoding variants
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matcher = GroundTruthMatcher(truth)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert matcher.match_text(f"email={phone.persona.email}")
        assert kept < 64 * 1024, kept


# ---------------------------------------------------------------------------
# Indexed EasyList vs. linear reference


def _probe_urls_for(rule):
    """Synthesize URLs likely to exercise ``rule`` through the index."""
    urls = []
    if rule.anchor_domain:
        urls.append(f"https://{rule.anchor_domain}/x.js")
        urls.append(f"https://sub.{rule.anchor_domain}/pixel?id=1")
    body = rule.raw.lstrip("@").split("$", 1)[0].strip("|")
    cleaned = body.replace("||", "").replace("*", "x").replace("^", "/")
    if cleaned:
        if "://" not in cleaned:
            urls.append(f"https://host.example/{cleaned.lstrip('/')}")
        else:
            urls.append(cleaned)
    return urls


class TestFilterIndexEquivalence:
    def test_every_bundled_rule_agrees_with_linear(self):
        compiled = bundled_easylist()
        contexts = [
            ("", "other"),
            ("news-site.example", "script"),
            ("host.example", "image"),
        ]
        probed = 0
        for rule in compiled.blocking + compiled.exceptions:
            for url in _probe_urls_for(rule):
                for page_host, rtype in contexts:
                    assert compiled.match(url, page_host, rtype) is (
                        match_linear(compiled, url, page_host, rtype)
                    ), (rule.raw, url, page_host, rtype)
                    probed += 1
        assert probed > len(compiled)  # every rule contributed probes

    @settings(max_examples=80, deadline=None)
    @given(
        host=st.from_regex(r"[a-z]{3,10}\.(com|net|example)", fullmatch=True),
        path=st.text(alphabet=string.ascii_lowercase + string.digits + "/-_.", max_size=40),
        page_host=st.sampled_from(["", "news-site.example", "weather-now.example"]),
        rtype=st.sampled_from(["script", "image", "xmlhttprequest", "other"]),
    )
    def test_random_urls_agree_with_linear(self, host, path, page_host, rtype):
        compiled = bundled_easylist()
        url = f"https://{host}/{path.lstrip('/')}"
        assert compiled.match(url, page_host, rtype) is match_linear(
            compiled, url, page_host, rtype
        )

    def test_verdict_memo_stable_across_repeats(self):
        compiled = bundled_easylist()
        url = "https://metrics.doubleclick.example/pixel?id=9"
        first = compiled.match(url, "news-site.example", "image")
        for _ in range(3):
            assert compiled.match(url, "news-site.example", "image") is first


# ---------------------------------------------------------------------------
# Parallel analysis determinism + end-to-end fast/slow agreement


def _study_fingerprint(study):
    out = []
    for result in study.services:
        for (os_name, medium), analysis in sorted(result.sessions.items()):
            out.append(
                (
                    result.spec.slug,
                    os_name,
                    medium,
                    analysis.flows_total,
                    sorted(analysis.aa_domains),
                    analysis.aa_flows,
                    analysis.aa_bytes,
                    sorted(analysis.third_party_domains),
                    sorted(
                        (leak.pii_type.value, leak.domain, leak.category)
                        for leak in analysis.leaks
                    ),
                    analysis.recon_false_positives,
                )
            )
    return out


class TestParallelAnalysis:
    def _dataset(self):
        specs = [s for s in build_catalog() if s.slug in ("weather", "cnn")]
        world = build_world(specs)
        runner = ExperimentRunner(world, seed=2016)
        return runner.run_study(specs, duration=40.0), specs

    def test_workers_do_not_change_results(self):
        dataset, specs = self._dataset()
        serial = analyze_dataset(dataset, specs, train_recon=False)
        pooled = analyze_dataset(dataset, specs, train_recon=False, executor=4)
        assert _study_fingerprint(serial) == _study_fingerprint(pooled)

    def test_run_study_accepts_workers(self):
        specs = [s for s in build_catalog() if s.slug == "weather"]
        study = run_study(
            services=specs, seed=2016, duration=40.0, train_recon=False, executor=2
        )
        assert _study_fingerprint(study)

    def test_collected_traffic_fast_slow_identical(self):
        """End to end: every captured request matches identically with
        and without the matcher's memos."""
        dataset, _ = self._dataset()
        checked = 0
        for record in dataset:
            fast = matcher_for(record.ground_truth)
            slow = GroundTruthMatcher(record.ground_truth, slow=True)
            for flow in record.trace:
                if not flow.decrypted:
                    continue
                for txn in flow.transactions:
                    assert _match_keys(fast.match_request(txn.request)) == _match_keys(
                        slow.match_request(txn.request)
                    )
                    checked += 1
        assert checked > 50
