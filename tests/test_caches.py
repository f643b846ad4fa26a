"""Process-lifetime caches: every one is bounded, cleared between tests,
and invisible in the bytes a capture produces."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.pipeline import categorizer_for, run_study
from repro.experiment.runner import ExperimentRunner
from repro.http import url
from repro.http.body import decode_body
from repro.http.cookies import parse_cookie_header
from repro.net import codec
from repro.pii import matcher, structure
from repro.pii.encodings import variants
from repro.pii.recon import _value_shape
from repro.pii.types import PiiType
from repro.services.catalog import build_catalog
from repro.services.world import build_world
from repro.tls.handshake import ServerTlsProfile
from repro.trackerdb import psl
from repro.trackerdb.easylist import bundled_easylist

from .conftest import clear_process_caches, process_caches

_SLUGS = ("weather", "grubhub", "cnn")


def _spec(slug: str):
    return next(spec for spec in build_catalog() if spec.slug == slug)


# One call per distinct key ``i`` for each cache, by qualified name.
FEEDERS = {
    "repro.core.pipeline._categorizer": lambda i: categorizer_for(
        SimpleNamespace(first_party_domains=[f"d{i}.example"], sso_domains=[])
    ),
    "repro.http.body._decode_body": lambda i: decode_body(b"%d" % i, "text/plain"),
    "repro.http.cookies._cookie_pairs": lambda i: parse_cookie_header(f"a={i}"),
    "repro.http.url._percent_encode": lambda i: url.percent_encode(f"a b{i}"),
    "repro.http.url._encode_query": lambda i: url.encode_query([("k", i)]),
    "repro.http.url._decode_query": lambda i: url.decode_query(f"k={i}"),
    "repro.http.url._PARSE_CACHE": lambda i: url.parse_url(f"http://h.example/{i}"),
    "repro.pii.encodings._variant_items": lambda i: variants(f"value{i}"),
    "repro.pii.matcher._MATCHER_CACHE": lambda i: matcher.matcher_for({PiiType.EMAIL: [f"u{i}@x.example"]}),
    "repro.pii.recon._short_shape": lambda i: _value_shape(str(i)),
    "repro.pii.structure._header_is_interesting": lambda i: structure._header_is_interesting(
        f"X-H{i}"
    ),
    "repro.tls.handshake.ServerTlsProfile.standard": lambda i: ServerTlsProfile.standard(
        f"h{i}.example"
    ),
    "repro.tls.handshake.ServerTlsProfile.pinned": lambda i: ServerTlsProfile.pinned(
        f"h{i}.example"
    ),
    "repro.trackerdb.easylist.bundled_easylist": lambda i: bundled_easylist(),
    "repro.trackerdb.psl.same_party": lambda i: psl.same_party(f"a{i}.example", "b.example"),
    "repro.trackerdb.psl.domain_key": lambda i: psl.domain_key(f"h{i}.example"),
}

# The clear-at-max dicts, whose bound is a module constant.
DICT_BOUNDS = {
    "repro.http.url._PARSE_CACHE": url._PARSE_CACHE_MAX,
    "repro.pii.matcher._MATCHER_CACHE": matcher._MATCHER_CACHE_MAX,
}


def _bound(name: str, cache) -> int:
    return DICT_BOUNDS[name] if isinstance(cache, dict) else cache.cache_info().maxsize


def _size(cache) -> int:
    return len(cache) if isinstance(cache, dict) else cache.cache_info().currsize


def test_every_cache_is_listed_and_bounded():
    """A new cache must join FEEDERS, which gives it a bound test; the
    fixture clears whatever :func:`process_caches` finds."""
    caches = process_caches()
    assert sorted(caches) == sorted(FEEDERS)
    for name, cache in caches.items():
        assert _bound(name, cache) is not None, name


def test_clearing_empties_every_cache():
    run_study(services=[_spec("weather")], duration=20.0, train_recon=False)
    for feed in FEEDERS.values():
        feed(0)
    caches = process_caches()
    assert all(_size(cache) for cache in caches.values())
    clear_process_caches()
    assert {name: _size(cache) for name, cache in caches.items()} == dict.fromkeys(caches, 0)


@pytest.mark.parametrize("name", sorted(FEEDERS))
def test_cache_holds_at_most_its_bound(name):
    cache = process_caches()[name]
    bound = _bound(name, cache)
    feed = FEEDERS[name]
    for index in range(bound + 1):
        feed(index)
    assert 0 < _size(cache) <= bound


def test_header_memo_is_bounded_and_exact():
    memo = structure._header_is_interesting
    prefixes = ("X-Id-", "x-", "Device-", "Accept-", "User-Agent")
    names = [f"{prefix}{index}" for index in range(10_000) for prefix in prefixes]
    assert len(set(names)) == 50_000
    for name in names:
        lowered = name.lower()
        expected = any(
            lowered == probe or (probe.endswith("-") and lowered.startswith(probe))
            for probe in structure._INTERESTING_HEADERS
        )
        assert memo(name) is expected, name
    assert memo.cache_info().currsize == memo.cache_info().maxsize
    assert memo("user-agent") and memo("Referer") and not memo("Accept")


# -- no bound changes a byte ---------------------------------------------------


def capture() -> dict:
    """``{session key: codec.encode_trace bytes}`` of a 60 s capture of
    weather, grubhub and cnn on a freshly built world."""
    services = [_spec(slug) for slug in _SLUGS]
    dataset = ExperimentRunner(build_world(services), seed=2016).run_study(
        services, duration=60.0
    )
    return {"/".join(record.key): codec.encode_trace(record.trace) for record in dataset}


def test_warm_and_cleared_caches_capture_the_fresh_process_bytes():
    script = (
        "import json, sys\n"
        "from tests.test_caches import capture\n"
        "json.dump({k: v.hex() for k, v in capture().items()}, sys.stdout)\n"
    )
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=root,
        env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
        capture_output=True,
        text=True,
        check=True,
    )
    fresh = {key: bytes.fromhex(blob) for key, blob in json.loads(done.stdout).items()}
    assert len(fresh) == 12
    capture()  # every module cache warm, the world built afresh
    assert capture() == fresh
    clear_process_caches()
    assert capture() == fresh
