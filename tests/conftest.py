"""Shared fixtures.

``mini_study`` runs the pipeline over a 6-service cross-section once per
session; analysis-level tests share it.  ``echo_world`` provides a tiny
network with a single echo server for transport/proxy tests.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import random
import re

import pytest

from repro.core.pipeline import run_study
from repro.http.message import Response
from repro.http.transport import Network
from repro.net.clock import SimClock
from repro.proxy.meddle import InterceptionProxy
from repro.services.catalog import build_catalog
from repro.tls.handshake import ServerTlsProfile

MINI_SLUGS = ("weather", "yelp", "grubhub", "cnn", "priceline", "netflix")


@pytest.fixture
def rng():
    return random.Random(42)


@functools.lru_cache(maxsize=1)
def process_caches() -> dict:
    """Every process-lifetime cache in ``repro``, by qualified name.

    A cache is a ``functools`` LRU wrapper a ``repro`` module defines,
    at module level or on a class (``ServerTlsProfile.standard``), or a
    module-level dict named ``_..._CACHE`` or ``_..._MEMO``.  Every
    module is imported on the first call, so one scan finds them all.
    """
    import repro

    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            members = {name: value}
            if isinstance(value, type) and value.__module__ == info.name:
                members = {
                    f"{name}.{attr}": getattr(member, "__func__", member)
                    for attr, member in vars(value).items()
                }
            for label, member in members.items():
                if isinstance(member, functools._lru_cache_wrapper):
                    if member.__module__ == info.name:
                        found[f"{info.name}.{label}"] = member
                elif isinstance(member, dict) and re.fullmatch(r"_[A-Z_]+_(CACHE|MEMO)", label):
                    found[f"{info.name}.{label}"] = member
    return found


def clear_process_caches() -> None:
    for cache in process_caches().values():
        if isinstance(cache, dict):
            cache.clear()
        else:
            cache.cache_clear()


@pytest.fixture(autouse=True)
def _hermetic_caches():
    """Reset every process-lifetime cache after every test.

    The fast paths memoize parsed URLs, decoded bodies, cookie parses,
    matchers and their memos, filter verdicts and more.  The caches are
    content-keyed, so they cannot change *results* — but a test that
    asserts on cache behaviour, or one that monkeypatches something a
    cached value baked in, must not see another test's entries.
    """
    yield
    clear_process_caches()


class EchoHandler:
    """Returns a JSON echo of the request; used across transport tests."""

    def __init__(self) -> None:
        self.requests = []

    def handle(self, request):
        self.requests.append(request)
        body = f'{{"path": "{request.url.path}", "method": "{request.method}"}}'.encode()
        return Response.build(200, body, "application/json")


@pytest.fixture
def echo_handler():
    return EchoHandler()


@pytest.fixture
def echo_world(echo_handler):
    """(network, clock, proxy) with one echo server at api.example.com."""
    network = Network()
    network.register(
        "api.example.com", echo_handler, tls=ServerTlsProfile.standard("api.example.com")
    )
    network.register(
        "*.cdn.example.com", echo_handler, tls=ServerTlsProfile.standard("cdn.example.com")
    )
    clock = SimClock()
    proxy = InterceptionProxy(network, clock)
    return network, clock, proxy


@pytest.fixture(scope="session")
def mini_catalog():
    by_slug = {spec.slug: spec for spec in build_catalog()}
    return [by_slug[slug] for slug in MINI_SLUGS]


@pytest.fixture(scope="session")
def mini_study(mini_catalog):
    """A small but complete study (app+web, both OSes, ReCon trained)."""
    return run_study(services=mini_catalog, seed=2016, train_recon=True)


@pytest.fixture(scope="session")
def full_catalog():
    return build_catalog()
