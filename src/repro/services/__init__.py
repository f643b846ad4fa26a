"""Simulated online-service world: catalog, behaviours, third parties."""

from .adsdk import SdkProfile, profile_for
from .catalog import build_catalog, rows
from .endpoints import FirstPartyHandler
from .service import (
    FIRST_PARTY_DEST,
    AppConfig,
    AppRuntime,
    LeakSpec,
    ServiceSpec,
    SessionStats,
    WebConfig,
    WebRuntime,
)
from .thirdparty import ThirdParty, aa_domains, get, registry
from .world import World, build_world

__all__ = [
    "AppConfig",
    "AppRuntime",
    "FIRST_PARTY_DEST",
    "FirstPartyHandler",
    "LeakSpec",
    "SdkProfile",
    "ServiceSpec",
    "SessionStats",
    "ThirdParty",
    "WebConfig",
    "WebRuntime",
    "World",
    "aa_domains",
    "build_catalog",
    "build_world",
    "get",
    "profile_for",
    "registry",
    "rows",
]
