"""In-app advertising & analytics SDK profiles.

Apps in the paper's world typically embed *one or a few* A&A SDKs (§1:
"most apps include a single advertisement library"), each of which
phones home to a small set of hosts.  An :class:`SdkProfile` describes
one SDK's client-side traffic pattern: its configuration fetch, the
event-beacon endpoint and cadence, and whether it fetches ad creatives.

The catalog attaches SDK profiles to app specs by third-party domain;
the app runtime (:mod:`repro.services.service`) replays their behaviour
during a session.
"""

from __future__ import annotations

from dataclasses import dataclass

from .thirdparty import AD_EXCHANGE, AD_NETWORK, ANALYTICS, get as get_party


@dataclass(frozen=True)
class SdkProfile:
    """Client-side behaviour of one in-app SDK."""

    domain: str  # third-party registrable domain
    config_path: str = "/sdk/config"
    beacon_path: str = "/sdk/event"
    # Beacons sent per scripted user action (chatty SDKs send several).
    beacons_per_action: int = 1
    # Ad-serving SDKs additionally fetch a creative per refresh.
    serves_ads: bool = False
    ad_path: str = "/ad/fetch"
    ad_refresh_actions: int = 1  # fetch an ad every N actions
    uses_post: bool = False  # beacons as POST JSON instead of GET query

    @property
    def beacon_host(self) -> str:
        return get_party(self.domain).beacon_host


# Built-in profiles for every app-capable third party.  Volume knobs are
# per-SDK personality: attribution SDKs are quiet, ad SDKs are chatty.
_PROFILES = {
    "amobee.com": SdkProfile("amobee.com", beacons_per_action=14, serves_ads=True, ad_refresh_actions=1),
    "vrvm.com": SdkProfile("vrvm.com", beacons_per_action=2, serves_ads=True, ad_refresh_actions=1),
    "moatads.com": SdkProfile("moatads.com", beacons_per_action=2),
    "google-analytics.com": SdkProfile("google-analytics.com", beacon_path="/collect", beacons_per_action=1),
    "facebook.com": SdkProfile("facebook.com", config_path="/v2.6/app/activities", beacon_path="/v2.6/app/events", beacons_per_action=1, uses_post=True),
    "groceryserver.com": SdkProfile("groceryserver.com", beacons_per_action=4, uses_post=True),
    "serving-sys.com": SdkProfile("serving-sys.com", beacons_per_action=1, serves_ads=True, ad_refresh_actions=2),
    "googlesyndication.com": SdkProfile("googlesyndication.com", beacons_per_action=1, serves_ads=True, ad_refresh_actions=1),
    "thebrighttag.com": SdkProfile("thebrighttag.com", beacons_per_action=2),
    "tiqcdn.com": SdkProfile("tiqcdn.com", beacons_per_action=1),
    "marinsm.com": SdkProfile("marinsm.com", beacons_per_action=7, uses_post=True),
    "criteo.com": SdkProfile("criteo.com", beacons_per_action=1, serves_ads=True, ad_refresh_actions=2),
    "2mdn.net": SdkProfile("2mdn.net", beacons_per_action=1, serves_ads=True, ad_refresh_actions=2),
    "monetate.net": SdkProfile("monetate.net", beacons_per_action=5, uses_post=True),
    "247realmedia.com": SdkProfile("247realmedia.com", beacons_per_action=2, serves_ads=True, ad_refresh_actions=2),
    "krxd.net": SdkProfile("krxd.net", beacons_per_action=2),
    "doubleverify.com": SdkProfile("doubleverify.com", beacons_per_action=2),
    "webtrends.com": SdkProfile("webtrends.com", beacons_per_action=4, uses_post=True),
    "liftoff.io": SdkProfile("liftoff.io", beacons_per_action=2, serves_ads=True, ad_refresh_actions=2),
    "taplytics.com": SdkProfile("taplytics.com", beacons_per_action=1, uses_post=True),
    "doubleclick.net": SdkProfile("doubleclick.net", beacons_per_action=2, serves_ads=True, ad_refresh_actions=1),
    "mopub.com": SdkProfile("mopub.com", beacons_per_action=2, serves_ads=True, ad_refresh_actions=1),
    "crashlytics.com": SdkProfile("crashlytics.com", config_path="/spi/v1/platforms", beacons_per_action=1, uses_post=True),
    "flurry.com": SdkProfile("flurry.com", beacons_per_action=2, uses_post=True),
    "adjust.com": SdkProfile("adjust.com", beacons_per_action=1),
    "appsflyer.com": SdkProfile("appsflyer.com", beacons_per_action=1, uses_post=True),
    "branch.io": SdkProfile("branch.io", beacons_per_action=1, uses_post=True),
    "mixpanel.com": SdkProfile("mixpanel.com", beacon_path="/track", beacons_per_action=2),
    "kochava.com": SdkProfile("kochava.com", beacons_per_action=2, uses_post=True),
    "yieldmo.com": SdkProfile("yieldmo.com", beacons_per_action=2, serves_ads=True, ad_refresh_actions=1),
    "scorecardresearch.com": SdkProfile("scorecardresearch.com", beacon_path="/b", beacons_per_action=2),
    "quantserve.com": SdkProfile("quantserve.com", beacon_path="/pixel", beacons_per_action=2),
    "omtrdc.net": SdkProfile("omtrdc.net", beacon_path="/b/ss", beacons_per_action=2),
    "amazon-adsystem.com": SdkProfile("amazon-adsystem.com", beacons_per_action=1, serves_ads=True, ad_refresh_actions=2),
    "advertising.com": SdkProfile("advertising.com", beacons_per_action=1, serves_ads=True, ad_refresh_actions=2),
    "gigya.com": SdkProfile("gigya.com", beacons_per_action=0, uses_post=True),
    "usablenet.com": SdkProfile("usablenet.com", beacons_per_action=0, uses_post=True),
}


def profile_for(domain: str) -> SdkProfile:
    """Return the SDK profile for a third-party domain.

    Unknown domains get a conservative one-beacon-per-action analytics
    profile, so catalog extensions don't need to touch this module.
    """
    existing = _PROFILES.get(domain)
    if existing is not None:
        return existing
    return SdkProfile(domain=domain)
