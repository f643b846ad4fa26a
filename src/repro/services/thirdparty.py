"""The advertising & analytics (A&A) third-party ecosystem.

This registry defines every third-party organization in the simulated
world: the A&A domains the paper's Table 2 reports (amobee, moatads,
google-analytics, …), the password recipients from §4.2 (taplytics,
usablenet, Gigya), and enough additional ad-tech players to give web
pages their characteristic fan-out (RTB exchanges that redirect through
partners, cookie-sync chains, viewability scripts).

Each entry declares which media integrate it (app SDK, web tag, or
both), its role, and its RTB partners.  The concrete traffic behaviour
lives in :mod:`repro.services.adsdk` (app side) and
:mod:`repro.services.webtracker` (web side + server handlers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Roles determine server behaviour and list membership.
ANALYTICS = "analytics"  # collect beacons, SDK telemetry
AD_NETWORK = "ad_network"  # serves creatives
AD_EXCHANGE = "ad_exchange"  # RTB: redirects through partners
TAG_MANAGER = "tag_manager"  # loads further tags
VERIFICATION = "verification"  # viewability/fraud scripts
IDENTITY = "identity"  # third-party login/credential management
CDN = "cdn"  # content delivery; NOT advertising & analytics

AA_ROLES = frozenset({ANALYTICS, AD_NETWORK, AD_EXCHANGE, TAG_MANAGER, VERIFICATION})


@dataclass(frozen=True)
class ThirdParty:
    """One third-party organization."""

    name: str
    domain: str  # registrable domain
    role: str
    media: tuple = ("app", "web")  # which platforms integrate it
    hosts: tuple = ()  # concrete hostnames; default derives from domain
    rtb_partners: tuple = ()  # registrable domains of sync partners
    supports_http: bool = False  # offers plaintext endpoints

    @property
    def is_aa(self) -> bool:
        return self.role in AA_ROLES

    @property
    def hostnames(self) -> tuple:
        if self.hosts:
            return self.hosts
        return (self.domain, f"www.{self.domain}")

    @property
    def beacon_host(self) -> str:
        return self.hostnames[0]


_REGISTRY: dict = {}


def _add(party: ThirdParty) -> ThirdParty:
    if party.domain in _REGISTRY:
        raise ValueError(f"duplicate third party {party.domain}")
    _REGISTRY[party.domain] = party
    return party


# --- Table 2 A&A domains (top-20 recipients in the paper) -------------------

AMOBEE = _add(ThirdParty("Amobee", "amobee.com", AD_NETWORK, hosts=("rrtb.amobee.com", "ads.amobee.com"), supports_http=True))
MOATADS = _add(ThirdParty("Moat", "moatads.com", VERIFICATION, hosts=("z.moatads.com", "px.moatads.com")))
VRVM = _add(ThirdParty("Verve", "vrvm.com", AD_NETWORK, media=("app",), hosts=("adcel.vrvm.com",), supports_http=True))
GOOGLE_ANALYTICS = _add(ThirdParty("Google Analytics", "google-analytics.com", ANALYTICS, hosts=("www.google-analytics.com", "ssl.google-analytics.com"), supports_http=True))
FACEBOOK = _add(ThirdParty("Facebook", "facebook.com", AD_NETWORK, hosts=("graph.facebook.com", "connect.facebook.net", "www.facebook.com")))
GROCERYSERVER = _add(ThirdParty("GroceryServer", "groceryserver.com", ANALYTICS, media=("app",), hosts=("api.groceryserver.com",), supports_http=True))
SERVING_SYS = _add(ThirdParty("Sizmek", "serving-sys.com", AD_NETWORK, hosts=("bs.serving-sys.com", "secure-ds.serving-sys.com")))
GOOGLESYNDICATION = _add(ThirdParty("Google Ads", "googlesyndication.com", AD_NETWORK, hosts=("pagead2.googlesyndication.com", "tpc.googlesyndication.com")))
THEBRIGHTTAG = _add(ThirdParty("Signal/BrightTag", "thebrighttag.com", TAG_MANAGER, hosts=("s.thebrighttag.com",)))
TIQCDN = _add(ThirdParty("Tealium", "tiqcdn.com", TAG_MANAGER, hosts=("tags.tiqcdn.com",)))
MARINSM = _add(ThirdParty("Marin Software", "marinsm.com", ANALYTICS, hosts=("tracker.marinsm.com",)))
CRITEO = _add(ThirdParty("Criteo", "criteo.com", AD_EXCHANGE, hosts=("bidder.criteo.com", "sslwidget.criteo.com"), rtb_partners=("bidswitch.net", "adsrvr.org")))
TWOMDN = _add(ThirdParty("DoubleClick CDN", "2mdn.net", AD_NETWORK, hosts=("s0.2mdn.net",)))
MONETATE = _add(ThirdParty("Monetate", "monetate.net", ANALYTICS, hosts=("sb.monetate.net",)))
REALMEDIA = _add(ThirdParty("24/7 Real Media", "247realmedia.com", AD_NETWORK, hosts=("oascentral.247realmedia.com",), supports_http=True))
KRXD = _add(ThirdParty("Krux", "krxd.net", ANALYTICS, hosts=("beacon.krxd.net", "cdn.krxd.net")))
DOUBLEVERIFY = _add(ThirdParty("DoubleVerify", "doubleverify.com", VERIFICATION, hosts=("cdn.doubleverify.com", "tps.doubleverify.com")))
CLOUDINARY = _add(ThirdParty("Cloudinary", "cloudinary.com", ANALYTICS, media=("web",), hosts=("res.cloudinary.com",)))
WEBTRENDS = _add(ThirdParty("Webtrends", "webtrends.com", ANALYTICS, hosts=("s.webtrends.com", "statse.webtrendslive.com")))
LIFTOFF = _add(ThirdParty("Liftoff", "liftoff.io", AD_NETWORK, media=("app",), hosts=("impression-east.liftoff.io",)))

# --- §4.2 password recipients -------------------------------------------------

TAPLYTICS = _add(ThirdParty("Taplytics", "taplytics.com", ANALYTICS, media=("app",), hosts=("api.taplytics.com",)))
USABLENET = _add(ThirdParty("Usablenet", "usablenet.com", IDENTITY, hosts=("ticket.usablenet.com",)))
GIGYA = _add(ThirdParty("Gigya", "gigya.com", IDENTITY, hosts=("accounts.gigya.com", "cdns.gigya.com")))

# --- wider ad-tech ecosystem (volume, RTB fan-out, cookie syncing) ------------

DOUBLECLICK = _add(ThirdParty("DoubleClick", "doubleclick.net", AD_EXCHANGE, hosts=("ad.doubleclick.net", "stats.g.doubleclick.net", "cm.g.doubleclick.net"), rtb_partners=("adnxs.com", "criteo.com", "mathtag.com", "bluekai.com")))
ADNXS = _add(ThirdParty("AppNexus", "adnxs.com", AD_EXCHANGE, hosts=("ib.adnxs.com", "secure.adnxs.com"), rtb_partners=("rubiconproject.com", "adsrvr.org"), supports_http=True))
RUBICON = _add(ThirdParty("Rubicon Project", "rubiconproject.com", AD_EXCHANGE, hosts=("fastlane.rubiconproject.com", "pixel.rubiconproject.com"), rtb_partners=("pubmatic.com",)))
PUBMATIC = _add(ThirdParty("PubMatic", "pubmatic.com", AD_EXCHANGE, hosts=("ads.pubmatic.com", "image2.pubmatic.com"), rtb_partners=("openx.net",)))
OPENX = _add(ThirdParty("OpenX", "openx.net", AD_EXCHANGE, hosts=("u.openx.net",), supports_http=True))
CASALE = _add(ThirdParty("Casale Media", "casalemedia.com", AD_EXCHANGE, hosts=("dsum.casalemedia.com",), rtb_partners=("bidswitch.net",)))
SCORECARD = _add(ThirdParty("comScore", "scorecardresearch.com", ANALYTICS, hosts=("b.scorecardresearch.com", "sb.scorecardresearch.com"), supports_http=True))
QUANTSERVE = _add(ThirdParty("Quantcast", "quantserve.com", ANALYTICS, hosts=("pixel.quantserve.com", "edge.quantserve.com")))
CHARTBEAT = _add(ThirdParty("Chartbeat", "chartbeat.com", ANALYTICS, media=("web",), hosts=("ping.chartbeat.net", "static.chartbeat.com"), supports_http=True))
CRASHLYTICS = _add(ThirdParty("Crashlytics", "crashlytics.com", ANALYTICS, media=("app",), hosts=("settings.crashlytics.com", "reports.crashlytics.com")))
FLURRY = _add(ThirdParty("Flurry", "flurry.com", ANALYTICS, media=("app",), hosts=("data.flurry.com",), supports_http=True))
ADJUST = _add(ThirdParty("Adjust", "adjust.com", ANALYTICS, media=("app",), hosts=("app.adjust.com",)))
APPSFLYER = _add(ThirdParty("AppsFlyer", "appsflyer.com", ANALYTICS, media=("app",), hosts=("t.appsflyer.com",)))
BRANCH = _add(ThirdParty("Branch", "branch.io", ANALYTICS, media=("app",), hosts=("api.branch.io",)))
MOPUB = _add(ThirdParty("MoPub", "mopub.com", AD_NETWORK, media=("app",), hosts=("ads.mopub.com",)))
AMAZON_ADS = _add(ThirdParty("Amazon Ads", "amazon-adsystem.com", AD_EXCHANGE, hosts=("aax.amazon-adsystem.com", "s.amazon-adsystem.com"), rtb_partners=("doubleclick.net",)))
TABOOLA = _add(ThirdParty("Taboola", "taboola.com", AD_NETWORK, media=("web",), hosts=("trc.taboola.com", "cdn.taboola.com")))
OUTBRAIN = _add(ThirdParty("Outbrain", "outbrain.com", AD_NETWORK, media=("web",), hosts=("widgets.outbrain.com", "odb.outbrain.com")))
ADVERTISING_COM = _add(ThirdParty("AOL Advertising", "advertising.com", AD_EXCHANGE, hosts=("adserver.advertising.com", "pixel.advertising.com"), supports_http=True))
MATHTAG = _add(ThirdParty("MediaMath", "mathtag.com", AD_EXCHANGE, hosts=("pixel.mathtag.com", "sync.mathtag.com")))
BLUEKAI = _add(ThirdParty("BlueKai", "bluekai.com", ANALYTICS, media=("web",), hosts=("tags.bluekai.com", "stags.bluekai.com")))
DEMDEX = _add(ThirdParty("Adobe Audience Manager", "demdex.net", ANALYTICS, media=("web",), hosts=("dpm.demdex.net",)))
OMTRDC = _add(ThirdParty("Adobe Analytics", "omtrdc.net", ANALYTICS, hosts=("sc.omtrdc.net",)))
NEWRELIC = _add(ThirdParty("New Relic", "newrelic.com", ANALYTICS, media=("web",), hosts=("js-agent.newrelic.com", "bam.nr-data.net")))
OPTIMIZELY = _add(ThirdParty("Optimizely", "optimizely.com", ANALYTICS, media=("web",), hosts=("cdn.optimizely.com", "logx.optimizely.com")))
MIXPANEL = _add(ThirdParty("Mixpanel", "mixpanel.com", ANALYTICS, hosts=("api.mixpanel.com",)))
KOCHAVA = _add(ThirdParty("Kochava", "kochava.com", ANALYTICS, media=("app",), hosts=("control.kochava.com",)))
ADSRVR = _add(ThirdParty("The Trade Desk", "adsrvr.org", AD_EXCHANGE, hosts=("match.adsrvr.org", "insight.adsrvr.org")))
BIDSWITCH = _add(ThirdParty("BidSwitch", "bidswitch.net", AD_EXCHANGE, hosts=("x.bidswitch.net",)))
SMARTADSERVER = _add(ThirdParty("Smart AdServer", "smartadserver.com", AD_NETWORK, media=("web",), hosts=("ww251.smartadserver.com",), supports_http=True))
YIELDMO = _add(ThirdParty("YieldMo", "yieldmo.com", AD_NETWORK, media=("app",), hosts=("ads.yieldmo.com",)))
GUMGUM = _add(ThirdParty("GumGum", "gumgum.com", AD_NETWORK, media=("web",), hosts=("g2.gumgum.com",)))
SHARETHROUGH = _add(ThirdParty("Sharethrough", "sharethrough.com", AD_NETWORK, media=("web",), hosts=("btlr.sharethrough.com",)))
INDEXEXCHANGE = _add(ThirdParty("Index Exchange", "indexexchange.com", AD_EXCHANGE, media=("web",), hosts=("htlb.indexexchange.com", "as-sec.indexexchange.com")))
GOOGLETAG = _add(ThirdParty("Google Tag Manager", "googletagmanager.com", TAG_MANAGER, media=("web",), hosts=("www.googletagmanager.com",)))
GOOGLETAGSERVICES = _add(ThirdParty("Google Publisher Tag", "googletagservices.com", TAG_MANAGER, media=("web",), hosts=("www.googletagservices.com",)))

# --- long-tail web ad tech (header bidding / native ads, volume only) --------

ADTECHUS = _add(ThirdParty("AOL AdTech", "adtechus.com", AD_NETWORK, media=("web",), hosts=("adserver.adtechus.com",)))
CONTEXTWEB = _add(ThirdParty("PulsePoint", "contextweb.com", AD_EXCHANGE, media=("web",), hosts=("bh.contextweb.com",)))
LIJIT = _add(ThirdParty("Sovrn", "lijit.com", AD_EXCHANGE, media=("web",), hosts=("ap.lijit.com",)))
SONOBI = _add(ThirdParty("Sonobi", "sonobi.com", AD_EXCHANGE, media=("web",), hosts=("apex.go.sonobi.com",)))
SPOTX = _add(ThirdParty("SpotX", "spotxchange.com", AD_EXCHANGE, media=("web",), hosts=("search.spotxchange.com",)))
TREMOR = _add(ThirdParty("Tremor Video", "tremorhub.com", AD_EXCHANGE, media=("web",), hosts=("ads.tremorhub.com",)))
TEADS = _add(ThirdParty("Teads", "teads.tv", AD_NETWORK, media=("web",), hosts=("a.teads.tv",)))
STICKYADS = _add(ThirdParty("StickyADS", "stickyadstv.com", AD_NETWORK, media=("web",), hosts=("ads.stickyadstv.com",)))
ADFORM = _add(ThirdParty("Adform", "adform.net", AD_EXCHANGE, media=("web",), hosts=("track.adform.net",)))
ZERGNET = _add(ThirdParty("ZergNet", "zergnet.com", AD_NETWORK, media=("web",), hosts=("www.zergnet.com",)))
REVCONTENT = _add(ThirdParty("Revcontent", "revcontent.com", AD_NETWORK, media=("web",), hosts=("trends.revcontent.com",)))
MGID = _add(ThirdParty("MGID", "mgid.com", AD_NETWORK, media=("web",), hosts=("servicer.mgid.com",)))
TRIPLELIFT = _add(ThirdParty("TripleLift", "triplelift.com", AD_EXCHANGE, media=("web",), hosts=("tlx.3lift.net", "eb2.3lift.net")))
MEDIANET = _add(ThirdParty("Media.net", "media-net.com", AD_NETWORK, media=("web",), hosts=("contextual.media-net.com",)))

# --- non-A&A third parties (CDNs, fonts; contacted but not trackers) ---------

CLOUDFRONT = _add(ThirdParty("CloudFront", "cloudfront.net", CDN, hosts=("d1cdn.cloudfront.net", "d2cdn.cloudfront.net")))
AKAMAI = _add(ThirdParty("Akamai", "akamaihd.net", CDN, hosts=("assets.akamaihd.net",)))
FASTLY = _add(ThirdParty("Fastly", "fastly.net", CDN, hosts=("global.fastly.net",)))
GOOGLE_FONTS = _add(ThirdParty("Google Fonts", "googleapis-fonts.com", CDN, media=("web",), hosts=("fonts.googleapis-fonts.com",)))
JSDELIVR = _add(ThirdParty("jsDelivr", "jsdelivr.net", CDN, media=("web",), hosts=("cdn.jsdelivr.net",)))


def registry() -> dict:
    """The full third-party registry, keyed by registrable domain."""
    return dict(_REGISTRY)


def get(domain: str) -> ThirdParty:
    try:
        return _REGISTRY[domain]
    except KeyError:
        raise KeyError(f"unknown third party {domain!r}") from None


def aa_domains() -> set:
    """Registrable domains EasyList should flag as A&A."""
    return {party.domain for party in _REGISTRY.values() if party.is_aa}
