"""The 50-service catalog.

This is the calibrated world model: 50 popular free services across the
paper's nine categories (Table 1), each with an app and a mobile web
site.  The leak-type assignment per service/medium/OS was solved against
the paper's published constraints:

- Table 1 per-category leak rates and per-OS totals (41/48 Android apps
  leak, 43/50 iOS apps, 25/48 Android web, 38/50 iOS web);
- Table 3 per-identifier service counts (e.g. Location 30 app / 21
  common / 26 web, Unique ID 40/0/0);
- the §4.2 anecdotes (Grubhub password→Taplytics, JetBlue→Usablenet,
  Food Network & NCAA→Gigya, Priceline's web-only birthday/gender);
- Figure 1 shapes (web contacts far more A&A domains for >80% of
  services, identifier-diff mode at +1, majority-zero Jaccard).

Leak-type codes: B D E G L N P U PW UID (Table 1's column codes, with P
for phone).  An ``:a`` / ``:i`` suffix restricts a code to Android / iOS.

Calibration note recorded in DESIGN.md: third-party identity logins
(Gigya, Usablenet) send an opaque ``loginID`` rather than the raw email,
so that password routing does not drag email counts away from Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..device.phone import Permission
from ..pii.types import PiiType
from .service import AppConfig, LeakSpec, ServiceSpec, WebConfig, FIRST_PARTY_DEST
from .adsdk import profile_for
from .thirdparty import AA_ROLES, get as get_party

_CODE_TO_TYPE = {
    "B": PiiType.BIRTHDAY,
    "D": PiiType.DEVICE_INFO,
    "E": PiiType.EMAIL,
    "G": PiiType.GENDER,
    "L": PiiType.LOCATION,
    "N": PiiType.NAME,
    "P": PiiType.PHONE,
    "U": PiiType.USERNAME,
    "PW": PiiType.PASSWORD,
    "UID": PiiType.UNIQUE_ID,
}

# Short aliases for third-party domains, to keep rows readable.
_ALIAS = {
    "ga": "google-analytics.com",
    "fb": "facebook.com",
    "gsyn": "googlesyndication.com",
    "2mdn": "2mdn.net",
    "moat": "moatads.com",
    "ssys": "serving-sys.com",
    "criteo": "criteo.com",
    "krxd": "krxd.net",
    "tiq": "tiqcdn.com",
    "btag": "thebrighttag.com",
    "dv": "doubleverify.com",
    "vrvm": "vrvm.com",
    "amobee": "amobee.com",
    "grocery": "groceryserver.com",
    "marin": "marinsm.com",
    "monetate": "monetate.net",
    "247": "247realmedia.com",
    "webtrends": "webtrends.com",
    "liftoff": "liftoff.io",
    "cloudinary": "cloudinary.com",
    "taplytics": "taplytics.com",
    "gigya": "gigya.com",
    "usablenet": "usablenet.com",
    "dclk": "doubleclick.net",
    "adnxs": "adnxs.com",
    "rubicon": "rubiconproject.com",
    "pubmatic": "pubmatic.com",
    "openx": "openx.net",
    "casale": "casalemedia.com",
    "score": "scorecardresearch.com",
    "quant": "quantserve.com",
    "cbeat": "chartbeat.com",
    "crash": "crashlytics.com",
    "flurry": "flurry.com",
    "adjust": "adjust.com",
    "afly": "appsflyer.com",
    "branch": "branch.io",
    "mopub": "mopub.com",
    "amzn": "amazon-adsystem.com",
    "taboola": "taboola.com",
    "outbrain": "outbrain.com",
    "advcom": "advertising.com",
    "mathtag": "mathtag.com",
    "bluekai": "bluekai.com",
    "demdex": "demdex.net",
    "omtrdc": "omtrdc.net",
    "newrelic": "newrelic.com",
    "optim": "optimizely.com",
    "mixpanel": "mixpanel.com",
    "kochava": "kochava.com",
    "tradedesk": "adsrvr.org",
    "bidswitch": "bidswitch.net",
    "smart": "smartadserver.com",
    "yieldmo": "yieldmo.com",
    "gumgum": "gumgum.com",
    "sthru": "sharethrough.com",
    "ix": "indexexchange.com",
    "gtm": "googletagmanager.com",
    "gts": "googletagservices.com",
    "adtechus": "adtechus.com",
    "contextweb": "contextweb.com",
    "lijit": "lijit.com",
    "sonobi": "sonobi.com",
    "spotx": "spotxchange.com",
    "tremor": "tremorhub.com",
    "teads": "teads.tv",
    "stickyads": "stickyadstv.com",
    "adform": "adform.net",
    "zergnet": "zergnet.com",
    "revcontent": "revcontent.com",
    "mgid": "mgid.com",
    "triplelift": "triplelift.com",
    "medianet": "media-net.com",
}


def _domains(spec: str) -> tuple:
    """Expand a comma-separated alias list into registrable domains."""
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        out.append(_ALIAS.get(token, token))
    return tuple(out)


@dataclass(frozen=True)
class CatalogRow:
    """Raw description of one service before leak routing."""

    name: str
    category: str
    rank: int
    domain: str
    extra_domains: tuple = ()
    login: bool = True
    ios_only: bool = False
    app_https: bool = True
    web_https: bool = True
    sdks: str = "ga,fb"
    trackers: str = "ga,fb"
    exchanges: str = "dclk"
    ad_slots: int = 2
    app_codes: str = ""
    web_codes: str = ""
    # Per-type plaintext flags, e.g. {"L": True} — applies where the
    # destination (or first party) offers HTTP endpoints.
    plaintext: tuple = ()
    # Credential routes: (medium, pii_code, third-party alias).
    credential_routes: tuple = ()
    # "ads": location goes to ad-serving SDKs only; "all": to every A&A
    # SDK (the ad-mediation pattern behind Table 1's Education outlier).
    loc_fanout: str = "ads"
    # Hand-routed extra leaks: (medium, code[:a|:i], destination alias).
    # The destination must appear in the row's sdks (app) or trackers
    # (web) for the runtime to deliver the beacon.
    extra_leaks: tuple = ()
    # How many A&A destinations (besides the first party) receive
    # location from the web site.
    web_loc_fanout: int = 2
    # Tracker beacon repetitions per action on the web site.
    web_beacon_rate: int = 1
    api_calls: tuple = (2, 4)
    permissions: tuple = (Permission.LOCATION, Permission.PHONE_STATE)

    @property
    def slug(self) -> str:
        return self.domain.split(".")[0]


def _stable_index(seed: str, modulus: int) -> int:
    """Deterministic, hash-randomization-proof index in [0, modulus)."""
    import hashlib

    if modulus <= 0:
        raise ValueError("modulus must be positive")
    return int.from_bytes(hashlib.sha256(seed.encode()).digest()[:4], "big") % modulus


def _parse_codes(codes: str) -> list:
    """``"L:a,UID"`` → [(PiiType.LOCATION, ("android",)), (UID, both)]."""
    out = []
    for token in codes.split(","):
        token = token.strip()
        if not token:
            continue
        code, _, os_flag = token.partition(":")
        pii_type = _CODE_TO_TYPE[code]
        if os_flag == "a":
            oses = ("android",)
        elif os_flag == "i":
            oses = ("ios",)
        else:
            oses = ("android", "ios")
        out.append((code, pii_type, oses))
    return out


def _aa_sdk_domains(row: CatalogRow) -> list:
    return [d for d in _domains(row.sdks) if get_party(d).role in AA_ROLES]


def _build_leaks(row: CatalogRow) -> tuple:
    """Route the row's leak codes to concrete destinations."""
    leaks: list = []
    sdk_domains = _domains(row.sdks)
    aa_sdks = _aa_sdk_domains(row)
    analytics_sdk = aa_sdks[0] if aa_sdks else ""
    tracker_domains = _domains(row.trackers)
    exchange_domains = _domains(row.exchanges)
    plain = set(row.plaintext)

    def add(pii_type, destination, medium, oses, cadence="per_action", encoding="identity", plaintext=False):
        leaks.append(
            LeakSpec(
                pii_type=pii_type,
                destination=destination,
                media=(medium,),
                oses=oses,
                cadence=cadence,
                encoding=encoding,
                plaintext=plaintext,
            )
        )

    # -- credential routes (§4.2 anecdotes) --------------------------------
    routed_credentials = set()
    for medium, code, alias in row.credential_routes:
        pii_type = _CODE_TO_TYPE[code]
        add(pii_type, _ALIAS.get(alias, alias), medium, ("android", "ios"), cadence="once")
        routed_credentials.add((medium, code))

    # -- app codes -----------------------------------------------------------
    for code, pii_type, oses in _parse_codes(row.app_codes):
        if ("app", code) in routed_credentials:
            continue
        is_plain = code in plain
        if pii_type == PiiType.UNIQUE_ID:
            # On iOS the IDFA is available to every embedded SDK; the
            # calibrated Android behaviour shares hardware identifiers
            # with the primary SDK only — reproducing Table 1's
            # Android-apps-leak-to-fewer-domains asymmetry (2.4 vs 4.1).
            for index, domain in enumerate(aa_sdks):
                sdk_oses = oses if index == 0 else tuple(o for o in oses if o == "ios")
                if not sdk_oses:
                    continue
                # Quiet SDKs send identifiers once at init; chatty ad
                # SDKs attach them to every event beacon (the Table 2
                # magnitude split between google-analytics and amobee).
                cadence = "per_action" if profile_for(domain).beacons_per_action >= 2 else "once"
                add(pii_type, domain, "app", sdk_oses, cadence=cadence, plaintext=is_plain)
        elif pii_type == PiiType.DEVICE_INFO:
            # Device descriptors travel in SDK init payloads, once.
            if analytics_sdk:
                add(pii_type, analytics_sdk, "app", oses, cadence="once")
            add(pii_type, FIRST_PARTY_DEST, "app", oses, cadence="once")
        elif pii_type == PiiType.LOCATION:
            add(pii_type, FIRST_PARTY_DEST, "app", oses, plaintext=is_plain)
            for domain in aa_sdks:
                if domain == "facebook.com":
                    # Facebook is the most-embedded SDK but receives few
                    # leaks in the paper (Table 2: 3.7 avg) — the Graph
                    # SDK does not take GPS fixes.
                    continue
                is_ad = get_party(domain).role in ("ad_network", "ad_exchange")
                if not (is_ad or row.loc_fanout == "all"):
                    continue
                # Chatty mediation SDKs attach the fix to every beacon;
                # ordinary ad SDKs send it with ad requests only; in
                # "all" fanout mode, non-ad SDKs get it once at init
                # (they never fetch creatives).
                if row.loc_fanout == "all" and profile_for(domain).beacons_per_action >= 3:
                    cadence = "per_action"
                elif is_ad:
                    cadence = "ad_fetch"
                else:
                    cadence = "once"
                add(pii_type, domain, "app", oses, cadence=cadence, plaintext=is_plain)
        elif pii_type in (PiiType.EMAIL, PiiType.USERNAME, PiiType.PASSWORD):
            # Credentials to the first party are exempt (§3.2); a leak
            # needs a third-party destination.  The recipient varies per
            # service (keyed hash), matching the diversity of analytics
            # providers the paper observes.
            pool = [d for d in aa_sdks if d != "facebook.com"]
            if pool:
                chosen = pool[_stable_index(row.slug + code, len(pool))]
                encoding = "md5" if pii_type == PiiType.EMAIL else "identity"
                cadence = "per_action" if pii_type == PiiType.USERNAME else "once"
                add(pii_type, chosen, "app", oses, cadence=cadence, encoding=encoding)
        else:  # N, G, B, P — first party counts as a leak for these
            # Profile attributes (gender, birthday, phone) sync once at
            # login; names ride on per-action content requests.
            profile_cadence = "per_action" if pii_type == PiiType.NAME else "once"
            add(pii_type, FIRST_PARTY_DEST, "app", oses, cadence=profile_cadence)
            if pii_type in (PiiType.GENDER, PiiType.BIRTHDAY) and "facebook.com" in sdk_domains:
                add(pii_type, "facebook.com", "app", oses, cadence="once")

    # -- web codes -----------------------------------------------------------
    aa_trackers = [d for d in tracker_domains if get_party(d).role in AA_ROLES]
    for code, pii_type, oses in _parse_codes(row.web_codes):
        if ("web", code) in routed_credentials:
            continue
        is_plain = code in plain
        if pii_type == PiiType.LOCATION:
            add(pii_type, FIRST_PARTY_DEST, "web", oses, plaintext=is_plain)
            # Prefer ad-serving recipients: geo-targeting is what wants
            # coordinates.  Analytics trackers come last.
            ad_trackers = [
                d for d in aa_trackers
                # Facebook's pixel and Criteo's retargeter key on page
                # context / product views, not GPS fixes; routing
                # location at them would swamp Table 2.
                if d not in ("facebook.com", "criteo.com")
                and get_party(d).role in ("ad_network", "ad_exchange")
            ]
            rest = [d for d in aa_trackers if d not in ad_trackers]
            fanout = max(0, row.web_loc_fanout)
            exchange_pool = [d for d in exchange_domains if d != "criteo.com"]
            # Amobee's tag takes coordinates on both media (Table 2's top
            # recipient); other exchanges consume them in bid requests;
            # ad-network *tags* (googlesyndication, 2mdn) receive almost
            # none (0.8 / 0.0 avg web leaks); google-analytics last.
            amobee_first = [d for d in ad_trackers if d == "amobee.com"]
            other_ads = [d for d in ad_trackers if d != "amobee.com"]
            rest = [d for d in rest if d != "google-analytics.com"] + [
                d for d in rest if d == "google-analytics.com"
            ]
            ordered = amobee_first + exchange_pool + other_ads + rest
            for domain in ordered[:fanout]:
                add(pii_type, domain, "web", oses, plaintext=is_plain)
        elif pii_type in (PiiType.EMAIL, PiiType.USERNAME, PiiType.PASSWORD):
            pool = [d for d in aa_trackers if d != "facebook.com"]
            if pool:
                chosen = pool[_stable_index(row.slug + code + "w", len(pool))]
                encoding = "md5" if pii_type == PiiType.EMAIL else "identity"
                cadence = "per_action" if pii_type == PiiType.USERNAME else "once"
                add(pii_type, chosen, "web", oses, cadence=cadence, encoding=encoding)
        else:  # N, G, B, P
            web_cadence = "once" if pii_type == PiiType.BIRTHDAY else "per_action"
            add(pii_type, FIRST_PARTY_DEST, "web", oses, cadence=web_cadence, plaintext=is_plain)
            if pii_type in (PiiType.GENDER, PiiType.NAME):
                from .thirdparty import ANALYTICS

                extras = [
                    d for d in aa_trackers[1:]
                    if d != "facebook.com" and get_party(d).role == ANALYTICS
                ]
                if extras:
                    add(pii_type, extras[0], "web", oses, cadence=web_cadence)

    # -- hand-routed extras ----------------------------------------------------
    for medium, token, alias in row.extra_leaks:
        for code, pii_type, oses in _parse_codes(token):
            cadence = (
                "once"
                if pii_type in (PiiType.EMAIL, PiiType.PASSWORD, PiiType.BIRTHDAY)
                else "per_action"
            )
            add(pii_type, _ALIAS.get(alias, alias), medium, oses, cadence=cadence)
    return tuple(leaks)


def _build_spec(row: CatalogRow) -> ServiceSpec:
    app = AppConfig(
        sdk_domains=_domains(row.sdks),
        api_calls_per_action=row.api_calls,
        https=row.app_https,
        permissions=row.permissions,
    )
    web = WebConfig(
        tracker_domains=_domains(row.trackers),
        ad_exchange_domains=_domains(row.exchanges),
        ad_slots_per_page=row.ad_slots,
        beacons_per_action=row.web_beacon_rate,
        https=row.web_https,
    )
    return ServiceSpec(
        name=row.name,
        slug=row.slug,
        category=row.category,
        rank=row.rank,
        domain=row.domain,
        extra_domains=row.extra_domains,
        requires_login=row.login,
        app=app,
        web=web,
        leaks=_build_leaks(row),
        oses=("ios",) if row.ios_only else ("android", "ios"),
    )


# ---------------------------------------------------------------------------
# The catalog rows.  Leak codes were solved against the paper's quotas —
# see the module docstring before editing any code string.
# ---------------------------------------------------------------------------

_ROWS = (
    # --- Business (2): app 100% leak, web 50% --------------------------------
    CatalogRow("Indeed Job Search", "Business", 2, "indeed.com",
               sdks="ga,fb,crash", trackers="ga,fb,gtm,newrelic,optim", exchanges="", ad_slots=0,
               app_codes="UID", web_codes="L:i"),
    CatalogRow("Glassdoor", "Business", 4, "glassdoor.com",
               sdks="ga,fb,mixpanel", trackers="ga,optim,gtm,newrelic,score", exchanges="", ad_slots=0,
               app_codes="UID", web_codes=""),
    # --- Education (4): app 75%, web 50% -------------------------------------
    CatalogRow("Duolingo", "Education", 5, "duolingo.com",
               sdks="ga,fb,crash", trackers="ga,fb,gtm,optim", exchanges="", ad_slots=0,
               app_codes="E,G,UID", web_codes=""),
    CatalogRow("Quizlet", "Education", 10, "quizlet.com",
               sdks="ga,fb,mixpanel", trackers="ga,fb,gsyn", exchanges="dclk",
               app_codes="E,U,UID", web_codes="N:i"),
    CatalogRow("Dictionary.com", "Education", 20, "dictionary.com", login=False,
               # The ad-mediation outlier: its app contacts more A&A
               # domains than its web site (Fig 1a's positive tail; the
               # Education row's 11.7±14.4 domains in Table 1).
               sdks=("ga,fb,gsyn,2mdn,moat,ssys,criteo,krxd,dclk,adnxs,rubicon,pubmatic,"
                     "openx,casale,score,quant,flurry,mopub,amzn,advcom,mathtag,tradedesk,"
                     "bidswitch,smart,yieldmo,gumgum,sthru,ix,dv,quant"),
               trackers="ga,fb,gsyn", exchanges="dclk", ad_slots=2,
               app_codes="L:i", web_codes="G:i",
               loc_fanout="all", permissions=(Permission.LOCATION,)),
    CatalogRow("Khan Academy", "Education", 29, "khanacademy.org",
               sdks="ga", trackers="ga", exchanges="", ad_slots=0,
               app_codes="", web_codes=""),
    # --- Entertainment (6): app 66.7%, web 50% -------------------------------
    CatalogRow("Netflix", "Entertainment", 3, "netflix.com",
               sdks="crash", trackers="optim", exchanges="", ad_slots=0,
               app_codes="", web_codes=""),
    CatalogRow("Hulu", "Entertainment", 7, "hulu.com",
               sdks="ga,fb,crash,mopub,moat", trackers="ga,fb,moat", exchanges="dclk", ad_slots=1,
               app_codes="D,E,UID", web_codes=""),
    CatalogRow("IMDb", "Entertainment", 12, "imdb.com", login=False,
               sdks="ga,fb,vrvm,amzn", trackers="ga,fb,score,amzn", exchanges="amzn,dclk",
               app_codes="D,L,UID", web_codes="N:i"),
    CatalogRow("Fandango", "Entertainment", 21, "fandango.com", ios_only=True,
               sdks="ga,fb,2mdn,criteo", trackers="ga,fb,2mdn,krxd,tiq", exchanges="dclk,criteo",
               app_codes="L,UID", web_codes="L", web_loc_fanout=1),
    CatalogRow("NCAA Sports", "Entertainment", 25, "ncaa.com",
               sdks="ga,fb,moat,ssys", trackers="ga,fb,moat,krxd,cbeat", exchanges="dclk,adnxs",
               ad_slots=3, app_codes="PW,UID", web_codes="PW",
               credential_routes=(("app", "PW", "gigya"), ("web", "PW", "gigya"))),
    CatalogRow("Twitch", "Entertainment", 30, "twitch.tv",
               sdks="ga,crash", trackers="ga", exchanges="", ad_slots=0,
               app_codes="", web_codes=""),
    # --- Lifestyle (6): app 100%, web 100% -----------------------------------
    CatalogRow("Yelp", "Lifestyle", 15, "yelp.com", extra_domains=("yelpcdn.com",),
               sdks="ga,fb,adjust", trackers="ga,fb,criteo,optim", exchanges="dclk",
               app_codes="D,L,N,UID", web_codes="L,N"),
    CatalogRow("Grubhub", "Lifestyle", 30, "grubhub.com",
               sdks="ga,fb,taplytics,branch", trackers="ga,fb,criteo,tiq", exchanges="dclk",
               app_codes="D,E,L,N,P,PW,UID", web_codes="E,L,N",
               credential_routes=(("app", "PW", "taplytics"),)),
    CatalogRow("Starbucks", "Lifestyle", 45, "starbucks.com",
               sdks="ga,fb,omtrdc,btag", trackers="ga,fb,omtrdc,demdex,bluekai,krxd,tiq,btag",
               exchanges="dclk,criteo,adnxs", ad_slots=2,
               app_codes="D,L,UID", web_codes="E,L"),
    CatalogRow("AllRecipes Dinner Spinner", "Lifestyle", 70, "allrecipes.com", login=False,
               sdks="ga,fb,grocery,gsyn,2mdn,moat", trackers="ga,fb,grocery,gsyn,2mdn,moat,score,quant,krxd,taboola,outbrain,revcontent,mgid,zergnet",
               exchanges="dclk,criteo,adnxs,rubicon,amzn,contextweb,lijit,sonobi", ad_slots=5, web_beacon_rate=3,
               app_codes="L,UID", web_codes="L"),
    CatalogRow("The Food Network", "Lifestyle", 87, "foodnetwork.com",
               sdks="ga,fb,ssys,moat,btag", trackers="ga,fb,ssys,moat,krxd,demdex,gtm",
               exchanges="dclk,criteo,amzn", ad_slots=3,
               app_codes="N,PW,UID", web_codes="N,PW",
               credential_routes=(("app", "PW", "gigya"), ("web", "PW", "gigya"))),
    CatalogRow("Zillow", "Lifestyle", 100, "zillow.com",
               sdks="ga,fb,crash", trackers="ga,fb,criteo,demdex", exchanges="dclk",
               app_codes="L,UID", web_codes="E,L", web_loc_fanout=1),
    # --- Music (4): app 100%, web 50% ----------------------------------------
    CatalogRow("Spotify", "Music", 80, "spotify.com",
               sdks="fb,crash,branch", trackers="ga,optim,gtm,score,quant", exchanges="", ad_slots=0,
               app_codes="D,E,UID", web_codes=""),
    CatalogRow("SoundCloud", "Music", 88, "soundcloud.com",
               sdks="ga,fb,afly", trackers="ga,fb,score,quant", exchanges="", ad_slots=0,
               app_codes="E,U,UID", web_codes="G:i",
               extra_leaks=(("web", "G:i", "score"), ("web", "G:i", "quant"))),
    CatalogRow("Shazam", "Music", 96, "shazam.com", login=False,
               sdks="fb,flurry", trackers="ga", exchanges="", ad_slots=0,
               app_codes="L:a", web_codes=""),
    CatalogRow("iHeartRadio", "Music", 105, "iheart.com",
               sdks="ga,fb,vrvm,2mdn,adjust", trackers="ga,fb,2mdn,demdex", exchanges="dclk",
               app_codes="D,E,G,L,UID", web_codes="U:i",
               extra_leaks=(("web", "U:i", "fb"), ("web", "U:i", "demdex"))),
    # --- News (2): app 100%, web 100% ----------------------------------------
    CatalogRow("BBC News", "News", 3, "bbc.com", extra_domains=("bbci.co.uk",), web_loc_fanout=4,
               login=False, web_https=False,
               sdks="fb,crash", plaintext=("L", "N"),
               trackers="ga,fb,score,cbeat,krxd,moat,quant,newrelic,optim,demdex,bluekai,omtrdc,gtm,gts,taboola,outbrain,gumgum,sthru,zergnet,revcontent,mgid,teads",
               exchanges="dclk,adnxs,rubicon,pubmatic,openx,casale,criteo,amzn,advcom,smart,ix,contextweb,lijit,sonobi,adform,triplelift,spotx,tremor",
               ad_slots=6, app_codes="UID:a", web_codes="L,N", web_beacon_rate=4),
    CatalogRow("CNN News", "News", 5, "cnn.com", login=False, web_https=False,
               sdks="ga,247,moat,gsyn,2mdn", loc_fanout="all", plaintext=("L", "N", "G"), web_loc_fanout=4,
               trackers="ga,fb,score,cbeat,krxd,moat,quant,newrelic,demdex,bluekai,omtrdc,gtm,gts,taboola,outbrain,247,tiq,dv,zergnet,revcontent,teads,medianet",
               exchanges="dclk,adnxs,rubicon,pubmatic,openx,casale,criteo,amzn,advcom,ix,contextweb,lijit,sonobi,adform,stickyads,adtechus",
               ad_slots=6, app_codes="L", web_codes="G,L,N", web_beacon_rate=4),
    # --- Shopping (9): app 100%, web 77.8% -----------------------------------
    CatalogRow("Amazon", "Shopping", 4, "amazon.com",
               sdks="fb,amzn,crash", trackers="amzn", exchanges="amzn", ad_slots=1,
               app_codes="D,UID", web_codes="N"),
    CatalogRow("eBay", "Shopping", 6, "ebay.com",
               sdks="fb,crash,mixpanel", trackers="ga,fb,criteo,dv", exchanges="dclk,criteo",
               app_codes="D,UID", web_codes="L,N", web_loc_fanout=1),
    CatalogRow("Walmart", "Shopping", 8, "walmart.com",
               sdks="ga,fb,criteo", trackers="ga,fb,criteo,monetate,tiq,krxd", exchanges="dclk,criteo",
               app_codes="L:a,UID", web_codes="L:i,P:i", web_loc_fanout=3),
    CatalogRow("Target", "Shopping", 10, "target.com",
               sdks="ga,fb,monetate", trackers="ga,fb,criteo,monetate,demdex,tiq,btag", exchanges="dclk,criteo",
               app_codes="L:a,UID", web_codes="L:i,N:i"),
    CatalogRow("Etsy", "Shopping", 12, "etsy.com",
               sdks="ga,fb,crash", trackers="ga,fb,criteo,cloudinary,dv", exchanges="dclk,criteo",
               app_codes="UID", web_codes="G:i,U:i",
               extra_leaks=(("web", "G:i", "cloudinary"), ("web", "U:i", "cloudinary"))),
    CatalogRow("Groupon", "Shopping", 15, "groupon.com",
               sdks="ga,fb,criteo", trackers="ga,fb,criteo,marin,tiq", exchanges="dclk,criteo",
               app_codes="E:a,L:a,UID", web_codes="E:i,G:i,L:i", web_loc_fanout=3),
    CatalogRow("Wish", "Shopping", 18, "wish.com",
               sdks="ga,fb,liftoff,afly", trackers="fb,criteo", exchanges="criteo",
               app_codes="E:i,L:i,UID:i", web_codes=""),
    CatalogRow("Best Buy", "Shopping", 20, "bestbuy.com",
               sdks="ga,fb,webtrends,marin", trackers="ga,fb,criteo,webtrends,marin,dv,tiq",
               exchanges="dclk,criteo", app_codes="UID", web_codes="E:a,L:a", web_loc_fanout=1),
    CatalogRow("RetailMeNot", "Shopping", 30, "retailmenot.com", login=False,
               sdks="ga,fb,gsyn,2mdn", trackers="ga,fb,criteo,marin", exchanges="dclk,criteo",
               app_codes="L:i,UID:i", web_codes=""),
    # --- Social (2): app 100%, web 100% --------------------------------------
    CatalogRow("Reddit", "Social", 20, "reddit.com",
               sdks="ga,fb,crash,branch,mixpanel", trackers="ga,score", exchanges="dclk", ad_slots=1,
               app_codes="G,N,U,UID", web_codes="N,U"),
    CatalogRow("Meetup", "Social", 28, "meetup.com",
               sdks="ga,fb,mixpanel,score,quant", trackers="ga,fb,optim,gtm,newrelic,quant", exchanges="", ad_slots=0,
               app_codes="B,E,G,N", web_codes="E,G,U",
               extra_leaks=(("app", "E", "mixpanel"), ("app", "G", "score"), ("app", "E", "quant"))),
    # --- Travel (12): app 91.7%, web 91.7% -----------------------------------
    CatalogRow("JetBlue", "Travel", 10, "jetblue.com",
               sdks="fb,usablenet,crash", trackers="ga,fb,tiq", exchanges="",
               ad_slots=0, app_codes="E,L,PW", web_codes="N:i",
               credential_routes=(("app", "PW", "usablenet"), ("app", "E", "usablenet"))),
    CatalogRow("Priceline", "Travel", 15, "priceline.com",
               sdks="ga,fb,kochava", trackers="ga,fb,criteo,krxd,tiq", exchanges="dclk,criteo",
               app_codes="L,N,UID", web_codes="B,G,L,N", web_loc_fanout=4),
    CatalogRow("Expedia", "Travel", 22, "expedia.com",
               sdks="ga,fb,omtrdc,crash", trackers="ga,fb,criteo,omtrdc,tiq", exchanges="dclk,criteo",
               app_codes="D,L,N,UID", web_codes="L,N,U"),
    CatalogRow("Kayak", "Travel", 30, "kayak.com", login=False,
               sdks="crash", trackers="ga,fb,criteo,dv", exchanges="dclk,criteo",
               app_codes="", web_codes="L:i", web_loc_fanout=1),
    CatalogRow("TripAdvisor", "Travel", 38, "tripadvisor.com",
               sdks="ga,fb,crash,moat", trackers="ga,fb,criteo,score,quant", exchanges="dclk,criteo,rubicon",
               ad_slots=3, app_codes="L,UID", web_codes="G,L"),
    CatalogRow("Uber", "Travel", 45, "uber.com",
               sdks="fb,branch,mixpanel", trackers="ga,optim,gtm,newrelic", exchanges="", ad_slots=0,
               app_codes="D,L,P,UID", web_codes="L,P"),
    CatalogRow("Lyft", "Travel", 52, "lyft.com",
               sdks="fb,branch,mixpanel", trackers="ga,optim,gtm,newrelic", exchanges="", ad_slots=0,
               app_codes="L,P,UID", web_codes="L", web_loc_fanout=1),
    CatalogRow("Airbnb", "Travel", 60, "airbnb.com",
               sdks="ga,fb,afly,crash", trackers="ga,fb,criteo,newrelic", exchanges="dclk",
               app_codes="L,N,UID", web_codes="L,N"),
    CatalogRow("Booking.com", "Travel", 68, "booking.com",
               sdks="fb,crash,adjust", trackers="ga,fb,criteo,demdex", exchanges="dclk,criteo",
               app_codes="L,N,UID", web_codes="L,N"),
    CatalogRow("Hotels.com", "Travel", 75, "hotels.com",
               sdks="ga,fb,criteo,kochava", trackers="ga,fb,criteo,btag,omtrdc", exchanges="dclk,criteo",
               app_codes="L,UID", web_codes="E,L,PW",
               credential_routes=(("web", "PW", "btag"),), web_loc_fanout=3),
    CatalogRow("Hopper", "Travel", 80, "hopper.com", ios_only=True,
               sdks="ga,fb,afly", trackers="ga,fb,gtm,optim", exchanges="", ad_slots=0,
               app_codes="D,L,UID", web_codes="E"),
    CatalogRow("Waze", "Travel", 71, "waze.com", login=False,
               sdks="flurry", trackers="ga", exchanges="", ad_slots=0,
               app_codes="L:a", web_codes="",
               permissions=(Permission.LOCATION,)),
    # --- Weather (3): app 100%, web 100% -------------------------------------
    CatalogRow("The Weather Channel", "Weather", 2, "weather.com",
               extra_domains=("imwx.com",), login=False, app_https=False,
               sdks="ga,fb,gsyn,2mdn,moat,ssys,krxd,dv,tiq", loc_fanout="all", plaintext=("L",), web_loc_fanout=3,
               trackers="ga,fb,moat,krxd,score,quant,demdex,gts", exchanges="dclk,adnxs,criteo,amzn",
               ad_slots=4, app_codes="D,L,UID", web_codes="L", web_beacon_rate=2),
    CatalogRow("AccuWeather", "Weather", 3, "accuweather.com",
               login=False, app_https=False,
               sdks="ga,fb,gsyn", plaintext=("L",), web_loc_fanout=4,
               trackers="ga,fb,score,quant,moat,bluekai,taboola,outbrain,gtm,newrelic,teads,medianet",
               exchanges="dclk,adnxs,rubicon,pubmatic,criteo,amzn,advcom,smart,adform,tremor,spotx",
               ad_slots=5, app_codes="D,L,UID", web_codes="L"),
    CatalogRow("Weather Underground", "Weather", 5, "wunderground.com", login=True,
               sdks="ga,fb,amobee,gsyn,2mdn,moat,ssys,krxd,omtrdc", loc_fanout="all", plaintext=("L",),
               trackers="ga,fb,amobee,moat,krxd,score,gts", exchanges="dclk,adnxs,criteo",
               ad_slots=4, app_codes="D,L,UID", web_codes="L", web_beacon_rate=2),
)


def build_catalog() -> list:
    """Build the full 50-service catalog as :class:`ServiceSpec` objects."""
    specs = [_build_spec(row) for row in _ROWS]
    if len(specs) != 50:
        raise RuntimeError(f"catalog must contain 50 services, found {len(specs)}")
    return specs


def rows() -> tuple:
    """The raw catalog rows (useful for tests and tooling)."""
    return _ROWS
