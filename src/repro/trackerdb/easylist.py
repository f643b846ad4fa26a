"""The bundled filter list for the simulated world.

EasyList is an independently curated artifact; this module plays that
role for the reproduction.  The rules below cover the advertising and
analytics organizations in :mod:`repro.services.thirdparty` (a test
asserts the coverage stays complete), exercise the main ABP syntax
features, and deliberately *exclude* CDNs and identity providers —
Gigya-style credential managers are not in EasyList, which is precisely
why the paper had to spot those password flows manually.
"""

from __future__ import annotations

from functools import lru_cache

from .abpfilter import FilterList

EASYLIST_TEXT = """\
[Adblock Plus 2.0]
! Title: repro EasyList (simulated-world edition)
! Homepage: https://easylist.github.io/
! ---------------- ad servers and exchanges ----------------
||amobee.com^
||vrvm.com^
||serving-sys.com^
||googlesyndication.com^
||2mdn.net^
||247realmedia.com^
||liftoff.io^
||doubleclick.net^
||adnxs.com^
||rubiconproject.com^
||pubmatic.com^
||openx.net^
||casalemedia.com^
||mopub.com^
||amazon-adsystem.com^$third-party
||taboola.com^
||outbrain.com^
||advertising.com^
||mathtag.com^
||adsrvr.org^
||bidswitch.net^
||smartadserver.com^
||yieldmo.com^
||gumgum.com^
||sharethrough.com^
||indexexchange.com^
||criteo.com^
||adtechus.com^
||contextweb.com^
||lijit.com^
||sonobi.com^
||spotxchange.com^
||tremorhub.com^
||teads.tv^
||stickyadstv.com^
||adform.net^
||zergnet.com^
||revcontent.com^
||mgid.com^
||triplelift.com^
||3lift.net^
||media-net.com^
! ---------------- analytics and measurement ----------------
||google-analytics.com^
||groceryserver.com^
||marinsm.com^
||monetate.net^
||krxd.net^
||cloudinary.com^$third-party
||webtrends.com^
||webtrendslive.com^
||taplytics.com^
||scorecardresearch.com^
||quantserve.com^
||chartbeat.com^
||chartbeat.net^
||crashlytics.com^
||flurry.com^
||adjust.com^
||appsflyer.com^
||branch.io^
||bluekai.com^
||demdex.net^
||omtrdc.net^
||newrelic.com^
||nr-data.net^
||optimizely.com^
||mixpanel.com^
||kochava.com^
! ---------------- verification / viewability ----------------
||moatads.com^
||doubleverify.com^
! ---------------- tag managers ----------------
||thebrighttag.com^
||tiqcdn.com^
||googletagmanager.com^
||googletagservices.com^
! Facebook's social/ads endpoints, but not the site itself when first-party
||facebook.com^$third-party
||facebook.net^$third-party
! ---------------- generic path patterns ----------------
/advert/*$third-party
/adserver/^
&ad_unit=
! ---------------- exceptions ----------------
@@||cloudinary.com/img/product/^
@@||facebook.com/docs/^
"""

@lru_cache(maxsize=1)
def bundled_easylist() -> FilterList:
    """Return the compiled bundled list (cached after first call)."""
    return FilterList.parse(EASYLIST_TEXT)
