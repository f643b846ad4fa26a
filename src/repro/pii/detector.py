"""Combined PII detection over captured traces.

§3.2's three-step recipe, end to end:

1. run the ReCon classifier to flag likely PII in each request,
2. augment with direct string matching of known (ground-truth) values
   under common encodings,
3. manually verify ReCon predictions against ground truth and drop the
   false positives.

The output is a list of :class:`PiiObservation` records — one per
(transaction, PII type) — that the leak policy in
:mod:`repro.core.leaks` then classifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..net.flow import Flow, HttpTransaction
from ..net.trace import Trace
from ..trackerdb.psl import domain_key
from . import encodings
from .matcher import GroundTruthMatcher
from .recon import ReconClassifier
from .structure import extract_fields
from .types import PiiType

MATCHING = "matching"
RECON = "recon"


@dataclass
class PiiObservation:
    """One PII type observed in one captured transaction."""

    pii_type: PiiType
    hostname: str
    domain: str
    url: str
    timestamp: float
    flow_id: int
    plaintext: bool  # True when the flow was unencrypted HTTP
    methods: set = field(default_factory=set)  # detection methods that fired
    encoding: str = ""
    key: str = ""
    value: str = ""

    @property
    def detected_by_both(self) -> bool:
        return MATCHING in self.methods and RECON in self.methods

    def to_dict(self) -> dict:
        return {
            "type": self.pii_type.value,
            "hostname": self.hostname,
            "domain": self.domain,
            "url": self.url,
            "timestamp": self.timestamp,
            "flow_id": self.flow_id,
            "plaintext": self.plaintext,
            "methods": sorted(self.methods),
            "encoding": self.encoding,
            "key": self.key,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PiiObservation":
        return cls(
            pii_type=PiiType(data["type"]),
            hostname=data["hostname"],
            domain=data["domain"],
            url=data["url"],
            timestamp=data["timestamp"],
            flow_id=data["flow_id"],
            plaintext=bool(data["plaintext"]),
            methods=set(data.get("methods", [])),
            encoding=data.get("encoding", ""),
            key=data.get("key", ""),
            value=data.get("value", ""),
        )


@dataclass
class DetectionReport:
    """Everything detection produced for one trace."""

    observations: list = field(default_factory=list)
    recon_false_positives: int = 0  # predictions removed by verification
    transactions_scanned: int = 0
    flows_skipped_opaque: int = 0

    def types(self) -> set:
        return {obs.pii_type for obs in self.observations}

    def domains(self) -> set:
        return {obs.domain for obs in self.observations}


class PiiDetector:
    """Runs matching + ReCon + verification over traces."""

    def __init__(
        self,
        matcher: GroundTruthMatcher,
        recon: Optional[ReconClassifier] = None,
        verify_recon: bool = True,
    ) -> None:
        self.matcher = matcher
        self.recon = recon
        self.verify_recon = verify_recon
        # Verification index: encoded form -> PiiType
        self._verification: dict = {}
        for form, info in self.matcher._forms.items():
            self._verification[form] = info[0]

    def _verify(self, pii_type: PiiType, value: str) -> bool:
        """Check a ReCon-extracted value against ground truth.

        This is the stand-in for the authors' manual verification pass:
        with ground truth in hand, a prediction whose extracted value
        matches no known encoding of the type's values is a false
        positive.
        """
        if not value:
            return False
        candidates = (value, value.lower())
        for candidate in candidates:
            found = self._verification.get(candidate)
            if found == pii_type:
                return True
        # Location values verify within GPS tolerance via the matcher.
        if pii_type == PiiType.LOCATION:
            return any(
                m.pii_type == PiiType.LOCATION for m in self.matcher.match_text(value)
            )
        return False

    def scan_transaction(self, flow: Flow, txn: HttpTransaction) -> tuple:
        """Detect PII in one transaction.

        Returns ``(observations, recon_false_positives)``.  With ReCon on,
        the request's fields are extracted once, for the matcher and ReCon.
        """
        merged: dict = {}
        plaintext = flow.scheme == "http"
        host = flow.hostname
        fields = None if self.recon is None else extract_fields(txn.request)

        for match in self.matcher.match_request(txn.request, fields):
            obs = merged.get(match.pii_type)
            if obs is None:
                obs = PiiObservation(
                    pii_type=match.pii_type,
                    hostname=host,
                    domain=domain_key(host),
                    url=txn.request.url,
                    timestamp=txn.timestamp,
                    flow_id=flow.flow_id,
                    plaintext=plaintext,
                    encoding=match.encoding,
                    key=match.key,
                    value=match.value,
                )
                merged[match.pii_type] = obs
            obs.methods.add(MATCHING)
            if match.key and not obs.key:
                obs.key = match.key

        false_positives = 0
        if self.recon is not None:
            for prediction in self.recon.predict(txn.request, fields):
                verified = not self.verify_recon or self._verify(
                    prediction.pii_type, prediction.extracted_value
                )
                already = prediction.pii_type in merged
                if not verified and not already:
                    false_positives += 1
                    continue
                obs = merged.get(prediction.pii_type)
                if obs is None:
                    obs = PiiObservation(
                        pii_type=prediction.pii_type,
                        hostname=host,
                        domain=domain_key(host),
                        url=txn.request.url,
                        timestamp=txn.timestamp,
                        flow_id=flow.flow_id,
                        plaintext=plaintext,
                        encoding="predicted",
                        key=prediction.extracted_key,
                        value=prediction.extracted_value,
                    )
                    merged[prediction.pii_type] = obs
                obs.methods.add(RECON)
        return (list(merged.values()), false_positives)

    def scan_trace(self, trace: Trace) -> DetectionReport:
        """Detect PII across every decrypted transaction in a trace."""
        report = DetectionReport()
        for flow in trace:
            if not flow.decrypted:
                report.flows_skipped_opaque += 1
                continue
            for txn in flow.transactions:
                report.transactions_scanned += 1
                observations, false_positives = self.scan_transaction(flow, txn)
                report.observations.extend(observations)
                report.recon_false_positives += false_positives
        return report
