"""The study's bytes pinned against constants.

The QA oracle proves that execution paths agree with each other, so a
change every path shares (capture, the detector's plumbing) passes it
whatever it does to the bytes.  These SHA-256 digests pin the bytes
themselves, for a seed-2016, 240 s study of three services: each
session's trace, ``repro run``'s stdout, and the canonical study bytes.
A change that moves them on purpose records new digests here and says
why in CHANGES.md.
"""

import hashlib

import pytest

from repro.cli import main
from repro.core.pipeline import run_study
from repro.experiment.runner import ExperimentRunner
from repro.net import codec
from repro.qa.oracle import canonical_bytes
from repro.services.catalog import build_catalog
from repro.services.world import build_world

SERVICES = "weather,grubhub,cnn"

#: ``codec.encode_trace`` of each session, in manifest (catalog) order.
TRACE_SHA256 = [
    ("grubhub/android/app", "a5cc65be33bbe891d8cdb2525229e3ace226a0947864c7573ad9b7c79475cf29"),
    ("grubhub/android/web", "47313ead254c1bc43d1ad2a5404da2c9d402faa3b47b3fbf8ea64fa1cd021dbc"),
    ("grubhub/ios/app", "029684544894116e0b124f2df09f230c7a752bbeaec2cef9127c7c463818caec"),
    ("grubhub/ios/web", "123a10e240813cb1e29b7946d663a5bcf7c501729fdd2b1317305e2ab4fc0df5"),
    ("cnn/android/app", "dfafbed1af0470e31ad58879c7c3d899a27258092022e2ddff6ac2db2ec290c3"),
    ("cnn/android/web", "ff5df3f9518f32012c2782aca4230805ca31ddad2b5a3f5cf3273e55fadd27ca"),
    ("cnn/ios/app", "757738bf37d4175c231ccb46350b64216491e15d49e447968a5862a454ab44e9"),
    ("cnn/ios/web", "4687cf3334f69c4812150ff3cdd94643777b7aad535f50741a91759023c4d054"),
    ("weather/android/app", "3c08eff2ea38dd4cc81f13481ec20a78a962af8d4943e6def952eb1e7196daf0"),
    ("weather/android/web", "924a4645d31415d823b8231b632c22d4529857c38215de63cf895c0e130140b7"),
    ("weather/ios/app", "9df2b81454c609f96ec813eaf522485d70d6515d5daeb4d6479cf9ea3128c0cc"),
    ("weather/ios/web", "aa1e87aede27d7f219fa992170aec76a1936447d458240a41590e160c9c3523d"),
]

#: ``repro run --services weather,grubhub,cnn --workers 1`` stdout.  ReCon
#: changes no printed cell of these three services, so the two runs
#: print the same tables; the canonical bytes below tell them apart.
RUN_STDOUT_SHA256 = {
    "recon": "3e698ac4a802395db2e50254910a9e4a8357d64600031c00dd1b0e64f9714d31",
    "no-recon": "3e698ac4a802395db2e50254910a9e4a8357d64600031c00dd1b0e64f9714d31",
}

#: ``qa.oracle.canonical_bytes`` of the study, which records which
#: detector found each leak and how many ReCon predictions were dropped.
CANONICAL_SHA256 = {
    "recon": "73124f1b6a883a46d6fcc07b86e254ba15ed1495894d3a57d607f90bed69de12",
    "no-recon": "7ec20283a9d6baa9b42e14b2f301bb4ed3e74aada5dc66435127ad2ccc5e06a8",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _specs() -> list:
    slugs = SERVICES.split(",")
    return [spec for spec in build_catalog() if spec.slug in slugs]


def test_trace_bytes():
    specs = _specs()
    dataset = ExperimentRunner(build_world(specs), seed=2016).run_study(specs, duration=240.0)
    assert [
        ("/".join(record.key), _sha256(codec.encode_trace(record.trace))) for record in dataset
    ] == TRACE_SHA256


@pytest.mark.parametrize("mode", sorted(RUN_STDOUT_SHA256))
def test_run_stdout(mode, capsys):
    argv = ["run", "--services", SERVICES, "--workers", "1"]
    assert main(argv + (["--no-recon"] if mode == "no-recon" else [])) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == RUN_STDOUT_SHA256[mode]


@pytest.mark.parametrize("mode", sorted(CANONICAL_SHA256))
def test_canonical_study_bytes(mode):
    study = run_study(services=_specs(), seed=2016, train_recon=mode == "recon")
    assert _sha256(canonical_bytes(study)) == CANONICAL_SHA256[mode]
