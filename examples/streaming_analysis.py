"""Streaming capture: journal every flow while the campaign runs.

Three acts:

1. run a study with a checkpoint directory — the interception proxy's
   capture addon appends every finalized flow to ``journal.jsonl`` as
   the campaign runs — and compare it with the plain batch study: the
   journal changes nothing, so the two are *identical*;
2. read the journal back (what ``repro serve --result DIR`` does) and
   show it analyzes to the same bytes;
3. cut the journal in the middle of a session, as a killed capture
   would leave it, and show it still reads back every session that
   finished before the cut.

Run:  python examples/streaming_analysis.py
"""

import json
import tempfile
from pathlib import Path

from repro import run_study
from repro.core.pipeline import analyze_dataset
from repro.qa.oracle import canonical_bytes
from repro.services import build_catalog
from repro.stream import dataset_from_journal


def cells(study):
    return {(a.service, a.os_name, a.medium): a for a in study.analyses()}


def main() -> None:
    catalog = {spec.slug: spec for spec in build_catalog()}
    chosen = [catalog[slug] for slug in ("weather", "cnn")]

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        journal = Path(checkpoint_dir) / "journal.jsonl"
        print("Act 1: live study, journaled while it captures...")
        streamed = run_study(
            services=chosen,
            duration=60.0,
            train_recon=False,
            checkpoint_dir=checkpoint_dir,
        )
        lines = journal.read_bytes().splitlines(keepends=True)
        print(f"  journaled {len(lines)} events")
        for key, cell in sorted(cells(streamed).items()):
            types = ", ".join(sorted(t.code for t in cell.leak_types)) or "none"
            print(
                f"  {key[0]:8s} {key[1]:7s} {key[2]:3s}: {cell.flows_total:3d} flows, "
                f"{len(cell.aa_domains):2d} A&A domains, leaked: {types}"
            )
        batch = run_study(services=chosen, duration=60.0, train_recon=False)
        matches = sum(
            1 for key, cell in cells(batch).items() if cells(streamed)[key] == cell
        )
        print(f"  {matches}/{len(cells(batch))} sessions identical to the batch study")

        print("\nAct 2: read the journal back...")
        replayed = analyze_dataset(
            dataset_from_journal(journal), chosen, train_recon=False
        )
        same = canonical_bytes(replayed) == canonical_bytes(batch)
        print(f"  journal read back: {'identical' if same else 'DIFFERENT'} bytes")

        print("\nAct 3: cut the journal mid-session, as a killed capture leaves it...")
        kinds = [json.loads(line)["kind"] for line in lines]
        ends = [index for index, kind in enumerate(kinds) if kind == "session_end"]
        cut = (ends[len(ends) // 2 - 1] + ends[len(ends) // 2]) // 2 + 1
        journal.write_bytes(b"".join(lines[:cut]) + lines[cut][:10])  # torn last line
        survived = dataset_from_journal(journal)
        finished = sum(1 for end in ends if end < cut)
        intact = sum(
            1
            for record in survived
            if record.trace.flows == batch.dataset.get(*record.key).trace.flows
        )
        print(
            f"  cut after {cut} of {len(lines)} events: {len(survived)} sessions read back "
            f"({finished} had finished), {intact} with identical flows"
        )


if __name__ == "__main__":
    main()
