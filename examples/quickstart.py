"""Quickstart: measure a handful of services and compare app vs. web.

Runs the full pipeline — simulated phones, interception proxy, ReCon +
string-matching PII detection, EasyList categorization, leak policy —
over five well-known services, then prints what each medium exposed.

Run:  python examples/quickstart.py [--workers N]
"""

import argparse

from repro import run_study
from repro.services import build_catalog


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="analysis fan-out: 1 = in-process, N > 1 = N processes, "
        "0 = every usable CPU (results are identical for any value)",
    )
    args = parser.parse_args()

    catalog = {spec.slug: spec for spec in build_catalog()}
    chosen = [catalog[slug] for slug in ("weather", "yelp", "grubhub", "cnn", "priceline")]

    print(f"Running {len(chosen)} services x (app, web) x (android, ios)...")
    study = run_study(services=chosen, train_recon=False, executor=args.workers)

    for result in study.services:
        spec = result.spec
        print(f"\n=== {spec.name} ({spec.category}) ===")
        for os_name in spec.oses:
            for medium in ("app", "web"):
                cell = result.cell(os_name, medium)
                if cell is None:
                    continue
                types = ", ".join(sorted(t.code for t in cell.leak_types)) or "none"
                print(
                    f"  {os_name:7s} {medium:3s}: "
                    f"{len(cell.aa_domains):3d} A&A domains, "
                    f"{cell.aa_flows:4d} A&A flows, "
                    f"{cell.aa_megabytes:5.2f} MB to A&A, "
                    f"leaked PII: {types}"
                )

    print("\nHeadline: does the web side contact more trackers?")
    from repro.core.compare import fraction_web_contacts_more_aa

    for os_name in ("android", "ios"):
        pct = 100 * fraction_web_contacts_more_aa(study, os_name)
        print(f"  {os_name}: web contacts more A&A domains for {pct:.0f}% of services")


if __name__ == "__main__":
    main()
