"""Command-line entry point: ``python -m repro.bench <experiment>``.

Examples::

    python -m repro.bench table1
    python -m repro.bench figure3 --profile smoke --datasets flickr-s uk-s
    python -m repro.bench all --out results.txt
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import ExperimentResult
from repro.bench.experiments import (
    ablations,
    cluster,
    extensions,
    figure1,
    figure2,
    figure3,
    figure4,
    incremental_fast,
    mixed,
    table1,
    table2,
)
from repro.bench.profile import PROFILE_NAMES

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "figure1": figure1.run,
    "figure2": figure2.run,
    "figure3": figure3.run,
    "figure4": figure4.run,
    "ablations": ablations.run,
    "cluster": cluster.run,
    "extensions": extensions.run,
    "incremental_fast": incremental_fast.run,
    "mixed": mixed.run,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Regenerate the tables and figures of 'Efficient Maintenance of "
            "Distance Labelling for Incremental Updates in Large Dynamic "
            "Graphs' (EDBT 2021) on the synthetic stand-in datasets."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--profile",
        choices=PROFILE_NAMES,
        default=None,
        help="workload scale (default: REPRO_BENCH_PROFILE or 'default')",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        metavar="NAME",
        help="restrict to these dataset stand-ins (default: experiment-specific)",
    )
    parser.add_argument("--seed", type=int, default=2021, help="workload seed")
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report to this file",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="also write the structured rows as JSON "
             "({experiment: [row, ...]}; CI uploads this as an artifact)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one experiment (or all) and print its paper-style report."""
    from repro.obs.profile import dump_if_enabled, start_if_enabled

    args = _parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # REPRO_PROFILE=1 profiles the harness itself: folded stacks land in
    # REPRO_PROFILE_OUT and the phase table in the JSON's `_profile` key
    # (metadata beside the row lists, not an experiment).
    profiler = start_if_enabled()
    reports: list[str] = []
    rows_by_experiment: dict[str, list[dict]] = {}
    for name in names:
        fn = EXPERIMENTS[name]
        result: ExperimentResult = fn(
            profile=args.profile, datasets=args.datasets, seed=args.seed
        )
        reports.append(result.text)
        rows_by_experiment[result.name] = result.rows
        print(result.text)
        print()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(reports) + "\n")
    if args.json_out:
        import json

        payload: dict = dict(rows_by_experiment)
        if profiler is not None:
            profiler.stop()
            payload["_profile"] = profiler.stats()
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
    dump_if_enabled()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
