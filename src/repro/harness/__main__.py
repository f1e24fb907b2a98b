"""Command-line entry point: ``python -m repro.harness <artifact>``.

Artifacts: ``table1``, ``table2``, ``table3``, ``fig1b``, ``fig6``, ``fig7``
or ``all``.  The ``--profile full`` switch uses the larger workloads recorded
in EXPERIMENTS.md; the default quick profile finishes in a few minutes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import ENGINES, engine_help
from repro.harness import environment, fig1b, fig6, fig7, table2, table3
from repro.harness.experiments import FULL_PROFILE, QUICK_PROFILE
from repro.sim.kernel import EXECUTORS

_ARTIFACTS = {
    "table1": lambda args, profile: environment.run(),
    "table2": lambda args, profile: table2.run(args.benchmarks, profile),
    "table3": lambda args, profile: table3.run(args.benchmarks, profile),
    "fig1b": lambda args, profile: fig1b.run(args.benchmarks, profile),
    "fig6": lambda args, profile: fig6.run(
        args.benchmarks,
        profile,
        engine=args.engine,
        executor=args.executor,
        workers=args.workers,
        eraser_engine=args.eraser_engine,
    ),
    "fig7": lambda args, profile: fig7.run(
        args.benchmarks, profile, eraser_engine=args.eraser_engine
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eraser-harness",
        description="Regenerate the tables and figures of the ERASER evaluation.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_ARTIFACTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        help="restrict to a subset of benchmark names (default: the artifact's own set)",
    )
    parser.add_argument(
        "--profile",
        choices=["quick", "full"],
        default="quick",
        help="workload profile (quick: minutes; full: the EXPERIMENTS.md runs)",
    )
    parser.add_argument(
        "--engine",
        # choices AND help are derived from the registry, so new engines (and
        # their one-line stories) appear here without touching this file again
        choices=sorted(ENGINES),
        default=None,
        help="override the kernel under the serial baselines (fig6 only; "
        "default: each baseline's defining kernel). " + engine_help(),
    )
    parser.add_argument(
        "--eraser-engine",
        choices=["interp", "codegen"],
        default="interp",
        help="concurrent kernel for the Eraser rows (fig6/fig7; codegen = "
        "the generated divergence-propagation kernel, default: interpreted)",
    )
    parser.add_argument(
        "--executor",
        choices=list(EXECUTORS),
        default=None,
        help="distribute the serial baselines' per-fault loops (fig6 only; "
        "process = multi-core over spawned workers, default: serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process bound for --executor process (default: cpu count)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream live progress (detected counts, coverage %%, ETA) to "
        "stderr while multiprocess fault campaigns run",
    )
    resilience = parser.add_argument_group(
        "campaign resilience (multiprocess campaigns only; docs/resilience.md)"
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="failed-chunk retry budget before quarantine (default: 2)",
    )
    resilience.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-chunk watchdog deadline (default: adaptive, from "
        "observed chunk wall-times)",
    )
    resilience.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write periodic atomic verdict-plane snapshots here and resume "
        "from them on restart",
    )
    resilience.add_argument(
        "--checkpoint-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between checkpoint snapshots (default: 30)",
    )
    resilience.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="chaos-injection plan for resilience testing, e.g. "
        "'crash:chunk=1,until_attempt=1;slow:seconds=0.5'",
    )
    caching = parser.add_argument_group(
        "persistent result cache (multiprocess campaigns only; docs/caching.md)"
    )
    caching.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="reuse per-fault verdicts across runs from this cache directory "
        "('default' = ~/.cache/repro-results or $REPRO_RESULT_CACHE)",
    )
    caching.add_argument(
        "--cache-mode",
        default=None,
        choices=["off", "read", "readwrite"],
        help="consult/update policy for --cache (default: readwrite)",
    )
    return parser


def _install_campaign_defaults(args: argparse.Namespace) -> None:
    """Forward the resilience and cache flags to every campaign the artifacts run."""
    cache = args.cache
    if cache == "default":
        cache = True  # ResultCache.coerce: True opens the default directory
    knobs = {
        "retries": args.retries,
        "chunk_timeout": args.chunk_timeout,
        "checkpoint": args.checkpoint,
        "checkpoint_interval": args.checkpoint_interval,
        "chaos": args.chaos,
        "cache": cache,
        "cache_mode": args.cache_mode,
    }
    knobs = {name: value for name, value in knobs.items() if value is not None}
    if knobs:
        from repro.sim.parallel import set_campaign_defaults

        set_campaign_defaults(**knobs)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.progress:
        from repro.sim.parallel import progress_printer, set_default_progress

        set_default_progress(progress_printer())
    _install_campaign_defaults(args)
    profile = FULL_PROFILE if args.profile == "full" else QUICK_PROFILE
    artifacts = sorted(_ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in artifacts:
        print(f"\n=== {name} ===")
        _ARTIFACTS[name](args, profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
