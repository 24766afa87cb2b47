"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reports the per-layer table from a traced run instead.
Earlier stdout lines carry a readable summary (digests, quality
metrics, sample counts); the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed, and 2 when the
sources to benchmark are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench", description="Benchmark the T-DAT reproduction."
    )
    parser.add_argument(
        "--workload", required=True, choices=("campaign", "analyze", "serve")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up, run in a fresh process by the parent.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no sources at {src}/repro; run from the root of "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        import inputs

        inputs.build_inputs(args.workload, args.seed, args.out)
        return 0

    import workloads

    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **outcome.report,
        "failures": outcome.failures[:20],
    }
    print("perfbench summary: " + json.dumps(summary, sort_keys=True, default=str))
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"perfbench metric: {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
