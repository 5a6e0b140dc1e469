"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_cold --seed 17 --seconds 8 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give the input hash, a readable table and the paths of
the results file and (traced runs) the Chrome trace-event file, both
written under ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import bench_batch
import bench_inproc
import bench_serve
from checks import expected_path, write_expected
from common import RESULTS
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    "paper_cold": bench_inproc,
    "costed": bench_inproc,
    "batch_x2": bench_batch,
    "serve_mixed": bench_serve,
}

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-expected", action="store_true",
        help="write this seed's certified output digests to perfbench/expected/",
    )
    return parser.parse_args(argv)


def _use_checkout_sources(results: Path) -> bool:
    """Import the program from this checkout's ``src``; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Temporary files the program or its workers make stay in the checkout.
    scratch = results / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return True


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        lines.append(f"  {name:<{width}}  {entry['value']:>14.4f} {entry['unit']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _parse(argv)
    if not _use_checkout_sources(RESULTS):
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_expected:
        # Recording replaces the file; the run checks against first outputs.
        expected_path(args.workload).unlink(missing_ok=True)

    result, tracer = MODULES[args.workload].run(
        args.workload, args.seed, args.seconds, bool(args.trace), Tracer
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    results_path = RESULTS / f"{stem}.json"
    payload = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }
    results_path.write_text(
        json.dumps(
            {**payload, "workload": args.workload, "seed": args.seed,
             "input_sha256": result.input_sha, "issues": result.issues,
             "notes": result.notes},
            indent=1,
        )
    )
    if tracer is not None:
        trace_path = RESULTS / f"{stem}.trace.json"
        tracer.write_chrome(trace_path)
        print(f"trace: {trace_path.relative_to(ROOT)}")
    if args.record_expected:
        if not result.correct:
            print("perfbench: not recording digests of a failed run", file=sys.stderr)
            return 1
        write_expected(args.workload, args.seed, result.input_sha, result.notes["digests"])
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"input_sha256: {result.input_sha}")
    print(f"failed_share: {result.notes['failed_share']:.4f}"
          f" ({result.failed} of {result.attempted})")
    for key, value in result.notes.items():
        if key not in ("digests", "failed_share"):
            print(f"{key}: {value}")
    for issue in result.issues:
        print(f"issue: {issue}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(_table(f"{args.workload} seed {args.seed}, {kind}:", result.metrics))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
