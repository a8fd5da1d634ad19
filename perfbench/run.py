"""Benchmark of the lattice package, run from the root of a checkout.

    python3 perfbench/run.py --workload learned_graph --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout; nothing needs to
be installed.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records (with
provenance) go to ``.perfbench/results``, spans of traced runs to
``.perfbench/traces``.  Workloads and the metric each layer should move are
described in ``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "lattice" / "__init__.py").is_file():
        print(f"error: no lattice package under {SRC}", file=sys.stderr)
        return 2
    # BLAS may use every core this process may run on, and no more.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))

    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    line, record = workloads.run_workload(
        spec, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"
    )
    for name, metric in line["metrics"].items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"failed_frac {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    for note in record["notes"]:
        print(f"failed: {note}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
