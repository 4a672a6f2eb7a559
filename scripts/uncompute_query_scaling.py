#!/usr/bin/env python3
"""Query count of the single-ancilla pipeline vs target accuracy and gap.

Prints one row per (delta, eps) with the oracle-query count, the QSVT
degree and the measured error, showing the O((1/delta)·log(1/eps)) growth.

Usage: python scripts/uncompute_query_scaling.py [delta[,delta...]]
"""

import sys
from pathlib import Path

import numpy as np

# This checkout's package, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bechain import uncompute_hermitian
from bechain.encoding import hermitian_test_encoding
from bechain.linalg import random_hermitian


def main() -> int:
    deltas = [float(d) for d in sys.argv[1].split(",")] if len(sys.argv) > 1 else [0.25]
    print(f"{'delta':>6} {'eps':>8} {'queries':>8} {'degree':>7} {'measured':>12}")
    for delta in deltas:
        rng = np.random.default_rng(0)
        h = random_hermitian(2, (1.0 - delta) * 0.9, rng)
        vh = hermitian_test_encoding(h, 2, 17)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            _, rep = uncompute_hermitian(vh, delta, eps)
            print(f"{delta:>6g} {eps:>8.0e} {rep.queries_vh:>8d} {rep.qsvt_degree:>7d} "
                  f"{rep.eps_measured:>12.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
