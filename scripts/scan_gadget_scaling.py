#!/usr/bin/env python3
"""Measured compression-gadget error vs K, against both p-MACG bounds.

Evaluates the ``macg-sweep`` rows (``bechain.cli.sweep_rows``) for K in
{8, 16, 32, 64}, p in {1, 2} and ``seeds`` trials, and prints per (p, K) the
median measured error, the paper's closed-form bound ``e_bound`` and the
median run-aware bound ``e_run_bound`` at the measured η_max, then the fitted
log–log slope of the median error per p.  This is the experiment behind the
acceptance suite's criterion 8: the measured slope sits near −1 for every p
(adjacent failed measurements leak at second order in the deviation, see
``bechain.macg_run_bound``), while the closed form predicts −2^p.

Usage: python scripts/scan_gadget_scaling.py [seeds]
"""

import sys
from pathlib import Path

import numpy as np

# This checkout's package, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bechain.cli import RunConfig, sweep_rows


def main() -> int:
    seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cfg = RunConfig("macg-sweep", k_list=(8, 16, 32, 64), p_list=(1, 2), trials=seeds)
    rows = sweep_rows(cfg)
    print(f"{'p':>2} {'K':>4} {'median e':>12} {'e_bound':>12} {'e_run_bound':>12}")
    for p in cfg.p_list:
        medians = []
        for k in cfg.k_list:
            cell = [r for r in rows if (r["K"], r["p"]) == (k, p)]
            medians.append(float(np.median([r["e_measured"] for r in cell])))
            run_bound = float(np.median([r["e_run_bound"] for r in cell]))
            bound = cell[0]["e_bound"]  # depends on (K, p, c) only
            bound_text = "refused" if bound is None else f"{bound:.4e}"
            print(f"{p:>2} {k:>4} {medians[-1]:>12.4e} {bound_text:>12} {run_bound:>12.4e}")
        slope = float(np.polyfit(np.log(cfg.k_list), np.log(medians), 1)[0])
        print(f"   p={p}: fitted log-log slope {slope:.3f} (closed form predicts {-2**p})\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
