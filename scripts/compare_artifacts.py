#!/usr/bin/env python3
"""Check that two sets of verification artifacts give the same verdicts.

Usage: python scripts/compare_artifacts.py PARENT_DIR CHANGE_DIR

Both directories hold the CSVs written by ``scripts/run_verification.py``.
The file names, headers, row order and every non-float cell (integers such
as K, m, queries, ancillae and seeds, the ``pass`` flags, empty cells) must
be equal exactly.  A float may move by roundoff only:

    |a − b| ≤ 1e-9·max(|a|, |b|) + 1e-14

The absolute term covers values that are zero in exact arithmetic and come
out as roundoff.  The script prints the worst absolute and relative
difference of each float column and exits 1 on any breach.
"""

from __future__ import annotations

import csv
import re
import sys
from pathlib import Path

RTOL, ATOL = 1e-9, 1e-14
INTEGER = re.compile(r"[+-]?\d+")


def is_float(cell: str) -> bool:
    """A float literal such as 0.5, 1e-16 or nan; integers do not count."""
    if INTEGER.fullmatch(cell):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def compare_file(name: str, old: list[list[str]], new: list[list[str]]) -> list[str]:
    """Breaches in one CSV; prints the worst differences of each float column.

    A column is a float column if a float literal appears in it in either
    file.  Its numeric cells are compared within the tolerance, everything
    else exactly.
    """
    if not old or not new or old[0] != new[0]:
        return [f"{name}: headers differ: {old[:1]} vs {new[:1]}"]
    if len(old) != len(new):
        return [f"{name}: {len(old) - 1} rows vs {len(new) - 1}"]
    header, old, new = old[0], old[1:], new[1:]
    if any(len(row) != len(header) for row in old + new):
        return [f"{name}: a row's cell count differs from the header"]
    breaches: list[str] = []
    for j, col in enumerate(header):
        pairs = [(a[j], b[j]) for a, b in zip(old, new)]
        if not any(is_float(a) or is_float(b) for a, b in pairs):
            breaches += [f"{name} row {i} {col}: {a!r} != {b!r}"
                         for i, (a, b) in enumerate(pairs, start=1) if a != b]
            continue
        worst_abs = worst_rel = 0.0
        for i, (a, b) in enumerate(pairs, start=1):
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                breaches.append(f"{name} row {i} {col}: {a!r} != {b!r}")
                continue
            diff, scale = abs(fa - fb), max(abs(fa), abs(fb))
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / scale if scale else 0.0)
            if not diff <= RTOL * scale + ATOL:
                breaches.append(f"{name} row {i} {col}: {a} vs {b} (|diff| = {diff:.3g})")
        print(f"  {name:<16} {col:<14} max abs {worst_abs:.3g}  max rel {worst_rel:.3g}")
    return breaches


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[1]), Path(argv[2])
    names = sorted(p.name for p in parent.glob("*.csv"))
    other = sorted(p.name for p in change.glob("*.csv"))
    if not names:
        print(f"no CSV files in {parent}", file=sys.stderr)
        return 2
    breaches = [] if names == other else [f"file sets differ: {names} vs {other}"]
    for name in sorted(set(names) & set(other)):
        breaches += compare_file(name, read(parent / name), read(change / name))
    for line in breaches:
        print("BREACH", line)
    print(f"{len(names)} files compared, {len(breaches)} breaches")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
