#!/usr/bin/env python3
"""Run every verification sweep into an artifacts directory.

Usage: python scripts/run_verification.py [outdir]
"""

import sys
from pathlib import Path

# This checkout's package, ahead of any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bechain.cli import build_parser, config_from_args, run


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("artifacts")
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = [
        ["ecg-verify", "--K", "2..8", "--trials", "10", "--seed", "42"],
        ["macg-sweep", "--K", "8,16,32", "--p", "1,2", "--c", "0.5", "--trials", "5",
         "--seed", "42"],
        ["uncompute", "--delta", "0.25", "--eps", "1e-1,1e-2,1e-3", "--trials", "5",
         "--n", "1", "--a", "2", "--seed", "42"],
        ["oaa-demo", "--K", "8", "--trials", "10", "--seed", "42"],
        ["lb-probe", "--K", "3,4", "--m", "1", "--n", "2", "--trials", "3",
         "--restarts", "20", "--seed", "42"],
        ["gen-trotter", "--K", "16", "--seed", "42"],
        ["gen-dyson", "--K", "16", "--seed", "42"],
    ]
    parser = build_parser()
    worst = 0
    for args in jobs:
        out = outdir / f"{args[0]}.csv"
        code = run(config_from_args(parser.parse_args(args + ["--out", str(out)])))
        print(f"-> {out} (exit {code})\n")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
