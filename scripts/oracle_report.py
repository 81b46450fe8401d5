#!/usr/bin/env python3
"""Run the randomized characteristic-equation vs discretization agreement
study and write the error table.

    python scripts/oracle_report.py --seed 7 --cases 20 --out agreement.csv
"""

import argparse
import sys

from ringchain.cli import main as cli


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--cases", type=int, default=20)
    ap.add_argument("--out", default="agreement.csv")
    args = ap.parse_args()
    sys.exit(
        cli(
            [
                "oracle",
                "--seed", str(args.seed),
                "--cases", str(args.cases),
                "--out", args.out,
            ]
        )
    )
