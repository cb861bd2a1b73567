#!/usr/bin/env python3
"""Recompute the per-SF metrics table from first principles and print it.

Usage: python scripts/reproduce_table.py [--sf-list 3,5,7,10,12]
"""
import argparse
import sys
import time

from lorachirp import reproduce_table
from lorachirp.cli import _parse_sf_list


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf-list", default="3,5,7,10,12")
    args = ap.parse_args()
    try:
        sf_list = _parse_sf_list(args.sf_list)
    except ValueError as exc:
        sys.exit(f"error: {exc}")

    t0 = time.monotonic()
    rows = reproduce_table(sf_list)
    elapsed = time.monotonic() - t0

    print(f"{'SF':>4} {'M':>6} {'eta':>10} {'max|Re C|':>10} "
          f"{'B99/B':>8} {'Pd %':>8} {'Dmax dB':>8}")
    for r in rows:
        print(f"{r.sf:>4} {2**r.sf:>6} {r.eff:>10.5f} {r.max_re_c:>10.4f} "
              f"{r.b99_b:>8.4f} {100*r.pd:>8.4f} {r.delta_max_db:>8.3f}")
    print(f"\ncomputed in {elapsed:.1f} s")


if __name__ == "__main__":
    main()
