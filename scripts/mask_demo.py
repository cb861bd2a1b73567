#!/usr/bin/env python3
"""Mask compliance of the G1 sub-band channel plans.

Checks the analytic passband spectrum against the shipped example mask
for the two usual plans: one 250 kHz channel at 868.3 MHz, or three
125 kHz channels at 868.1/868.3/868.5 MHz, all at Ps = 14 dBm.

Usage: python scripts/mask_demo.py [--mask path.json]
"""
import argparse

from lorachirp import LoraParams, MaskSpec, binned_power, mask_check
from lorachirp.analysis import _mask_spectrum
from lorachirp.cli import example_mask_path

PLANS = [
    ("one channel, B=250 kHz", 250e3, [868.3e6]),
    ("three channels, B=125 kHz", 125e3, [868.1e6, 868.3e6, 868.5e6]),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mask", default=None)
    ap.add_argument("--sf", type=int, default=7)
    ap.add_argument("--ps-dbm", type=float, default=14.0)
    args = ap.parse_args()
    mask = MaskSpec.from_json(args.mask or example_mask_path())
    print(f"mask: {mask.label}")

    for label, bw, carriers in PLANS:
        # one spectrum wide enough for the mask at every carrier of the plan
        res = _mask_spectrum(LoraParams(sf=args.sf, b=bw), mask, carriers)
        binned = binned_power(res, delta_f=mask.segments[0].rbw_hz,
                              ps_dbm=args.ps_dbm)
        print(f"\n{label} (SF={args.sf}, Ps={args.ps_dbm} dBm):")
        for f0 in carriers:
            report = mask_check(binned, mask, f0=f0)
            verdict = "PASS" if report.passed else "FAIL"
            print(f"  carrier {f0/1e6:.1f} MHz: {verdict} "
                  f"(worst margin {report.worst_margin_db:+.1f} dB)")
            for seg in report.segments:
                if seg.n_bins:
                    print(f"    {seg.segment.f_start_hz/1e6:8.1f}-"
                          f"{seg.segment.f_stop_hz/1e6:.1f} MHz "
                          f"limit {seg.segment.limit_dbm:+6.1f} dBm: "
                          f"margin {seg.worst_margin_db:+7.1f} dB "
                          f"({seg.n_bins} bins)")


if __name__ == "__main__":
    main()
