#!/usr/bin/env python3
"""Estimated vs analytic binned spectrum for a synthesized random stream.

Synthesizes random 16-byte payloads at SF=7, B=125 kHz, fs=4B, estimates
the spectrum with Welch's method and compares it bin by bin (width B/256)
against the analytic continuous + line spectrum.

Usage: python scripts/welch_demo.py [--payloads 64] [--seed 1] [--out csv]
"""
import argparse

import numpy as np

from lorachirp import (LoraParams, bin_estimate, binned_power, fresnel_spectrum,
                       modulate, payload_to_symbols, welch_psd)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--payloads", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ps-dbm", type=float, default=27.0)
    ap.add_argument("--out", default="welch_vs_analytic.csv")
    args = ap.parse_args()

    p = LoraParams(sf=7, b=125e3)
    rng = np.random.default_rng(args.seed)
    symbols = []
    for _ in range(args.payloads):
        symbols.extend(payload_to_symbols(rng.bytes(16), p.sf))
    iq = modulate(p, symbols, oversample=4)
    print(f"{len(symbols)} symbols, {len(iq)} samples at fs = 4B")

    delta_f = p.b / 256
    freqs, pxx = welch_psd(iq, segment_len=int(round(iq.fs / delta_f)))
    res = fresnel_spectrum(p, f_max=8.0 * p.b, step=p.b / (8 * p.m))
    ref = binned_power(res, delta_f=delta_f, ps_dbm=args.ps_dbm)
    sel = np.abs(ref.bin_centers) <= 1.9 * p.b
    centers = ref.bin_centers[sel]
    est_db = bin_estimate(freqs, pxx, centers, delta_f, ps_dbm=args.ps_dbm)
    ana_db = ref.bin_power_dbm[sel]

    with open(args.out, "w") as fh:
        fh.write("bin_center_hz,analytic_dbm,welch_dbm\n")
        for c, a, w in zip(centers, ana_db, est_db):
            fh.write(f"{float(c)!r},{float(a)!r},{float(w)!r}\n")
    in_band = np.abs(centers) <= p.b / 2
    print(f"wrote {args.out}")
    print(f"max |deviation| over |f| <= B/2: "
          f"{np.max(np.abs(est_db[in_band] - ana_db[in_band])):.2f} dB")
    print(f"max |deviation| in the tails (aliasing at fs=4B): "
          f"{np.max(np.abs(est_db[~in_band] - ana_db[~in_band])):.2f} dB")


if __name__ == "__main__":
    main()
