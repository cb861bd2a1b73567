#!/usr/bin/env python3
"""Two-sided spectrum of the modulated signal for several spreading factors.

Writes per-SF CSVs (continuous PSD in dB relative to B over fresnel_spectrum's
default grid, plus line powers) and, when matplotlib is importable, a
combined plot.

Usage: python scripts/spectrum_demo.py [--sf-list 3,7,10,12] [--outdir out]
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from lorachirp import LoraParams, fresnel_spectrum
from lorachirp.cli import _parse_sf_list
from lorachirp.iqfile import _write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf-list", default="3,7,10,12")
    ap.add_argument("--outdir", default="spectrum_out")
    args = ap.parse_args()
    try:
        sf_list = _parse_sf_list(args.sf_list)
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    curves = {}
    for sf in sf_list:
        p = LoraParams(sf=sf, b=1.0)
        res = fresnel_spectrum(p)
        db = 10 * np.log10(np.maximum(res.continuous * p.b, 1e-30))
        path = outdir / f"psd_sf{sf}.csv"
        _write_csv(path, ["frequency_over_b", "psd_db_rel_b"], [res.grid, db])
        lines_path = outdir / f"lines_sf{sf}.csv"
        _write_csv(lines_path, ["frequency_over_b", "power_fraction"],
                   [res.line_frequencies, res.line_powers])
        curves[sf] = (res.grid, db, res.lines)
        total = np.trapezoid(res.continuous, res.grid) + res.line_powers.sum()
        print(f"SF={sf}: wrote {path} and {lines_path}; "
              f"discrete share {res.line_powers.sum():.4%} (expect {1/p.m:.4%}); "
              f"power captured {total:.6f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; CSVs only")
        return
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 8), sharex=True)
    for sf, (grid, db, lines) in curves.items():
        sel = grid >= 0
        ax1.plot(grid[sel], db[sel], label=f"SF={sf}", lw=0.8)
        lsel = lines[:, 0] >= 0
        ax2.semilogy(lines[lsel, 0], np.maximum(lines[lsel, 1], 1e-12),
                     ".", ms=2, label=f"SF={sf}")
    ax1.set_ylabel("10 log10(Gc(f) B)  [dB]")
    ax1.set_ylim(-80, 5)
    ax1.legend()
    ax2.set_xlabel("f / B")
    ax2.set_ylabel("line power (fraction)")
    ax2.set_xlim(0, 2)
    fig.tight_layout()
    fig.savefig(outdir / "spectrum.png", dpi=150)
    print(f"wrote {outdir / 'spectrum.png'}")


if __name__ == "__main__":
    main()
