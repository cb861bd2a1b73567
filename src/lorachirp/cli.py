"""Command-line interface tying synthesis, demodulation and analysis together.

Subcommands: modulate, demod, xcorr, spectrum, table, welch, mask-check.
All numeric CSV output uses '.' decimals with a header line naming the
columns and units; structured reports are JSON on stdout.  Exit codes:
0 success, 1 usage/runtime error, 2 mask-check failure verdict.  A
command whose output path is the file on stdout (/dev/stdout) prints its
report on stderr instead, so that the output is all that stdout carries.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import analysis, correlation, iqfile, spectrum
from .iqfile import _read_csv, _write_csv
from .params import LoraParams, _finite, _power_ratio
from .receiver import demodulate_stream
from .waveform import modulate, payload_to_symbols


def example_mask_path() -> Path:
    """Path of the shipped illustrative G1 mask config."""
    return Path(resources.files("lorachirp") / "masks" / "etsi_g1_example.json")


def _params(args) -> LoraParams:
    return LoraParams(sf=args.sf, b=args.bw)


def _is_stdout(path) -> bool:
    """Whether path names the file open on descriptor 1 (same device and
    inode); a missing path does not."""
    try:
        st, out = os.stat(path), os.fstat(1)
    except OSError:
        return False
    return (st.st_dev, st.st_ino) == (out.st_dev, out.st_ino)


def _parse_ints(text: str, option: str) -> list[int]:
    """The comma-separated integers of `option`; ValueError naming it
    for a token that is not an integer."""
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad {option} {text!r}: {exc}") from exc


def _parse_sf_list(text: str) -> list[int]:
    """The spreading factors of --sf-list, at least one."""
    sf_list = _parse_ints(text, "--sf-list")
    if not sf_list:
        raise ValueError(f"--sf-list {text!r} names no spreading factor")
    return sf_list


def _cmd_modulate(args) -> int:
    p = _params(args)
    if args.symbols is not None:
        symbols = _parse_ints(args.symbols, "--symbols")
    else:
        symbols = payload_to_symbols(bytes.fromhex(args.payload_hex), args.sf)
    iq = modulate(p, symbols, oversample=args.oversample)
    iqfile.write_iq(iq, args.out, header_path=args.header,
                    center_freq=args.f0, description=f"sf={args.sf} bw={args.bw}")
    print(json.dumps({"num_symbols": len(symbols), "num_samples": len(iq),
                      "fs_hz": iq.fs, "out": str(args.out)}))
    return 0


def _cmd_demod(args) -> int:
    p = _params(args)
    iq = iqfile.read_iq(args.infile, header_path=args.header)
    symbols = demodulate_stream(iq, p)
    doc = {"sf": args.sf, "bw_hz": args.bw, "symbols": symbols}
    if args.out:
        Path(args.out).write_text(json.dumps(doc) + "\n")
    print(json.dumps(doc))
    return 0


def _cmd_xcorr(args) -> int:
    p = LoraParams(sf=args.sf, b=1.0)
    mc = correlation.max_cross_correlation(p)
    doc = {
        "sf": args.sf,
        "max_abs_re_c": mc.max_abs_real,
        "max_abs_c": mc.max_abs,
        "argmax_pair": list(mc.argmax_real),
        "bound": correlation.correlation_bound(p),
        "penalty_db": mc.penalty_db,
        "orthogonal_offsets": correlation.orthogonality_offsets(p),
    }
    if args.full_matrix:
        C = correlation.correlation_matrix(p)
        l, m = np.indices(C.shape).reshape(2, -1)
        _write_csv(args.full_matrix, ["l", "m", "re_c", "im_c"],
                   [l, m, C.real.ravel(), C.imag.ravel()])
        doc["matrix_csv"] = str(args.full_matrix)
    print(json.dumps(doc))
    return 0


def _cmd_spectrum(args) -> int:
    scale = _power_ratio(args.ps_dbm, "--ps-dbm") if args.ps_dbm is not None else 1.0
    res = spectrum.fresnel_spectrum(_params(args), step=args.grid_step)
    unit = "mw" if args.ps_dbm is not None else "fraction"
    out_psd = args.out_psd or f"spectrum_sf{args.sf}_psd.csv"
    out_lines = args.out_lines or f"spectrum_sf{args.sf}_lines.csv"
    g = res.continuous
    db_rel_b = 10 * np.log10(np.maximum(g * res.params.b, 1e-30))
    _write_csv(out_psd, ["frequency_hz", f"psd_{unit}_per_hz", "psd_db_rel_b"],
               [res.grid, g * scale, db_rel_b],
               comments=[f"sf={args.sf} bw_hz={args.bw}",
                         "psd_db_rel_b = 10*log10(Gc(f)*B) of the unit-power envelope"])
    _write_csv(out_lines, ["frequency_hz", f"power_{unit}"],
               [res.line_frequencies, res.line_powers * scale],
               comments=[f"sf={args.sf} bw_hz={args.bw}"])
    print(json.dumps({"psd_csv": str(out_psd), "lines_csv": str(out_lines),
                      "grid_points": len(res.grid), "num_lines": len(res.lines)}))
    return 0


def _cmd_table(args) -> int:
    rows = analysis.reproduce_table(_parse_sf_list(args.sf_list))
    if args.format == "json":
        text = json.dumps([row.__dict__ for row in rows], indent=2)
    else:
        lines = ["sf,eff_bps_per_hz,max_abs_re_c,b99_over_b,pd_fraction,delta_max_db"]
        lines += [f"{r.sf},{r.eff!r},{r.max_re_c:.6f},{r.b99_b:.4f},{r.pd!r},{r.delta_max_db:.3f}"
                  for r in rows]
        text = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_welch(args) -> int:
    iq = iqfile.read_iq(args.infile, header_path=args.header)
    freqs, pxx = analysis.welch_psd(iq, segment_len=args.segment,
                                    overlap=args.overlap, window=args.window)
    out = args.out or "welch_psd.csv"
    _write_csv(out, ["frequency_hz", "psd_per_hz"],
               [freqs, pxx],
               comments=[f"segment={args.segment} overlap={args.overlap} window={args.window}"])
    print(json.dumps({"out": str(out), "grid_points": len(freqs)}))
    return 0


def _read_binned_csv(path) -> analysis.BinnedSpectrum:
    meta, columns = _read_csv(path, "binned CSV", ["bin_center_hz", "power_dbm"])
    if "delta_f_hz" not in meta or "ps_dbm" not in meta:
        raise ValueError(f"binned CSV {path} is missing '# delta_f_hz=' / '# ps_dbm=' metadata")
    return analysis.BinnedSpectrum(*columns, *(_finite(meta[key], f"binned CSV {path}: {key}")
                                               for key in ("delta_f_hz", "ps_dbm")))


def _cmd_mask_check(args) -> int:
    mask = analysis.MaskSpec.from_json(args.mask)
    if args.spectrum_csv:
        binned = _read_binned_csv(args.spectrum_csv)
    else:
        if args.sf is None or args.bw is None or args.ps_dbm is None:
            raise ValueError("need either --spectrum-csv or all of --sf/--bw/--ps-dbm")
        rbws = {seg.rbw_hz for seg in mask.segments}
        if len(rbws) > 1:
            raise ValueError(f"mask {mask.label!r} mixes resolution bandwidths {sorted(rbws)}")
        rbw = rbws.pop() if rbws else 1000.0
        res = analysis._mask_spectrum(_params(args), mask, [args.f0])
        binned = analysis.binned_power(res, delta_f=rbw, ps_dbm=args.ps_dbm)
    if args.out_binned:
        _write_csv(args.out_binned, ["bin_center_hz", "power_dbm"],
                   [binned.bin_centers, binned.bin_power_dbm],
                   comments=[f"delta_f_hz={binned.delta_f!r}", f"ps_dbm={binned.ps_dbm!r}"])
    report = analysis.mask_check(binned, mask, f0=args.f0)
    doc = {
        "mask": mask.label,
        "f0_hz": args.f0,
        "passed": report.passed,
        "complete": report.complete,
        "worst_margin_db": report.worst_margin_db,
        "segments": [{
            "f_start_hz": s.segment.f_start_hz,
            "f_stop_hz": s.segment.f_stop_hz,
            "limit_dbm": s.segment.limit_dbm,
            "n_bins": s.n_bins,
            # of the rbw-wide bins the segment spans
            "coverage": s.n_bins / max(1, round((s.segment.f_stop_hz - s.segment.f_start_hz)
                                                / s.segment.rbw_hz)),
            "worst_margin_db": s.worst_margin_db,
            "worst_freq_hz": s.worst_freq_hz,
        } for s in report.segments],
    }
    print(json.dumps(doc, indent=2))
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lorachirp",
                                 description="Chirp-modulation waveform, receiver and spectrum toolbox")
    sub = ap.add_subparsers(dest="command", required=True)

    mod = sub.add_parser("modulate", help="synthesize a symbol stream to an IQ file")
    mod.add_argument("--sf", type=int, required=True)
    mod.add_argument("--bw", type=float, required=True, help="frequency deviation B in Hz")
    group = mod.add_mutually_exclusive_group(required=True)
    group.add_argument("--symbols", help="comma-separated symbol values")
    group.add_argument("--payload-hex", help="hex payload mapped onto SF-bit symbols")
    mod.add_argument("--oversample", type=int, default=1)
    mod.add_argument("--f0", type=float, default=0.0, help="recorded center frequency")
    mod.add_argument("--out", required=True)
    mod.add_argument("--header", default=None, help="sidecar path (default: OUT.json)")
    mod.set_defaults(func=_cmd_modulate, outputs=("out", "header"))

    dem = sub.add_parser("demod", help="demodulate an IQ file to symbols (JSON)")
    dem.add_argument("--sf", type=int, required=True)
    dem.add_argument("--bw", type=float, required=True)
    dem.add_argument("--in", dest="infile", required=True)
    dem.add_argument("--header", default=None)
    dem.add_argument("--out", default=None)
    dem.set_defaults(func=_cmd_demod, outputs=("out",))

    xc = sub.add_parser("xcorr", help="cross-correlation maxima, bound and SNR penalty")
    xc.add_argument("--sf", type=int, required=True)
    xc.add_argument("--full-matrix", default=None,
                    help="write the dense correlation matrix CSV (sf <= 8)")
    xc.set_defaults(func=_cmd_xcorr, outputs=("full_matrix",))

    sp = sub.add_parser("spectrum", help="continuous PSD and spectral lines to CSV")
    sp.add_argument("--sf", type=int, required=True)
    sp.add_argument("--bw", type=float, required=True)
    sp.add_argument("--grid-step", type=float, default=None,
                    help="frequency step in Hz; must be B/(k*M) for an integer k >= 1")
    sp.add_argument("--ps-dbm", type=float, default=None,
                    help="scale outputs to this transmit power (mW units)")
    sp.add_argument("--out-psd", default=None)
    sp.add_argument("--out-lines", default=None)
    sp.set_defaults(func=_cmd_spectrum, outputs=("out_psd", "out_lines"))

    tb = sub.add_parser("table", help="recompute the per-SF metrics table")
    tb.add_argument("--sf-list", default="3,5,7,10,12")
    tb.add_argument("--format", choices=["csv", "json"], default="csv")
    tb.add_argument("--out", default=None)
    tb.set_defaults(func=_cmd_table, outputs=("out",))

    we = sub.add_parser("welch", help="Welch PSD estimate of an IQ file")
    we.add_argument("--in", dest="infile", required=True)
    we.add_argument("--header", default=None)
    we.add_argument("--segment", type=int, required=True)
    we.add_argument("--overlap", type=float, default=0.5)
    we.add_argument("--window", default="hann")
    we.add_argument("--out", default=None)
    we.set_defaults(func=_cmd_welch, outputs=("out",))

    mk = sub.add_parser("mask-check", help="check a binned spectrum against an emission mask")
    mk.add_argument("--mask", required=True, help="mask JSON config")
    mk.add_argument("--f0", type=float, required=True, help="carrier frequency in Hz")
    mk.add_argument("--spectrum-csv", default=None, help="precomputed binned spectrum CSV")
    mk.add_argument("--sf", type=int, default=None)
    mk.add_argument("--bw", type=float, default=None)
    mk.add_argument("--ps-dbm", type=float, default=None)
    mk.add_argument("--out-binned", default=None, help="save the computed binned CSV")
    mk.set_defaults(func=_cmd_mask_check, outputs=("out_binned",))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        paths = (getattr(args, name) for name in args.outputs)
        report = sys.stderr if any(path and _is_stdout(path) for path in paths) else sys.stdout
        with contextlib.redirect_stdout(report):
            return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
