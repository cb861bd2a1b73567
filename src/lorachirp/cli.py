"""Command-line interface tying synthesis, demodulation and analysis together.

Subcommands: modulate, demod, xcorr, spectrum, table, welch, mask-check.
All numeric CSV output uses '.' decimals with a header line naming the
columns and units; structured reports are JSON on stdout.  Exit codes:
0 success, 1 usage/runtime error, 2 mask-check failure verdict.  A
command whose output path is the file on stdout (/dev/stdout) prints its
report on stderr instead, so that the output is all that stdout carries.
Each command imports the modules it uses when it runs: xcorr, say, loads
neither the IQ file layer nor the spectrum engine.  Importing this module
and parsing a command line load no numpy, so --help, a usage error and a
mask that cannot be read end before numpy is loaded.
"""
from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .params import LoraParams, _finite, _power_ratio

if TYPE_CHECKING:
    import argparse

    from .analysis import BinnedSpectrum, MaskSegment


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


def _is_stream(path) -> bool:
    """Whether path is the file on descriptor 1 or a character device
    (/dev/null, a terminal): a sidecar named after it would land beside
    the device, e.g. /dev/stdout.json."""
    try:
        return _is_stdout(path) or stat.S_ISCHR(os.stat(path).st_mode)
    except OSError:
        return False


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
    from .iqfile import write_iq
    from .waveform import modulate, payload_to_symbols

    if not args.header and _is_stream(args.out):
        raise ValueError(f"--out {args.out} is stdout or a device, so the default sidecar "
                         f"{args.out}.json has no place: give --header")
    p = _params(args)
    if args.symbols is not None:
        symbols = _parse_ints(args.symbols, "--symbols")
    else:
        symbols = payload_to_symbols(bytes.fromhex(args.payload_hex), args.sf)
    iq = modulate(p, symbols, oversample=args.oversample)
    write_iq(iq, args.out, header_path=args.header,
             center_freq=args.f0, description=f"sf={args.sf} bw={args.bw}")
    print(json.dumps({"num_symbols": len(symbols), "num_samples": len(iq),
                      "fs_hz": iq.fs, "out": str(args.out)}))
    return 0


def _cmd_demod(args) -> int:
    from .iqfile import read_iq
    from .receiver import demodulate_stream

    p = _params(args)
    iq = read_iq(args.infile, header_path=args.header)
    symbols = demodulate_stream(iq, p)
    doc = {"sf": args.sf, "bw_hz": args.bw, "symbols": symbols}
    if args.out:
        Path(args.out).write_text(json.dumps(doc) + "\n")
    print(json.dumps(doc))
    return 0


def _cmd_xcorr(args) -> int:
    from .correlation import (correlation_bound, correlation_matrix, max_cross_correlation,
                              orthogonality_offsets)

    p = LoraParams(sf=args.sf, b=1.0)
    mc = max_cross_correlation(p)
    doc = {
        "sf": args.sf,
        "max_abs_re_c": mc.max_abs_real,
        "max_abs_c": mc.max_abs,
        "argmax_pair": list(mc.argmax_real),
        "bound": correlation_bound(p),
        "penalty_db": mc.penalty_db,
        "orthogonal_offsets": orthogonality_offsets(p),
    }
    if args.full_matrix:
        import numpy as np

        from .iqfile import _write_csv

        C = correlation_matrix(p)
        l, m = np.indices(C.shape).reshape(2, -1)
        _write_csv(args.full_matrix, ["l", "m", "re_c", "im_c"],
                   [l, m, C.real.ravel(), C.imag.ravel()])
        doc["matrix_csv"] = str(args.full_matrix)
    print(json.dumps(doc))
    return 0


def _cmd_spectrum(args) -> int:
    import numpy as np

    from .iqfile import _write_csv
    from .spectrum import fresnel_spectrum

    scale = _power_ratio(args.ps_dbm, "--ps-dbm") if args.ps_dbm is not None else None
    res = fresnel_spectrum(_params(args), step=args.grid_step)
    # the density scales as 1/B: at a tiny B the power may carry its peak beyond float range
    if scale is not None and not math.isfinite(float(res.continuous.max()) * scale):
        raise ValueError(f"--ps-dbm {args.ps_dbm!r} at --bw {args.bw!r} Hz gives a PSD "
                         "beyond float range")
    unit = "mw" if args.ps_dbm is not None else "fraction"
    out_psd = args.out_psd or f"spectrum_sf{args.sf}_psd.csv"
    out_lines = args.out_lines or f"spectrum_sf{args.sf}_lines.csv"
    g = res.continuous
    # 10*log10(max(g*B, 1e-30)) in one array
    db_rel_b = np.multiply(g, res.params.b)
    np.maximum(db_rel_b, 1e-30, out=db_rel_b)
    np.log10(db_rel_b, out=db_rel_b)
    db_rel_b *= 10
    _write_csv(out_psd, ["frequency_hz", f"psd_{unit}_per_hz", "psd_db_rel_b"],
               [res.grid, g if scale is None else g * scale, db_rel_b],
               comments=[f"sf={args.sf} bw_hz={args.bw}",
                         "psd_db_rel_b = 10*log10(Gc(f)*B) of the unit-power envelope"])
    _write_csv(out_lines, ["frequency_hz", f"power_{unit}"],
               [res.line_frequencies,
                res.line_powers if scale is None else res.line_powers * scale],
               comments=[f"sf={args.sf} bw_hz={args.bw}"])
    print(json.dumps({"psd_csv": str(out_psd), "lines_csv": str(out_lines),
                      "grid_points": len(res.grid), "num_lines": len(res.lines)}))
    return 0


def _cmd_table(args) -> int:
    from .analysis import reproduce_table

    rows = reproduce_table(_parse_sf_list(args.sf_list))
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
    from .analysis import welch_psd
    from .iqfile import _write_csv, read_iq

    iq = read_iq(args.infile, header_path=args.header)
    freqs, pxx = welch_psd(iq, segment_len=args.segment,
                           overlap=args.overlap, window=args.window)
    out = args.out or "welch_psd.csv"
    _write_csv(out, ["frequency_hz", "psd_per_hz"],
               [freqs, pxx],
               comments=[f"segment={args.segment} overlap={args.overlap} window={args.window}"])
    print(json.dumps({"out": str(out), "grid_points": len(freqs)}))
    return 0


def _read_binned_csv(path) -> BinnedSpectrum:
    """The binned spectrum of a CSV in --out-binned's layout; ValueError
    naming the file unless its bin centres ascend by delta_f_hz (to 1e-6
    relative, as mask_check matches the rbw), the bins of one lattice."""
    import numpy as np

    from .analysis import BinnedSpectrum
    from .iqfile import _read_csv

    meta, columns = _read_csv(path, "binned CSV", ["bin_center_hz", "power_dbm"])
    if "delta_f_hz" not in meta or "ps_dbm" not in meta:
        raise ValueError(f"binned CSV {path} is missing '# delta_f_hz=' / '# ps_dbm=' metadata")
    delta_f, ps_dbm = (_finite(meta[key], f"binned CSV {path}: {key}")
                       for key in ("delta_f_hz", "ps_dbm"))
    centers = columns[0]
    off = np.flatnonzero(np.abs(np.diff(centers) - delta_f) > 1e-6 * delta_f)
    if len(off):
        i = off[0]
        raise ValueError(f"binned CSV {path}: bin_center_hz {float(centers[i + 1])!r} follows "
                         f"{float(centers[i])!r}; the centres must ascend by delta_f_hz = "
                         f"{delta_f!r}")
    return BinnedSpectrum(*columns, delta_f, ps_dbm)


def _lattice_bins(binned: BinnedSpectrum, f0: float, seg: MaskSegment) -> float:
    """How many centres of binned's lattice, its first centre plus whole
    multiples of delta_f, fall in seg's [f_start, f_stop) at carrier f0;
    inf where that count is beyond float range."""
    import numpy as np

    first = float(binned.bin_centers[0]) + f0
    return float(np.ceil((seg.f_stop_hz - first) / binned.delta_f)
                 - np.ceil((seg.f_start_hz - first) / binned.delta_f))


def _cmd_mask_check(args) -> int:
    from .analysis import MaskSpec, _mask_spectrum, binned_power, mask_check

    mask = MaskSpec.from_json(args.mask)
    if args.spectrum_csv:
        binned = _read_binned_csv(args.spectrum_csv)
    else:
        if args.sf is None or args.bw is None or args.ps_dbm is None:
            raise ValueError("need either --spectrum-csv or all of --sf/--bw/--ps-dbm")
        rbws = {seg.rbw_hz for seg in mask.segments}
        if len(rbws) > 1:
            raise ValueError(f"mask {mask.label!r} mixes resolution bandwidths {sorted(rbws)}")
        rbw = rbws.pop() if rbws else 1000.0
        res = _mask_spectrum(_params(args), mask, [args.f0])
        binned = binned_power(res, delta_f=rbw, ps_dbm=args.ps_dbm)
    if args.out_binned:
        from .iqfile import _write_csv

        _write_csv(args.out_binned, ["bin_center_hz", "power_dbm"],
                   [binned.bin_centers, binned.bin_power_dbm],
                   comments=[f"delta_f_hz={binned.delta_f!r}", f"ps_dbm={binned.ps_dbm!r}"])
    report = mask_check(binned, mask, f0=args.f0)
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
            "coverage": (s.n_bins / max(1, _lattice_bins(binned, args.f0, s.segment))
                         if s.n_bins else 0.0),
            "worst_margin_db": s.worst_margin_db,
            "worst_freq_hz": s.worst_freq_hz,
        } for s in report.segments],
    }
    print(json.dumps(doc, indent=2))
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        """A usage error exits 1, as every other error does: 2 is
        mask-check's failing verdict."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    ap = Parser(prog="lorachirp",
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
    mod.add_argument("--header", default=None,
                     help="sidecar path (default: OUT.json; required when OUT is stdout or a device)")
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
