"""Derived metrics, occupied bandwidth, emission-mask checks and Welch
estimation.

Everything spectral here rides on the spectrum module, which only the
functions that compute a spectrum import, so that loading a mask does
not load it (nor the correlation module, which only reproduce_table
imports, nor numpy, which each function that handles an array imports
when it runs); absolute power enters only as a dB offset applied to the
unit-power envelope spectra (transmit power Ps in dBm shifts every level
by ps_dbm).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .params import (_BLOCK_SAMPLES, IqBuffer, LoraParams, _cpu_count, _finite, _finite_array,
                     _finite_power, _integer, _json_object, _map_chunks, _positive, _real, _spans)

if TYPE_CHECKING:
    import numpy as np

    from .spectrum import SpectrumResult

_TINY = 1e-30


def bit_rate(p: LoraParams) -> float:
    """Bit rate R_b = B * SF / 2^SF in bit/s."""
    return p.b * p.sf / p.m


def spectral_efficiency(sf: int) -> float:
    """Modulation spectral efficiency sf / 2^sf in bit/s/Hz."""
    sf = _integer(sf, "sf", lo=1)
    return sf / (1 << sf)


def _trapezoid_cells(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The trapezoid integral of values over each cell of grid."""
    import numpy as np

    cells = np.add(values[1:], values[:-1])
    cells *= 0.5
    cells *= np.diff(grid)
    return cells


def _cumulative_trapezoid(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of values over grid, starting at 0."""
    import numpy as np

    cells = _trapezoid_cells(grid, values)
    # allocated after the cells: the other way round, freeing them trimmed
    # the heap and every call faulted its pages in again
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


def _bin_levels_dbm(grid: np.ndarray, density: np.ndarray, centers: np.ndarray,
                    delta_f: float, ps_dbm: float, lines=None) -> np.ndarray:
    """dBm per delta_f at transmit power ps_dbm: the trapezoid integral of
    density over [c - delta_f/2, c + delta_f/2] for each center c, plus
    the powers of lines = (bin indices, powers) added into their bins."""
    import numpy as np

    ps_dbm = _real(ps_dbm, "ps_dbm")
    cum = _cumulative_trapezoid(grid, density)
    power = (np.interp(centers + delta_f / 2, grid, cum)
             - np.interp(centers - delta_f / 2, grid, cum))
    if lines is not None:
        np.add.at(power, *lines)
    return 10.0 * np.log10(np.maximum(power, _TINY)) + ps_dbm


def _check_spectrum(spec: SpectrumResult) -> None:
    """ValueError unless the grid and the line frequencies of spec are
    finite and every PSD value and line power is a finite number >= 0: a
    NaN, an infinity or a negative power is no spectrum."""
    import numpy as np

    for what, freqs in (("grid", spec.grid), ("line frequencies", spec.line_frequencies)):
        # a NaN anywhere makes both extremes NaN
        if len(freqs) and not (np.isfinite(freqs.min()) and np.isfinite(freqs.max())):
            raise ValueError(f"spectrum {what} must hold only finite numbers, "
                             f"got {float(freqs[~np.isfinite(freqs)][0])!r}")
    for what, values, freqs in (("PSD value", spec.continuous, spec.grid),
                                ("line power", spec.line_powers, spec.line_frequencies)):
        # a NaN extreme fails both comparisons
        if len(values) and not (values.min() >= 0.0 and values.max() < np.inf):
            i = int(np.argmax(~((values >= 0.0) & (values < np.inf))))
            raise ValueError(f"spectrum {what} at {float(freqs[i])!r} Hz is "
                             f"{float(values[i])!r}, not a finite number >= 0")


def _default_half(p: LoraParams, f_max: float):
    """The f >= 0 half of fresnel_spectrum(p, f_max, B/(k*M)), k =
    max(1, 512 // M), for occupied_bandwidth: the half-widths h, the
    continuous power of each cell (h[i], h[i+1]) with its mirror (G is
    even) and the line power at each h (the line f > 0 stands for itself
    and its mirror)."""
    import numpy as np

    from .spectrum import _half_spectrum

    k = max(1, 512 // p.m)
    step, g, powers = _half_spectrum(p, f_max, k)
    half = np.arange(len(g)) * step
    cells = _trapezoid_cells(half, g)
    cells *= 2.0
    lines = np.zeros(len(half))
    lines[::k] = powers
    lines[k::k] *= 2.0
    return half, cells, lines


def _given_half(spectrum: SpectrumResult):
    """_default_half's three arrays for a given spectrum, whose grid must
    be symmetric about 0 Hz with every line within it on a grid point."""
    import numpy as np

    _check_spectrum(spectrum)
    grid = spectrum.grid
    c = len(grid) // 2
    half = grid[c:]  # the half-widths h, one per grid point f >= 0
    if len(grid) < 3 or not np.array_equal(half, -grid[c::-1]):
        raise ValueError("occupied_bandwidth needs a grid symmetric about 0 Hz")
    cells = _trapezoid_cells(grid, spectrum.continuous)
    # each line counts from the half-width of its grid point on
    step = half[1]
    freqs = np.abs(spectrum.line_frequencies)
    index = np.rint(freqs / step)
    inside = index < len(half)
    index = index[inside].astype(np.intp)
    if np.any(np.abs(half[index] - freqs[inside]) > 1e-9 * step):
        raise ValueError("occupied_bandwidth needs every line within the grid on a grid point")
    lines = np.bincount(index, spectrum.line_powers[inside], len(half)).astype(float)
    return half, cells[c:] + cells[c - 1::-1], lines


def occupied_bandwidth(p: LoraParams, fraction: float,
                       spectrum: SpectrumResult | None = None) -> float:
    """Smallest two-sided width W (Hz) capturing `fraction` of the signal
    power: continuous PSD integrated over [-W/2, W/2] plus the discrete
    lines inside.

    Total signal power is 1 (unit-power envelope).  The default spectrum
    is that of fresnel_spectrum over |f| <= B with step B/(k*M), k =
    max(1, 512 // M), so the width resolves small SF; from SF 9 up k = 1,
    the line lattice, where every point is a line and takes two Fresnel
    table values.  Where |f| <= B holds less than `fraction` (from SF 3
    up it holds 99.6 % or more), the width is solved over |f| <= 4B
    instead.  If the requested fraction exceeds what the computed
    spectrum span contains, the error reports the captured fraction.

    W is solved on the f >= 0 half: with the grid symmetric about 0, the
    power within |f| <= h is the continuous power of the cells on both
    sides, summed from 0 Hz out, plus the lines folded onto their grid
    points |f|, so it grows linearly in h between grid points and every
    line adds a step at its grid point, and the first grid point that
    reaches `fraction` fixes W in one linear solve.  The default path
    takes the f >= 0 half of the spectrum straight from the Fresnel
    engine (G and the lines are even) and builds no mirrored spectrum; it
    gives the bits that the same spectrum given as `spectrum` gives.  At
    k = 1 the width does not depend on the span, bit for bit; at k > 1
    the B span's narrower table moves it by at most a few 1e-14
    relative against the 4B span.  A
    given spectrum whose grid is not symmetric, whose lines within the
    grid are off its points, whose grid or line frequencies are not
    finite, or whose PSD values or line powers are not finite numbers
    >= 0 raises ValueError.  From SF 9 up the default k = 1 lattice reads
    W low, because its trapezoid integral reads the continuous power low:
    the 99 % width is 1.04e-3 B (SF 9) to 8.8e-5 B (SF 12) below that at
    k = 16.
    """
    import numpy as np

    if not 0.0 < _real(fraction, "fraction") < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if spectrum is None:
        # |f| <= B holds 99 % from SF 3 up; 4B only for what B falls short of
        halves = (_default_half(p, span * p.b) for span in (1.0, 4.0))
    else:
        halves = [_given_half(spectrum)]
    for half, cells, lines in halves:
        # the continuous power within |f| <= h
        cont = np.zeros(len(half))
        np.cumsum(cells, out=cont[1:])
        captured = np.cumsum(lines, out=lines)
        captured += cont
        if fraction <= captured[-1]:
            break
    else:
        raise ValueError(
            f"fraction {fraction} unreachable: computed span |f| <= "
            f"{half[-1]:.6g} Hz captures only {captured[-1]:.6f}")
    i = int(np.argmax(captured >= fraction))
    if i == 0:  # the line at 0 Hz alone
        return 0.0
    # the continuous power rises linearly across the cell (h[i-1], h[i]);
    # if it does not reach fraction there, the line at h[i] does
    need, rise = fraction - captured[i - 1], cont[i] - cont[i - 1]
    width = half[i - 1] + (half[i] - half[i - 1]) * need / rise if need < rise else half[i]
    return 2.0 * float(width)


@dataclass(frozen=True)
class TableRow:
    """Per-spreading-factor metrics record.

    eff is sf/2^sf bit/s/Hz, b99_b the 99%-power bandwidth as a multiple
    of B, pd the discrete-spectrum power fraction (exactly 2^-sf) and
    delta_max_db the worst-case SNR penalty.
    """

    sf: int
    eff: float
    max_re_c: float
    b99_b: float
    pd: float
    delta_max_db: float


def reproduce_table(sf_list) -> list[TableRow]:
    """Compute the summary metrics table from first principles.

    Every column is recomputed (one correlation scan per row, read for
    max|Re C| and the SNR penalty, the 99 % width solved on the exact
    Fresnel spectrum, analytic line power); nothing is tabulated.
    """
    from .correlation import max_cross_correlation

    rows = []
    for sf in sf_list:
        sf = _integer(sf, "sf", 3, 12)
        p = LoraParams(sf=sf, b=1.0)
        mc = max_cross_correlation(p)
        b99 = occupied_bandwidth(p, 0.99)
        rows.append(TableRow(
            sf=sf,
            eff=spectral_efficiency(sf),
            max_re_c=mc.max_abs_real,
            b99_b=b99 / p.b,
            pd=1.0 / p.m,
            delta_max_db=mc.penalty_db,
        ))
    return rows


@dataclass(frozen=True, eq=False)
class BinnedSpectrum:
    """Spectrum integrated into bins of width delta_f at transmit power ps_dbm.

    Bin k covers the half-open interval [center - delta_f/2,
    center + delta_f/2); levels are dBm per resolution bandwidth delta_f.
    """

    bin_centers: np.ndarray
    bin_power_dbm: np.ndarray
    delta_f: float
    ps_dbm: float

    @property
    def bin_power_mw(self) -> np.ndarray:
        return 10.0 ** (self.bin_power_dbm / 10.0)


def binned_power(spec: SpectrumResult, delta_f: float, ps_dbm: float,
                 origin: float = 0.0) -> BinnedSpectrum:
    """Integrate continuous PSD plus lines into bins of width delta_f.

    Bin centers sit at origin + k*delta_f for every bin fully inside the
    spectrum span, computed from origin reduced modulo delta_f, so an
    origin far from the span gives the bins of its remainder.  Bins are
    half-open, so a line falling exactly on an edge is counted once, in
    the upper bin.  A grid point or line frequency that is not finite,
    and a PSD value or line power that is not a finite number >= 0, raise
    ValueError, and so does a delta_f that cuts the span into more than
    spectrum._MAX_LATTICE bins, checked before any bin is allocated.
    """
    import numpy as np

    from .spectrum import _MAX_LATTICE

    delta_f = _positive(delta_f, "delta_f")
    # the same centers from an origin within one bin of 0: fmod is exact,
    # and such an origin is its own remainder
    origin = math.fmod(_real(origin, "origin"), delta_f)
    _check_spectrum(spec)
    grid = spec.grid
    with np.errstate(over="ignore"):  # a bin index beyond float range reads +-inf
        k_lo = np.ceil((grid[0] + delta_f / 2 - origin) / delta_f - 1e-9)
        k_hi = np.floor((grid[-1] - delta_f / 2 - origin) / delta_f + 1e-9)
    if k_hi < k_lo:
        raise ValueError("spectrum span too narrow for a single bin")
    # counted before any bin is allocated; inf - inf is NaN, and fails too
    if not k_hi - k_lo + 1 <= _MAX_LATTICE:
        raise ValueError(f"delta_f = {delta_f!r} Hz cuts the spectrum span [{float(grid[0])!r}, "
                         f"{float(grid[-1])!r}] Hz into more than {_MAX_LATTICE} bins")
    k_lo, k_hi = int(k_lo), int(k_hi)
    centers = origin + np.arange(k_lo, k_hi + 1) * delta_f
    # assign each line to its half-open bin; the lines inside the bins are
    # picked before the int cast, which a far line's index would overflow
    with np.errstate(over="ignore"):
        idx = np.floor((spec.line_frequencies - origin) / delta_f + 0.5) - k_lo
    ok = (idx >= 0) & (idx < len(centers))
    level_dbm = _bin_levels_dbm(grid, spec.continuous, centers, delta_f, ps_dbm,
                                (idx[ok].astype(int), spec.line_powers[ok]))
    return BinnedSpectrum(bin_centers=centers, bin_power_dbm=level_dbm,
                          delta_f=delta_f, ps_dbm=ps_dbm)


_MASK_KEYS = ("f_start_hz", "f_stop_hz", "limit_dbm", "rbw_hz")


@dataclass(frozen=True)
class MaskSegment:
    """One piecewise emission limit: [f_start, f_stop) at limit_dbm per rbw_hz."""

    f_start_hz: float
    f_stop_hz: float
    limit_dbm: float
    rbw_hz: float

    def __post_init__(self):
        for key, check in zip(_MASK_KEYS, (_real, _real, _real, _positive)):
            object.__setattr__(self, key, check(getattr(self, key), f"mask segment {key}"))
        if self.f_stop_hz <= self.f_start_hz:
            raise ValueError(f"empty mask segment [{self.f_start_hz}, {self.f_stop_hz})")


@dataclass(frozen=True)
class MaskSpec:
    """Piecewise regulatory emission mask over absolute frequencies."""

    label: str
    segments: tuple[MaskSegment, ...] = field(default_factory=tuple)

    def __post_init__(self):
        segs = tuple(sorted(self.segments, key=lambda s: s.f_start_hz))
        for a, b in zip(segs, segs[1:]):
            if b.f_start_hz < a.f_stop_hz:
                raise ValueError(
                    f"overlapping mask segments at {b.f_start_hz} Hz in {self.label!r}")
        object.__setattr__(self, "segments", segs)

    @classmethod
    def from_json(cls, path) -> "MaskSpec":
        """Parse a mask document.  A file that cannot be read, is not JSON
        or whose top level is not an object, a 'segments' value that is not
        a list, a missing key, a value that is not a finite number and an
        invalid segment or mask raise OSError or ValueError naming the
        file."""
        doc = _json_object(path, "mask", "a 'segments' list")
        segments = doc.get("segments", [])
        if not isinstance(segments, list):
            raise ValueError(f"mask {path}: 'segments' must be a list, got {segments!r}")
        segs = []
        try:
            for i, seg in enumerate(segments):
                values = []
                for key in _MASK_KEYS:
                    if not isinstance(seg, dict) or key not in seg:
                        raise ValueError(f"segment {i} is missing {key!r}")
                    values.append(_finite(seg[key], f"segment {i}: {key!r}"))
                segs.append(MaskSegment(*values))
            return cls(label=str(doc.get("label", "")), segments=tuple(segs))
        except ValueError as exc:
            raise ValueError(f"mask {path}: {exc}") from exc

    def to_json(self, path) -> None:
        doc = {"label": self.label,
               "segments": [{"f_start_hz": s.f_start_hz, "f_stop_hz": s.f_stop_hz,
                             "limit_dbm": s.limit_dbm, "rbw_hz": s.rbw_hz}
                            for s in self.segments]}
        Path(path).write_text(json.dumps(doc, indent=2) + "\n")

    def tightened(self, delta_db: float) -> "MaskSpec":
        """Copy of the mask with every limit lowered by delta_db."""
        return MaskSpec(label=f"{self.label} (tightened {delta_db} dB)",
                        segments=tuple(MaskSegment(s.f_start_hz, s.f_stop_hz,
                                                   s.limit_dbm - delta_db, s.rbw_hz)
                                       for s in self.segments))


@dataclass(frozen=True)
class SegmentResult:
    """Worst margin (limit - level, dB; negative means violation) per segment."""

    segment: MaskSegment
    n_bins: int
    worst_margin_db: float | None
    worst_freq_hz: float | None


@dataclass(frozen=True)
class MaskReport:
    passed: bool
    segments: tuple[SegmentResult, ...]

    @property
    def complete(self) -> bool:
        """Every segment checked at least one bin (true for an empty mask)."""
        return all(s.n_bins for s in self.segments)

    @property
    def worst_margin_db(self) -> float | None:
        margins = [s.worst_margin_db for s in self.segments if s.worst_margin_db is not None]
        return min(margins) if margins else None


def _mask_spectrum(p: LoraParams, mask: MaskSpec, carriers) -> SpectrumResult:
    """fresnel_spectrum at step B/(4M) over |f| <= max(8B, the segment edge
    farthest from a carrier f0 in `carriers` plus half its rbw), rounded up
    to the lattice, so whole bins cover every segment at every carrier.  A
    carrier that is not finite adds no span; mask_check rejects it.  A
    carrier so far from the mask that the lattice table would exceed
    spectrum._MAX_LATTICE raises ValueError naming it."""
    import numpy as np

    from .spectrum import fresnel_spectrum

    step = p.b / (4 * p.m)
    reach, far = max(((abs(edge - f0) + s.rbw_hz / 2, f0) for f0 in carriers if np.isfinite(f0)
                      for s in mask.segments for edge in (s.f_start_hz, s.f_stop_hz)),
                     default=(0.0, None))
    f_max = float(np.ceil(max(8.0 * p.b, reach) / step)) * step
    try:
        return fresnel_spectrum(p, f_max=f_max, step=step)
    except ValueError as err:
        raise ValueError(f"carrier f0 = {far!r} Hz, {reach:.6g} Hz from the farthest edge of "
                         f"mask {mask.label!r}: {err}") from None


def mask_check(binned: BinnedSpectrum, mask: MaskSpec, f0: float) -> MaskReport:
    """Compare a binned spectrum, shifted to carrier f0, against a mask.

    Every bin whose center falls inside a segment is compared with that
    segment's limit.  The binned resolution bandwidth must equal the mask
    rbw (no implicit resampling).  A segment that no bin falls in is
    reported with n_bins = 0 and makes the report incomplete, and an
    incomplete report does not pass: the spectrum says nothing about
    that segment.  So the verdict passes only when every segment checked
    at least one bin and no checked bin exceeds its limit; a segment
    covered in part is judged on the bins it has.  An empty mask passes.
    A non-finite level in a checked bin raises ValueError naming the
    segment; so do a non-finite carrier f0 and unequal-length arrays.
    """
    import numpy as np

    f0 = _real(f0, "carrier frequency f0")
    if len(binned.bin_centers) != len(binned.bin_power_dbm):
        raise ValueError(f"binned spectrum has {len(binned.bin_centers)} bin centers "
                         f"but {len(binned.bin_power_dbm)} levels")
    f_abs = binned.bin_centers + f0
    results = []
    for seg in mask.segments:
        if abs(seg.rbw_hz - binned.delta_f) > 1e-6 * seg.rbw_hz:
            raise ValueError(
                f"mask rbw {seg.rbw_hz} Hz != binned resolution {binned.delta_f} Hz; "
                "recompute the binned spectrum at the mask rbw")
        sel = (f_abs >= seg.f_start_hz) & (f_abs < seg.f_stop_hz)
        if not np.any(sel):  # unchecked: the report is incomplete
            results.append(SegmentResult(seg, 0, None, None))
            continue
        levels = binned.bin_power_dbm[sel]
        if not np.all(np.isfinite(levels)):
            bad = float(f_abs[sel][~np.isfinite(levels)][0])
            raise ValueError(
                f"binned level at {bad} Hz in mask segment [{seg.f_start_hz}, "
                f"{seg.f_stop_hz}) Hz is not a finite number")
        margins = seg.limit_dbm - levels
        i = int(np.argmin(margins))
        results.append(SegmentResult(seg, int(sel.sum()), float(margins[i]), float(f_abs[sel][i])))
    return MaskReport(passed=all(r.n_bins and r.worst_margin_db >= 0 for r in results),
                      segments=tuple(results))


# Periodic cosine-sum windows: w[n] = sum_k (-1)^k a_k cos(2*pi*k*n/L).
_WINDOWS = {"hann": (0.5, 0.5), "hamming": (0.54, 0.46),
            "blackman": (0.42, 0.5, 0.08), "rect": (1.0,), "boxcar": (1.0,)}


def _cosine_window(window: str, n: int) -> np.ndarray:
    import numpy as np

    phase = 2.0 * np.pi * np.arange(n) / n
    return sum((-1) ** k * a * np.cos(k * phase)
               for k, a in enumerate(_WINDOWS[window]))


def welch_psd(iq: IqBuffer, segment_len: int, overlap: float = 0.5,
              window: str = "hann") -> tuple[np.ndarray, np.ndarray]:
    """Welch PSD estimate of a complex baseband buffer.

    Averaged windowed periodograms over segments of segment_len samples
    with fractional overlap; returns a two-sided ascending frequency grid
    and a density rescaled so that its trapezoid integral equals the
    buffer's mean power exactly.  Before the rescaling this equals
    scipy.signal.welch(detrend=False, return_onesided=False,
    scaling="density") with the periodic window: no padding, and the
    (N - segment_len) // step + 1 segments that fit in the buffer.  The
    blocks of segments are shared among the CPUs of the affinity mask.
    A buffer whose mean power is not finite (a NaN or infinite sample,
    under a segment or not, or one whose |x|^2 overflows) raises
    ValueError, and so does an fs at which the density of segments that
    hold power does not integrate to a finite positive number (a tiny fs
    collapses the grid to +-0; at a huge fs the density of a faint buffer
    underflows to 0).
    """
    import numpy as np

    segment_len = _integer(segment_len, "segment_len", 2, len(iq))
    if not 0.0 <= _real(overlap, "overlap") < 1.0:
        raise ValueError(f"overlap must be in [0, 1), got {overlap}")
    if not isinstance(window, str) or window not in _WINDOWS:
        raise ValueError(f"window must be one of {sorted(_WINDOWS)}, got {window!r}")
    noverlap = int(round(overlap * segment_len))
    if noverlap >= segment_len:
        noverlap = segment_len - 1
    w = _cosine_window(window, segment_len)
    hop = segment_len - noverlap
    n_segments = (len(iq) - segment_len) // hop + 1
    mean_power = _finite_power(iq)
    per_block = max(1, _BLOCK_SAMPLES // segment_len)
    # the samples under each block of per_block segments
    spans = [(lo * hop, (hi - 1) * hop + segment_len) for lo, hi in _spans(n_segments, per_block)]

    def block_powers(part: list) -> list[np.ndarray]:
        # per-part scratch reused through out=, as in demodulate_stream
        windowed = np.empty((min(per_block, n_segments), segment_len), dtype=np.complex128)
        rows = []
        # a lazy buffer gathers each block into one scratch of the longest span
        for block in iq._blocks(part):
            # the block's samples seen as its k segments (far cheaper per
            # block than sliding_window_view)
            k = (len(block) - segment_len) // hop + 1
            segments = np.ndarray((k, segment_len), block.dtype, block,
                                  strides=(hop * block.itemsize, block.itemsize))
            spec = windowed[:k]
            np.multiply(segments, w, out=spec)
            np.fft.fft(spec, axis=-1, out=spec)
            # |X|^2 summed over the segments: re^2 and im^2 side by side
            parts = spec.view(np.float64)
            np.square(parts, out=parts)
            sums = np.add.reduce(parts, axis=0)
            rows.append(sums[0::2] + sums[1::2])
        return rows

    # the blocks' sums of |X|^2 are added in block order, as in one serial
    # pass; waves of blocks bound how many sums wait to be added at once
    wave = max(_cpu_count(), 16 * _BLOCK_SAMPLES // segment_len)
    power = np.zeros(segment_len)
    for first in range(0, len(spans), wave):
        for row in _map_chunks(block_powers, spans[first:first + wave]):
            power += row
    # an fs near either end of float range is reported below, not warned
    with np.errstate(all="ignore"):
        scale = n_segments * iq.fs * np.sum(w ** 2)
        # from about fs = 1e305 the product overflows: fs then divides on its own
        pxx = np.fft.fftshift(power / scale if np.isfinite(scale)
                              else power / (n_segments * np.sum(w ** 2)) / iq.fs)
        freqs = np.fft.fftshift(np.fft.fftfreq(segment_len, 1.0 / iq.fs))
        integral = np.trapezoid(pxx, freqs)
    if power.any() and not (np.isfinite(integral) and integral > 0):
        raise ValueError(f"fs = {iq.fs!r} Hz gives a Welch density whose integral is "
                         f"{float(integral)!r}, not a finite positive number")
    if integral > 0:
        pxx = pxx * (mean_power / integral)
    return freqs, pxx


def bin_estimate(freqs: np.ndarray, psd: np.ndarray, centers: np.ndarray,
                 delta_f: float, ps_dbm: float = 0.0) -> np.ndarray:
    """Integrate a PSD estimate into the same bins as binned_power.

    Returns levels in dBm per delta_f at transmit power ps_dbm, for
    comparing estimates against analytic binned spectra.  freqs, psd and
    centers must hold only finite numbers, freqs must be strictly
    ascending and as long as psd, and delta_f finite and positive,
    otherwise ValueError.
    """
    import numpy as np

    delta_f = _positive(delta_f, "delta_f")
    freqs, psd, centers = (_finite_array(freqs, "freqs"), _finite_array(psd, "psd"),
                           _finite_array(centers, "centers"))
    if freqs.ndim != 1 or freqs.shape != psd.shape:
        raise ValueError(f"freqs and psd must be 1-D and of equal length, "
                         f"got shapes {freqs.shape} and {psd.shape}")
    if not np.all(np.diff(freqs) > 0):
        raise ValueError("freqs must be strictly ascending")
    return _bin_levels_dbm(freqs, psd, centers, delta_f, ps_dbm)
