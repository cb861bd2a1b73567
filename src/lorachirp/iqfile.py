"""IQ capture file I/O: interleaved float32 binary or CSV, with a JSON sidecar.

The binary layout is the de facto SDR convention: little-endian float32
pairs I0, Q0, I1, Q1, ...  The sidecar records the sample rate, center
frequency and sample count so captures stay self-describing.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import (_BLOCK_SAMPLES, IqBuffer, _all_within, _check_fs, _map_chunks,
                     _real)

FORMAT_F32 = "interleaved-f32-le"
FORMAT_CSV = "csv"


@dataclass(frozen=True)
class IqFileHeader:
    format: str
    fs: float
    center_freq: float = 0.0
    description: str = ""

    def __post_init__(self):
        if self.format not in (FORMAT_F32, FORMAT_CSV):
            raise ValueError(f"unknown IQ format {self.format!r}")
        _check_fs(self.fs)
        if not math.isfinite(_real(self.center_freq, "center_freq")):
            raise ValueError(f"center_freq must be a finite number, got {self.center_freq}")


# 2^128 - 2^103: the midpoint between FLT_MAX = 2^128 - 2^104 and 2^128.  A
# float64 below it in magnitude rounds to a finite float32; at or above it,
# to infinity.
_F32_OVERFLOW = 2.0 ** 128 - 2.0 ** 103


def _default_header_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_iq(buffer: IqBuffer, path, header_path=None, center_freq: float = 0.0,
             description: str = "", fmt: str = FORMAT_F32) -> IqFileHeader:
    """Write an IqBuffer to disk plus its JSON sidecar.

    Binary files hold interleaved little-endian float32 I/Q pairs (8 bytes
    per complex sample); CSV files carry an "i,q" header row.  Returns the
    header that was written.  A sample whose I or Q is NaN, infinite or
    (in the binary format) beyond the float32 range raises ValueError
    before anything is written, since read_iq would reject the capture.
    In the binary format the check, and then the narrowing and writing,
    run in blocks shared among the CPUs of the affinity mask; no
    full-size copy of the samples is made.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header = IqFileHeader(format=fmt, fs=buffer.fs, center_freq=center_freq,
                          description=description)
    n = len(buffer)
    n_blocks = -(-n // _BLOCK_SAMPLES)

    def blocks_in(blocks: range):
        """(lo, hi, samples[lo:hi]) of each block, through one scratch."""
        scratch = buffer._scratch(min(n, _BLOCK_SAMPLES))
        for i in blocks:
            lo, hi = i * _BLOCK_SAMPLES, min(n, (i + 1) * _BLOCK_SAMPLES)
            yield lo, hi, buffer._block(lo, hi, scratch)

    if fmt == FORMAT_F32:
        def narrows(blocks: range) -> list[bool]:
            # complex128 is stored as I, Q float64 pairs
            return [_all_within(block.view(np.float64), _F32_OVERFLOW)
                    for _, _, block in blocks_in(blocks)]

        finite = all(_map_chunks(narrows, n_blocks))
    else:
        finite = np.isfinite(buffer.samples).all()
    if not finite:
        raise ValueError(f"cannot write IQ capture {path}: the I or Q of a sample is NaN, "
                         "infinite or too large for float32")
    try:
        if fmt == FORMAT_F32:
            path.open("wb").close()

            def write(blocks: range) -> tuple:
                # each range narrows its blocks into one reused scratch and
                # writes them through its own handle, from its first block on
                raw = np.empty(2 * min(n, _BLOCK_SAMPLES), dtype="<f4")
                with path.open("r+b") as fh:
                    fh.seek(8 * _BLOCK_SAMPLES * blocks.start)
                    for lo, hi, block in blocks_in(blocks):
                        out = raw[:2 * (hi - lo)]
                        np.copyto(out, block.view(np.float64))
                        fh.write(out)
                return ()

            _map_chunks(write, n_blocks)
        else:
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["i", "q"])
                for z in buffer.samples:
                    writer.writerow([repr(float(z.real)), repr(float(z.imag))])
        header_path.write_text(json.dumps({
            "format": header.format,
            "fs_hz": header.fs,
            "center_freq_hz": header.center_freq,
            "description": header.description,
            "num_samples": n,
        }, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing IQ capture {path}: {exc}") from exc
    return header


def read_header(header_path) -> tuple[IqFileHeader, int | None]:
    """Parse a sidecar; returns the header and the recorded sample count."""
    header_path = Path(header_path)
    try:
        doc = json.loads(header_path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read IQ sidecar {header_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed IQ sidecar {header_path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"IQ sidecar {header_path} must hold a JSON object with 'fs_hz'")
    if "fs_hz" not in doc:
        raise ValueError(f"IQ sidecar {header_path} is missing fs_hz")
    fs = _finite_number(doc, "fs_hz", header_path)
    if not fs > 0:
        raise ValueError(f"IQ sidecar {header_path}: 'fs_hz' must be positive, got {fs}")
    header = IqFileHeader(format=str(doc.get("format", FORMAT_F32)), fs=fs,
                          center_freq=_finite_number(doc, "center_freq_hz", header_path, 0.0),
                          description=str(doc.get("description", "")))
    n = doc.get("num_samples")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
        raise ValueError(
            f"IQ sidecar {header_path}: 'num_samples' must be a nonnegative integer, got {n!r}")
    return header, n


def _finite_number(doc: dict, key: str, header_path, default=None) -> float:
    """doc[key] as a finite float, else ValueError naming the key."""
    value = doc.get(key, default)
    try:
        number = np.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = np.nan
    if not np.isfinite(number):
        raise ValueError(
            f"IQ sidecar {header_path}: {key!r} must be a finite number, got {value!r}")
    return number


def _read_f32(path: Path, n_expected: int | None) -> tuple[np.ndarray, bool]:
    """The complex samples of an interleaved float32 capture and whether
    all of them are finite, read and checked block by block on every CPU,
    each range through its own file handle.  The payload's length is
    checked, also against the sidecar's count, before anything is
    allocated."""
    try:
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
    if size % 8:
        raise ValueError(f"truncated IQ capture {path}: {size} bytes is not a "
                         "whole number of float32 I/Q pairs")
    _check_count(path, size // 8, n_expected)
    values = np.empty(size // 4)
    step = 2 * _BLOCK_SAMPLES

    def widen(blocks: range) -> list[bool]:
        raw = np.empty(min(len(values), step), dtype="<f4")
        finite = []
        try:
            with path.open("rb") as fh:
                fh.seek(4 * step * blocks.start)
                for i in blocks:
                    out = values[i * step:(i + 1) * step]
                    block = raw[:len(out)]
                    # a buffered readinto fills the block unless the file ends
                    got = fh.readinto(block)
                    if got < block.nbytes:
                        raise OSError(f"the file ended after {4 * i * step + got} "
                                      f"of {size} bytes")
                    finite.append(_all_within(block, np.inf))
                    out[:] = block  # every float32 widens to float64 exactly
        except OSError as exc:
            raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
        return finite

    finite = all(_map_chunks(widen, -(-len(values) // step)))
    return values.view(np.complex128), finite


def _check_count(path: Path, n: int, n_expected: int | None) -> None:
    if n_expected is not None and n_expected != n:
        raise ValueError(f"IQ capture {path} holds {n} samples but sidecar says {n_expected}")


def read_iq(path, header_path=None) -> IqBuffer:
    """Read an IQ capture back into an IqBuffer.

    Raises on truncated payloads (odd float count), NaN or infinite
    samples, malformed sidecars, nonpositive sample rates and
    sidecar/payload length mismatches.  A float32 payload is read in
    blocks shared among the CPUs of the affinity mask.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header, n_expected = read_header(header_path)
    if header.format == FORMAT_F32:
        samples, finite = _read_f32(path, n_expected)
    else:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
        if not rows or [c.strip().lower() for c in rows[0]] != ["i", "q"]:
            raise ValueError(f"CSV IQ capture {path} must start with an 'i,q' header row")
        try:
            samples = np.array([complex(float(r[0]), float(r[1])) for r in rows[1:]],
                               dtype=np.complex128)
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed CSV IQ row in {path}: {exc}") from exc
        _check_count(path, len(samples), n_expected)
        finite = np.isfinite(samples).all()
    if not finite:
        raise ValueError(f"IQ capture {path} holds NaN or infinite samples")
    return IqBuffer._adopt(samples, fs=header.fs)
