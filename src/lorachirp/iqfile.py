"""IQ capture file I/O: interleaved float32 binary or CSV, with a JSON sidecar.

The binary layout is the de facto SDR convention: little-endian float32
pairs I0, Q0, I1, Q1, ...  The sidecar records the sample rate, center
frequency and sample count so captures stay self-describing.
"""
from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import (_BLOCK_SAMPLES, IqBuffer, _all_within, _check_fs, _finite,
                     _json_object, _map_chunks, _real, _spans)

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


# rows of a CSV output formatted and written in one go: few enough that
# the text of a chunk stays far below the columns it is formatted from
_CSV_ROWS = 256


def _write_csv(path, header_cols: list[str], cols: list, comments: list[str] = ()) -> None:
    """Write '# ' comment lines, a header and one row per entry of the
    columns `cols` (iterables of Python numbers), in csv.writer's default
    layout: ',' between fields and '\r\n' after each row.  Every number is
    written as its repr, so floats read back exactly.  Rows are formatted
    and written _CSV_ROWS at a time, so the text never exists whole."""
    rows = map(",".join, zip(*(map(repr, c) for c in cols)))
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments) + ",".join(header_cols) + "\r\n")
        while chunk := list(itertools.islice(rows, _CSV_ROWS)):
            fh.write("\r\n".join(chunk) + "\r\n")


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
    The binary format reads the buffer once, in blocks shared among the
    CPUs of the affinity mask, narrowing each block into the file's
    float32 payload (8 bytes per sample) and checking it there; the CSV
    format reads `samples` once.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header = IqFileHeader(format=fmt, fs=buffer.fs, center_freq=center_freq,
                          description=description)
    n = len(buffer)
    spans = _spans(n, _BLOCK_SAMPLES)
    if fmt == FORMAT_F32:
        payload = np.empty(2 * n, dtype="<f4")

        def narrow(part: list) -> list[bool]:
            fits = []
            # a float64 narrows to a finite float32 exactly when its magnitude
            # is below 2^128 - 2^103, halfway from FLT_MAX to 2^128; one at or
            # beyond it narrows to inf, here without a warning
            with np.errstate(over="ignore"):
                for (lo, hi), block in zip(part, buffer._blocks(part)):
                    out = payload[2 * lo:2 * hi]
                    # complex128 is stored as I, Q float64 pairs
                    np.copyto(out, block.view(np.float64))
                    fits.append(_all_within(out, np.inf))
            return fits

        fits = all(_map_chunks(narrow, spans))
    else:
        samples = buffer.samples
        fits = _all_within(samples.view(np.float64), np.inf)
    if not fits:
        raise ValueError(f"cannot write IQ capture {path}: the I or Q of a sample is NaN, "
                         "infinite or too large for float32")
    try:
        if fmt == FORMAT_F32:
            path.open("wb").close()

            def write(part: list) -> tuple:
                # each part writes its blocks through its own handle
                with path.open("r+b") as fh:
                    fh.seek(8 * part[0][0])
                    fh.write(payload[2 * part[0][0]:2 * part[-1][1]])
                return ()

            _map_chunks(write, spans)
        else:
            _write_csv(path, ["i", "q"], [map(float, samples.real), map(float, samples.imag)])
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
    """Parse a sidecar; returns the header and the recorded sample count.
    Every error names the sidecar."""
    header_path = Path(header_path)
    doc = _json_object(header_path, "IQ sidecar", "'fs_hz'")
    if "fs_hz" not in doc:
        raise ValueError(f"IQ sidecar {header_path} is missing fs_hz")
    where = f"IQ sidecar {header_path}:"
    fs = _finite(doc["fs_hz"], f"{where} 'fs_hz'")
    if not fs > 0:
        raise ValueError(f"{where} 'fs_hz' must be positive, got {fs}")
    center_freq = _finite(doc.get("center_freq_hz", 0.0), f"{where} 'center_freq_hz'")
    try:
        header = IqFileHeader(format=str(doc.get("format", FORMAT_F32)), fs=fs,
                              center_freq=center_freq,
                              description=str(doc.get("description", "")))
    except ValueError as exc:
        raise ValueError(f"{where} {exc}") from exc
    n = doc.get("num_samples")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
        raise ValueError(f"{where} 'num_samples' must be a nonnegative integer, got {n!r}")
    return header, n


def _read_f32(path: Path, n_expected: int | None) -> tuple[np.ndarray, bool]:
    """The read-only float32 payload of an interleaved capture and whether
    all of it is finite, read and checked block by block on every CPU,
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
    payload = np.empty(size // 4, dtype="<f4")

    def read(part: list) -> list[bool]:
        finite = []
        try:
            with path.open("rb") as fh:
                fh.seek(8 * part[0][0])
                for lo, hi in part:
                    block = payload[2 * lo:2 * hi]
                    # a buffered readinto fills the block unless the file ends
                    got = fh.readinto(block)
                    if got < block.nbytes:
                        raise OSError(f"the file ended after {8 * lo + got} of {size} bytes")
                    finite.append(_all_within(block, np.inf))
        except OSError as exc:
            raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
        return finite

    finite = all(_map_chunks(read, _spans(size // 8, _BLOCK_SAMPLES)))
    payload.setflags(write=False)
    return payload, finite


def _widen(payload: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Write samples lo..hi-1 of an interleaved float32 payload into the
    complex128 array out; every float32 widens to float64 exactly."""
    np.copyto(out.view(np.float64), payload[2 * lo:2 * hi])


def _check_count(path: Path, n: int, n_expected: int | None) -> None:
    if n_expected is not None and n_expected != n:
        raise ValueError(f"IQ capture {path} holds {n} samples but sidecar says {n_expected}")


def _read_csv(path: Path) -> np.ndarray:
    """The samples of a CSV capture: an 'i,q' header row, then one row of
    two numbers per sample; blank rows are skipped."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [c.strip().lower() for c in rows[0][1]] != ["i", "q"]:
        raise ValueError(f"CSV IQ capture {path} must start with an 'i,q' header row")
    samples = []
    for line, row in rows[1:]:
        try:
            if len(row) != 2:
                raise ValueError(f"expected 2 fields (i, q), got {len(row)}: {row!r}")
            samples.append(complex(float(row[0]), float(row[1])))
        except ValueError as exc:
            raise ValueError(f"malformed CSV IQ row in {path} at line {line}: {exc}") from exc
    return np.array(samples, dtype=np.complex128)


def read_iq(path, header_path=None) -> IqBuffer:
    """Read an IQ capture back into an IqBuffer.

    Raises on truncated payloads (odd float count), NaN or infinite
    samples, malformed sidecars, nonpositive sample rates, CSV rows
    without exactly two fields and sidecar/payload length mismatches.  A
    float32 payload is read and checked in blocks shared among the CPUs of
    the affinity mask and kept as it is, in 8 bytes per sample: the
    buffer widens the blocks a pass reads to complex128, and `samples`
    widens all of them once.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header, n_expected = read_header(header_path)
    if header.format == FORMAT_F32:
        payload, finite = _read_f32(path, n_expected)
        buffer = IqBuffer._lazy(len(payload) // 2, functools.partial(_widen, payload),
                                fs=header.fs)
    else:
        samples = _read_csv(path)
        _check_count(path, len(samples), n_expected)
        finite = np.isfinite(samples).all()
        buffer = IqBuffer(samples, fs=header.fs)
    if not finite:
        raise ValueError(f"IQ capture {path} holds NaN or infinite samples")
    return buffer
