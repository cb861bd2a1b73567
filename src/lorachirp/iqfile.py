"""IQ capture file I/O: interleaved float32 binary or CSV, with a JSON sidecar.

The binary layout is the de facto SDR convention: little-endian float32
pairs I0, Q0, I1, Q1, ...  The sidecar records the sample rate, center
frequency and sample count so captures stay self-describing.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import IqBuffer

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
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        if not np.isfinite(self.center_freq):
            raise ValueError(f"center_freq must be a finite number, got {self.center_freq}")


def _default_header_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def write_iq(buffer: IqBuffer, path, header_path=None, center_freq: float = 0.0,
             description: str = "", fmt: str = FORMAT_F32) -> IqFileHeader:
    """Write an IqBuffer to disk plus its JSON sidecar.

    Binary files hold interleaved little-endian float32 I/Q pairs (8 bytes
    per complex sample); CSV files carry an "i,q" header row.  Returns the
    header that was written.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header = IqFileHeader(format=fmt, fs=buffer.fs, center_freq=center_freq,
                          description=description)
    try:
        if fmt == FORMAT_F32:
            # complex128 is stored as I, Q float64 pairs: narrowing them interleaves
            buffer.samples.view(np.float64).astype("<f4").tofile(path)
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
            "num_samples": len(buffer),
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


def read_iq(path, header_path=None) -> IqBuffer:
    """Read an IQ capture back into an IqBuffer.

    Raises on truncated payloads (odd float count), NaN or infinite
    samples, malformed sidecars, nonpositive sample rates and
    sidecar/payload length mismatches.
    """
    path = Path(path)
    header_path = Path(header_path) if header_path else _default_header_path(path)
    header, n_expected = read_header(header_path)
    if header.format == FORMAT_F32:
        try:
            payload = path.read_bytes()
        except OSError as exc:
            raise OSError(f"cannot read IQ capture {path}: {exc}") from exc
        if len(payload) % 8:
            raise ValueError(
                f"truncated IQ capture {path}: {len(payload)} bytes is not a "
                "whole number of float32 I/Q pairs")
        raw = np.frombuffer(payload, dtype="<f4")
        # a float64 sum of finite float32 values cannot overflow
        finite = np.isfinite(raw.sum(dtype=np.float64))
        # every float32 widens to float64 exactly
        samples = raw.astype(np.float64).view(np.complex128)
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
        finite = np.isfinite(samples).all()
    if not finite:
        raise ValueError(f"IQ capture {path} holds NaN or infinite samples")
    if n_expected is not None and n_expected != len(samples):
        raise ValueError(
            f"IQ capture {path} holds {len(samples)} samples but sidecar says {n_expected}")
    return IqBuffer._adopt(samples, fs=header.fs)
