"""Core modulation parameters and signal-buffer types."""
from __future__ import annotations

import json
import math
import numbers
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Modulation symbols are plain integers in [0, M-1].
Symbol = int

# Passes over a whole sample stream (the receiver, Welch) work in blocks of
# about this many samples, so that their temporaries stay small.
_BLOCK_SAMPLES = 1 << 16


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask (`taskset` limits
    it), else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _spans(n: int, step: int, start: int = 0) -> list[tuple[int, int]]:
    """The (lo, hi) blocks of `step` samples, the last one shorter, that
    cover start..n-1."""
    return [(lo, min(n, lo + step)) for lo in range(start, n, step)]


# The worker threads run numpy kernels only, never a public lorachirp
# function, so anything that wraps those functions sees one thread.
def _map_chunks(fn, spans: list) -> list:
    """Run fn(part) on contiguous parts of the list `spans`, one part per
    CPU, and return the concatenated per-span results of fn in span order.

    The calling thread runs the first part, worker threads started for
    this call the others.  Every part ends before the call returns; if
    one fails, the first error in span order is raised.  With one CPU or
    one span fn runs inline and no thread is started; with no span it is
    not called and the result is [].
    """
    n_parts = min(_cpu_count(), len(spans))
    if n_parts <= 1:
        return list(fn(spans)) if spans else []
    bounds = [i * len(spans) // n_parts for i in range(n_parts + 1)]
    parts = [spans[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(n_parts - 1, thread_name_prefix="lorachirp") as workers:
        futures = [workers.submit(fn, part) for part in parts[1:]]
        results = list(fn(parts[0]))
    for future in futures:
        results.extend(future.result())  # raises the first failure in span order
    return results


def _all_finite(values: np.ndarray) -> bool:
    """True when no value of the array (any shape) is NaN or infinite, as
    for no value at all; NaN fails both comparisons."""
    return bool(values.size == 0 or (np.maximum.reduce(values, axis=None) < np.inf
                                     and np.minimum.reduce(values, axis=None) > -np.inf))


def _quote(value) -> str:
    """repr(value) for an error message, cut to its first 64 characters
    and its length when it is longer."""
    text = repr(value)
    return text if len(text) <= 64 else f"{text[:64]}... ({len(text)} characters)"


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int; ValueError naming `name` for a bool, a value that
    is not an integer type (a float such as 7.0 included), and one below
    lo or above hi where they are given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {_quote(value)}")
    value = int(value)
    if hi is not None and not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {_quote(value)}")
    if lo is not None and value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {_quote(value)}")
    return value


def _real(value, name: str) -> float:
    """value as a finite float (a numpy scalar, a Fraction or an int
    becomes the nearest float); ValueError naming `name` for a bool, a
    value that is not a real number, NaN, an infinity and an integer too
    large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {_quote(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {_quote(value)}")
    return number


def _positive(value, name: str) -> float:
    """_real(value, name), which must also be > 0, else ValueError."""
    number = _real(value, name)
    if not number > 0:
        raise ValueError(f"{name} must be positive, got {_quote(value)}")
    return number


def _finite_array(values, name: str) -> np.ndarray:
    """values as a float array; ValueError naming `name` when one of them
    is not a real number (a complex number, a bool, text or any other
    object is not), or is NaN, infinite or an int beyond float range."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        # an object array may hold ints beyond float range, or Fractions
        bad = [v for v in values.ravel().tolist()
               if isinstance(v, bool) or not isinstance(v, numbers.Real)]
        if bad or values.dtype.kind != "O":
            got = _quote(bad[0]) if bad else f"an empty {values.dtype} array"
            raise ValueError(f"{name} must hold only real numbers, got {got}")
    try:
        values = values.astype(float, copy=False)
    except OverflowError:
        values = np.array(math.inf)
    if not _all_finite(values):
        raise ValueError(f"{name} must hold only finite numbers")
    return values


def _finite(value, where: str) -> float:
    """A number read from a file (a JSON value or CSV text) as a finite
    float; ValueError naming `where`, quoting at most 64 characters of the
    value's repr (_quote), for a bool, for anything float() rejects or
    overflows on, and for NaN or an infinity."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{where} must be a finite number, got {_quote(value)}")
    return number


def _json_object(path, what: str, holding: str) -> dict:
    """The JSON object in the file at path.  OSError or ValueError naming
    the file as `what` when it cannot be read, is not JSON (or is nested
    too deeply to decode), or holds no object; an object with `holding`
    is what the last message asks for."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise ValueError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must hold a JSON object with {holding}")
    return doc


def _finite_normal(x: float) -> bool:
    """True when x is finite and nonzero and not subnormal."""
    return math.isfinite(x) and abs(x) >= sys.float_info.min


@dataclass(frozen=True)
class LoraParams:
    """Frequency-shift chirp modulation configuration.

    sf: spreading factor; the alphabet size is M = 2**sf
    b:  frequency deviation (sweep width) in Hz

    Every waveform is the unit-amplitude complex envelope, of power 1;
    absolute power enters only as ps_dbm, in the analysis layer and the
    CLI.  sf is kept as an int and b as a float, whatever type was given;
    m and ts are properties, so ts is the float64 M/b and cannot drift.
    """

    sf: int
    b: float

    def __post_init__(self):
        object.__setattr__(self, "sf", _integer(self.sf, "sf", 1, 16))
        object.__setattr__(self, "b", _positive(self.b, "b"))
        if not (_finite_normal(self.tc) and _finite_normal(self.ts)):
            raise ValueError(f"b = {self.b} Hz gives a chip duration 1/b or symbol "
                             "duration M/b that is not a finite normal float")

    @property
    def m(self) -> int:
        """Alphabet size M = 2**sf."""
        return 1 << self.sf

    @property
    def ts(self) -> float:
        """Symbol duration in seconds (M/B)."""
        return self.m / self.b

    @property
    def tc(self) -> float:
        """Chip duration 1/B; there are M chips per symbol."""
        return 1.0 / self.b


def validate_symbol(p: LoraParams, a) -> int:
    """Return a as int after checking 0 <= a < M."""
    a = _integer(a, "symbol")
    if not 0 <= a < p.m:
        raise ValueError(f"symbol {a} outside [0, {p.m - 1}] for sf={p.sf}")
    return a


def _power_ratio(db, name: str) -> float:
    """10**(db/10) as a float; ValueError naming `name` unless db is a
    finite real number (see _real) whose ratio is finite and positive (a
    huge db overflows, a hugely negative one gives 0)."""
    try:
        ratio = 10.0 ** (_real(db, name) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError(f"{name} must be a finite number whose power ratio "
                         f"10**({name}/10) is finite and positive, got {db!r}")
    return ratio


@dataclass(frozen=True, eq=False)
class IqBuffer:
    """Uniformly sampled complex baseband signal.

    samples: 1-D complex128 array, read-only
    fs:      sample rate in Hz, kept as a float

    The constructor copies `samples`, so the caller's array stays its own.
    Buffers that library functions return, but for a CSV capture, are lazy
    (`_lazy`): their samples are computed block by block on demand, from
    what the buffer holds instead (the distinct rows of a modulated stream,
    the input and noise seed of `awgn`, the open file of a float32 capture),
    and `samples` is built in full, on every CPU, only when it is first
    read.  The library's passes read every buffer through `_blocks`.  A
    buffer's samples never change, so `mean_power` is computed once.
    """

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "fs", _positive(self.fs, "fs"))
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _lazy(cls, n: int, fill, fs: float) -> IqBuffer:
        """A buffer of n samples that are never stored whole unless
        `samples` is read: fill(lo, hi, out) writes samples[lo:hi] into the
        complex128 array out of length hi - lo, for any 0 <= lo < hi <= n,
        and must give the same values every time it is called.  Its
        callers pass an fs that is already a checked positive float."""
        buf = object.__new__(cls)
        buf.__dict__.update(_lazy=(n, fill, threading.Lock()), fs=fs)
        return buf

    def __getattr__(self, name):
        # reached only for a name missing from the instance dict, as
        # `samples` is until a lazy buffer has built it there
        if name == "samples":
            lazy = self.__dict__.get("_lazy")
            if lazy is not None:
                n, fill, lock = lazy
                with lock:  # one thread builds the samples, the others wait
                    if "samples" not in self.__dict__:
                        samples = np.empty(n, dtype=np.complex128)

                        def fill_blocks(part: list) -> tuple:
                            for lo, hi in part:
                                fill(lo, hi, samples[lo:hi])
                            return ()

                        _map_chunks(fill_blocks, _spans(n, _BLOCK_SAMPLES))
                        samples.setflags(write=False)
                        self.__dict__["samples"] = samples
                        del self.__dict__["_lazy"]  # frees what fill holds
            if "samples" in self.__dict__:
                return self.__dict__["samples"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __reduce__(self):  # unpickled and copied through the constructor
        return IqBuffer, (self.samples, self.fs)

    def __repr__(self) -> str:  # the length and fs: builds no samples
        return f"IqBuffer(<{len(self)} samples>, fs={self.fs!r})"

    def _blocks(self, spans: list, out: np.ndarray | None = None):
        """Yield samples[lo:hi] for each (lo, hi) in spans: a view when the
        buffer holds its samples, else the block computed into out[:hi - lo],
        which the next block overwrites.  out defaults to one scratch of the
        longest span, so only a lazy buffer's passes allocate, and none
        builds its samples."""
        lazy = self.__dict__.get("_lazy")
        if lazy is None:
            yield from (self.samples[lo:hi] for lo, hi in spans)
            return
        if out is None:
            out = np.empty(max((hi - lo for lo, hi in spans), default=0), dtype=np.complex128)
        for lo, hi in spans:
            lazy[1](lo, hi, out[:hi - lo])
            yield out[:hi - lo]

    def __len__(self) -> int:
        lazy = self.__dict__.get("_lazy")
        return lazy[0] if lazy is not None else len(self.samples)

    @property
    def duration(self) -> float:
        """Buffer length in seconds."""
        return len(self) / self.fs

    @property
    def mean_power(self) -> float:
        """Mean per-sample power |x|^2, computed without a full-size
        temporary: the sums of |x|^2 over the blocks of _spans(n,
        _BLOCK_SAMPLES), taken on every CPU, are added in span order.  The
        blocks depend only on n, so the value is the same at any CPU count;
        it is inf when |x|^2 overflows and NaN for a NaN sample.  The
        samples never change, so the first read's value is kept in the
        instance dict and a later read runs no pass."""
        kept = self.__dict__.get("_mean_power")
        if kept is not None:
            return kept
        n = len(self)

        def block_sums(part: list) -> list[float]:
            power = np.empty(min(n, _BLOCK_SAMPLES))
            sums = []
            with np.errstate(over="ignore"):  # huge samples give inf, not a warning
                for block in self._blocks(part):
                    squares = power[:len(block)]
                    np.abs(block, out=squares)
                    np.square(squares, out=squares)
                    sums.append(float(np.add.reduce(squares)))
            return sums

        # sum(), not math.fsum, which raises OverflowError where this gives inf
        total = sum(_map_chunks(block_sums, _spans(n, _BLOCK_SAMPLES)))
        power = self.__dict__["_mean_power"] = total / n if n else 0.0
        return power


def _finite_power(iq: IqBuffer) -> float:
    """iq.mean_power; ValueError when it is not finite."""
    power = iq.mean_power
    if not math.isfinite(power):
        raise ValueError(f"buffer mean power {power} is not finite: the samples hold "
                         "NaN or infinite values, or |x|^2 overflows")
    return power
