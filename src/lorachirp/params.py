"""Core modulation parameters and signal-buffer types."""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

# Modulation symbols are plain integers in [0, M-1].
Symbol = int

# Passes over a whole sample stream (the receiver, Welch) work in blocks of
# about this many samples, so that their temporaries stay small.
_BLOCK_SAMPLES = 1 << 16

# Worker threads shared by every blocked pass, created on first use.  Workers
# run numpy kernels only, never a public lorachirp function, so anything that
# wraps those sees one thread.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask (`taskset` limits
    it), else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _executor() -> ThreadPoolExecutor:
    """The shared pool.  Its limit of os.cpu_count() - 1 threads covers any
    affinity mask, so it never needs replacing; a thread starts only when a
    submitted task finds no idle one."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, (os.cpu_count() or 1) - 1),
                                       thread_name_prefix="lorachirp")
        return _pool


def _forget_pool_in_child() -> None:
    # a forked child has none of the parent's worker threads: a pool
    # inherited from the parent would queue work that never runs
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_in_child)


def _submit(fn, *args) -> Future:
    """fn(*args) on a worker thread; with one CPU it runs inline and the
    returned future is already done."""
    if _cpu_count() > 1:
        return _executor().submit(fn, *args)
    done = Future()
    try:
        done.set_result(fn(*args))
    except Exception as exc:
        done.set_exception(exc)
    return done


def _map_chunks(fn, n_blocks: int) -> list:
    """Run fn(blocks) on contiguous ranges of block indices 0..n_blocks-1,
    one range per CPU, and return the concatenated per-block results of
    fn in block order.

    The calling thread runs the first range, the shared pool the others.
    If a range fails, every range is waited for and the first error in
    block order is raised.  With one CPU or one block fn runs inline.
    """
    n_ranges = min(_cpu_count(), n_blocks)
    if n_ranges <= 1:
        return list(fn(range(n_blocks)))
    bounds = [i * n_blocks // n_ranges for i in range(n_ranges + 1)]
    pool = _executor()
    futures = [pool.submit(fn, range(lo, hi)) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        results = list(fn(range(bounds[0], bounds[1])))
    finally:
        wait(futures)  # no range outlives the call, even when the first fails
    for future in futures:
        results.extend(future.result())  # raises the first failure in block order
    return results


@dataclass(frozen=True)
class LoraParams:
    """Frequency-shift chirp modulation configuration.

    sf: spreading factor; the alphabet size is M = 2**sf
    b:  frequency deviation (sweep width) in Hz
    f0: carrier frequency in Hz (baseband operations ignore it)
    ps: passband signal power in watts; the complex envelope has
        amplitude gamma = sqrt(2*ps), so the default ps = 0.5 gives
        the unit-amplitude envelope used throughout the spectral code

    The derived quantities m and ts are properties so that b*ts == m
    holds exactly and cannot drift.
    """

    sf: int
    b: float
    f0: float = 0.0
    ps: float = 0.5

    def __post_init__(self):
        if not isinstance(self.sf, (int, np.integer)) or isinstance(self.sf, bool):
            raise ValueError(f"sf must be an integer, got {self.sf!r}")
        if not 1 <= self.sf <= 16:
            raise ValueError(f"sf must be in [1, 16], got {self.sf}")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be finite and positive, got {self.b}")
        if not (np.isfinite(self.f0) and self.f0 >= 0):
            raise ValueError(f"f0 must be finite and nonnegative, got {self.f0}")
        if not (np.isfinite(self.ps) and self.ps > 0):
            raise ValueError(f"ps must be finite and positive, got {self.ps}")

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

    @property
    def gamma(self) -> float:
        """Complex-envelope amplitude sqrt(2*ps)."""
        return float(np.sqrt(2.0 * self.ps))


def validate_symbol(p: LoraParams, a) -> int:
    """Return a as int after checking 0 <= a < M."""
    if not isinstance(a, (int, np.integer)) or isinstance(a, bool):
        raise ValueError(f"symbol must be an integer, got {a!r}")
    a = int(a)
    if not 0 <= a < p.m:
        raise ValueError(f"symbol {a} outside [0, {p.m - 1}] for sf={p.sf}")
    return a


def _power_ratio(db, name: str) -> float:
    """10**(db/10) as a float; ValueError naming `name` unless it is finite
    and positive (NaN and a huge db give NaN or overflow, a hugely negative
    one gives 0)."""
    try:
        ratio = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (math.isfinite(ratio) and ratio > 0):
        raise ValueError(f"{name} must be a finite number whose power ratio "
                         f"10**({name}/10) is finite and positive, got {db!r}")
    return ratio


def _check_fs(fs) -> None:
    if not (np.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be finite and positive, got {fs}")


@dataclass(frozen=True)
class IqBuffer:
    """Uniformly sampled complex baseband signal.

    samples: 1-D complex array, made read-only on construction
    fs:      sample rate in Hz
    t0:      start time in seconds of samples[0]

    The constructor copies `samples`, so the caller's array stays its own.
    Buffers that library functions return hold arrays those functions have
    just built; they are adopted read-only without a copy (`_adopt`).
    """

    samples: np.ndarray
    fs: float
    t0: float = 0.0

    def __post_init__(self):
        _check_fs(self.fs)
        arr = np.array(self.samples, dtype=np.complex128, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @classmethod
    def _adopt(cls, samples: np.ndarray, fs: float, t0: float = 0.0) -> IqBuffer:
        """Wrap a freshly built 1-D contiguous complex128 array without
        copying it, and make it read-only.  The caller must hold no other
        reference through which the array is written later."""
        _check_fs(fs)
        if not (samples.dtype == np.complex128 and samples.ndim == 1
                and samples.flags.c_contiguous):
            raise ValueError("adopted samples must be a 1-D contiguous complex128 array, "
                             f"got {samples.dtype} with shape {samples.shape}")
        samples.setflags(write=False)
        buf = object.__new__(cls)
        for name, value in (("samples", samples), ("fs", fs), ("t0", t0)):
            object.__setattr__(buf, name, value)
        return buf

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Buffer length in seconds."""
        return len(self.samples) / self.fs

    @property
    def mean_power(self) -> float:
        """Mean per-sample power |x|^2."""
        if len(self.samples) == 0:
            return 0.0
        with np.errstate(over="ignore"):  # huge samples give inf, not a warning
            return float(np.mean(np.abs(self.samples) ** 2))
