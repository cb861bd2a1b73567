"""Core modulation parameters and signal-buffer types."""
from __future__ import annotations

import math
import numbers
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


# The worker threads run numpy kernels only, never a public lorachirp
# function, so anything that wraps those functions sees one thread.
def _map_chunks(fn, n_blocks: int) -> list:
    """Run fn(blocks) on contiguous ranges of block indices 0..n_blocks-1,
    one range per CPU, and return the concatenated per-block results of
    fn in block order.

    The calling thread runs the first range, worker threads started for
    this call the others.  Every range ends before the call returns; if
    one fails, the first error in block order is raised.  With one CPU or
    one block fn runs inline and no thread is started.
    """
    n_ranges = min(_cpu_count(), n_blocks)
    if n_ranges <= 1:
        return list(fn(range(n_blocks)))
    bounds = [i * n_blocks // n_ranges for i in range(n_ranges + 1)]
    with ThreadPoolExecutor(n_ranges - 1, thread_name_prefix="lorachirp") as workers:
        futures = [workers.submit(fn, range(lo, hi))
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
        results = list(fn(range(bounds[0], bounds[1])))
    for future in futures:
        results.extend(future.result())  # raises the first failure in block order
    return results


def _all_within(values: np.ndarray, bound: float) -> bool:
    """True when every value is strictly inside (-bound, bound); NaN fails
    both comparisons."""
    return bool(np.maximum.reduce(values) < bound and np.minimum.reduce(values) > -bound)


def _real(value, name: str) -> float:
    """value as a float, an infinity for an integer too large for one;
    ValueError naming `name` for a bool or a value that is not a real
    number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite_normal(x: float) -> bool:
    """True when x is finite and nonzero and not subnormal."""
    return math.isfinite(x) and abs(x) >= sys.float_info.min


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
        b, f0, ps = _real(self.b, "b"), _real(self.f0, "f0"), _real(self.ps, "ps")
        if not (math.isfinite(b) and b > 0):
            raise ValueError(f"b must be finite and positive, got {self.b}")
        if not (_finite_normal(1.0 / b) and _finite_normal((1 << self.sf) / b)):
            raise ValueError(f"b = {self.b} Hz gives a chip duration 1/b or symbol "
                             "duration M/b that is not a finite normal float")
        if not (math.isfinite(f0) and f0 >= 0):
            raise ValueError(f"f0 must be finite and nonnegative, got {self.f0}")
        if not (math.isfinite(ps) and ps > 0):
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
    if not (math.isfinite(_real(fs, "fs")) and fs > 0):
        raise ValueError(f"fs must be finite and positive, got {fs}")


@dataclass(frozen=True)
class IqBuffer:
    """Uniformly sampled complex baseband signal.

    samples: 1-D complex128 array, read-only
    fs:      sample rate in Hz
    t0:      start time in seconds of samples[0]

    The constructor copies `samples`, so the caller's array stays its own.
    Buffers that library functions return hold arrays those functions have
    just built; they are adopted read-only without a copy (`_adopt`), or
    are lazy (`_lazy`): their samples are gathered block by block on
    demand, and `samples` is built in full only when it is first read.
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
        if not (samples.dtype == np.complex128 and samples.ndim == 1
                and samples.flags.c_contiguous):
            raise ValueError("adopted samples must be a 1-D contiguous complex128 array, "
                             f"got {samples.dtype} with shape {samples.shape}")
        samples.setflags(write=False)
        return cls._new(fs, t0, samples=samples)

    @classmethod
    def _lazy(cls, n: int, fill, fs: float, t0: float = 0.0) -> IqBuffer:
        """A buffer of n samples that are never stored whole unless
        `samples` is read: fill(lo, hi, out) writes samples[lo:hi] into the
        complex128 array out of length hi - lo, for any 0 <= lo < hi <= n,
        and must give the same values every time it is called."""
        return cls._new(fs, t0, _lazy=(n, fill, threading.Lock()))

    @classmethod
    def _new(cls, fs: float, t0: float, **state) -> IqBuffer:
        """A buffer with the given instance state, made without __post_init__."""
        _check_fs(fs)
        buf = object.__new__(cls)
        buf.__dict__.update(state, fs=fs, t0=t0)
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
                        fill(0, n, samples)
                        samples.setflags(write=False)
                        self.__dict__["samples"] = samples
                        del self.__dict__["_lazy"]  # frees what fill holds
            if "samples" in self.__dict__:
                return self.__dict__["samples"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def __getstate__(self):
        return {"samples": self.samples, "fs": self.fs, "t0": self.t0}

    def _scratch(self, size: int) -> np.ndarray | None:
        """Scratch of `size` samples for `_block`, or None when the buffer
        holds its samples, so that only a lazy buffer's passes allocate."""
        return np.empty(size, dtype=np.complex128) if "_lazy" in self.__dict__ else None

    def _block(self, lo: int, hi: int, scratch: np.ndarray | None) -> np.ndarray:
        """samples[lo:hi] without building a lazy buffer's samples: a view
        when the buffer holds them, else gathered into scratch[:hi - lo]."""
        lazy = self.__dict__.get("_lazy")
        if lazy is None:
            return self.samples[lo:hi]
        out = scratch[:hi - lo]
        lazy[1](lo, hi, out)
        return out

    def __len__(self) -> int:
        lazy = self.__dict__.get("_lazy")
        return lazy[0] if lazy is not None else len(self.samples)

    @property
    def duration(self) -> float:
        """Buffer length in seconds."""
        return len(self) / self.fs

    @property
    def mean_power(self) -> float:
        """Mean per-sample power |x|^2, equal bit for bit to
        np.mean(np.abs(samples)**2) and computed without a full-size
        temporary: the sum is split into blocks along numpy's own pairwise
        summation tree, the blocks are summed on every CPU and their sums
        added back along the same tree."""
        n = len(self)
        if n == 0:
            return 0.0
        leaves = []

        def tree(lo: int, size: int):
            """Leaf index, or (left, right) subtrees, of samples[lo:lo+size].
            numpy's pairwise sum splits a run of more than 128 values at
            about half, rounded down to a multiple of 8; a shorter run it
            sums in one loop.  So a leaf of at most _BLOCK_SAMPLES > 128
            values sums to the same bits alone as inside the whole sum."""
            if size <= _BLOCK_SAMPLES:
                leaves.append((lo, lo + size))
                return len(leaves) - 1
            half = size // 2
            half -= half % 8
            return tree(lo, half), tree(lo + half, size - half)

        root = tree(0, n)

        def block_sums(blocks: range) -> list[float]:
            power = np.empty(min(n, _BLOCK_SAMPLES))
            scratch = self._scratch(len(power))
            sums = []
            with np.errstate(over="ignore"):  # huge samples give inf, not a warning
                for i in blocks:
                    lo, hi = leaves[i]
                    block = power[:hi - lo]
                    np.abs(self._block(lo, hi, scratch), out=block)
                    np.square(block, out=block)
                    sums.append(float(np.add.reduce(block)))
            return sums

        sums = _map_chunks(block_sums, len(leaves))

        def join(node) -> float:
            return sums[node] if isinstance(node, int) else join(node[0]) + join(node[1])

        return join(root) / n
