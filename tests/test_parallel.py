"""The blocked passes (demodulate_stream, welch_psd, awgn, mean_power,
read_iq, write_iq) give the same bits on one CPU and on several, and on a
lazy buffer (modulated, noisy or read back from a file) as on its samples,
and keep their worker threads private."""
import concurrent.futures
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import lorachirp
from lorachirp import (IqBuffer, LoraParams, awgn, demodulate_stream, modulate, params,
                       read_iq, welch_psd, write_iq)
from lorachirp.params import _BLOCK_SAMPLES, _map_chunks

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MODULES = ("params", "waveform", "receiver", "correlation", "spectrum", "analysis",
           "iqfile", "cli")


@pytest.fixture
def cpus(monkeypatch):
    """Make the blocked passes see `n` CPUs."""
    def use(n):
        monkeypatch.setattr(params, "_cpu_count", lambda: n)
    return use


def _run_script(code: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_spans_cover_start_to_n_in_blocks_of_step():
    assert params._spans(0, 4) == []
    assert params._spans(8, 4) == [(0, 4), (4, 8)]
    assert params._spans(9, 4) == [(0, 4), (4, 8), (8, 9)]
    assert params._spans(9, 4, start=3) == [(3, 7), (7, 9)]
    assert params._spans(3, 4, start=3) == []


def test_map_chunks_returns_results_in_block_order(cpus):
    seen = []

    def fn(part):
        seen.append(part)
        return [10 * lo for lo, _ in part]

    for n_cpus, n_spans in [(1, 7), (3, 1), (3, 2), (3, 10), (4, 4)]:
        cpus(n_cpus)
        seen.clear()
        spans = params._spans(3 * n_spans - 1, 3)
        assert _map_chunks(fn, spans) == [10 * lo for lo, _ in spans]
        assert len(seen) == min(n_cpus, n_spans)
        assert sorted(span for part in seen for span in part) == spans
        for part in seen:  # a contiguous part of the list
            start = spans.index(part[0])
            assert part == spans[start:start + len(part)]


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_map_chunks_of_no_span_calls_nothing(cpus, n_cpus):
    cpus(n_cpus)
    called = []
    assert _map_chunks(called.append, []) == [] and called == []


def test_map_chunks_raises_the_first_error_after_every_range_ends(cpus):
    cpus(4)
    ended = []

    def fn(part):
        start = part[0][0]
        if start > 0:
            threading.Event().wait(0.05 * (4 - start // 2))
        ended.append(start)
        if start in (4, 6):
            raise ValueError(f"range at {start}")
        return part

    with pytest.raises(ValueError, match="range at 4"):
        _map_chunks(fn, params._spans(8, 1))
    assert sorted(ended) == [0, 2, 4, 6]


def test_a_pass_started_inside_a_pass_returns_its_results_in_block_order():
    # in a child with a timeout: a pass that waited for workers busy with the
    # pass around it would never return
    proc = _run_script("""
        from lorachirp import params
        params._cpu_count = lambda: 3

        def inner(part):
            return [10 * lo for lo, _ in part]

        def outer(part):
            return [params._map_chunks(inner, params._spans(4 + lo, 1)) for lo, _ in part]

        assert params._map_chunks(outer, params._spans(5, 1)) == [
            [10 * j for j in range(4 + i)] for i in range(5)]
    """, timeout=30.0)
    assert proc.returncode == 0, proc.stderr


def test_blocks_are_views_of_held_samples_and_computed_for_a_lazy_buffer():
    samples = np.arange(20) * (1 + 2j)
    held = IqBuffer(samples, fs=1.0)
    calls = []

    def fill(lo, hi, out):
        calls.append((lo, hi))
        out[:] = samples[lo:hi]

    spans = [(0, 7), (7, 9), (3, 20), (19, 20)]
    for block, (lo, hi) in zip(held._blocks(spans), spans):
        assert block.base is held.samples and np.array_equal(block, samples[lo:hi])
    lazy = IqBuffer._lazy(len(samples), fill, fs=1.0)
    out = np.empty(17, dtype=complex)
    for given in (None, out):
        bases = []
        for block, (lo, hi) in zip(lazy._blocks(spans, given), spans):
            assert np.array_equal(block, samples[lo:hi])
            bases.append(block.base)
        # every block is computed into one array: out, else a scratch of the longest span
        assert all(base is bases[0] for base in bases) and len(bases[0]) == 17
        assert bases[0] is out or given is None
        assert calls == spans and "_lazy" in vars(lazy)
        calls.clear()


def _stream(sf: int, oversample: int, n_blocks: float,
            snr_db: float = -8.0) -> tuple[LoraParams, IqBuffer]:
    """A noisy symbol stream of about n_blocks receiver blocks."""
    p = LoraParams(sf=sf, b=125e3)
    per_block = max(1, _BLOCK_SAMPLES // (oversample * p.m))
    n_symbols = int(n_blocks * per_block)
    symbols = np.random.default_rng(sf * 10 + oversample).integers(0, p.m, n_symbols)
    return p, awgn(modulate(p, symbols.tolist(), oversample), snr_db, seed=n_symbols)


CASES = [(sf, oversample, n_blocks) for sf in (7, 9) for oversample in (1, 2)
         for n_blocks in (1, 2, 5.3)]


def _outputs(p, iq):
    return (np.array(demodulate_stream(iq, p)), welch_psd(iq, 256)[1],
            welch_psd(iq, 1 << 15, overlap=0.9)[1], awgn(iq, 3.0, seed=9).samples,
            np.array([iq.mean_power]))


@pytest.mark.parametrize("sf, oversample, n_blocks", CASES)
def test_blocked_passes_give_the_same_bits_on_one_cpu_and_several(cpus, sf, oversample,
                                                                  n_blocks):
    cpus(1)
    p, iq = _stream(sf, oversample, n_blocks)
    serial = _outputs(p, iq)
    for n in (2, 3, 7):
        cpus(n)
        assert all(np.array_equal(a, b) for a, b in zip(serial, _outputs(p, iq)))


def test_concurrent_callers_get_the_serial_bits(cpus):
    cpus(1)
    p, iq = _stream(7, 2, 5.3)
    serial = _outputs(p, iq)
    cpus(7)  # more ranges than this machine has cores
    mismatches, errors = [], []

    def call():
        try:
            for _ in range(3):
                if not all(np.array_equal(a, b) for a, b in zip(serial, _outputs(p, iq))):
                    mismatches.append(threading.get_ident())
        except Exception as exc:  # reported below: an exception would end the thread silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == [] and mismatches == []


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_a_process_pinned_to_one_cpu_gives_the_same_bits(cpus, tmp_path):
    out = tmp_path / "pinned.npz"
    proc = _run_script(f"""
        import os, threading
        os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        threading.Thread.start = recording_start
        import numpy as np
        import test_parallel as cases
        from lorachirp import params
        arrays = {{}}
        for i, case in enumerate(cases.CASES):
            for j, a in enumerate(cases._outputs(*cases._stream(*case))):
                arrays[f"{{i}}_{{j}}"] = a
        assert params._cpu_count() == 1
        assert not [name for name in started if name.startswith("lorachirp")], started
        np.savez({str(out)!r}, **arrays)
    """)
    assert proc.returncode == 0, proc.stderr
    cpus(3)
    pinned = np.load(out)
    for i, case in enumerate(CASES):
        for j, a in enumerate(_outputs(*_stream(*case))):
            assert np.array_equal(pinned[f"{i}_{j}"], a), (case, j)


@pytest.mark.parametrize("index", [0, -1, -(_BLOCK_SAMPLES + 3)],
                         ids=["first-range", "last-block", "middle-range"])
def test_a_nan_in_any_range_raises_the_same_error(cpus, index):
    cpus(3)
    p, iq = _stream(7, 2, 5.3, snr_db=20.0)
    samples = iq.samples.copy()
    samples[index] = np.nan
    with pytest.raises(ValueError, match="^cannot demodulate a buffer holding NaN or infinite"):
        demodulate_stream(IqBuffer(samples, fs=iq.fs), p)


def test_public_functions_run_on_the_calling_thread_only(cpus, monkeypatch, tmp_path):
    threads = set()

    def recording(fn):
        def wrapper(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    modules = [importlib.import_module(f"lorachirp.{name}") for name in MODULES]
    originals = {id(fn): fn for module in modules for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__.startswith("lorachirp")}
    wrappers = {key: recording(fn) for key, fn in originals.items()}
    for namespace in modules + [lorachirp]:
        for name, value in list(vars(namespace).items()):
            if id(value) in wrappers and value is originals[id(value)]:
                monkeypatch.setattr(namespace, name, wrappers[id(value)])
    monkeypatch.setattr(IqBuffer, "__post_init__", recording(IqBuffer.__post_init__))
    monkeypatch.setattr(IqBuffer, "mean_power", property(recording(IqBuffer.mean_power.fget)))
    assert len(originals) > 20
    workers = []  # the threads that ran a pass's ranges, recorded inside the pass

    class RecordingExecutor(ThreadPoolExecutor):
        def submit(self, fn, *args):
            def run(*args):
                workers.append(threading.current_thread().name)
                return fn(*args)
            return super().submit(run, *args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)

    cpus(4)
    p, iq = _stream(7, 2, 5.3)
    assert lorachirp.demodulate_stream is not demodulate_stream
    path = tmp_path / "sig.iq"
    for call in (lambda: lorachirp.demodulate_stream(iq, p), lambda: lorachirp.welch_psd(iq, 256),
                 # a buffer keeps its mean power (welch_psd computed iq's), so
                 # only a fresh one starts the pass of awgn and of mean_power
                 lambda: lorachirp.awgn(IqBuffer(iq.samples, fs=iq.fs), 0.0, seed=1),
                 lambda: IqBuffer(iq.samples, fs=iq.fs).mean_power,
                 lambda: lorachirp.write_iq(iq, path), lambda: lorachirp.read_iq(path)):
        workers.clear()
        call()
        assert workers and all(name.startswith("lorachirp") for name in workers)
        assert not [t.name for t in threading.enumerate() if t.name.startswith("lorachirp")]
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_awgn_needs_no_full_size_scratch(cpus, n_cpus):
    cpus(n_cpus)
    n = 1 << 21
    iq = IqBuffer(np.full(n, 1.0 + 0.5j), fs=1.0)
    tracemalloc.start()
    try:
        noisy = awgn(iq, 0.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(noisy) == n
    assert peak < 4 << 20  # the noisy stream would take 16*n = 32 MB


def test_welch_memory_does_not_grow_with_the_number_of_blocks(cpus):
    cpus(2)
    # 2^21 samples in 1260 overlapping segments of 2^15: 630 blocks whose
    # sums of |X|^2 would take 160 MB if all of them waited to be added
    iq = IqBuffer(np.random.default_rng(4).standard_normal(1 << 22).view(complex), fs=1.0)
    tracemalloc.start()
    try:
        welch_psd(iq, 1 << 15, overlap=0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def _span_mean_power(samples: np.ndarray) -> float:
    """The sums of |x|^2 over blocks of 2^16 samples, added in order, over n."""
    n = len(samples)
    return sum(float(np.add.reduce(np.abs(samples[lo:lo + 2**16]) ** 2))
               for lo in range(0, n, 2**16)) / n if n else 0.0


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129, (1 << 16) - 1, 1 << 16,
                               (1 << 16) + 1, (1 << 17) + 8, 5 * (1 << 16) + 13])
def test_mean_power_equals_numpy_mean_bit_for_bit(cpus, n):
    """Up to one block of 2^16 samples, mean_power is np.mean of |x|^2 bit
    for bit.  At any length it is the sum of the block sums in span order,
    bit for bit at every CPU count, and within 1e-14 of the exact mean."""
    rng = np.random.default_rng(n)
    for _ in range(4):
        samples = rng.standard_normal(2 * n).view(complex) * np.exp(rng.uniform(-3, 3, n))
        expected = _span_mean_power(samples)
        if 0 < n <= 1 << 16:
            assert expected == float(np.mean(np.abs(samples) ** 2))
        if n:
            exact = math.fsum(np.abs(samples) ** 2) / n
            assert abs(expected - exact) <= 1e-14 * exact
        for n_cpus in (1, 2, 3, 7):
            cpus(n_cpus)
            assert IqBuffer(samples, fs=1.0).mean_power == expected


@pytest.mark.parametrize("n", [9, (1 << 16) + 1, 5 * (1 << 16) + 13])
def test_mean_power_gives_nan_for_nan_and_inf_for_overflow_without_a_warning(cpus, n):
    cpus(3)
    samples = np.ones(n, dtype=complex)
    samples[-1] = np.nan  # in the last range's last block
    assert np.isnan(IqBuffer(samples, fs=1.0).mean_power)
    samples[-1] = 1e200  # |x|^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a worker's warning would raise through _map_chunks
        assert IqBuffer(samples, fs=1.0).mean_power == np.inf


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_mean_power_needs_no_full_size_scratch(cpus, n_cpus):
    cpus(n_cpus)
    n = 1 << 21
    iq = IqBuffer(np.ones(n, dtype=complex), fs=1.0)
    assert iq.mean_power == 1.0
    tracemalloc.start()
    try:
        iq.mean_power
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # |x|^2 of the whole buffer takes 8*n = 16 MB


@pytest.mark.parametrize("n_blocks", [1, 5.3])
def test_iq_files_are_the_same_on_one_cpu_and_several(cpus, tmp_path, n_blocks):
    _, iq = _stream(7, 2, n_blocks)
    cpus(1)
    serial_path = tmp_path / "serial.iq"
    write_iq(iq, serial_path)
    serial = read_iq(serial_path).samples
    for n_cpus in (2, 3, 7):
        cpus(n_cpus)
        path = tmp_path / f"{n_cpus}.iq"
        write_iq(iq, path)
        assert path.read_bytes() == serial_path.read_bytes()
        assert np.array_equal(read_iq(path).samples, serial)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_iq_files_reject_a_bad_last_block_or_a_truncated_payload(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    _, iq = _stream(7, 2, 5.3)
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    raw = np.fromfile(path, dtype="<f4")
    raw[-1] = np.nan
    raw.tofile(path)
    with pytest.raises(ValueError, match="NaN or infinite"):
        read_iq(path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="^truncated IQ capture"):
        read_iq(path)
    samples = iq.samples.copy()
    bad_path = tmp_path / "bad.iq"
    for bad in (complex(1.0, np.inf), complex(4e38, 0.0)):  # 4e38 overflows float32
        samples[-1] = bad
        with pytest.raises(ValueError, match="^cannot write IQ capture"):
            write_iq(IqBuffer(samples, fs=iq.fs), bad_path)
        assert not bad_path.exists()


def test_a_short_read_raises_an_os_error_naming_the_capture(cpus, tmp_path, monkeypatch):
    cpus(3)
    _, iq = _stream(7, 2, 5.3)
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    sidecar = tmp_path / "sig.iq.json"
    doc = json.loads(sidecar.read_text())
    del doc["num_samples"]
    sidecar.write_text(json.dumps(doc))
    fstat = os.fstat

    def fstat_one_sample_longer(fd):
        st = fstat(fd)
        return os.stat_result(st[:6] + (st.st_size + 8,) + st[7:])

    monkeypatch.setattr(os, "fstat", fstat_one_sample_longer)
    with pytest.raises(OSError, match=f"^cannot read IQ capture {re.escape(str(path))}: "):
        read_iq(path)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_read_iq_needs_no_full_size_scratch(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    n = 1 << 21
    path = tmp_path / "sig.iq"
    write_iq(IqBuffer(np.full(n, 1.0 + 0.5j), fs=1.0), path)
    tracemalloc.start()
    try:
        back = read_iq(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(back.samples == 1.0 + 0.5j)
    # a few blocks' scratch per CPU; the float32 payload takes 8*n = 16 MB
    assert peak < n_cpus * (3 << 20)


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("fmt", ["interleaved-f32-le", "csv"])
def test_an_empty_capture_round_trips_in_both_formats(cpus, tmp_path, n_cpus, fmt):
    cpus(n_cpus)
    empty = IqBuffer(np.zeros(0, dtype=complex), fs=1.0)
    expected = {}
    for out_fmt in ("interleaved-f32-le", "csv"):
        write_iq(empty, tmp_path / out_fmt, fmt=out_fmt)
        expected[out_fmt] = (tmp_path / out_fmt).read_bytes()
    back = read_iq(tmp_path / fmt)
    assert len(back) == 0 and back.mean_power == 0.0
    for out_fmt in ("interleaved-f32-le", "csv"):  # the float32 one first, while it is lazy
        write_iq(back, tmp_path / "again", fmt=out_fmt)
        assert (tmp_path / "again").read_bytes() == expected[out_fmt]
    assert back.samples.shape == (0,)


LAZY_CASES = [(sf, oversample, n_blocks) for sf in (3, 7, 9, 12) for oversample in (1, 2, 3, 4)
              for n_blocks in (1, 2.7, 5)]
# oversample 3 puts the receiver's blocks across awgn's noise blocks
NOISY_CASES = [(sf, oversample, n_blocks) for sf in (7, 9) for oversample in (1, 3)
               for n_blocks in (1, 2.7)]


def _symbols(sf: int, oversample: int, n_blocks: float) -> tuple[LoraParams, list[int]]:
    """Random symbols filling about n_blocks blocks, rarely a whole number."""
    p = LoraParams(sf=sf, b=125e3)
    width = oversample * p.m
    return p, np.random.default_rng(sf * 10 + oversample).integers(
        0, p.m, max(1, int(n_blocks * _BLOCK_SAMPLES / width))).tolist()


def _lazy_outputs(p, iq, path):
    write_iq(iq, path)
    return (np.array([iq.mean_power]), awgn(iq, -5.0, seed=3).samples,
            np.frombuffer(path.read_bytes(), np.uint8), np.array(demodulate_stream(iq, p)),
            welch_psd(iq, 256)[1], welch_psd(iq, 1000, overlap=0.3)[1])


def _assert_passes_give_the_bits_of_the_samples(p, make, tmp_path):
    """Every pass over a lazy buffer from make() gives the bits it gives
    over a copy of the buffer's samples, and none of them builds them."""
    first = make()
    expected = _lazy_outputs(p, IqBuffer(first.samples, fs=first.fs), tmp_path / "stored.iq")
    lazy = make()
    assert "_lazy" in vars(lazy)
    assert all(np.array_equal(a, b)
               for a, b in zip(expected, _lazy_outputs(p, lazy, tmp_path / "lazy.iq")))
    assert "_lazy" in vars(lazy)  # no pass built the whole stream


@pytest.mark.parametrize("sf, oversample, n_blocks", LAZY_CASES)
def test_a_lazy_modulated_buffer_gives_the_bits_of_its_samples(cpus, tmp_path, sf, oversample,
                                                               n_blocks):
    p, symbols = _symbols(sf, oversample, n_blocks)
    for n_cpus in (1, 3):
        cpus(n_cpus)
        _assert_passes_give_the_bits_of_the_samples(
            p, lambda: modulate(p, symbols, oversample), tmp_path)


@pytest.mark.parametrize("sf, oversample, n_blocks", NOISY_CASES)
def test_a_lazy_noisy_buffer_gives_the_bits_of_its_samples(cpus, tmp_path, sf, oversample,
                                                           n_blocks):
    p, symbols = _symbols(sf, oversample, n_blocks)
    held = IqBuffer(modulate(p, symbols, oversample).samples, fs=oversample * p.b)
    for n_cpus in (1, 3):
        cpus(n_cpus)
        for make_input in (lambda: held, lambda: modulate(p, symbols, oversample)):
            _assert_passes_give_the_bits_of_the_samples(
                p, lambda: awgn(make_input(), -3.0, seed=n_cpus), tmp_path)


@pytest.mark.parametrize("sf, oversample, n_blocks", NOISY_CASES)
def test_a_read_back_capture_gives_the_bits_of_its_samples(cpus, tmp_path, sf, oversample,
                                                           n_blocks):
    p, symbols = _symbols(sf, oversample, n_blocks)
    path = tmp_path / "capture.iq"
    write_iq(awgn(modulate(p, symbols, oversample), -3.0, seed=5), path)
    for n_cpus in (1, 3):
        cpus(n_cpus)
        _assert_passes_give_the_bits_of_the_samples(p, lambda: read_iq(path), tmp_path)


def test_concurrent_first_reads_of_a_lazy_buffer_get_one_array():
    p = LoraParams(sf=7, b=125e3)
    symbols = np.random.default_rng(2).integers(0, p.m, 4000).tolist()
    expected = IqBuffer(modulate(p, symbols).samples, fs=p.b).samples
    for _ in range(5):
        lazy = modulate(p, symbols)
        start = threading.Barrier(2)
        seen = []

        def read():
            start.wait(timeout=30)
            seen.append(lazy.samples)

        readers = [threading.Thread(target=read) for _ in range(2)]
        for t in readers:
            t.start()
        for t in readers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in readers) and len(seen) == 2
        assert seen[0] is seen[1] and np.array_equal(seen[0], expected)


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_the_link_writes_its_capture_with_no_full_size_array(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    p = LoraParams(sf=7, b=125e3)
    n = 1 << 21
    symbols = np.random.default_rng(5).integers(0, p.m, n // p.m).tolist()
    path = tmp_path / "sig.iq"
    tracemalloc.start()
    try:
        write_iq(awgn(modulate(p, symbols), 0.0, seed=1), path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 8 * n
    # a few blocks' scratch per CPU; the float32 payload would take 8*n = 16 MB
    # and the noisy stream, never stored, 16*n
    assert peak < n_cpus * (3 << 20)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_a_bad_last_block_leaves_an_existing_capture_untouched(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    _, iq = _stream(7, 2, 5.3)
    path = tmp_path / "sig.iq"
    write_iq(IqBuffer(iq.samples[::-1], fs=iq.fs), path)
    before = (path.read_bytes(), path.with_name("sig.iq.json").read_bytes())
    samples = iq.samples.copy()
    samples[-1] = complex(0.0, 2.0 ** 128 - 2.0 ** 103)  # rounds to a float32 infinity
    with pytest.raises(ValueError, match="^cannot write IQ capture"):
        write_iq(IqBuffer(samples, fs=iq.fs), path)
    assert (path.read_bytes(), path.with_name("sig.iq.json").read_bytes()) == before


def _capture(tmp_path, reverse: bool = False) -> tuple[Path, np.ndarray]:
    """A float32 capture of about 5 blocks and the samples read_iq gives."""
    _, iq = _stream(7, 2, 5.3)
    samples = iq.samples[::-1] if reverse else iq.samples
    path = tmp_path / "sig.iq"
    write_iq(IqBuffer(samples, fs=iq.fs), path)
    return path, samples.astype(np.complex64).astype(complex)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_a_live_capture_keeps_its_bits_when_its_path_is_rewritten(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    path, first = _capture(tmp_path)
    live = read_iq(path)
    _, second = _capture(tmp_path, reverse=True)
    assert not np.array_equal(first, second)
    expected = welch_psd(IqBuffer(first, fs=live.fs), 256)[1]
    assert np.array_equal(welch_psd(live, 256)[1], expected)
    assert np.array_equal(live.samples, first)
    assert np.array_equal(read_iq(path).samples, second)


@pytest.mark.parametrize("n_cpus", [1, 3])
def test_writing_a_capture_back_onto_its_own_path_keeps_its_bytes(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    path, _ = _capture(tmp_path)
    before = path.read_bytes()
    write_iq(read_iq(path), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sig.iq", "sig.iq.json"]


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("change", ["overwrite", "truncate"])
def test_a_capture_changed_under_a_live_buffer_fails_its_next_pass(cpus, tmp_path, n_cpus,
                                                                    change):
    cpus(n_cpus)
    path, _ = _capture(tmp_path)
    live = read_iq(path)
    # an edit is seen through the modification time: let the clock tick past
    # the one write_iq left
    time.sleep(0.05)
    with open(path, "r+b") as fh:
        if change == "overwrite":
            fh.seek(8 * _BLOCK_SAMPLES)
            fh.write(np.zeros(2, dtype="<f4").tobytes())
        else:
            fh.truncate(8 * _BLOCK_SAMPLES)
    changed = f"^IQ capture {re.escape(str(path))} changed after read_iq$"
    with pytest.raises(ValueError, match=changed):
        welch_psd(live, 256)
    with pytest.raises(ValueError, match=changed):
        live.samples


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("failure", ["bad-last-block", "os-error", "interrupt"])
def test_a_failed_write_leaves_the_directory_as_it_was(cpus, tmp_path, monkeypatch, n_cpus,
                                                       failure):
    cpus(n_cpus)
    path, _ = _capture(tmp_path, reverse=True)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _, iq = _stream(7, 2, 5.3)
    samples = iq.samples.copy()
    if failure == "bad-last-block":
        samples[-1] = np.inf
        expected = pytest.raises(ValueError, match="^cannot write IQ capture")
    else:
        error = OSError(28, "No space left on device") if failure == "os-error" \
            else KeyboardInterrupt()

        real_pwrite = os.pwrite

        def pwrite(fd, data, offset):
            if offset >= 8 * 4 * _BLOCK_SAMPLES:  # the last range's last blocks
                raise error
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", pwrite)
        expected = pytest.raises(type(error))
    with expected:
        write_iq(IqBuffer(samples, fs=iq.fs), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("n_cpus", [1, 3])
def test_read_back_buffers_close_their_files(cpus, tmp_path, n_cpus):
    cpus(n_cpus)
    path, _ = _capture(tmp_path)
    bad = tmp_path / "bad.iq"
    raw = np.fromfile(path, dtype="<f4")
    raw[-1] = np.nan
    raw.tofile(bad)
    (tmp_path / "bad.iq.json").write_bytes((tmp_path / "sig.iq.json").read_bytes())
    open_fds = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for i in range(50):
            back = read_iq(path)
            if i % 2:
                back.samples  # built: the file is closed at once
            del back
            with pytest.raises(ValueError, match="NaN or infinite"):
                read_iq(bad)
    assert len(os.listdir("/proc/self/fd")) == open_fds


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("kind", ["held", "modulated", "noisy", "read-back"])
def test_mean_power_is_computed_once(cpus, tmp_path, monkeypatch, n_cpus, kind):
    cpus(n_cpus)
    p, symbols = _symbols(7, 2, 2.7)
    path = tmp_path / "capture.iq"
    write_iq(awgn(modulate(p, symbols, 2), -3.0, seed=5), path)
    make = {"held": lambda: IqBuffer(modulate(p, symbols, 2).samples, fs=2 * p.b),
            "modulated": lambda: modulate(p, symbols, 2),
            "noisy": lambda: awgn(modulate(p, symbols, 2), -3.0, seed=5),
            "read-back": lambda: read_iq(path)}[kind]
    passes = []
    map_chunks = params._map_chunks

    def counting(fn, spans):
        passes.append(len(spans))
        return map_chunks(fn, spans)

    iq = make()
    monkeypatch.setattr(params, "_map_chunks", counting)
    first = iq.mean_power
    assert len(passes) == (kind != "read-back")  # read_iq's check computed it
    assert iq.mean_power == first and len(passes) == (kind != "read-back")
    assert first == _span_mean_power(iq.samples)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_demodulates_after_a_multi_cpu_pass():
    proc = _run_script("""
        import os, signal, sys, warnings
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
        from lorachirp import LoraParams, demodulate_stream, modulate, params
        params._cpu_count = lambda: 2
        p = LoraParams(sf=7, b=125e3)
        symbols = list(range(p.m)) * 12
        iq = modulate(p, symbols)
        assert demodulate_stream(iq, p) == symbols
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hung child ends itself rather than outliving the test
            os._exit(0 if demodulate_stream(iq, p) == symbols else 3)
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
