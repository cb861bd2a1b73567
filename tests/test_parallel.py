"""The blocked passes (demodulate_stream, welch_psd, awgn) give the same
bits on one CPU and on several, and keep their worker threads private."""
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lorachirp
from lorachirp import (IqBuffer, LoraParams, awgn, demodulate_stream, modulate, params,
                       welch_psd)
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


def test_map_chunks_returns_results_in_block_order(cpus):
    seen = []

    def fn(blocks):
        seen.append(blocks)
        return [10 * i for i in blocks]

    for n_cpus, n_blocks in [(1, 7), (3, 1), (3, 2), (3, 10), (4, 4)]:
        cpus(n_cpus)
        seen.clear()
        assert _map_chunks(fn, n_blocks) == [10 * i for i in range(n_blocks)]
        assert len(seen) == min(n_cpus, n_blocks)
        assert sorted(i for r in seen for i in r) == list(range(n_blocks))
        assert all(r.step == 1 and len(r) > 0 for r in seen)


def test_map_chunks_raises_the_first_error_after_every_range_ends(cpus):
    cpus(4)
    ended = []

    def fn(blocks):
        if blocks.start > 0:
            threading.Event().wait(0.05 * (4 - blocks.start // 2))
        ended.append(blocks.start)
        if blocks.start in (4, 6):
            raise ValueError(f"range at {blocks.start}")
        return list(blocks)

    with pytest.raises(ValueError, match="range at 4"):
        _map_chunks(fn, 8)
    assert sorted(ended) == [0, 2, 4, 6]


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
            welch_psd(iq, 1 << 15, overlap=0.9)[1], awgn(iq, 3.0, seed=9).samples)


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
        import os
        os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
        import numpy as np
        import test_parallel as cases
        from lorachirp import params
        arrays = {{}}
        for i, case in enumerate(cases.CASES):
            for j, a in enumerate(cases._outputs(*cases._stream(*case))):
                arrays[f"{{i}}_{{j}}"] = a
        assert params._cpu_count() == 1 and params._pool is None
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


def test_public_functions_run_on_the_calling_thread_only(cpus, monkeypatch):
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
    assert len(originals) > 20

    cpus(4)
    p, iq = _stream(7, 2, 5.3)
    assert lorachirp.demodulate_stream is not demodulate_stream
    lorachirp.demodulate_stream(iq, p)
    lorachirp.welch_psd(iq, 256)
    lorachirp.awgn(iq, 0.0, seed=1)
    assert threads == {threading.get_ident()}
    assert any(t.name.startswith("lorachirp") for t in threading.enumerate())


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_awgn_needs_no_full_size_scratch(cpus, n_cpus):
    cpus(n_cpus)
    n = 1 << 21
    iq = IqBuffer._adopt(np.full(n, 1.0 + 0.5j), fs=1.0)
    awgn(iq, 0.0, seed=0)  # starts the pool outside the measurement
    tracemalloc.start()
    try:
        noisy = awgn(iq, 0.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(noisy) == n
    assert peak < 16 * n + (4 << 20)


def test_welch_memory_does_not_grow_with_the_number_of_blocks(cpus):
    cpus(2)
    # 2^21 samples in 1260 overlapping segments of 2^15: 630 blocks whose
    # sums of |X|^2 would take 160 MB if all of them waited to be added
    iq = IqBuffer._adopt(np.random.default_rng(4).standard_normal(1 << 22).view(complex),
                         fs=1.0)
    welch_psd(iq, 1 << 15, overlap=0.95)  # starts the pool outside the measurement
    tracemalloc.start()
    try:
        welch_psd(iq, 1 << 15, overlap=0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_forked_child_demodulates_after_the_pool_exists():
    proc = _run_script("""
        import os, signal, sys, warnings
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
        from lorachirp import LoraParams, demodulate_stream, modulate, params
        params._cpu_count = lambda: 2
        p = LoraParams(sf=7, b=125e3)
        symbols = list(range(p.m)) * 12
        iq = modulate(p, symbols)
        assert demodulate_stream(iq, p) == symbols and params._pool is not None
        pid = os.fork()
        if pid == 0:
            signal.alarm(30)  # a hung child ends itself rather than outliving the test
            os._exit(0 if demodulate_stream(iq, p) == symbols else 3)
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    """, timeout=60.0)
    assert proc.returncode == 0, proc.stderr
