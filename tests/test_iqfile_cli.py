import csv
import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp import (IqBuffer, LoraParams, SpectrumResult, awgn, binned_power,
                       correlation_matrix, fresnel_spectrum, modulate, read_header,
                       read_iq, write_iq)
from lorachirp import cli, iqfile, params
from lorachirp.cli import example_mask_path, main
from lorachirp.analysis import MaskSegment, MaskSpec, _mask_spectrum
from oracles import psd_via_dft, transform_sums_loop

P5 = LoraParams(sf=5, b=32.0)


@pytest.fixture
def iq():
    return modulate(P5, [1, 9, 27], oversample=2)


def test_binary_roundtrip_preserves_f32_values(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    back = read_iq(path)
    assert back.fs == iq.fs
    # payload is float32: the read values are exactly the quantized ones
    expected = iq.samples.real.astype(np.float32).astype(np.float64) \
        + 1j * iq.samples.imag.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(back.samples, expected)
    assert np.max(np.abs(back.samples - iq.samples)) < 1e-6
    # rereading is bit-identical
    np.testing.assert_array_equal(read_iq(path).samples, back.samples)


def test_binary_layout_is_interleaved_float32(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    interleaved = np.empty(2 * len(iq), dtype="<f4")
    interleaved[0::2] = iq.samples.real
    interleaved[1::2] = iq.samples.imag
    assert path.read_bytes() == interleaved.tobytes()
    raw = np.fromfile(path, dtype="<f4")
    np.testing.assert_array_equal(
        read_iq(path).samples, raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64))


def test_library_buffers_are_read_only(tmp_path, iq):
    noisy = awgn(iq, 0.0, seed=1)
    write_iq(noisy, tmp_path / "sig.iq")
    for buf in (modulate(P5, [3, 3, 3, 4]), iq, noisy, read_iq(tmp_path / "sig.iq")):
        with pytest.raises(ValueError, match="read-only"):
            buf.samples[0] = 0.0


def test_file_size_is_eight_bytes_per_sample(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    assert path.stat().st_size == 8 * len(iq)


@pytest.mark.skipif(not hasattr(os, "symlink") or os.name != "posix", reason="POSIX modes")
def test_write_iq_writes_through_a_symlink_and_keeps_the_file_mode(tmp_path, iq):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "sig.iq"
    link = tmp_path / "sig.iq"
    link.symlink_to(target)
    second = modulate(P5, [2, 4, 6], oversample=2)
    umask = os.umask(0o027)
    try:
        write_iq(iq, link)  # through a dangling link, then over the file it names
        write_iq(second, link)
    finally:
        os.umask(umask)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert np.array_equal(read_iq(link).samples, second.samples.astype(np.complex64))
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    target.chmod(0o600)
    write_iq(iq, link)  # keeps the mode of the file it replaces, as open() does
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert sorted(p.name for p in target.parent.iterdir()) == ["sig.iq"]


def test_sidecar_matches_buffer(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path, center_freq=868.1e6)
    doc = json.loads((path.with_name("sig.iq.json")).read_text())
    assert doc["fs_hz"] == iq.fs
    assert doc["center_freq_hz"] == 868.1e6
    assert doc["num_samples"] == len(iq)


@pytest.mark.parametrize("f0", [float("nan"), float("inf")])
def test_write_iq_rejects_non_finite_center_frequency(tmp_path, iq, f0):
    path = tmp_path / "sig.iq"
    with pytest.raises(ValueError, match="center_freq must be a finite number"):
        write_iq(iq, path, center_freq=f0)
    assert list(tmp_path.iterdir()) == []


def test_truncated_payload_is_rejected(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        read_iq(path)


def test_sample_count_mismatch_is_rejected(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="sidecar"):
        read_iq(path)


def test_bad_fs_is_rejected(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    sidecar = path.with_name("sig.iq.json")
    doc = json.loads(sidecar.read_text())
    doc["fs_hz"] = 0.0
    sidecar.write_text(json.dumps(doc))
    # the header raises it, and read_header puts the sidecar in front
    message = r"^IQ sidecar .*sig\.iq\.json: fs must be positive, got 0\.0$"
    with pytest.raises(ValueError, match=message):
        read_iq(path)


_NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=4).filter(str.isalpha),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                         st.sampled_from([float("inf"), float("-inf"), float("nan")]))


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    path = tmp_path_factory.mktemp("capture") / "sig.iq"
    write_iq(modulate(P5, [1, 9, 27], oversample=2), path)
    return path, json.loads(path.with_name("sig.iq.json").read_text())


def _with_sidecar(capture, **changes):
    path, doc = capture
    path.with_name("sig.iq.json").write_text(json.dumps({**doc, **changes}))
    return path


@given(value=_NOT_NUMBERS)
def test_sidecar_rate_must_be_a_finite_number(capture, value):
    path = _with_sidecar(capture, fs_hz=value)
    with pytest.raises(ValueError, match="'fs_hz'"):
        read_header(path.with_name("sig.iq.json"))


@given(value=_NOT_NUMBERS)
def test_sidecar_center_frequency_must_be_a_finite_number(capture, value):
    path = _with_sidecar(capture, center_freq_hz=value)
    with pytest.raises(ValueError, match="'center_freq_hz'"):
        read_header(path.with_name("sig.iq.json"))


@given(value=st.one_of(_NOT_NUMBERS.filter(lambda v: v is not None),
                       st.integers(max_value=-1),
                       st.floats(allow_nan=False, allow_infinity=False).filter(
                           lambda v: not v.is_integer())))
def test_sidecar_sample_count_must_be_a_nonnegative_integer(capture, value):
    path = _with_sidecar(capture, num_samples=value)
    with pytest.raises(ValueError, match="'num_samples'"):
        read_iq(path)


def test_sidecar_sample_count_is_quoted_in_64_characters(capture):
    # a 100 000-character value once made a 100 KB message
    path = _with_sidecar(capture, num_samples="x" * 100_000)
    with pytest.raises(ValueError) as info:
        read_iq(path)
    assert str(info.value).endswith("got '" + "x" * 63 + "... (100002 characters)")


def test_sidecar_sample_count_may_be_written_as_integral_float(capture):
    n = capture[1]["num_samples"]
    path = _with_sidecar(capture, num_samples=float(n))
    assert len(read_iq(path)) == n


def test_sidecar_must_be_an_object(tmp_path, iq):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    path.with_name("sig.iq.json").write_text("[1, 2]")
    with pytest.raises(ValueError, match="'fs_hz'"):
        read_iq(path)


def test_sidecar_format_error_names_the_sidecar(capture):
    path = _with_sidecar(capture, format="f64")
    sidecar = re.escape(str(path.with_name("sig.iq.json")))
    with pytest.raises(ValueError, match=f"^IQ sidecar {sidecar}: unknown IQ format 'f64'$"):
        read_iq(path)


@pytest.mark.parametrize("text", [b'{"fs_hz": 1', b"\xff", b"[" * 100_000],
                         ids=["truncated", "not-utf8", "nested-too-deeply"])
def test_sidecar_that_is_not_json_is_named(tmp_path, text):
    sidecar = tmp_path / "sig.iq.json"
    sidecar.write_bytes(text)
    with pytest.raises(ValueError, match=f"^malformed IQ sidecar {re.escape(str(sidecar))}: "):
        read_header(sidecar)


_MASK_SEGMENT = {"f_start_hz": 863.0e6, "f_stop_hz": 865.0e6, "limit_dbm": -36.0,
                 "rbw_hz": 1000.0}


@pytest.fixture(scope="module")
def mask_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mask") / "mask.json"


@pytest.mark.parametrize("key", list(_MASK_SEGMENT))
@given(value=st.one_of(_NOT_NUMBERS, st.sampled_from([10 ** 400, True])))
def test_mask_fields_must_be_finite_numbers(mask_path, key, value):
    # a bool is no number and an integer beyond the float range no finite one
    mask_path.write_text(json.dumps({"label": "bad", "segments": [{**_MASK_SEGMENT, key: value}]}))
    where = re.escape(f"mask {mask_path}: segment 0: '{key}'")
    with pytest.raises(ValueError, match=f"^{where} must be a finite number"):
        MaskSpec.from_json(mask_path)


def test_csv_format_parses_equivalently(tmp_path, iq):
    bin_path = tmp_path / "sig.iq"
    csv_path = tmp_path / "sig.csv"
    write_iq(iq, bin_path)
    write_iq(iq, csv_path, fmt="csv")
    from_csv = read_iq(csv_path)
    # CSV carries full precision, binary is f32-quantized
    np.testing.assert_array_equal(from_csv.samples, iq.samples)
    assert np.max(np.abs(from_csv.samples - read_iq(bin_path).samples)) < 1e-6
    assert from_csv.fs == iq.fs


def test_csv_requires_header_row(tmp_path, iq):
    csv_path = tmp_path / "sig.csv"
    write_iq(iq, csv_path, fmt="csv")
    body = csv_path.read_text().splitlines()[1:]
    csv_path.write_text("\n".join(body) + "\n")
    with pytest.raises(ValueError, match="i,q"):
        read_iq(csv_path)


@pytest.mark.parametrize("row", ["1.0,2.0,99", "1.0"], ids=["three-fields", "one-field"])
def test_csv_rows_must_hold_two_fields(tmp_path, row):
    csv_path = tmp_path / "sig.csv"
    write_iq(IqBuffer(np.array([0.5 + 0.25j]), fs=1.0), csv_path, fmt="csv")
    csv_path.write_bytes(csv_path.read_bytes() + row.encode() + b"\r\n")
    where = re.escape(f"malformed CSV IQ row in {csv_path} at line 3")
    with pytest.raises(ValueError, match=f"^{where}: expected 2 fields"):
        read_iq(csv_path)


# --- CLI ---

def test_cli_modulate_demod_roundtrip(tmp_path, capsys):
    out = tmp_path / "sig.iq"
    rc = main(["modulate", "--sf", "7", "--bw", "125e3", "--symbols", "3,1,4,127",
               "--oversample", "2", "--out", str(out)])
    assert rc == 0
    rc = main(["demod", "--sf", "7", "--bw", "125e3", "--in", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["symbols"] == [3, 1, 4, 127]


def test_cli_modulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.iq", tmp_path / "b.iq"
    for out in (a, b):
        assert main(["modulate", "--sf", "5", "--bw", "1e3",
                     "--payload-hex", "deadbeef", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_payload_roundtrip(tmp_path, capsys):
    out = tmp_path / "sig.iq"
    main(["modulate", "--sf", "4", "--bw", "1e3", "--payload-hex", "ff00",
          "--out", str(out)])
    main(["demod", "--sf", "4", "--bw", "1e3", "--in", str(out)])
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["symbols"] == [15, 15, 0, 0]


def test_cli_xcorr_report(tmp_path, capsys):
    matrix_csv = tmp_path / "c.csv"
    rc = main(["xcorr", "--sf", "7", "--full-matrix", str(matrix_csv)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs_re_c"] == pytest.approx(0.045, abs=1e-3)
    assert doc["penalty_db"] == pytest.approx(0.20, abs=0.01)
    assert doc["max_abs_c"] <= doc["bound"]
    rows = matrix_csv.read_text().splitlines()
    assert rows[0] == "l,m,re_c,im_c"
    assert len(rows) == 1 + 128 * 128


def test_cli_xcorr_matrix_csv_bytes(tmp_path, capsys):
    matrix_csv = tmp_path / "c.csv"
    assert main(["xcorr", "--sf", "4", "--full-matrix", str(matrix_csv)]) == 0
    capsys.readouterr()
    C = correlation_matrix(LoraParams(sf=4, b=1.0))
    assert matrix_csv.read_bytes() == _csv_text(
        [], ["l", "m", "re_c", "im_c"],
        [(l, m, repr(float(C[l, m].real)), repr(float(C[l, m].imag)))
         for l in range(16) for m in range(16)])


def test_cli_spectrum_methods_agree(tmp_path, capsys):
    # the CLI's Fresnel spectrum against the independent DFT cross-check
    psd = tmp_path / "psd.csv"
    rc = main(["spectrum", "--sf", "3", "--bw", "1.0", "--grid-step", str(1.0 / 64),
               "--out-psd", str(psd), "--out-lines", str(tmp_path / "lines.csv")])
    assert rc == 0
    capsys.readouterr()
    data = np.genfromtxt(psd, delimiter=",", comments="#", skip_header=3)
    cli = dict(zip(np.round(data[:, 0], 9), data[:, 1]))
    p = LoraParams(sf=3, b=1.0)
    res = psd_via_dft(p, zero_pad_factor=8, n_per_symbol=32 * p.m)
    dft = dict(zip(np.round(res.grid, 9), res.continuous))
    shared = sorted(set(cli) & set(dft))
    assert len(shared) > 100
    dev = max(abs(cli[f] - dft[f]) for f in shared)
    assert dev < 1e-6 * max(cli.values())


def test_cli_table_csv(capsys):
    rc = main(["table", "--sf-list", "3,5", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("sf,eff_bps_per_hz")
    sf3 = lines[1].split(",")
    assert float(sf3[1]) == 0.375
    assert float(sf3[2]) == pytest.approx(0.212, abs=1e-3)


def test_cli_welch_runs(tmp_path, capsys):
    sig = tmp_path / "sig.iq"
    main(["modulate", "--sf", "7", "--bw", "125e3", "--symbols",
          ",".join(str(i % 128) for i in range(64)), "--oversample", "4",
          "--out", str(sig)])
    out = tmp_path / "welch.csv"
    rc = main(["welch", "--in", str(sig), "--segment", "512", "--overlap", "0.5",
               "--window", "hann", "--out", str(out)])
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", comments="#", skip_header=2)
    assert data.shape == (512, 2)


def test_cli_mask_check_verdicts(tmp_path, capsys):
    binned_csv = tmp_path / "binned.csv"
    rc = main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6",
               "--sf", "7", "--bw", "125e3", "--ps-dbm", "14",
               "--out-binned", str(binned_csv)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["passed"] is True
    tight = tmp_path / "tight.json"
    MaskSpec.from_json(example_mask_path()).tightened(40.0).to_json(tight)
    # reuse the saved binned spectrum: exercises the CSV input path
    rc = main(["mask-check", "--mask", str(tight), "--f0", "868.3e6",
               "--spectrum-csv", str(binned_csv)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2 and doc["passed"] is False
    assert doc["worst_margin_db"] < 0


def test_cli_mask_check_fails_an_unchecked_segment(tmp_path, capsys):
    # the computed spectrum spans every segment of the mask: each is covered whole
    for sf in (7, 9, 12):
        for f0 in ("868.1e6", "868.3e6"):
            rc = main(["mask-check", "--mask", str(example_mask_path()), "--f0", f0,
                       "--sf", str(sf), "--bw", "125e3", "--ps-dbm", "14"])
            doc = json.loads(capsys.readouterr().out)
            assert rc == 0 and doc["passed"] is True and doc["complete"] is True
            assert [s["coverage"] for s in doc["segments"]] == [1.0] * 5
    mask = tmp_path / "far.json"
    MaskSpec(label="far", segments=(MaskSegment(900.0e6, 901.0e6, -36.0, 1000.0),)
             ).to_json(mask)
    binned_csv = tmp_path / "binned.csv"
    rc = main(["mask-check", "--mask", str(mask), "--f0", "868.3e6", "--sf", "7",
               "--bw", "125e3", "--ps-dbm", "14", "--out-binned", str(binned_csv)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["complete"] is True and doc["segments"][0]["coverage"] == 1.0
    # a binned spectrum that ends short of the segment leaves it unchecked
    main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6", "--sf", "7",
          "--bw", "125e3", "--ps-dbm", "14", "--out-binned", str(binned_csv)])
    capsys.readouterr()
    rc = main(["mask-check", "--mask", str(mask), "--f0", "868.3e6",
               "--spectrum-csv", str(binned_csv)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert doc["passed"] is False and doc["complete"] is False
    assert doc["segments"][0]["n_bins"] == 0 and doc["segments"][0]["coverage"] == 0.0


@pytest.mark.parametrize("f0", ["nan", "inf"])
def test_cli_modulate_rejects_non_finite_center_frequency(tmp_path, capsys, f0):
    out = tmp_path / "sig.iq"
    assert main(["modulate", "--sf", "5", "--bw", "32", "--symbols", "1,9",
                 "--f0", f0, "--out", str(out)]) == 1
    assert "center_freq must be a finite number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["--sf", "7", "--bw", "1e-320"], "b = 1e-320 Hz gives a chip duration"),
    (["--sf", "1", "--bw", "4e307", "--oversample", "5"], "oversample = 5 with b = 4e+307 Hz")],
    ids=["subnormal-bw", "oversample-overflows"])
def test_cli_modulate_blames_the_bandwidth_not_the_capture(tmp_path, capsys, argv, named):
    out = tmp_path / "sig.iq"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["modulate", *argv, "--symbols", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {named}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("f0", ["nan", "inf", "-inf"])
def test_cli_mask_check_rejects_non_finite_carrier(tmp_path, capsys, f0):
    rc = main(["mask-check", "--mask", str(example_mask_path()), f"--f0={f0}",
               "--sf", "7", "--bw", "125e3", "--ps-dbm", "14"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert f"f0 must be a finite number, got {float(f0)!r}" in captured.err


@pytest.mark.parametrize("argv,named", [
    (["mask-check", "--mask", str(example_mask_path()), "--f0", "1e15", "--sf", "7",
      "--bw", "125e3", "--ps-dbm", "14"], "carrier f0 = 1000000000000000.0 Hz"),
    (["mask-check", "--mask", str(example_mask_path()), "--f0", "1e22", "--sf", "7",
      "--bw", "125e3", "--ps-dbm", "14"], "carrier f0 = 1e+22 Hz"),
    (["spectrum", "--sf", "7", "--bw", "125e3", "--grid-step", "1e-7"], "grid step 1e-07 Hz"),
], ids=["f0_1e15", "f0_1e22", "grid_step"])
def test_cli_oversized_lattice_names_its_argument(tmp_path, capsys, monkeypatch, argv, named):
    # the spectra would take 29.8 TiB and more, which numpy refuses outright:
    # the size is checked first, and the message names the argument
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err.startswith(f"error: {named}")
    assert "more than the 4194304" in captured.err and "Unable to allocate" not in captured.err


def test_mask_spectrum_names_the_farthest_carrier():
    mask = MaskSpec.from_json(example_mask_path())
    with pytest.raises(ValueError, match=r"^carrier f0 = 1e\+18 Hz, 1e\+18 Hz from"):
        _mask_spectrum(LoraParams(sf=7, b=125e3), mask, [868.3e6, 1e18, -1e9, float("nan")])


@pytest.mark.parametrize("ps_dbm", ["nan", "inf", "-inf"])
def test_cli_spectrum_rejects_non_finite_power(tmp_path, capsys, ps_dbm):
    psd, lines = tmp_path / "psd.csv", tmp_path / "lines.csv"
    rc = main(["spectrum", "--sf", "3", "--bw", "125e3", f"--ps-dbm={ps_dbm}",
               "--out-psd", str(psd), "--out-lines", str(lines)])
    assert rc == 1
    assert "--ps-dbm must be a finite number" in capsys.readouterr().err
    assert not psd.exists() and not lines.exists()


@pytest.mark.parametrize("ps_dbm", ["1e308", "-1e308"])
def test_cli_spectrum_rejects_power_outside_float_range(tmp_path, capsys, ps_dbm):
    psd, lines = tmp_path / "psd.csv", tmp_path / "lines.csv"
    rc = main(["spectrum", "--sf", "3", "--bw", "125e3", f"--ps-dbm={ps_dbm}",
               "--out-psd", str(psd), "--out-lines", str(lines)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--ps-dbm must be a finite number whose power ratio" in err
    assert f"got {float(ps_dbm)!r}" in err
    assert not psd.exists() and not lines.exists()


def test_cli_demod_rejects_infinite_sidecar_rate(tmp_path, capsys):
    out = tmp_path / "sig.iq"
    assert main(["modulate", "--sf", "5", "--bw", "32", "--symbols", "1,9",
                 "--out", str(out)]) == 0
    sidecar = out.with_name("sig.iq.json")
    doc = json.loads(sidecar.read_text())
    doc["fs_hz"] = float("inf")
    sidecar.write_text(json.dumps(doc))  # written as the JSON token Infinity
    capsys.readouterr()
    assert main(["demod", "--sf", "5", "--bw", "32", "--in", str(out)]) == 1
    assert "fs_hz" in capsys.readouterr().err


@pytest.mark.parametrize("segment,message", [
    ({"f_start_hz": 868.0e6, "f_stop_hz": 868.6e6, "rbw_hz": 1000.0},
     "segment 1 is missing 'limit_dbm'"),
    ({"f_start_hz": 868.0e6, "f_stop_hz": "high", "limit_dbm": 14.0, "rbw_hz": 1000.0},
     "segment 1: 'f_stop_hz' must be a finite number")])
def test_cli_mask_check_rejects_malformed_mask(tmp_path, capsys, segment, message):
    mask = tmp_path / "bad.json"
    good = {"f_start_hz": 863.0e6, "f_stop_hz": 865.0e6, "limit_dbm": -36.0,
            "rbw_hz": 1000.0}
    mask.write_text(json.dumps({"label": "bad", "segments": [good, segment]}))
    rc = main(["mask-check", "--mask", str(mask), "--f0", "868.3e6",
               "--sf", "7", "--bw", "125e3", "--ps-dbm", "14"])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("fs_hz", None), ("num_samples", float("inf")),
                                       ("num_samples", [1]), ("num_samples", -6),
                                       ("num_samples", 6.5)])
def test_cli_demod_rejects_malformed_sidecar(tmp_path, capsys, key, value):
    out = tmp_path / "sig.iq"
    assert main(["modulate", "--sf", "5", "--bw", "32", "--symbols", "1,9",
                 "--out", str(out)]) == 0
    sidecar = out.with_name("sig.iq.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    capsys.readouterr()
    assert main(["demod", "--sf", "5", "--bw", "32", "--in", str(out)]) == 1
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("doc,message", [
    ([{"f_start_hz": 868.0e6}], "'segments'"),
    ({"label": "bad", "segments": 5}, "'segments' must be a list")])
def test_cli_mask_check_rejects_malformed_document(tmp_path, capsys, doc, message):
    mask = tmp_path / "bad.json"
    mask.write_text(json.dumps(doc))
    rc = main(["mask-check", "--mask", str(mask), "--f0", "868.3e6",
               "--sf", "7", "--bw", "125e3", "--ps-dbm", "14"])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_cli_mask_check_names_a_truncated_mask(tmp_path, capsys):
    mask = tmp_path / "truncated.json"
    mask.write_text(example_mask_path().read_text()[:28])
    rc = main(["mask-check", "--mask", str(mask), "--f0", "868.3e6",
               "--sf", "7", "--bw", "125e3", "--ps-dbm", "14"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: malformed mask {mask}: ")


def test_cli_mask_check_bins_line_power_out_to_8b(tmp_path, capsys):
    # the mask-check grid spans |f| <= 8B, or out to the mask's farthest
    # edge (10.4B here); lines beyond 4B count
    p = LoraParams(sf=7, b=125e3)
    binned_csv = tmp_path / "binned.csv"
    main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6",
          "--sf", "7", "--bw", "125e3", "--ps-dbm", "14", "--out-binned", str(binned_csv)])
    capsys.readouterr()
    got = np.loadtxt(binned_csv, delimiter=",", comments="#", skiprows=3)

    res = _mask_spectrum(p, MaskSpec.from_json(example_mask_path()), [868.3e6])
    n = np.arange(-(len(res.lines) // 2), len(res.lines) // 2 + 1)
    assert n[-1] > 10 * p.m
    _, sum_x = transform_sums_loop(p, n * p.b / p.m)
    lines = np.column_stack([n * p.b / p.m, np.abs(sum_x) ** 2 / (p.ts * p.m) ** 2])
    ref = {n_max: binned_power(SpectrumResult(res.grid, res.continuous,
                                              lines[np.abs(n) <= n_max], p),
                               delta_f=1000.0, ps_dbm=14.0)
           for n_max in (4 * p.m, n[-1])}
    np.testing.assert_array_equal(got[:, 0], ref[n[-1]].bin_centers)
    outer = np.abs(got[:, 0]) > 4 * p.b
    assert np.max(np.abs(got[outer, 1] - ref[n[-1]].bin_power_dbm[outer])) < 1e-9
    # without the lines beyond 4B those bins read visibly low
    assert np.max(ref[n[-1]].bin_power_dbm[outer]
                  - ref[4 * p.m].bin_power_dbm[outer]) > 0.01


def test_cli_spectrum_rejects_step_off_the_lattice(tmp_path, capsys):
    rc = main(["spectrum", "--sf", "3", "--bw", "1.0",
               "--grid-step", str(1.0 / 100), "--out-psd", str(tmp_path / "psd.csv"),
               "--out-lines", str(tmp_path / "lines.csv")])
    assert rc == 1
    assert "B/(k*M)" in capsys.readouterr().err
    assert not (tmp_path / "psd.csv").exists()


def _csv_text(comments, header, rows) -> bytes:
    buf = io.StringIO()
    buf.write("".join(f"# {line}\n" for line in comments))
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def test_cli_output_into_a_missing_directory_names_the_output(tmp_path, capsys, iq):
    # the new file is made beside the output, but the error names the output
    psd = tmp_path / "missing" / "psd.csv"
    assert main(["spectrum", "--sf", "3", "--bw", "125e3", "--out-psd", str(psd),
                 "--out-lines", str(tmp_path / "lines.csv")]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{psd}'\n"
    capture = tmp_path / "missing" / "x.iq"
    with pytest.raises(OSError) as exc:
        write_iq(iq, capture)
    assert str(exc.value) == (f"failed writing IQ capture {capture}: "
                              f"[Errno 2] No such file or directory: '{capture}'")


def _check_spectrum_csv_bytes(tmp_path, capsys, sf, ps_dbm):
    # every number is the repr of a float computed one grid point at a time
    psd, lines = tmp_path / "psd.csv", tmp_path / "lines.csv"
    argv = ["spectrum", "--sf", str(sf), "--bw", "125e3",
            "--out-psd", str(psd), "--out-lines", str(lines)]
    if ps_dbm is not None:
        argv += ["--ps-dbm", str(ps_dbm)]
    assert main(argv) == 0
    capsys.readouterr()
    res = fresnel_spectrum(LoraParams(sf=sf, b=125e3))
    scale = 10.0 ** (ps_dbm / 10.0) if ps_dbm is not None else 1.0
    unit = "mw" if ps_dbm is not None else "fraction"
    assert psd.read_bytes() == _csv_text(
        [f"sf={sf} bw_hz=125000.0",
         "psd_db_rel_b = 10*log10(Gc(f)*B) of the unit-power envelope"],
        ["frequency_hz", f"psd_{unit}_per_hz", "psd_db_rel_b"],
        [(repr(float(f)), repr(float(g * scale)),
          repr(float(10 * np.log10(max(g * 125e3, 1e-30)))))
         for f, g in zip(res.grid, res.continuous)])
    assert lines.read_bytes() == _csv_text(
        [f"sf={sf} bw_hz=125000.0"], ["frequency_hz", f"power_{unit}"],
        [(repr(float(f)), repr(float(pw * scale))) for f, pw in res.lines])


@pytest.mark.parametrize("ps_dbm", [None, 14.0])
def test_cli_spectrum_csv_bytes(tmp_path, capsys, ps_dbm):
    _check_spectrum_csv_bytes(tmp_path, capsys, 3, ps_dbm)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("n_cpus", [2, 3])
def test_cli_spectrum_csv_bytes_when_forked(tmp_path, capsys, forks, n_cpus):
    # SF 7's PSD has 131 073 rows: its middle row and the 65 536 after it
    # are cut into parts of uneven length, formatted by n_cpus processes
    pids = forks(n_cpus)
    _check_spectrum_csv_bytes(tmp_path, capsys, 7, None)
    assert len(pids) == 2 * (n_cpus - 1)
    assert (tmp_path / "psd.csv").read_bytes().count(b"\r\n") == 131_074


@pytest.fixture
def forks(monkeypatch):
    """The pids _write_csv forks; every file of at least one value per CPU
    is formatted on `n` CPUs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def use(n):
        monkeypatch.setattr(params, "_cpu_count", lambda: n)
        monkeypatch.setattr(iqfile, "_CSV_FORK_VALUES", 1)
        return pids
    monkeypatch.setattr(os, "fork", recording_fork)
    return use


def _fd_count() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _csv_reference(cols, names, comments=()) -> bytes:
    """csv.writer's text of the columns `cols`, the repr of each value."""
    return _csv_text(comments, names, [tuple(map(repr, row))
                                       for row in zip(*(c.tolist() for c in cols))])


def _mirror_table(n: int) -> list:
    """A table of odd n rows that is its own mirror image about its middle
    row: x = k/10 for k = -(n // 2)..n // 2, an even int column and an
    even float column with -0.0, 5e-324 and 1e308 at mirrored rows."""
    k = np.arange(-(n // 2), n // 2 + 1)
    y = 1.0 / (1 + np.abs(k))
    for i, v in enumerate([-0.0, 5e-324, 1e308][:n // 2]):
        y[i] = y[n - 1 - i] = v
    return [k / 10, np.abs(k) - 3, y]


def _near_mirrors(n: int) -> dict:
    """Tables that miss being their own mirror image by one value or by
    their row count, and so are written as plain tables."""
    if n % 2 == 0:  # no middle row: x = +-0.5, +-1.5, ...
        x = np.arange(n) - (n - 1) / 2
        return {"even rows": [x, np.abs(2 * x).astype(np.int64), 1.0 / (1 + np.abs(x))]}
    if n == 1:
        return {}
    x, k, y = _mirror_table(n)
    last_bit, signed_zero, zero_x = y.copy(), y.copy(), x.copy()
    last_bit.view(np.int64)[-1] ^= 1  # -5e-324 where its mirror is -0.0
    signed_zero[-1] = 0.0  # equal to its mirror -0.0 under ==
    zero_x[n // 2 - 1], zero_x[n // 2 + 1] = -0.0, 0.0
    return {"last bit": [x, k, last_bit], "signed zero": [x, k, signed_zero],
            "zero x": [zero_x, k, y], "negative x": [-x, k, y]}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("n_rows", [0, 1, 2, 3, 7, 1000, 1001])
@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_write_csv_bytes_match_csv_writer(tmp_path, forks, n_cpus, n_rows):
    # 7, 1000 and 1001 rows do not split evenly into 2 or 3 parts; a
    # strided view (the real part of a complex array, as write_iq passes)
    # and an int column are formatted like any other.  A mirror table has
    # only its middle row and the rows after it formatted, and copies the
    # text of the rows before it; a near-mirror is formatted in full
    pids = forks(n_cpus)
    special = [-0.0, 5e-324, 1e308, -1e308, 0.1]
    x = np.array([complex(special[i] if i < 5 else i / 3, -i / 7) for i in range(n_rows)])
    ints = np.arange(n_rows, dtype=np.int64) - 3
    tables = {"plain": [x.real, ints, x.imag], **_near_mirrors(n_rows)}
    if n_rows % 2:
        tables["mirror"] = _mirror_table(n_rows)
    path = tmp_path / "out.csv"
    for name, cols in tables.items():
        # a one-row table is its middle row, and trivially its own mirror image
        assert iqfile._mirrored(cols) == (name == "mirror" or n_rows == 1), name
        pids.clear()
        iqfile._write_csv(path, ["x", "k", "y"], cols, comments=["a=1", "b"])
        assert path.read_bytes() == _csv_reference(cols, ["x", "k", "y"], ["a=1", "b"]), name
        assert len(pids) == (n_cpus - 1 if n_rows else 0)
        with pytest.raises(ChildProcessError):  # every child has been reaped
            os.waitpid(-1, os.WNOHANG)
    iqfile._write_csv(path, ["x", "k", "y"], tables["plain"], comments=["a=1", "b"])
    assert path.read_text().splitlines()[3:6] == [
        "-0.0,-3,0.0", "5e-324,-2,-0.14285714285714285", "1e+308,-1,-0.2857142857142857"
    ][:n_rows]
    if n_rows == 7:
        iqfile._write_csv(path, ["x", "k", "y"], tables["mirror"], comments=["a=1", "b"])
        lines = path.read_text().splitlines()
        assert lines[3:6] == ["-0.3,0,-0.0", "-0.2,-1,5e-324", "-0.1,-2,1e+308"]
        assert lines[-3:] == ["0.1,-2,1e+308", "0.2,-1,5e-324", "0.3,0,-0.0"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_csv_formatter_tables_are_built_on_the_first_write_before_any_fork(
        tmp_path, forks, monkeypatch):
    # importing lorachirp builds none (test_analysis.py checks it in a fresh
    # interpreter); a write builds them before it forks, so children inherit them
    from lorachirp import _numtext
    _numtext._tables.cache_clear()
    built_at_fork = []
    fork = os.fork

    def recording_fork():
        built_at_fork.append(_numtext._tables.cache_info().currsize)
        return fork()

    pids = forks(2)
    monkeypatch.setattr(os, "fork", recording_fork)
    cols = [np.arange(-3.0, 4.0), np.arange(7)]
    iqfile._write_csv(tmp_path / "out.csv", ["x", "k"], cols, comments=["a=1"])
    assert built_at_fork == [1] and len(pids) == 1
    assert _numtext._tables.cache_info().misses == 1
    assert (tmp_path / "out.csv").read_bytes() == _csv_reference(cols, ["x", "k"], ["a=1"])
    # a table of no rows is its comments and header alone
    iqfile._write_csv(tmp_path / "empty.csv", ["x", "k"], [np.empty(0), np.empty(0, np.int64)],
                      comments=["a=1", "b"])
    assert (tmp_path / "empty.csv").read_bytes() == b"# a=1\n# b\nx,k\r\n"


_OLD_CSV = b"a,b\r\n1.0,2.0\r\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_failing_csv_child_raises_and_leaves_nothing(tmp_path, forks, monkeypatch):
    # three parts of the plain table's rows 0..8, and of the mirror table's
    # formatted rows 4..8: the parent's first part ends at row 3, or 5
    forks(3)
    text = iqfile._csv_text
    plain, mirror = np.arange(9.0), np.arange(-4.0, 5.0)
    for cols, parent_hi, rows in [([plain, plain], 3, "3..5"),
                                  ([mirror, np.abs(mirror)], 5, "5..6")]:
        def failing_after_the_first_part(cols, lo, hi):
            if lo >= parent_hi:
                raise RuntimeError("formatting failed")
            return text(cols, lo, hi)

        monkeypatch.setattr(iqfile, "_csv_text", failing_after_the_first_part)
        fds = _fd_count()
        path = tmp_path / "out.csv"
        path.write_bytes(_OLD_CSV)
        with pytest.raises(OSError, match=rf"^cannot write {re.escape(str(path))}: the process "
                                          rf"formatting rows {re.escape(rows)} exited with "
                                          r"status 1$"):
            iqfile._write_csv(path, ["a", "b"], cols)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _fd_count() == fds
        # the old file is kept, and the new one beside it removed
        assert path.read_bytes() == _OLD_CSV
        assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_failing_csv_parent_kills_its_children(tmp_path, forks, monkeypatch):
    forks(3)
    text = iqfile._csv_text
    plain, mirror = np.arange(9.0), np.arange(-4.0, 5.0)
    for cols, parent_lo in [([plain], 0), ([mirror], 4)]:
        def failing_in_the_parent(cols, lo, hi):
            if lo == parent_lo:
                raise KeyboardInterrupt
            return text(cols, lo, hi)

        monkeypatch.setattr(iqfile, "_csv_text", failing_in_the_parent)
        fds = _fd_count()
        path = tmp_path / "out.csv"
        path.write_bytes(_OLD_CSV)
        with pytest.raises(KeyboardInterrupt):
            iqfile._write_csv(path, ["a"], cols)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert _fd_count() == fds
        assert path.read_bytes() == _OLD_CSV
        assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_write_csv_writes_into_a_fifo_and_leaves_it_in_place(tmp_path):
    # a FIFO (as /dev/stdout can be) holds no old file to keep: it is
    # written to, never replaced by a regular file
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cols = [np.arange(-2.0, 3.0), np.arange(5)]
    iqfile._write_csv(fifo, ["x", "k"], cols)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [_csv_reference(cols, ["x", "k"])]
    assert stat.S_ISFIFO(fifo.stat().st_mode) and os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_write_iq_writes_a_float32_capture_into_a_fifo(tmp_path, monkeypatch):
    # a FIFO has no offsets to write at: its blocks go in order, from the
    # calling thread, and make the bytes of the regular file, whose blocks
    # are still written at their offsets on every CPU
    monkeypatch.setattr(params, "_cpu_count", lambda: 3)
    map_chunks, passes = iqfile._map_chunks, []

    def recording_map_chunks(fn, spans):
        passes.append(len(spans))
        return map_chunks(fn, spans)

    monkeypatch.setattr(iqfile, "_map_chunks", recording_map_chunks)
    iq = modulate(LoraParams(7, 125e3), list(range(128)) * 4 + list(range(88)), oversample=4)
    assert len(iq) == 600 * 512 and len(iq) > 4 * params._BLOCK_SAMPLES
    write_iq(iq, tmp_path / "file.iq")
    assert passes == [5]
    fifo = tmp_path / "fifo.iq"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_iq(iq, fifo)
    reader.join(timeout=10)
    assert not reader.is_alive() and got == [(tmp_path / "file.iq").read_bytes()]
    assert passes == [5]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo.iq", "fifo.iq.json", "file.iq", "file.iq.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_read_iq_rejects_a_float32_capture_that_is_not_a_regular_file(tmp_path, iq, capsys):
    # a FIFO's size reads 0 and it has no offsets, so the lazy reader would
    # see no samples; it is turned away before the open, which would wait
    # for a writer (one is held open here, so that no version hangs)
    path, fifo = tmp_path / "sig.iq", tmp_path / "fifo.iq"
    write_iq(iq, path)
    os.mkfifo(fifo)
    sidecar = str(path) + ".json"
    writer = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    try:
        with pytest.raises(ValueError, match=rf"^IQ capture {re.escape(str(fifo))} is not a "
                                             r"regular file"):
            read_iq(fifo, header_path=sidecar)
        assert main(["demod", "--sf", "5", "--bw", "32", "--in", str(fifo),
                     "--header", sidecar]) == 1
    finally:
        os.close(writer)
    assert re.match(rf"^error: IQ capture {re.escape(str(fifo))} is not a regular file",
                    capsys.readouterr().err)
    # a regular file behind /dev/stdin is read as any other
    code = "import sys, lorachirp; print(len(lorachirp.read_iq('/dev/stdin', sys.argv[1])))"
    env = {**os.environ, "PYTHONPATH": str(Path(iqfile.__file__).parents[1])}
    with path.open("rb") as stdin:
        run = subprocess.run([sys.executable, "-c", code, sidecar], stdin=stdin, env=env,
                             capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, f"{len(iq)}\n"), run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_an_output_on_stdout_carries_no_report(tmp_path):
    # with stdout piped, an output path /dev/stdout is the pipe: the report
    # goes to stderr, so the piped capture has the regular file's bytes and
    # the piped CSV those of the regular CSV, with no JSON after its rows
    env = {**os.environ, "PYTHONPATH": str(Path(iqfile.__file__).parents[1])}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "lorachirp", *argv], cwd=tmp_path, env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done

    mod = ["modulate", "--sf", "7", "--bw", "125e3", "--symbols", "1,2,3"]
    assert json.loads(run(*mod, "--out", "file.iq").stdout)["out"] == "file.iq"
    piped = run(*mod, "--out", "/dev/stdout", "--header", "piped.json")
    assert piped.stdout == (tmp_path / "file.iq").read_bytes()
    assert json.loads(piped.stderr)["out"] == "/dev/stdout"
    welch = ["welch", "--in", "file.iq", "--segment", "16"]
    run(*welch, "--out", "file.csv")
    piped = run(*welch, "--out", "/dev/stdout")
    assert piped.stdout == (tmp_path / "file.csv").read_bytes()
    assert json.loads(piped.stderr) == {"out": "/dev/stdout", "grid_points": 16}
    # a path that does not exist is no stdout
    assert not cli._is_stdout(tmp_path / "missing")


def test_write_csv_does_not_fork_on_one_cpu_or_beside_a_thread(tmp_path, forks, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    cols = [np.arange(10.0), np.arange(10)]
    expected = _csv_text([], ["a", "b"], [(repr(float(i)), repr(i)) for i in range(10)])
    forks(1)
    monkeypatch.setattr(os, "fork", no_fork)
    iqfile._write_csv(tmp_path / "one_cpu.csv", ["a", "b"], cols)
    assert (tmp_path / "one_cpu.csv").read_bytes() == expected
    forks(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        iqfile._write_csv(tmp_path / "threaded.csv", ["a", "b"], cols)
    finally:
        release.set()
        thread.join()
    assert (tmp_path / "threaded.csv").read_bytes() == expected


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_write_csv_holds_no_whole_column_as_python_objects(tmp_path, monkeypatch, n_cpus):
    # a plain table, and a mirror table of 2^17 + 1 rows whose rows before
    # the middle are copied from the text of their mirror rows
    monkeypatch.setattr(params, "_cpu_count", lambda: n_cpus)
    n, k = 1 << 17, np.arange(-(1 << 16), (1 << 16) + 1)
    tables = [[np.linspace(-1e6, 1e6, n), np.random.default_rng(1).random(n), np.arange(n) / 7],
              [k * 976.5625, 1.0 / (1 + k * k), np.abs(k) / 7]]
    assert iqfile._mirrored(tables[1])
    for cols in tables:
        tracemalloc.start()
        try:
            iqfile._write_csv(tmp_path / "big.csv", ["a", "b", "c"], cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # three whole-column lists of Python floats would take about 12 MB
        assert peak < 1 << 20
        with (tmp_path / "big.csv").open() as fh:
            assert sum(1 for _ in fh) == len(cols[0]) + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_cli_spectrum_bytes_are_the_same_forked_and_inline(tmp_path, capsys, monkeypatch):
    # SF 7's default grid has 131 073 rows: two or more parts on 2+ CPUs
    out = {}
    for n_cpus in (1, 2):
        monkeypatch.setattr(params, "_cpu_count", lambda: n_cpus)
        psd, lines = tmp_path / f"psd{n_cpus}.csv", tmp_path / f"lines{n_cpus}.csv"
        assert main(["spectrum", "--sf", "7", "--bw", "125e3",
                     "--out-psd", str(psd), "--out-lines", str(lines)]) == 0
        out[n_cpus] = psd.read_bytes(), lines.read_bytes()
    capsys.readouterr()
    assert out[1][0].count(b"\r\n") == 131_074
    assert out[1] == out[2]


def test_cli_spectrum_has_no_method_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--sf", "3", "--bw", "1.0", "--method", "dft",
              "--out-psd", str(tmp_path / "psd.csv"),
              "--out-lines", str(tmp_path / "lines.csv")])
    assert exc.value.code == 2
    assert "--method" in capsys.readouterr().err


_BINNED = ["# delta_f_hz=1000.0", "# ps_dbm=14.0", "bin_center_hz,power_dbm",
           "0.0,-10.0", "1000.0,-20.0"]


@pytest.mark.parametrize("line,text,message", [
    (None, None, None),
    (4, "1000.0", "at line 5: expected 2 fields"),
    (3, "0.0,nan", "line 4: power_dbm must be a finite number"),
    (4, "inf,-20.0", "line 5: bin_center_hz must be a finite number"),
    (3, "0.0,low", "line 4: power_dbm must be a finite number"),
    (0, "# delta_f_hz=nan", "delta_f_hz must be a finite number"),
    (1, "# ps_dbm=-inf", "ps_dbm must be a finite number")],
    ids=["valid", "short-row", "nan-level", "inf-center", "text-level", "nan-delta-f",
         "inf-ps-dbm"])
def test_cli_mask_check_validates_binned_csv(tmp_path, capsys, line, text, message):
    rows = list(_BINNED)
    if line is not None:
        rows[line] = text
    binned_csv = tmp_path / "binned.csv"
    binned_csv.write_text("\n".join(rows) + "\n")
    rc = main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6",
               "--spectrum-csv", str(binned_csv)])
    out, err = capsys.readouterr()
    if message is None:
        # read whole: a verdict, failed as incomplete, since four of the
        # mask's five segments have no bin in this two-bin spectrum
        assert rc == 2 and err == ""
        doc = json.loads(out)
        assert doc["complete"] is False
        assert [s["n_bins"] for s in doc["segments"]] == [0, 0, 2, 0, 0]
    else:
        assert rc == 1
        assert message in err


def _spoil_one_sample(path, fmt, bad=(np.nan,)):
    """Write the values `bad` into the capture from the third sample on."""
    if fmt == "csv":
        rows = path.read_text().splitlines()
        for i, value in enumerate(bad):
            rows[3 + i] = f"{value},0.0"
        path.write_text("\n".join(rows) + "\n")
    else:
        raw = np.fromfile(path, dtype="<f4")
        raw[5:5 + len(bad)] = bad
        raw.tofile(path)


@pytest.mark.parametrize("fmt, message", [("interleaved-f32-le", "NaN or infinite"),
                                          ("csv", "line 4: i must be a finite number")],
                         ids=["interleaved-f32-le", "csv"])
def test_read_iq_rejects_non_finite_samples(tmp_path, iq, fmt, message):
    path = tmp_path / "sig.iq"
    # +inf with -inf must not turn the float32 check into a RuntimeWarning
    for bad in [(np.nan,), (np.inf, -np.inf), (-np.inf,)]:
        write_iq(iq, path, fmt=fmt)
        _spoil_one_sample(path, fmt, bad)
        with pytest.raises(ValueError, match=message):
            read_iq(path)


def _read_as_capture(path, capsys):
    """read_iq on the CSV capture at path: its samples, or its error text."""
    path.with_name(path.name + ".json").write_text('{"format": "csv", "fs_hz": 1.0}')
    try:
        return read_iq(path).samples
    except ValueError as exc:
        return str(exc)


def _read_as_binned(path, capsys):
    """mask-check --spectrum-csv on path: the n_bins of the verdict, or the
    error text of an exit 1."""
    rc = main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6",
               "--spectrum-csv", str(path)])
    out, err = capsys.readouterr()
    if rc == 1:
        return err
    assert rc == 2 and err == ""  # incomplete: four segments have no bin
    return [s["n_bins"] for s in json.loads(out)["segments"]]


# both callers of iqfile._read_csv: the header, the names of the columns
# and what a file of the rows "0.0,-10.0" and "1000.0,-20.0" reads as
_CSV_CALLERS = {
    "capture": (_read_as_capture, "i,q", ("i", "q"), np.array([-10j, 1000 - 20j])),
    "binned": (_read_as_binned, "bin_center_hz,power_dbm", ("bin_center_hz", "power_dbm"),
               [0, 0, 2, 0, 0]),
}


@pytest.mark.parametrize("case, messages", [
    ("valid", None),
    ("extra-field", ["malformed", "at line 7: expected 2 fields", "got 3"]),
    ("missing-header", ["must start with a header row", "after any '#' lines"]),
    ("comment-after-header", ["at line 7: expected 2 fields", "got 1: ['# late=1']"]),
    ("text-field", ["line 7: {1} must be a finite number, got 'low'"]),
    ("nan", ["line 7: {0} must be a finite number, got 'nan'"]),
    ("minus-inf", ["line 7: {1} must be a finite number, got '-inf'"]),
    # float() reads 131 072 digits as inf; the message quotes 64 characters
    ("huge-field", ["line 7: {1} must be a finite number, got '" + "1" * 63 + "... "
                    "(131074 characters)"])])
@pytest.mark.parametrize("caller", list(_CSV_CALLERS))
def test_both_csv_readers_parse_one_layout(tmp_path, capsys, caller, case, messages):
    read, header, names, expected = _CSV_CALLERS[caller]
    # leading '#' lines and blank rows anywhere are read past
    lines = ["# delta_f_hz=1000.0", "# ps_dbm=14.0", "", header, "0.0,-10.0", "", "1000.0,-20.0"]
    edits = {"extra-field": (6, "1000.0,-20.0,3.0"), "missing-header": (3, ""),
             "comment-after-header": (6, "# late=1"), "text-field": (6, "1000.0,low"),
             "nan": (6, "nan,-20.0"), "minus-inf": (6, "1000.0,-inf"),
             "huge-field": (6, "1000.0," + "1" * (1 << 17))}
    if case in edits:
        i, text = edits[case]
        lines[i] = text
    path = tmp_path / "in.csv"
    path.write_text("\r\n".join(lines) + "\r\n")
    got = read(path, capsys)
    if messages is None:
        np.testing.assert_array_equal(got, expected)
        return
    assert isinstance(got, str) and str(path) in got and len(got) < 1000
    for message in messages:
        assert message.format(*names) in got
    if case == "missing-header":
        assert f"'{header}'" in got


@pytest.mark.parametrize("content, message", [
    (b"i,q\r\n1.0,\xff\r\n", "'utf-8' codec can't decode"),
    (b"i,q\r\n1.0," + b"1" * ((1 << 17) + 1) + b"\r\n", "field larger than field limit")],
    ids=["not-utf8", "overlong-field"])
def test_read_csv_names_a_file_it_cannot_decode(tmp_path, capsys, content, message):
    path = tmp_path / "in.csv"
    path.write_bytes(content)
    got = _read_as_capture(path, capsys)
    assert got.startswith(f"malformed CSV IQ {path}: ") and message in got


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_write_csv_then_read_csv_is_bit_identical(tmp_path, forks, n_cpus):
    pids = forks(n_cpus)  # at 2 CPUs a child formats the second half
    rng = np.random.default_rng(3)
    a = np.concatenate([[-0.0, 5e-324, 1e308, -1e308], rng.standard_normal(1 << 17)])
    b = np.concatenate([[0.0, -5e-324, -0.0, 1.0], rng.random(1 << 17) * 1e-300])
    path = tmp_path / "out.csv"
    iqfile._write_csv(path, ["a", "b"], [a, b], comments=["x=1.5", "plain"])
    assert len(pids) == n_cpus - 1
    meta, cols = iqfile._read_csv(path, "test CSV", ["a", "b"])
    assert meta == {"x": "1.5", "plain": ""}
    for col, want in zip(cols, (a, b)):
        np.testing.assert_array_equal(col.view(np.int64), want.view(np.int64))
    # a capture keeps the sign of a zero I or Q
    samples = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324j])
    write_iq(IqBuffer(samples, fs=1.0), path, fmt="csv")
    np.testing.assert_array_equal(read_iq(path).samples.view(np.int64), samples.view(np.int64))


# a modulated stream at amplitude 1e40, beyond float32's 3.4e38
_HUGE = 1e40 * modulate(LoraParams(sf=5, b=32.0), [1, 2]).samples


# 2^128 - 2^103, halfway between FLT_MAX and 2^128: the smallest float64
# that rounds to a float32 infinity
_F32_HALFWAY = 2.0 ** 128 - 2.0 ** 103


@pytest.mark.parametrize("fmt, samples", [
    ("interleaved-f32-le", _HUGE), ("interleaved-f32-le", np.array([1.0, complex(0.0, -4e38)])),
    ("interleaved-f32-le", np.array([1.0, np.nan])),
    ("interleaved-f32-le", np.array([1.0, complex(np.nan, 0.0), 1.0])),
    ("interleaved-f32-le", np.array([_F32_HALFWAY, 1.0])),
    ("interleaved-f32-le", np.array([1.0, complex(0.0, -_F32_HALFWAY)])),
    ("interleaved-f32-le", np.array([complex(0.0, np.inf)])),
    ("interleaved-f32-le", np.array([complex(-np.inf, 1.0)])),
    ("csv", np.array([1.0, np.nan])), ("csv", np.array([np.inf, 1.0]))],
    ids=["huge-power", "q-beyond-float32", "nan", "i-nan", "halfway", "minus-halfway", "inf",
         "minus-inf", "csv-nan", "csv-inf"])
def test_write_iq_rejects_samples_its_capture_cannot_hold(tmp_path, fmt, samples):
    path = tmp_path / "sig.iq"
    with pytest.raises(ValueError, match=re.escape(f"cannot write IQ capture {path}:")):
        write_iq(IqBuffer(samples, fs=64.0), path, fmt=fmt)
    assert not path.exists() and not path.with_name("sig.iq.json").exists()


def test_write_iq_writes_every_value_that_narrows_to_a_finite_float32(tmp_path):
    flt_max = float(np.finfo(np.float32).max)
    below = np.nextafter(_F32_HALFWAY, 0.0)
    path = tmp_path / "sig.iq"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from the narrowing
        write_iq(IqBuffer(np.array([complex(flt_max, -flt_max), complex(below, -below)]),
                          fs=1.0), path)
    np.testing.assert_array_equal(np.fromfile(path, dtype="<f4"), [flt_max, -flt_max] * 2)


def test_cli_modulate_exits_1_when_the_capture_cannot_hold_the_samples(tmp_path, capsys,
                                                                       monkeypatch):
    real_modulate = cli.modulate
    monkeypatch.setattr(cli, "modulate", lambda *args, **kwargs: IqBuffer(
        1e40 * real_modulate(*args, **kwargs).samples, fs=32.0))
    path = tmp_path / "sig.iq"
    rc = main(["modulate", "--sf", "5", "--bw", "32", "--symbols", "1,2", "--out", str(path)])
    assert rc == 1
    assert f"cannot write IQ capture {path}" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("command", [["welch", "--segment", "16"],
                                     ["demod", "--sf", "5", "--bw", "32"]],
                         ids=["welch", "demod"])
def test_cli_rejects_capture_with_nan(tmp_path, capsys, iq, command):
    path = tmp_path / "sig.iq"
    write_iq(iq, path)
    _spoil_one_sample(path, "interleaved-f32-le")
    out = tmp_path / "out.csv"
    rc = main([command[0], "--in", str(path), "--out", str(out), *command[1:]])
    assert rc == 1
    assert f"IQ capture {path} holds NaN or infinite samples" in capsys.readouterr().err
    assert not out.exists()


def test_cli_exits_1_without_a_traceback_when_memory_runs_out(tmp_path, capsys):
    # the sample times alone would take 90.9 PiB
    path = tmp_path / "x.iq"
    assert main(["modulate", "--sf", "7", "--bw", "125e3", "--symbols", "1",
                 "--oversample", "100000000000000", "--out", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not path.exists()


def test_cli_errors_are_nonzero(tmp_path, capsys):
    assert main(["demod", "--sf", "7", "--bw", "125e3",
                 "--in", str(tmp_path / "missing.iq")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["modulate", "--sf", "99", "--bw", "125e3", "--symbols", "1",
                 "--out", str(tmp_path / "x.iq")]) == 1
    with pytest.raises(SystemExit):
        main(["frobnicate"])
