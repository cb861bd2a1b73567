import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lorachirp import (IqBuffer, LoraParams, SpectrumResult, awgn, binned_power,
                       correlation_matrix, fresnel_spectrum, modulate, read_header,
                       read_iq, write_iq)
from lorachirp import cli
from lorachirp.cli import example_mask_path, main
from lorachirp.analysis import MaskSpec
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
    with pytest.raises(ValueError, match="fs_hz"):
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


def test_cli_mask_check_bins_line_power_out_to_8b(tmp_path, capsys):
    # the mask-check grid spans |f| <= 8B; lines between 4B and 8B count
    p = LoraParams(sf=7, b=125e3)
    binned_csv = tmp_path / "binned.csv"
    main(["mask-check", "--mask", str(example_mask_path()), "--f0", "868.3e6",
          "--sf", "7", "--bw", "125e3", "--ps-dbm", "14", "--out-binned", str(binned_csv)])
    capsys.readouterr()
    got = np.loadtxt(binned_csv, delimiter=",", comments="#", skiprows=3)

    res = fresnel_spectrum(p, f_max=8.0 * p.b, step=p.b / (4 * p.m))
    n = np.arange(-8 * p.m, 8 * p.m + 1)
    _, sum_x = transform_sums_loop(p, n * p.b / p.m)
    lines = np.column_stack([n * p.b / p.m, np.abs(sum_x) ** 2 / (p.ts * p.m) ** 2])
    ref = {n_max: binned_power(SpectrumResult(res.grid, res.continuous,
                                              lines[np.abs(n) <= n_max], p),
                               delta_f=1000.0, ps_dbm=14.0)
           for n_max in (4 * p.m, 8 * p.m)}
    np.testing.assert_array_equal(got[:, 0], ref[8 * p.m].bin_centers)
    outer = np.abs(got[:, 0]) > 4 * p.b
    assert np.max(np.abs(got[outer, 1] - ref[8 * p.m].bin_power_dbm[outer])) < 1e-9
    # without the lines beyond 4B those bins read visibly low
    assert np.max(ref[8 * p.m].bin_power_dbm[outer]
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


@pytest.mark.parametrize("ps_dbm", [None, 14.0])
def test_cli_spectrum_csv_bytes(tmp_path, capsys, ps_dbm):
    # every number is the repr of a float computed one grid point at a time
    psd, lines = tmp_path / "psd.csv", tmp_path / "lines.csv"
    argv = ["spectrum", "--sf", "3", "--bw", "125e3",
            "--out-psd", str(psd), "--out-lines", str(lines)]
    if ps_dbm is not None:
        argv += ["--ps-dbm", str(ps_dbm)]
    assert main(argv) == 0
    capsys.readouterr()
    res = fresnel_spectrum(LoraParams(sf=3, b=125e3))
    scale = 10.0 ** (ps_dbm / 10.0) if ps_dbm is not None else 1.0
    unit = "mw" if ps_dbm is not None else "fraction"
    assert psd.read_bytes() == _csv_text(
        ["sf=3 bw_hz=125000.0",
         "psd_db_rel_b = 10*log10(Gc(f)*B) of the unit-power envelope"],
        ["frequency_hz", f"psd_{unit}_per_hz", "psd_db_rel_b"],
        [(repr(float(f)), repr(float(g * scale)),
          repr(float(10 * np.log10(max(g * 125e3, 1e-30)))))
         for f, g in zip(res.grid, res.continuous)])
    assert lines.read_bytes() == _csv_text(
        ["sf=3 bw_hz=125000.0"], ["frequency_hz", f"power_{unit}"],
        [(repr(float(f)), repr(float(pw * scale))) for f, pw in res.lines])


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
    (4, "1000.0", "line 5: need bin_center_hz,power_dbm"),
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
    err = capsys.readouterr().err
    if message is None:
        assert rc == 0
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


@pytest.mark.parametrize("fmt", ["interleaved-f32-le", "csv"])
def test_read_iq_rejects_non_finite_samples(tmp_path, iq, fmt):
    path = tmp_path / "sig.iq"
    # +inf with -inf must not turn the float32 check into a RuntimeWarning
    for bad in [(np.nan,), (np.inf, -np.inf), (-np.inf,)]:
        write_iq(iq, path, fmt=fmt)
        _spoil_one_sample(path, fmt, bad)
        with pytest.raises(ValueError, match="NaN or infinite"):
            read_iq(path)


_HUGE = modulate(LoraParams(sf=5, b=32.0, ps=1e80), [1, 2]).samples


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
    monkeypatch.setattr(cli, "_params", lambda args: LoraParams(sf=args.sf, b=args.bw, ps=1e80))
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
