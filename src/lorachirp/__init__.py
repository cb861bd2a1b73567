"""Frequency-shift chirp modulation toolbox: waveforms, chip-rate
receiver, closed-form cross-correlations and exact power spectra.

`import lorachirp` loads none of its submodules.  Each public name is
looked up in the submodule that defines it (PEP 562), which is imported
on first use, so a caller pays only for the submodules it touches: the shipped mask, for
one, needs `analysis`, `correlation` and `params`, not the receiver, the
IQ file layer or the spectrum engine.  The package never keeps a copy of
a name: `lorachirp.modulate` is always `lorachirp.waveform.modulate` as
that module binds it now.
"""
import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys([
        "BinnedSpectrum", "MaskReport", "MaskSegment", "MaskSpec", "TableRow",
        "bin_estimate", "binned_power", "bit_rate", "mask_check",
        "occupied_bandwidth", "reproduce_table", "spectral_efficiency",
        "welch_psd"], "analysis"),
    **dict.fromkeys([
        "MaxCorrelation", "correlation_bound", "correlation_matrix",
        "cross_correlation", "max_cross_correlation", "orthogonality_offsets",
        "real_orthogonality_condition"], "correlation"),
    **dict.fromkeys(["IqFileHeader", "read_header", "read_iq", "write_iq"], "iqfile"),
    **dict.fromkeys(["IqBuffer", "LoraParams", "Symbol", "validate_symbol"], "params"),
    **dict.fromkeys(["awgn", "dechirp", "demodulate_stream"], "receiver"),
    **dict.fromkeys(["SpectrumResult", "fresnel_spectrum", "w_integral",
                     "waveform_fourier_transform"], "spectrum"),
    **dict.fromkeys([
        "instantaneous_frequency", "mean_envelope_magnitude", "modulate",
        "payload_to_symbols", "phase", "waveform_at"], "waveform"),
}
_SUBMODULES = ("analysis", "cli", "correlation", "iqfile", "params", "receiver",
               "spectrum", "waveform")

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCES:
        # not cached here: the defining module's binding is the one answer
        return getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SOURCES, *_SUBMODULES})
