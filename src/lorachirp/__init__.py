"""Frequency-shift chirp modulation toolbox: waveforms, chip-rate
receiver, closed-form cross-correlations and exact power spectra."""

from .analysis import (BinnedSpectrum, MaskReport, MaskSegment, MaskSpec,
                       TableRow, bin_estimate, binned_power, bit_rate,
                       mask_check, occupied_bandwidth, reproduce_table,
                       spectral_efficiency, welch_psd)
from .correlation import (MaxCorrelation, correlation_bound,
                          correlation_matrix, cross_correlation,
                          max_cross_correlation, orthogonality_offsets,
                          real_orthogonality_condition, snr_penalty_db)
from .iqfile import IqFileHeader, read_header, read_iq, write_iq
from .params import IqBuffer, LoraParams, Symbol, validate_symbol
from .receiver import awgn, dechirp, demodulate_stream
from .spectrum import (SpectrumResult, discrete_spectrum_lines,
                       fresnel_spectrum, psd_via_dft, w_integral,
                       waveform_fourier_transform)
from .waveform import (instantaneous_frequency, mean_envelope_magnitude,
                       modulate, payload_to_symbols, phase, waveform_at)

__version__ = "0.1.0"

__all__ = [
    "BinnedSpectrum", "IqBuffer", "IqFileHeader", "LoraParams",
    "MaskReport", "MaskSegment", "MaskSpec", "MaxCorrelation",
    "SpectrumResult", "Symbol", "TableRow", "awgn", "bin_estimate",
    "binned_power", "bit_rate", "correlation_bound",
    "correlation_matrix", "cross_correlation", "dechirp",
    "demodulate_stream", "discrete_spectrum_lines", "fresnel_spectrum",
    "instantaneous_frequency", "mask_check", "max_cross_correlation",
    "mean_envelope_magnitude", "modulate", "occupied_bandwidth",
    "orthogonality_offsets", "payload_to_symbols", "phase", "psd_via_dft",
    "read_header", "read_iq", "real_orthogonality_condition",
    "reproduce_table", "snr_penalty_db", "spectral_efficiency",
    "validate_symbol", "w_integral", "waveform_at",
    "waveform_fourier_transform", "welch_psd", "write_iq",
]
