"""Analysis settings shared by the waveform and feature operations."""

from dataclasses import dataclass


@dataclass
class DspConfig:
    sample_rate: int = 24000
    fft_size: int = 1024
    window_size: int = 1024
    hop_size: int = 256
    n_mels: int = 80
    fmin: float = 80.0
    fmax: float = 7600.0
    cepstral_order: int = 39
    trim_threshold_db: float = -40.0
    trim_frame_ms: float = 25.0
    noise_gate_db: float = 6.0
    noise_floor_quantile: float = 0.10
    noise_attenuation_db: float = -30.0

    def __post_init__(self):
        if not (0 < self.hop_size <= self.window_size <= self.fft_size):
            raise ValueError("need 0 < hop_size <= window_size <= fft_size")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.n_mels < 2:
            raise ValueError("n_mels must be at least 2")
        if not (0 <= self.cepstral_order < self.n_mels):
            raise ValueError("cepstral_order must be in [0, n_mels)")
        if not self.trim_threshold_db < 0:
            raise ValueError("trim_threshold_db must be negative")
        if not self.trim_frame_ms > 0:
            raise ValueError("trim_frame_ms must be positive")
        if not (0 < self.noise_floor_quantile <= 1):
            raise ValueError("noise_floor_quantile must be in (0, 1]")
        # reduce_noise floors the noise floor at 1e-10 of the peak
        # magnitude, so a gate of 200 dB or more opens no bin
        if not self.noise_gate_db <= 200:
            raise ValueError("noise_gate_db must be at most 200")
        # a positive attenuation is clipped back to a gain of 1
        if not self.noise_attenuation_db <= 0:
            raise ValueError("noise_attenuation_db must be at most 0")
