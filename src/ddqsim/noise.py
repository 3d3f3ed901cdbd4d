"""Frequency-noise processes and path synthesis.

A `NoiseProcess` describes fluctuations of the transition frequencies in Hz:
white FM with a one-sided PSD ``S_f`` (Hz^2/Hz), 1/f noise with amplitude
``A`` (Hz^2 at 1 Hz), or a two-state telegraph toggling +-excursion/2 at a
given switching rate. A process couples either to both modes (``common``,
with per-mode weights) or to a single mode (``differential_D`` /
``differential_Q``).

Durations and sample steps at the API are in microseconds (the simulation
time unit); amplitudes refer to physical Hz/seconds, so the synthesis
converts internally.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError

KINDS = ("white", "one_over_f", "telegraph")
COUPLINGS = ("common", "differential_D", "differential_Q")


@dataclass(frozen=True)
class NoiseProcess:
    """One frequency-noise generator.

    amplitude: white -> S_f [Hz^2/Hz]; one_over_f -> A [Hz^2 at 1 Hz];
    telegraph -> peak-to-peak frequency excursion [Hz].
    switching_rate_hz: telegraph only, expected switches per second.
    quasistatic: freeze one sample per shot instead of a full path
    (inhomogeneous-broadening regime).
    persistent: campaign-level flag; the process state is carried across
    traces in virtual time instead of being resampled per shot.
    """

    kind: str
    amplitude: float
    coupling: str = "common"
    switching_rate_hz: float = 0.0
    w_D: float = 1.0
    w_Q: float = 1.0
    quasistatic: bool = False
    persistent: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.coupling not in COUPLINGS:
            raise ValueError(f"coupling must be one of {COUPLINGS}")
        for name in ("amplitude", "switching_rate_hz", "w_D", "w_Q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("quasistatic", "persistent"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.kind == "telegraph" and not self.switching_rate_hz > 0:
            raise ValueError("telegraph switching rate must be > 0")

    def mode_weight(self, mode: str) -> float:
        """Coupling weight of this process onto one mode's frequency."""
        if self.coupling == "common":
            return self.w_D if mode == "D" else self.w_Q
        if self.coupling == f"differential_{mode}":
            return 1.0
        return 0.0

    def differential_weight(self) -> float:
        """Weight onto the encoded-qubit detuning, delta_f_Q - delta_f_D."""
        return self.mode_weight("Q") - self.mode_weight("D")

    def to_dict(self) -> dict:
        return asdict(self)


def noise_processes(specs, source: str) -> list:
    """The processes of a JSON noise list, each a dict of `NoiseProcess`
    fields or a process; anything else is a ConfigError naming
    ``source``."""
    try:
        return [p if isinstance(p, NoiseProcess) else NoiseProcess(**p)
                for p in specs]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise process in {source}: {exc}") from exc


def white_from_normals(z: np.ndarray, dt_s: float, s_f: float) -> np.ndarray:
    """Scale standard normals to white FM samples with one-sided PSD s_f."""
    return z * math.sqrt(0.5 * s_f / dt_s)


def one_over_f_from_normals(za: np.ndarray, zb: np.ndarray, n: int,
                            dt_s: float, a_1hz: float) -> np.ndarray:
    """Shape white spectra into 1/f-noise paths.

    ``za``/``zb`` are (..., n//2 + 1) standard normals (real/imag spectrum
    parts). The synthesized one-sided PSD is A/f on the resolvable band; the
    DC bin is zeroed, which acts as the low-frequency cutoff at 1/duration.
    """
    nf = n // 2 + 1
    freqs = np.fft.rfftfreq(n, d=dt_s)
    target = np.zeros(nf)
    target[1:] = a_1hz / freqs[1:]
    # E|Y_k|^2 = n * S(f_k) / (2 dt) makes the periodogram match S.
    scale = np.sqrt(n * target / (2.0 * dt_s))
    spec = (za + 1j * zb) * (scale / math.sqrt(2.0))
    spec[..., 0] = 0.0
    if n % 2 == 0:
        spec[..., -1] = za[..., -1] * scale[-1]
    return np.fft.irfft(spec, n=n, axis=-1)


def telegraph_from_uniforms(u: np.ndarray, dt_s: float, excursion_hz: float,
                            rate_hz: float) -> np.ndarray:
    """Two-state telegraph paths from uniforms.

    ``u[..., 0]`` picks the initial sign; each subsequent column toggles the
    state with probability 1 - exp(-rate*dt) (at most one switch per step, so
    dt should resolve the switching rate).
    """
    p_switch = 1.0 - math.exp(-rate_hz * dt_s)
    start = np.where(u[..., 0] < 0.5, 1.0, -1.0)
    toggles = (u[..., 1:] < p_switch).astype(np.int64)
    flips = np.cumsum(toggles, axis=-1)
    states = np.empty_like(u)
    states[..., 0] = start
    states[..., 1:] = start[..., None] * np.where(flips % 2 == 0, 1.0, -1.0)
    return states * (0.5 * excursion_hz)


def marginal_std(proc: NoiseProcess, duration_us: float, dt_us: float) -> float:
    """RMS of a single path sample, used for quasistatic (frozen) sampling."""
    dt_s = dt_us * 1e-6
    if proc.kind == "white":
        return math.sqrt(0.5 * proc.amplitude / dt_s)
    if proc.kind == "telegraph":
        return 0.5 * proc.amplitude
    n = max(2, int(round(duration_us / dt_us)))
    freqs = np.fft.rfftfreq(n, d=dt_s)[1:]
    df = freqs[0]
    return float(np.sqrt(np.sum(proc.amplitude / freqs) * df))


def synthesize_noise(proc: NoiseProcess, duration_us: float, dt_us: float,
                     seed: int) -> np.ndarray:
    """Sample one frequency-offset path (Hz per sample).

    Deterministic given (proc, seed). The path has
    ``round(duration_us/dt_us)`` samples at spacing dt_us.
    """
    if dt_us <= 0:
        raise ValueError("dt must be > 0")
    if duration_us < dt_us:
        raise ValueError("duration must be >= dt")
    n = int(round(duration_us / dt_us))
    dt_s = dt_us * 1e-6
    rng = np.random.default_rng(seed)
    if proc.amplitude == 0:
        return np.zeros(n)
    if proc.kind == "white":
        return white_from_normals(rng.standard_normal(n), dt_s, proc.amplitude)
    if proc.kind == "one_over_f":
        nf = n // 2 + 1
        return one_over_f_from_normals(rng.standard_normal(nf),
                                       rng.standard_normal(nf),
                                       n, dt_s, proc.amplitude)
    return telegraph_from_uniforms(rng.random(n), dt_s, proc.amplitude,
                                   proc.switching_rate_hz)
