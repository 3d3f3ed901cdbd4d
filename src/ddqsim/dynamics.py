"""Population and phase dynamics of the six-level dimon ladder.

Populations evolve as a continuous-time Markov jump process over the six
ladder states; coherence is carried by a scalar stochastic phase accumulated
per delay segment from frequency noise. An exact matrix-exponential
propagator builds the jump sampler's per-segment outcome tables and is the
oracle the sampler is checked against; the tests check the exponential
itself against SciPy's.

Rates are in 1/us, delays in us. The rate matrix is a generator in the
column convention: R[i, j] is the rate from state j to state i for i != j
and each column sums to zero, so p(t) = expm(R t) @ p(0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import streams
from .device import DeviceParams, DimonLevel, LEVEL_ORDER
from .errors import SequenceError
from .noise import marginal_std

DEFAULT_DETUNING_KHZ = 75.0
DEFAULT_NOISE_DT_US = 0.5

N_LEVELS = len(LEVEL_ORDER)
_MN = [(lv.m, lv.n) for lv in LEVEL_ORDER]
_INDEX = {mn: i for i, mn in enumerate(_MN)}

IDX_00 = _INDEX[(0, 0)]
IDX_01 = _INDEX[(0, 1)]
IDX_10 = _INDEX[(1, 0)]

# Pole pairs of the prepared superpositions: (plus pole, minus pole). The
# projection gate sends a shot to the plus pole with probability
# (1 + cos(phi - phi_p))/2.
_PAIRS = {
    "+": (IDX_10, IDX_01),          # |0>_L, |1>_L
    "+D": (IDX_10, IDX_00),
    "+Q": (IDX_01, IDX_00),
}


def build_rate_matrix(params: DeviceParams) -> np.ndarray:
    """Markov generator of the six-level ladder.

    Single-step transitions only: each mode loses one excitation at
    n * Gamma_mode downward and gains one at (n+1) * n_th * Gamma_mode upward
    (levels outside the six-state ladder are truncated). There is no direct
    |01> <-> |10> channel: that move changes both modes at once.
    """
    rates = np.zeros((N_LEVELS, N_LEVELS))
    modes = ((1.0 / params.T1_D_us, params.n_th_D),
             (1.0 / params.T1_Q_us, params.n_th_Q))
    for j, (m, n) in enumerate(_MN):
        for k, (gam, nth) in enumerate(modes):
            occ = (m, n)[k]
            # mode k loses one excitation, or gains one
            for move, rate in ((-1, occ * gam), (1, (occ + 1) * nth * gam)):
                i = _INDEX.get((m + move * (k == 0), n + move * (k == 1)))
                if i is not None:
                    rates[i, j] = rate
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    return rates


# [13/13] Pade numerator coefficients b_0..b_13, and theta_13, the 1-norm up
# to which that approximant is exact in double precision (Higham, SIAM J.
# Matrix Anal. Appl. 26, 1179, 2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the [13/13] Pade
    approximant: exp(A) = r(A / 2^s)^(2^s), with the fewest squarings s
    that bring the 1-norm of A / 2^s down to theta_13."""
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(a))
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def propagate_exact(rate_matrix: np.ndarray, p0, t_us: float) -> np.ndarray:
    """Exact level populations exp(R t) @ p0, by `_expm`: the oracle the
    jump sampler is checked against. The sampler's `_segment_table` reads
    the same `_expm`, which the tests check against SciPy's."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (N_LEVELS,):
        raise ValueError(f"p0 must have shape ({N_LEVELS},)")
    if np.any(p0 < -1e-12) or abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("p0 is not a probability vector")
    if t_us < 0:
        raise ValueError("t must be >= 0")
    p = _expm(rate_matrix * t_us) @ p0
    return np.clip(p, 0.0, None)


# --------------------------------------------------------------------------
# Pulse sequences

_LEVELS = tuple(lv.label for lv in LEVEL_ORDER)
# the prepare labels each kind takes: bit-flip and T1 prepare a level, the
# logical phase kinds "+" and the physical-mode ones "+D" or "+Q"
_PREPARE_LABELS = {"bitflip": _LEVELS, "hahn_echo": ("+",), "ramsey": ("+",),
                   "phys_t1": _LEVELS, "phys_echo": ("+D", "+Q"),
                   "phys_ramsey": ("+D", "+Q")}
SEQUENCE_KINDS = tuple(_PREPARE_LABELS)
LEVEL_KINDS = ("bitflip", "phys_t1")
ECHO_KINDS = ("hahn_echo", "phys_echo")


@dataclass(frozen=True)
class PulseSequence:
    """One experiment: prepare, wait, optionally refocus, optionally project.

    ``prepare`` is the trace init label: a level ("00".."20") for the level
    kinds, which neither refocus nor project; "+" for the logical
    superposition; "+D"/"+Q" for the superposition of one mode's excited
    level with |00>. Echo kinds split ``delay_us`` into two equal halves
    around one refocusing pi pulse. The phase kinds end in a projection at
    ``project_rad``, which advances at ``detuning_khz`` for the Ramsey kinds.
    """

    kind: str
    prepare: str
    delay_us: float
    detuning_khz: float = DEFAULT_DETUNING_KHZ

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise SequenceError(f"unknown experiment kind {self.kind!r}")
        if self.prepare not in _PREPARE_LABELS[self.kind]:
            raise SequenceError(f"{self.kind} cannot prepare {self.prepare!r}")
        if not (math.isfinite(self.delay_us) and
                math.isfinite(self.detuning_khz)):
            raise SequenceError("delay and detuning must be finite")
        if self.delay_us < 0:
            raise SequenceError("negative delay")

    @property
    def segments_us(self) -> tuple:
        """Delay segments in order; echo halves sit around the pi pulse."""
        if self.kind in ECHO_KINDS:
            half = 0.5 * self.delay_us
            return (half, half)
        return (self.delay_us,)

    @property
    def project_rad(self) -> float | None:
        """Phase of the final projection, None for the level kinds."""
        if self.kind in LEVEL_KINDS:
            return None
        if self.kind in ECHO_KINDS:
            return 0.0
        # virtual detuning: the projection phase advances as 2 pi df dt
        return 2.0 * math.pi * self.detuning_khz * 1e-3 * float(self.delay_us)


@dataclass
class ShotBatch:
    """Final state of a batch of simulated shots."""

    levels: np.ndarray      # (n,) indices into LEVEL_ORDER
    phase_rad: np.ndarray   # (n,) accumulated pair phase
    erased: np.ndarray      # (n,) final level is |00>
    jumped: np.ndarray      # (n,) at least one jump occurred

    def level_fractions(self) -> np.ndarray:
        return np.bincount(self.levels, minlength=N_LEVELS) / len(self.levels)

    def counts(self) -> np.ndarray:
        return np.bincount(self.levels, minlength=N_LEVELS)


@functools.lru_cache(maxsize=1024)
def _segment_table(params: DeviceParams, seg_us: float) -> np.ndarray:
    """Read-only cumulative outcome probabilities of one delay segment.

    Row s starts in level s: outcome 0 is "no jump", exp(-lambda_s t);
    outcome 1 + d is "jumped, ended in d", expm(R t)[d, s] - delta_sd
    exp(-lambda_s t) (the Markov property). Negative rounding is clipped
    to 0 and rows end at exactly 1, so a level with no exit, and a 0 us
    segment, never jump.
    """
    rate_matrix = build_rate_matrix(params)
    stay = [math.exp(seg_us * rate) for rate in np.diag(rate_matrix)]
    mass = _expm(rate_matrix * seg_us).T
    mass[np.diag_indices(N_LEVELS)] -= stay
    table = np.minimum(np.cumsum(np.column_stack(
        [stay, np.clip(mass, 0.0, None)]), axis=1), 1.0)
    table[:, -1] = 1.0
    table.flags.writeable = False
    return table


def _jump_segment(states, jumped, key, shot_ids, params, seg_us, n_shots):
    """Advance ``states`` and ``jumped`` in place through one delay segment
    of length ``seg_us[p]`` (us) for the block of ``n_shots`` shots of point
    p. A shot's outcome is the count of its `_segment_table` row's entries
    below its uniform draw 0; outcome c > 0 puts it in level c - 1."""
    rows = np.concatenate([_segment_table(params, float(t)) for t in seg_us])
    row = np.repeat(np.arange(0, len(rows), N_LEVELS), n_shots) + states
    u = streams.uniforms(key, shot_ids, 0)
    outcome = np.zeros(len(states), dtype=np.int8)
    for column in rows.T[:-1]:      # the last entry, 1, is never below u
        outcome += column.take(row) < u
    hop = outcome > 0
    np.copyto(states, outcome - 1, where=hop)
    jumped |= hop


def _one_over_f_cov(a_1hz, n_seg, count, step_s) -> np.ndarray:
    """Covariance (Hz^2 s^2) of the segment integrals of a 1/f grid path.

    The path is `noise.one_over_f_from_normals` on ``n = count * n_seg``
    samples of step ``step_s`` (DC bin zeroed), summed over ``n_seg`` runs
    of ``count`` samples. Spectrum bin k then adds A/k times the Dirichlet
    kernel |sum_{m<count} e^(2 pi i k m/n)|^2 = sin^2(pi k/n_seg) /
    sin^2(pi k/n) to every entry, rotated by the segment lag; the real
    Nyquist bin of an even n adds half of that. Angles are reduced in
    integers, so a kernel that vanishes is exactly zero.
    """
    n = count * n_seg
    k = np.arange(1, n // 2 + 1)
    weight = (a_1hz / k * np.sin(np.pi * (k % n_seg) / n_seg) ** 2
              / np.sin(np.pi * k / n) ** 2)
    if n % 2 == 0:
        weight[-1] *= 0.5
    lag = np.arange(n_seg)
    cos_lag = np.cos(2.0 * np.pi * (k[:, None] * lag % n_seg) / n_seg)
    by_lag = step_s ** 2 * (weight[:, None] * cos_lag).sum(axis=0)
    return by_lag[np.abs(lag[:, None] - lag[None, :])]


def _psd_factor(cov) -> np.ndarray:
    """Lower-triangular L with L @ L.T == cov for a semidefinite ``cov``.

    Cholesky that leaves a column at zero where the remaining variance is
    at rounding level: the echo's 1/f covariance has rank one, Ramsey's is
    zero.
    """
    low = np.zeros_like(cov)
    floor = 1e-12 * max(float(np.max(np.diag(cov))), 0.0)
    for j in range(len(cov)):
        rest = cov[j, j] - low[j, :j] @ low[j, :j]
        if rest > floor:
            low[j, j] = math.sqrt(rest)
            low[j + 1:, j] = ((cov[j + 1:, j] - low[j + 1:, :j] @ low[j, :j])
                              / low[j, j])
    return low


# A block of telegraph waits holds at most _MAX_BLOCK draws per shot, which
# bounds the memory of a very fast process; one array holds at most _CHUNK
# draws, which keeps it in cache (2^15 ran fastest of 2^13..2^16 on a
# 2-vCPU Xeon host).
_MAX_BLOCK = 1 << 20
_CHUNK = 1 << 15


def _telegraph_integrals(key, shot_ids, bounds) -> np.ndarray:
    """Integral of a +-1 telegraph state from 0 to each of ``bounds``.

    Time is in units of the mean wait, so switches come at rate 1. The
    start sign is uniform draw 0 of (key, shot); the waits are exponential
    from draws 1, 2, ... and are integrated exactly. The first block of
    waits covers the expected switch count over ``bounds[-1]``, later blocks
    its standard deviation; block sizes depend on nothing but ``bounds``,
    so every shot's result depends only on its own draws.
    """
    n = len(shot_ids)
    out = np.empty((n, len(bounds)))
    t0 = np.zeros(n)       # time of the last switch drawn so far
    f0 = np.zeros(n)       # integral of the state up to t0
    state = np.where(streams.uniforms(key, shot_ids, 0) < 0.5, 1.0, -1.0)
    first = min(_MAX_BLOCK, math.ceil(bounds[-1]) + 1)
    later = min(_MAX_BLOCK, math.ceil(math.sqrt(bounds[-1])) + 1)
    live = np.arange(n)
    draw, block = 1, first
    while live.size:
        alt = np.where(np.arange(block) % 2 == 0, 1.0, -1.0)
        draw_ids = np.arange(draw, draw + block)
        rows = max(1, _CHUNK // block)
        for lo in range(0, live.size, rows):
            sl = live[lo:lo + rows]
            log_u = np.log(streams.uniforms(key, shot_ids[sl], draw_ids))
            tau = np.subtract(t0[sl, None], np.cumsum(log_u, axis=1))
            log_u *= -alt
            g = np.cumsum(log_u, axis=1)   # integral from t0 per unit state
            for b, bound in enumerate(bounds):
                m = np.count_nonzero(tau <= bound, axis=1)
                hit = np.nonzero((t0[sl] <= bound) & (m < block))[0]
                mh = m[hit]
                last = np.maximum(mh - 1, 0)
                t_m = np.where(mh > 0, tau[hit, last], t0[sl[hit]])
                g_m = np.where(mh > 0, g[hit, last], 0.0)
                out[sl[hit], b] = f0[sl[hit]] + state[sl[hit]] * (
                    g_m + alt[mh % 2] * (bound - t_m))
            t0[sl] = tau[:, -1]
            f0[sl] += state[sl] * g[:, -1]
            state[sl] *= (-1.0) ** block
        live = live[t0[live] <= bounds[-1]]
        draw, block = draw + block, later
    return out


def _segment_grid(seg_us, noise_dt_us):
    """Samples per segment and step (s) of the 1/f spectrum grid."""
    count = max(1, math.ceil(seg_us / noise_dt_us - 1e-9))
    return count, seg_us / count * 1e-6


def _segment_phases(noise, prepare, dur, keys, shot_ids, n_shots,
                    noise_dt_us, static_offsets_hz) -> np.ndarray:
    """Pair phase (rad) accumulated in each delay segment, (shots, segments).

    ``prepare`` is the superposition label: "+" couples the logical
    detuning, "+D"/"+Q" one mode's frequency. ``dur`` holds the segment
    lengths (us) of each shot; shots come in blocks of ``n_shots``, one per
    point, and process p draws from the per-shot keys
    ``keys[TAG_NOISE_BASE + p]`` (`streams.point_keys`). A 0 us point draws
    no noise.

    Static offsets and quasistatic processes hold one frequency per shot.
    White FM integrates to one Gaussian per segment with variance S_f T / 2,
    drawn at draw index k for delay segment k: exact for any grid. 1/f
    segment integrals are the jointly Gaussian integrals of a spectrum on
    one grid of step at most ``noise_dt_us`` through the equal segments,
    drawn the same way through a factor of their covariance. Telegraph
    integrals are exact in time, with the state carried across segments.
    1/f and telegraph phases run one point at a time: their covariance and
    draw blocks depend on the delay.
    """
    if prepare == "+":
        static = static_offsets_hz[1] - static_offsets_hz[0]
    else:
        static = static_offsets_hz[0 if prepare == "+D" else 1]
    n_total, n_seg = dur.shape
    moving = dur[:, 0] > 0
    frozen = np.zeros(n_total)
    integral = np.zeros((n_total, n_seg))   # Hz s
    for p_idx, proc in enumerate(noise):
        coeff = (proc.differential_weight() if prepare == "+"
                 else proc.mode_weight(prepare[-1]))
        if coeff == 0.0 or proc.amplitude == 0.0:
            continue
        key = keys[streams.TAG_NOISE_BASE + p_idx]
        if proc.quasistatic:
            if proc.kind == "telegraph":
                u = streams.uniforms(key[moving], shot_ids[moving], 1)
                vals = np.where(u < 0.5, 1.0, -1.0) * (0.5 * proc.amplitude)
            else:
                std = np.repeat([marginal_std(proc, total, noise_dt_us)
                                 for total in dur[::n_shots].sum(axis=1)],
                                n_shots)
                vals = (streams.normals(key[moving], shot_ids[moving], 0) *
                        std[moving])
            frozen[moving] += coeff * vals
            continue
        if proc.kind == "white":
            z = streams.normals(key[moving], shot_ids[moving],
                                np.arange(n_seg))
            integral[moving] += coeff * z * np.sqrt(
                0.5 * proc.amplitude * dur[moving] * 1e-6)
            continue
        for lo in range(0, n_total, n_shots):
            sl = slice(lo, lo + n_shots)
            dur_us = dur[lo]
            if dur_us[0] <= 0:
                continue
            if proc.kind == "telegraph":
                rate = proc.switching_rate_hz
                ends = np.cumsum(dur_us) * (1e-6 * rate)
                f = np.diff(_telegraph_integrals(key[lo], shot_ids[sl], ends),
                            axis=1, prepend=0.0)
                integral[sl] += coeff * f * (0.5 * proc.amplitude / rate)
                continue
            z = streams.normals(key[lo], shot_ids[sl], np.arange(n_seg))
            low = _psd_factor(_one_over_f_cov(
                proc.amplitude, n_seg, *_segment_grid(dur_us[0], noise_dt_us)))
            for i in range(n_seg):
                integral[sl] += coeff * z[:, i, None] * low[:, i]
    return (2.0 * math.pi * (static + frozen)[:, None] * (dur * 1e-6)
            + 2.0 * math.pi * integral)


def run_trace_batch(params: DeviceParams, seqs, noise=(), *, seeds,
                    n_shots: int,
                    noise_dt_us: float = DEFAULT_NOISE_DT_US,
                    static_offsets_hz=(0.0, 0.0)) -> ShotBatch:
    """Simulate ``n_shots`` independent shots of each point of one trace.

    ``seqs`` is a list of sequences of one kind and one prepare label,
    which may differ in delay and detuning; ``seeds`` holds one seed per
    sequence. The result holds the shots point by point: row
    ``p * n_shots + i`` is shot ``i`` of ``seqs[p]``, which reads its
    variates from the streams of ``seeds[p]`` at its own (key, shot, draw)
    addresses, every key of the points derived in one
    `streams.point_keys` call. So a shot depends only on (params, its
    sequence, noise, its seed, its shot index): how points and shots are
    batched or threaded never changes results. ``static_offsets_hz`` is a
    constant (delta_f_D, delta_f_Q) frequency offset pair, used by
    campaigns to freeze slow noise within one trace. ``noise_dt_us`` is the
    largest step of the 1/f spectrum grid and sets the marginals of
    quasistatic white and 1/f noise; white FM and telegraph phases do not
    depend on it.

    During delays the pair phase accumulates 2 pi * integral of the coupled
    frequency offset; a refocusing pulse negates the accumulated phase and
    swaps the pair populations; a projection converts phase to a pair
    outcome at probability (1 + cos(phi - phi_p))/2 for shots still in the
    pair that never jumped, while shots that scattered through other levels
    project as a 50/50 incoherent mixture.
    """
    if n_shots <= 0:
        raise ValueError("n_shots must be positive")
    if noise_dt_us <= 0:
        raise ValueError("noise_dt_us must be positive")
    if not seqs or len(seeds) != len(seqs):
        raise ValueError("need one seed per pulse sequence")
    first = seqs[0]
    if any((s.kind, s.prepare) != (first.kind, first.prepare) for s in seqs):
        raise ValueError("a trace runs one kind and one prepare label")
    n_seg = len(first.segments_us)
    keys = streams.point_keys(seeds, n_shots, n_seg, len(noise))

    n_total = len(seqs) * n_shots
    shot_ids = np.tile(np.arange(n_shots, dtype=np.int64), len(seqs))
    dur = np.repeat(np.array([s.segments_us for s in seqs], dtype=float),
                    n_shots, axis=0)
    states = np.empty(n_total, dtype=np.int64)
    jumped = np.zeros(n_total, dtype=bool)
    phase = np.zeros(n_total)
    # a level kind starts in its level and never reads the phase; a phase
    # kind starts half in each pole of its pair
    if first.project_rad is None:
        states[:] = DimonLevel.from_label(first.prepare).index
        seg_phase = np.zeros(dur.shape)
    else:
        pair_plus, pair_minus = _PAIRS[first.prepare]
        u0 = streams.uniforms(keys[streams.TAG_PREP], shot_ids, 0)
        states[:] = np.where(u0 < 0.5, pair_plus, pair_minus)
        seg_phase = _segment_phases(tuple(noise), first.prepare, dur, keys,
                                    shot_ids, n_shots, noise_dt_us,
                                    static_offsets_hz)

    for k in range(dur.shape[1]):
        if k:   # the refocusing pi pulse between the echo halves
            phase = -phase
            plus = states == pair_plus
            minus = states == pair_minus
            states[plus] = pair_minus
            states[minus] = pair_plus
        _jump_segment(states, jumped, keys[streams.TAG_JUMP_BASE + k],
                      shot_ids, params, dur[::n_shots, k], n_shots)
        phase += seg_phase[:, k]

    if first.project_rad is not None:
        project = np.repeat([s.project_rad for s in seqs], n_shots)
        in_pair = (states == pair_plus) | (states == pair_minus)
        p_plus = 0.5 * (np.cos(phase - project) + 1.0)
        p_plus[jumped] = 0.5
        u = streams.uniforms(keys[streams.TAG_PROJECT], shot_ids, n_seg)
        states = np.where(in_pair, np.where(u < p_plus, pair_plus, pair_minus),
                          states)

    return ShotBatch(levels=states, phase_rad=phase,
                     erased=states == IDX_00, jumped=jumped)


def run_sequence_batch(params: DeviceParams, seq: PulseSequence,
                       noise=(), *, seed: int, n_shots: int,
                       noise_dt_us: float = DEFAULT_NOISE_DT_US,
                       static_offsets_hz=(0.0, 0.0)) -> ShotBatch:
    """Simulate ``n_shots`` independent shots of one pulse sequence: the
    one-point case of `run_trace_batch`, whose row i is shot i on the
    streams of ``seed``."""
    return run_trace_batch(params, [seq], noise, seeds=[seed],
                           n_shots=n_shots, noise_dt_us=noise_dt_us,
                           static_offsets_hz=static_offsets_hz)
