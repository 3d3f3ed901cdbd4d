"""Population and phase dynamics of the six-level dimon ladder.

Populations evolve as a continuous-time Markov jump process over the six
ladder states; coherence is carried by a scalar stochastic phase accumulated
from synthesized frequency-noise paths. An exact matrix-exponential
propagator provides an independent oracle for the jump sampler.

Rates are in 1/us, delays in us. The rate matrix is a generator in the
column convention: R[i, j] is the rate from state j to state i for i != j
and each column sums to zero, so p(t) = expm(R t) @ p(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import streams
from .device import DeviceParams, DimonLevel, LEVEL_ORDER
from .errors import SequenceError
from .noise import (NoiseProcess, marginal_std, one_over_f_from_normals,
                    telegraph_from_uniforms, white_from_normals)

DEFAULT_DETUNING_KHZ = 75.0
DEFAULT_NOISE_DT_US = 0.5

N_LEVELS = len(LEVEL_ORDER)
_MN = [(lv.m, lv.n) for lv in LEVEL_ORDER]
_INDEX = {mn: i for i, mn in enumerate(_MN)}

IDX_00 = _INDEX[(0, 0)]
IDX_01 = _INDEX[(0, 1)]
IDX_10 = _INDEX[(1, 0)]

# Pole pairs for phase experiments: (plus pole, minus pole). The projection
# gate sends a shot to the plus pole with probability (1 + cos(phi - phi_p))/2.
_PAIRS = {
    "logical": (IDX_10, IDX_01),          # |0>_L, |1>_L
    "phys_D": (IDX_10, IDX_00),
    "phys_Q": (IDX_01, IDX_00),
}


def build_rate_matrix(params: DeviceParams) -> np.ndarray:
    """Markov generator of the six-level ladder.

    Single-step transitions only: each mode loses one excitation at
    n * Gamma_mode downward and gains one at (n+1) * n_th * Gamma_mode upward
    (levels outside the six-state ladder are truncated). There is no direct
    |01> <-> |10> channel: that move changes both modes at once.
    """
    rates = np.zeros((N_LEVELS, N_LEVELS))
    gam = {"D": params.gamma_D, "Q": params.gamma_Q}
    nth = {"D": params.n_th_D, "Q": params.n_th_Q}
    for j, (m, n) in enumerate(_MN):
        occ = {"D": m, "Q": n}
        for mode in ("D", "Q"):
            down = dict(occ)
            down[mode] -= 1
            if (down["D"], down["Q"]) in _INDEX:
                rates[_INDEX[(down["D"], down["Q"])], j] = occ[mode] * gam[mode]
            up = dict(occ)
            up[mode] += 1
            if (up["D"], up["Q"]) in _INDEX:
                rates[_INDEX[(up["D"], up["Q"])], j] = (
                    (occ[mode] + 1) * nth[mode] * gam[mode])
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=0))
    return rates


def propagate_exact(rate_matrix: np.ndarray, p0, t_us: float) -> np.ndarray:
    """Exact level populations exp(R t) @ p0 (the trajectory oracle)."""
    p0 = np.asarray(p0, dtype=float)
    if p0.shape != (N_LEVELS,):
        raise ValueError(f"p0 must have shape ({N_LEVELS},)")
    if np.any(p0 < -1e-12) or abs(p0.sum() - 1.0) > 1e-9:
        raise ValueError("p0 is not a probability vector")
    if t_us < 0:
        raise ValueError("t must be >= 0")
    p = expm(rate_matrix * t_us) @ p0
    return np.clip(p, 0.0, None)


# --------------------------------------------------------------------------
# Pulse sequences

PREPARE_SUPERPOSITION = "+"
SEQUENCE_KINDS = ("bitflip", "hahn_echo", "ramsey",
                  "phys_t1", "phys_echo", "phys_ramsey")


@dataclass(frozen=True)
class PulseSequence:
    """Ordered gate/delay program for one experiment.

    Elements are tuples: ("prepare", label), ("delay", dt_us),
    ("logical_pi",), ("project", phi_rad), ("measure",). The prepare label is
    a physical level ("00".."20") or "+" for the equal superposition of the
    mode pair selected by ``mode``.
    """

    kind: str
    elements: tuple
    mode: str = "logical"

    def __post_init__(self):
        if self.kind not in SEQUENCE_KINDS:
            raise SequenceError(f"unknown experiment kind {self.kind!r}")
        if self.mode not in _PAIRS:
            raise SequenceError(f"unknown mode {self.mode!r}")
        els = self.elements
        if not els or els[0][0] != "prepare" or els[-1][0] != "measure":
            raise SequenceError("sequence must start with prepare and end with measure")
        prep = els[0][1]
        if prep != PREPARE_SUPERPOSITION:
            try:
                DimonLevel.from_label(prep)
            except ValueError as exc:
                raise SequenceError(str(exc)) from exc
        n_pi = sum(1 for e in els if e[0] == "logical_pi")
        for e in els:
            if e[0] == "delay" and e[1] < 0:
                raise SequenceError("negative delay")
        if self.kind == "hahn_echo" or self.kind == "phys_echo":
            if n_pi != 1:
                raise SequenceError("echo sequence needs exactly one refocusing pulse")
            before = after = 0.0
            seen_pi = False
            for e in els:
                if e[0] == "logical_pi":
                    seen_pi = True
                elif e[0] == "delay":
                    if seen_pi:
                        after += e[1]
                    else:
                        before += e[1]
            if not math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-12):
                raise SequenceError("refocusing pulse must sit at the midpoint")

    @property
    def total_delay_us(self) -> float:
        return sum(e[1] for e in self.elements if e[0] == "delay")

    @classmethod
    def bitflip(cls, init: DimonLevel | str, delay_us: float) -> "PulseSequence":
        label = init.label if isinstance(init, DimonLevel) else str(init)
        return cls("bitflip", (("prepare", label), ("delay", float(delay_us)),
                               ("measure",)))

    @classmethod
    def hahn_echo(cls, delay_us: float) -> "PulseSequence":
        half = 0.5 * float(delay_us)
        return cls("hahn_echo", (("prepare", PREPARE_SUPERPOSITION),
                                 ("delay", half), ("logical_pi",),
                                 ("delay", half), ("project", 0.0),
                                 ("measure",)))

    @classmethod
    def ramsey(cls, delay_us: float,
               detuning_khz: float = DEFAULT_DETUNING_KHZ) -> "PulseSequence":
        # Virtual detuning: the projection phase advances as 2 pi df dt.
        phi = 2.0 * math.pi * detuning_khz * 1e-3 * float(delay_us)
        return cls("ramsey", (("prepare", PREPARE_SUPERPOSITION),
                              ("delay", float(delay_us)), ("project", phi),
                              ("measure",)))

    @classmethod
    def relaxation(cls, mode: str, delay_us: float) -> "PulseSequence":
        """Unencoded T1 reference on one physical mode."""
        label = "10" if mode == "D" else "01"
        return cls("phys_t1", (("prepare", label), ("delay", float(delay_us)),
                               ("measure",)), mode=f"phys_{mode}")

    @classmethod
    def phys_ramsey(cls, mode: str, delay_us: float,
                    detuning_khz: float = DEFAULT_DETUNING_KHZ) -> "PulseSequence":
        phi = 2.0 * math.pi * detuning_khz * 1e-3 * float(delay_us)
        return cls("phys_ramsey", (("prepare", PREPARE_SUPERPOSITION),
                                   ("delay", float(delay_us)),
                                   ("project", phi), ("measure",)),
                   mode=f"phys_{mode}")

    @classmethod
    def phys_echo(cls, mode: str, delay_us: float) -> "PulseSequence":
        half = 0.5 * float(delay_us)
        return cls("phys_echo", (("prepare", PREPARE_SUPERPOSITION),
                                 ("delay", half), ("logical_pi",),
                                 ("delay", half), ("project", 0.0),
                                 ("measure",)), mode=f"phys_{mode}")


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


def _prepared_index(label: str) -> int:
    try:
        return DimonLevel.from_label(label).index
    except ValueError as exc:
        raise SequenceError(str(exc)) from exc


def _destination_tables(rate_matrix):
    lam = -np.diag(rate_matrix).copy()
    q = rate_matrix.T.copy()          # q[s, d]: rate s -> d
    np.fill_diagonal(q, 0.0)
    cum = np.cumsum(q, axis=1)
    tot = cum[:, -1].copy()
    safe = np.where(tot > 0, tot, 1.0)
    cum /= safe[:, None]
    return lam, cum


def _jump_segment(states, jumped, dur_us, key, shot_ids, lam, cumdest):
    """Advance all shots through one delay segment by jump sampling."""
    if dur_us <= 0:
        return
    t_rem = np.full(states.shape, float(dur_us))
    active = np.nonzero(lam[states] > 0)[0]
    r = 0
    while active.size:
        u_wait = streams.uniforms(key, shot_ids[active], 2 * r)
        wait = -np.log(u_wait) / lam[states[active]]
        hop = wait < t_rem[active]
        jumpers = active[hop]
        if jumpers.size:
            t_rem[jumpers] -= wait[hop]
            u_dest = streams.uniforms(key, shot_ids[jumpers], 2 * r + 1)
            dest = (u_dest[:, None] > cumdest[states[jumpers]]).sum(axis=1)
            states[jumpers] = dest
            jumped[jumpers] = True
            active = jumpers[lam[states[jumpers]] > 0]
        else:
            active = jumpers
        r += 1


def _segment_grid(durations, noise_dt_us):
    """Per-segment sample counts and step for noise-path integration."""
    counts, steps = [], []
    for dur in durations:
        if dur <= 0:
            counts.append(0)
            steps.append(noise_dt_us)
            continue
        n = max(1, int(math.ceil(dur / noise_dt_us - 1e-9)))
        counts.append(n)
        steps.append(dur / n)
    return counts, steps


def run_sequence_batch(params: DeviceParams, seq: PulseSequence,
                       noise=(), *, seed: int, n_shots: int,
                       shot_offset: int = 0,
                       noise_dt_us: float = DEFAULT_NOISE_DT_US,
                       static_offsets_hz=(0.0, 0.0)) -> ShotBatch:
    """Simulate ``n_shots`` independent shots of one pulse sequence.

    The outcome of shot ``shot_offset + i`` depends only on
    (params, seq, noise, seed, shot index): batching and threading never
    change results. ``static_offsets_hz`` is a constant (delta_f_D,
    delta_f_Q) frequency offset pair, used by campaigns to freeze slow noise
    within one trace.

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
    noise = tuple(noise)
    rate_matrix = build_rate_matrix(params)
    lam, cumdest = _destination_tables(rate_matrix)
    pair_plus, pair_minus = _PAIRS[seq.mode]

    shot_ids = np.arange(shot_offset, shot_offset + n_shots, dtype=np.int64)
    states = np.empty(n_shots, dtype=np.int64)
    jumped = np.zeros(n_shots, dtype=bool)
    phase = np.zeros(n_shots)

    prep = seq.elements[0][1]
    if prep == PREPARE_SUPERPOSITION:
        u0 = streams.uniforms(streams.stream_key(seed, streams.TAG_PREP),
                              shot_ids, 0)
        states[:] = np.where(u0 < 0.5, pair_plus, pair_minus)
    else:
        states[:] = _prepared_index(prep)

    durations = [e[1] for e in seq.elements if e[0] == "delay"]
    needs_phase = any(e[0] == "project" for e in seq.elements)

    # Frequency-offset machinery, active only when a projection consumes it.
    seg_counts, seg_steps = _segment_grid(durations, noise_dt_us)
    mode_tag = {"logical": None, "phys_D": "D", "phys_Q": "Q"}[seq.mode]
    seg_phase = None
    if needs_phase:
        n_total = sum(seg_counts)
        offsets = np.concatenate([[0], np.cumsum(seg_counts)])
        diff_path = None
        frozen = np.zeros(n_shots)
        diff_static = (static_offsets_hz[1] - static_offsets_hz[0]
                       if mode_tag is None else
                       static_offsets_hz[0 if mode_tag == "D" else 1])
        total_dur = sum(durations)
        for p_idx, proc in enumerate(noise):
            coeff = (proc.differential_weight() if mode_tag is None
                     else proc.mode_weight(mode_tag))
            if coeff == 0.0 or proc.amplitude == 0.0 or total_dur <= 0:
                continue
            key = streams.stream_key(seed, streams.TAG_NOISE_BASE + p_idx)
            if proc.quasistatic:
                z = streams.normals(key, shot_ids, 0)
                if proc.kind == "telegraph":
                    u = streams.uniforms(key, shot_ids, 1)
                    vals = np.where(u < 0.5, 1.0, -1.0) * (0.5 * proc.amplitude)
                else:
                    vals = z * marginal_std(proc, total_dur, noise_dt_us)
                frozen += coeff * vals
                continue
            if n_total == 0:
                continue
            dt_s = seg_steps[0] * 1e-6
            uniform_steps = all(abs(s - seg_steps[0]) <= 1e-9 * seg_steps[0]
                                for s, c in zip(seg_steps, seg_counts) if c)
            if proc.kind == "white":
                # exact for any grid: scale each segment by its own step
                z = streams.normals(key, shot_ids, np.arange(n_total))
                path = np.empty_like(z)
                for k in range(len(durations)):
                    if seg_counts[k]:
                        sl = slice(offsets[k], offsets[k + 1])
                        path[:, sl] = white_from_normals(
                            z[:, sl], seg_steps[k] * 1e-6, proc.amplitude)
            elif not uniform_steps:
                raise SequenceError(
                    f"{proc.kind} paths need a uniform sample step across "
                    "segments")
            elif proc.kind == "one_over_f":
                nf = n_total // 2 + 1
                za = streams.normals(key, shot_ids, np.arange(nf))
                zb = streams.normals(key, shot_ids, np.arange(nf, 2 * nf))
                path = one_over_f_from_normals(za, zb, n_total, dt_s,
                                               proc.amplitude)
            else:
                u = streams.uniforms(key, shot_ids, np.arange(n_total))
                path = telegraph_from_uniforms(u, dt_s, proc.amplitude,
                                               proc.switching_rate_hz)
            if diff_path is None:
                diff_path = coeff * path
            else:
                diff_path += coeff * path
        seg_phase = []
        for k, dur in enumerate(durations):
            phi_k = np.zeros(n_shots)
            if dur > 0:
                dur_s = dur * 1e-6
                phi_k += 2.0 * math.pi * (diff_static + frozen) * dur_s
                if diff_path is not None and seg_counts[k]:
                    sl = diff_path[:, offsets[k]:offsets[k + 1]]
                    phi_k += 2.0 * math.pi * sl.sum(axis=1) * (seg_steps[k] * 1e-6)
            seg_phase.append(phi_k)

    seg_idx = 0
    for el in seq.elements:
        op = el[0]
        if op == "delay":
            key = streams.stream_key(seed, streams.TAG_JUMP_BASE + seg_idx)
            _jump_segment(states, jumped, el[1], key, shot_ids, lam, cumdest)
            if seg_phase is not None:
                phase += seg_phase[seg_idx]
            seg_idx += 1
        elif op == "logical_pi":
            phase = -phase
            plus = states == pair_plus
            minus = states == pair_minus
            states[plus] = pair_minus
            states[minus] = pair_plus
        elif op == "project":
            phi_p = el[1]
            in_pair = (states == pair_plus) | (states == pair_minus)
            p_plus = np.full(n_shots, 0.5)
            coherent = in_pair & ~jumped
            p_plus[coherent] = 0.5 * (1.0 + np.cos(phase[coherent] - phi_p))
            u = streams.uniforms(streams.stream_key(seed, streams.TAG_PROJECT),
                                 shot_ids, seg_idx)
            states[in_pair] = np.where(u[in_pair] < p_plus[in_pair],
                                       pair_plus, pair_minus)
        elif op in ("prepare", "measure"):
            pass
        else:
            raise SequenceError(f"unknown element {op!r}")

    return ShotBatch(levels=states, phase_rad=phase,
                     erased=states == IDX_00, jumped=jumped)

