"""End-of-line dispersive readout: IQ emission model and GMM classification.

The single end-of-line measurement resolves three blobs in the IQ plane
(|00>, |01>, |10>). Shots whose carrier relaxes during signal integration
emit from a point interpolated toward the |00> blob; doubly-excited levels
are indistinguishable from their single-excitation parent and emit from that
parent's blob.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import streams
from .device import DeviceParams, DimonLevel
from .errors import ConfigError, DegenerateModelError

READOUT_LEVELS = (DimonLevel.L00, DimonLevel.L01, DimonLevel.L10)
# level index -> blob index: |11> reads out through its Q excitation (the
# larger resonator pull), |02> through |01> and |20> through |10>
BLOB_OF_LEVEL = np.array([0, 1, 2, 1, 1, 2])
TRAINING_SHOTS = (3334, 3333, 3333)  # 10k state-preparation shots, per blob


def default_blob_means(sigma: float = 1.0, radius_sigmas: float = 5.0) -> np.ndarray:
    """Three blob centers at 90/210/330 degrees on a circle of 5 sigma."""
    angles = np.deg2rad([90.0, 210.0, 330.0])
    r = radius_sigmas * sigma
    return np.stack([r * np.cos(angles), r * np.sin(angles)], axis=1)


@dataclass(frozen=True)
class ReadoutModel:
    """Gaussian IQ emission model for the three resolvable levels.

    ``means`` has rows for (|00>, |01>, |10>) in that order (arbitrary
    units); ``sigma`` is the common isotropic blob width; ``t_ro_us`` the
    integration time. ``drive_frequency(params)`` returns the resonator
    drive that centers the three blobs: omega_R - (chi_QR + chi_DR)/2.
    """

    means: np.ndarray = field(default_factory=lambda: default_blob_means())
    sigma: float = 1.0
    t_ro_us: float = 1.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.shape != (3, 2):
            raise ConfigError("readout model needs three 2-d blob means")
        if len({tuple(m) for m in means.tolist()}) != 3:
            raise ConfigError("blob means must be distinct")
        if not self.sigma > 0:
            raise ConfigError("sigma must be > 0")
        if self.t_ro_us < 0:
            raise ConfigError("integration time must be >= 0")
        object.__setattr__(self, "means", means)

    @staticmethod
    def drive_frequency(params: DeviceParams) -> float:
        return params.omega_R - 0.5 * (params.chi_QR + params.chi_DR)


def sample_iq_batch(levels: np.ndarray, model: ReadoutModel,
                    params: DeviceParams, seed: int,
                    shot_offset: int = 0) -> np.ndarray:
    """Vectorized IQ emission for a batch of final levels.

    Uses the deterministic counter streams, so campaign shot records are
    reproducible independently of batching.
    """
    levels = np.asarray(levels)
    n = len(levels)
    ids = np.arange(shot_offset, shot_offset + n, dtype=np.int64)
    key = streams.stream_key(seed, streams.TAG_READOUT)
    blob = BLOB_OF_LEVEL[levels]
    means = model.means[blob]
    if model.t_ro_us > 0:
        t1 = np.where(blob == 1, params.T1_Q_us, params.T1_D_us)
        u = streams.uniforms(key, ids, 0)
        tau = -t1 * np.log(u)
        decayed = (blob != 0) & (tau < model.t_ro_us)
        w = np.clip(tau / model.t_ro_us, 0.0, 1.0)[decayed, None]
        means = means.copy()
        means[decayed] = w * means[decayed] + (1.0 - w) * model.means[0]
    z = np.stack([streams.normals(key, ids, 1),
                  streams.normals(key, ids, 2)], axis=1)
    return means + model.sigma * z


def _weighted_log_densities(iq, means, covs, weights) -> np.ndarray:
    """(n, 3) log of weight times Gaussian density, per point and component."""
    logp = np.empty((iq.shape[0], 3))
    for k in range(3):
        diff = iq - means[k]
        inv = np.linalg.inv(covs[k])
        _, logdet = np.linalg.slogdet(covs[k])
        maha = np.einsum("ni,ij,nj->n", diff, inv, diff)
        logp[:, k] = (math.log(weights[k]) - 0.5 *
                      (maha + logdet + 2.0 * math.log(2.0 * math.pi)))
    return logp


@dataclass
class GmmClassifier:
    """Three-component Gaussian mixture over the IQ plane.

    ``labels`` maps component index -> DimonLevel; components are stored in
    the fixed readout-level order (|00>, |01>, |10>) so posterior ties break
    toward the lower-ordered level.
    """

    means: np.ndarray                 # (3, 2)
    covariances: np.ndarray           # (3, 2, 2)
    weights: np.ndarray               # (3,)
    labels: tuple = READOUT_LEVELS

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ConfigError("mixture weights must be nonnegative and sum to 1")
        if sorted(lv.label for lv in self.labels) != ["00", "01", "10"]:
            raise ConfigError("label map must be a bijection onto 00/01/10")
        for cov in self.covariances:
            if not np.allclose(cov, cov.T) or np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ConfigError("covariances must be symmetric positive definite")

    def log_responsibilities(self, iq: np.ndarray) -> np.ndarray:
        iq = np.atleast_2d(np.asarray(iq, dtype=float))
        logp = _weighted_log_densities(iq, self.means, self.covariances,
                                       self.weights)
        return logp - logsumexp(logp, axis=1, keepdims=True)

    def to_json(self) -> str:
        return json.dumps({
            "means": self.means.tolist(),
            "covariances": self.covariances.tolist(),
            "weights": self.weights.tolist(),
            "labels": [lv.label for lv in self.labels],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GmmClassifier":
        d = json.loads(text)
        return cls(means=np.array(d["means"]),
                   covariances=np.array(d["covariances"]),
                   weights=np.array(d["weights"]),
                   labels=tuple(DimonLevel.from_label(s) for s in d["labels"]))


def classify_batch(clf: GmmClassifier, iq: np.ndarray) -> np.ndarray:
    """Level index of the most responsible component for each IQ point.

    Equal responsibilities break toward the lower-ordered level.
    """
    logr = clf.log_responsibilities(iq)
    order = np.argsort([lv.index for lv in clf.labels])
    k = order[np.argmax(logr[:, order], axis=1)]
    level_idx = np.array([lv.index for lv in clf.labels])
    return level_idx[k]


def _check_condition(cov):
    if np.linalg.cond(cov) > 1e12:
        raise DegenerateModelError(
            "covariance condition number exceeds 1e12 (collapsed blob)")


def fit_gmm(iq: np.ndarray, labels, *, supervised: bool = True,
            max_iter: int = 200, tol: float = 1e-8,
            seed: int = 0) -> GmmClassifier:
    """Fit the three-blob mixture by expectation-maximization.

    Components are initialized from per-class sample statistics of the
    prepared labels (``supervised=True``, the default) or from a seeded
    k-means pass. Iterations stop when the mean log-likelihood gain per shot
    drops below ``tol`` or after ``max_iter`` rounds. The component -> level
    map is the majority prepared label per component.

    Parameters
    ----------
    iq : (n, 2) array of integrated readout points.
    labels : sequence of n DimonLevel (or "00"/"01"/"10" strings).
    """
    iq = np.asarray(iq, dtype=float)
    lv = np.array([l.label if isinstance(l, DimonLevel) else str(l)
                   for l in labels])
    present = sorted(set(lv))
    if len(present) < 3:
        raise ConfigError("need shots for all three readout levels")
    for lab in present:
        if (lv == lab).sum() < 100:
            raise ConfigError(f"need >= 100 shots per label, "
                              f"{lab} has {(lv == lab).sum()}")

    if supervised:
        means = np.stack([iq[lv == l.label].mean(axis=0) for l in READOUT_LEVELS])
        covs = np.stack([np.cov(iq[lv == l.label].T) for l in READOUT_LEVELS])
        weights = np.array([(lv == l.label).mean() for l in READOUT_LEVELS])
    else:
        rng = np.random.default_rng(seed)
        means = iq[rng.choice(len(iq), size=3, replace=False)].copy()
        for _ in range(20):  # plain k-means warm start
            d2 = ((iq[:, None, :] - means[None]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            for k in range(3):
                if np.any(assign == k):
                    means[k] = iq[assign == k].mean(axis=0)
        covs = np.stack([np.cov(iq[assign == k].T) if (assign == k).sum() > 2
                         else np.cov(iq.T) for k in range(3)])
        weights = np.bincount(assign, minlength=3) / len(iq)
        weights = np.clip(weights, 1e-6, None)
        weights /= weights.sum()
    for cov in covs:
        _check_condition(cov)

    n = len(iq)
    prev_ll = -np.inf
    ll_history = []
    for _ in range(max_iter):
        # E step
        logp = _weighted_log_densities(iq, means, covs, weights)
        ll = float(logsumexp(logp, axis=1).mean())
        ll_history.append(ll)
        resp = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
        # M step
        nk = resp.sum(axis=0)
        weights = nk / n
        means = (resp.T @ iq) / nk[:, None]
        for k in range(3):
            diff = iq - means[k]
            covs[k] = (resp[:, k, None] * diff).T @ diff / nk[k]
            _check_condition(covs[k])
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll

    # Majority prepared label per component, constrained to a bijection.
    counts = np.zeros((3, 3))
    level_of_col = {l.label: j for j, l in enumerate(READOUT_LEVELS)}
    hard = np.argmax(resp, axis=1)
    for k in range(3):
        for lab, j in level_of_col.items():
            counts[k, j] = np.sum((hard == k) & (lv == lab))
    assignment = [-1, -1, -1]
    taken = set()
    for _ in range(3):
        k, j = np.unravel_index(np.argmax(counts), counts.shape)
        assignment[k] = j
        counts[k, :] = -1
        counts[:, j] = -1
        taken.add(j)
    # Reorder components into fixed level order for deterministic ties.
    order = np.argsort(assignment)
    clf = GmmClassifier(means=means[order], covariances=covs[order],
                        weights=weights[order], labels=READOUT_LEVELS)
    clf.ll_history = np.asarray(ll_history)
    return clf


def train_classifier(model: ReadoutModel, params: DeviceParams,
                     seed: int) -> GmmClassifier:
    """Supervised classifier from simulated state-preparation shots.

    ``TRAINING_SHOTS`` shots are prepared in |00>, |01> and |10>, read out
    through ``model`` from the streams of ``seed`` and fitted by `fit_gmm`.
    """
    levels = np.repeat(np.arange(3), TRAINING_SHOTS)
    labels = np.repeat([lv.label for lv in READOUT_LEVELS], TRAINING_SHOTS)
    return fit_gmm(sample_iq_batch(levels, model, params, seed=seed), labels)


def confusion_matrix(clf: GmmClassifier, iq: np.ndarray, labels) -> np.ndarray:
    """Row-stochastic prepared-vs-assigned fractions over the three levels."""
    lv = np.array([l.label if isinstance(l, DimonLevel) else str(l)
                   for l in labels])
    assigned = classify_batch(clf, np.asarray(iq, dtype=float))
    mat = np.zeros((3, 3))
    for i, prep in enumerate(READOUT_LEVELS):
        sel = lv == prep.label
        if not np.any(sel):
            raise ConfigError(f"no shots prepared in {prep.label}")
        for j, ass in enumerate(READOUT_LEVELS):
            mat[i, j] = np.mean(assigned[sel] == ass.index)
    return mat
