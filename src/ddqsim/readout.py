"""End-of-line dispersive readout: IQ emission model and GMM classification.

The single end-of-line measurement resolves three blobs in the IQ plane
(|00>, |01>, |10>). Shots whose carrier relaxes during signal integration
emit from a point interpolated toward the |00> blob; doubly-excited levels
are indistinguishable from their single-excitation parent and emit from that
parent's blob.

Classification and the mixture fit evaluate the three 2x2 Gaussian
log-densities in closed form (no matrix inverse or determinant routine), and
each EM round takes one max-shifted log-normaliser per point, which gives
both the log-likelihood and the responsibilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import streams
from .device import DeviceParams, DimonLevel
from .errors import ConfigError, DegenerateModelError

READOUT_LEVELS = (DimonLevel.L00, DimonLevel.L01, DimonLevel.L10)
# level index -> blob index: |11> reads out through its Q excitation (the
# larger resonator pull), |02> through |01> and |20> through |10>
BLOB_OF_LEVEL = np.array([0, 1, 2, 1, 1, 2])
TRAINING_SHOTS = (3334, 3333, 3333)  # 10k state-preparation shots, per blob
CLASSIFY_BLOCK = 8192


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
    integration time.
    """

    means: np.ndarray = field(default_factory=lambda: default_blob_means())
    sigma: float = 1.0
    t_ro_us: float = 1.0

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        if means.shape != (3, 2):
            raise ConfigError("readout model needs three 2-d blob means")
        if not np.all(np.isfinite(means)):
            raise ConfigError("blob means must be finite")
        if len({tuple(m) for m in means.tolist()}) != 3:
            raise ConfigError("blob means must be distinct")
        if not 0 < self.sigma < math.inf:
            raise ConfigError("sigma must be > 0 and finite")
        if not 0 <= self.t_ro_us < math.inf:
            raise ConfigError("integration time must be >= 0 and finite")
        object.__setattr__(self, "means", means)


def sample_iq_batch(levels: np.ndarray, model: ReadoutModel,
                    params: DeviceParams, seed) -> np.ndarray:
    """Vectorized IQ emission for a batch of final levels.

    ``seed`` is one seed, or a list or array of seeds, one per equal block of
    ``levels``. Shot i of a block draws at (stream_key(its seed,
    TAG_READOUT), i) on the deterministic counter streams, so each block
    reads out as a one-seed call on that block would, and campaign shot
    records do not depend on batching.
    """
    levels = np.asarray(levels)
    seeds = seed if np.ndim(seed) else [seed]
    n, rest = divmod(len(levels), len(seeds))
    if rest:
        raise ValueError("levels must split into one equal block per seed")
    ids = np.tile(np.arange(n, dtype=np.int64), len(seeds))
    key = np.repeat(streams.stream_key(seeds, streams.TAG_READOUT), n)
    blob = BLOB_OF_LEVEL[levels]
    means = model.means[blob]
    if model.t_ro_us > 0:
        t1 = np.where(blob == 1, params.T1_Q_us, params.T1_D_us)
        u = streams.uniforms(key, ids, 0)
        tau = -t1 * np.log(u)
        decayed = (blob != 0) & (tau < model.t_ro_us)
        w = np.clip(tau / model.t_ro_us, 0.0, 1.0)[decayed, None]
        means[decayed] = w * means[decayed] + (1.0 - w) * model.means[0]
    z = streams.normals(key, ids, np.arange(1, 3))
    z *= model.sigma
    z += means
    return z


def _weighted_log_densities(iq, means, covs, weights) -> np.ndarray:
    """(3, n) log of weight times Gaussian density, per component and point.

    Closed form for a 2x2 covariance [[a, b], [c, d]] with det = ad - bc:
    the Mahalanobis term is (d dx^2 - (b + c) dx dy + a dy^2) / det. It
    takes b + c, not 2b, because a covariance need be symmetric only to
    rounding (`np.cov`, or a `GmmClassifier` built by hand).
    """
    x, y = np.ascontiguousarray(iq.T)
    logp = np.empty((3, len(x)))
    for k in range(3):
        a, b, c, d = covs[k].ravel().tolist()
        det = a * d - b * c
        h = -0.5 / det
        mx, my = means[k].tolist()
        dx = x - mx
        dy = y - my
        row = logp[k]
        np.multiply(dx, d * h, out=row)
        row -= ((b + c) * h) * dy
        row *= dx
        dy *= dy
        dy *= a * h
        row += dy
        row += (math.log(weights[k]) - 0.5 * math.log(det)
                - math.log(2.0 * math.pi))
    return logp


@dataclass
class GmmClassifier:
    """Three-component Gaussian mixture over the IQ plane.

    Component k is readout level ``READOUT_LEVELS[k]`` (|00>, |01>, |10>),
    whose level index is k, so posterior ties break toward the
    lower-ordered level.
    """

    means: np.ndarray                 # (3, 2)
    covariances: np.ndarray           # (3, 2, 2)
    weights: np.ndarray               # (3,)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ConfigError("mixture weights must be nonnegative and sum to 1")
        for cov in self.covariances:
            if not np.allclose(cov, cov.T) or np.any(np.linalg.eigvalsh(cov) <= 0):
                raise ConfigError("covariances must be symmetric positive definite")


def classify_batch(clf: GmmClassifier, iq: np.ndarray) -> np.ndarray:
    """Level index of the most responsible component for each IQ point.

    Equal responsibilities break toward the lower-ordered level. Points are
    taken in blocks of ``CLASSIFY_BLOCK``, whose working rows stay in cache.
    """
    iq = np.atleast_2d(np.asarray(iq, dtype=float))
    levels = np.empty(len(iq), dtype=np.intp)
    for start in range(0, len(iq), CLASSIFY_BLOCK):
        block = iq[start:start + CLASSIFY_BLOCK]
        # a per-point normaliser of the responsibilities cannot move the top
        logp = _weighted_log_densities(block, clf.means, clf.covariances,
                                       clf.weights)
        levels[start:start + len(block)] = _top_row(logp)
    return levels


def _top_row(rows) -> np.ndarray:
    """Index of the largest of three rows in each column; ties go to the
    lower index, as with ``np.argmax(rows, axis=0)``."""
    top = (rows[1] > rows[0]).astype(np.intp)
    top[rows[2] > np.maximum(rows[0], rows[1])] = 2
    return top


def _check_condition(cov):
    """Raise when the 2-norm condition number of a 2x2 matrix exceeds 1e12;
    its singular values are (p + q) / 2 and |p - q| / 2."""
    a, b, c, d = cov.ravel().tolist()
    p, q = math.hypot(a + d, b - c), math.hypot(a - d, b + c)
    if not 0 < p + q <= 1e12 * abs(p - q):
        raise DegenerateModelError(
            "covariance condition number exceeds 1e12 (collapsed blob)")


def fit_gmm(iq: np.ndarray, labels) -> GmmClassifier:
    """Fit the three-blob mixture by expectation-maximization.

    The labels are coded once to level indices 0/1/2. Components are
    initialized from per-class sample statistics of the prepared labels.
    Each E step evaluates the 2x2 Gaussian log-densities in closed form and
    takes one max-shifted log-normaliser per point, which gives both the
    log-likelihood and the responsibilities. Iterations stop when the mean
    log-likelihood gain per shot drops below 1e-8 or after 200 rounds. Each
    component takes the level of its majority prepared label, and the
    components are stored in level order.

    Parameters
    ----------
    iq : (n, 2) array of integrated readout points.
    labels : sequence of n prepared-level strings "00"/"01"/"10"; any
        other label is a ConfigError.
    """
    iq = np.asarray(iq, dtype=float)
    lv = np.asarray(labels, dtype=str)
    code = np.full(len(lv), -1)
    for level in READOUT_LEVELS:
        code[lv == level.label] = level.index
    if np.any(code < 0):
        raise ConfigError(f"unknown readout label {str(lv[code < 0][0])!r}; "
                          f"the labels are 00, 01 and 10")
    count = np.bincount(code, minlength=3)
    if np.any(count == 0):
        raise ConfigError("need shots for all three readout levels")
    for level in READOUT_LEVELS:
        if count[level.index] < 100:
            raise ConfigError(f"need >= 100 shots per label, "
                              f"{level.label} has {count[level.index]}")

    n = len(iq)
    x, y = iq.T
    members = [iq[code == k] for k in range(3)]
    means = np.stack([m.mean(axis=0) for m in members])
    covs = np.stack([np.cov(m.T) for m in members])
    weights = count / n
    for cov in covs:
        _check_condition(cov)

    prev_ll = -np.inf
    ll_history = []
    for _ in range(200):
        # E step: (3, n) log-densities and one log-normaliser per point
        logp = _weighted_log_densities(iq, means, covs, weights)
        top = logp.max(axis=0)
        resp = np.exp(logp - top)
        total = resp.sum(axis=0)
        ll = float((np.log(total) + top).mean())
        ll_history.append(ll)
        resp /= total
        # M step
        nk = resp.sum(axis=1)
        weights = nk / n
        means = (resp @ iq) / nk[:, None]
        for k in range(3):
            dx = x - means[k, 0]
            dy = y - means[k, 1]
            rdx = resp[k] * dx
            sxy = rdx @ dy / nk[k]
            covs[k] = ((rdx @ dx / nk[k], sxy),
                       (sxy, (resp[k] * dy) @ dy / nk[k]))
            _check_condition(covs[k])
        if ll - prev_ll < 1e-8 and np.isfinite(prev_ll):
            break
        prev_ll = ll

    # Majority prepared label per component, constrained to a bijection.
    hard = _top_row(resp)
    counts = np.bincount(3 * hard + code, minlength=9).reshape(3, 3)
    assignment = [-1, -1, -1]
    for _ in range(3):
        k, j = np.unravel_index(np.argmax(counts), counts.shape)
        assignment[k] = j
        counts[k, :] = -1
        counts[:, j] = -1
    # Reorder components into fixed level order for deterministic ties.
    order = np.argsort(assignment)
    clf = GmmClassifier(means=means[order], covariances=covs[order],
                        weights=weights[order])
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
    """Row-stochastic prepared-vs-assigned fractions over the three levels;
    ``labels`` are the prepared-level strings "00"/"01"/"10"."""
    lv = np.asarray(labels, dtype=str)
    assigned = classify_batch(clf, np.asarray(iq, dtype=float))
    mat = np.zeros((3, 3))
    for i, prep in enumerate(READOUT_LEVELS):
        sel = lv == prep.label
        if not np.any(sel):
            raise ConfigError(f"no shots prepared in {prep.label}")
        for j, ass in enumerate(READOUT_LEVELS):
            mat[i, j] = np.mean(assigned[sel] == ass.index)
    return mat
