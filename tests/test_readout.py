import math

import numpy as np
import pytest

from ddqsim.device import DimonLevel, load_device
from ddqsim.errors import ConfigError, DegenerateModelError
from ddqsim.readout import (GmmClassifier, ReadoutModel, classify_batch,
                            confusion_matrix, default_blob_means, fit_gmm,
                            sample_iq_batch)


@pytest.fixture(scope="module")
def q1():
    return load_device("q1")


def make_training_set(rng, means, sigma, n_per_class):
    iq, labels = [], []
    for k, lv in enumerate(("00", "01", "10")):
        pts = means[k] + sigma * rng.standard_normal((n_per_class, 2))
        iq.append(pts)
        labels += [lv] * n_per_class
    return np.concatenate(iq), np.array(labels)


def ideal_classifier(means, sigma):
    covs = np.stack([np.eye(2) * sigma**2] * 3)
    return GmmClassifier(means=np.asarray(means, float), covariances=covs,
                         weights=np.full(3, 1 / 3))


class TestReadoutModel:
    def test_blob_geometry(self):
        means = default_blob_means(sigma=2.0, radius_sigmas=5.0)
        assert means.shape == (3, 2)
        assert np.allclose(np.linalg.norm(means, axis=1), 10.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ReadoutModel(means=np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            ReadoutModel(sigma=0.0)

    def test_drive_frequency_rule(self, q1):
        drive = ReadoutModel.drive_frequency(q1)
        assert drive == q1.omega_R - 0.5 * (q1.chi_QR + q1.chi_DR)


class TestGenerateIq:
    def test_zero_width_zero_integration_hits_mean(self, q1):
        model = ReadoutModel(sigma=1e-12, t_ro_us=0.0)
        pt = sample_iq_batch(np.array([DimonLevel.L01.index]), model, q1,
                             seed=1)
        assert np.allclose(pt, model.means[1], atol=1e-9)

    def test_no_integration_no_decay(self, q1):
        model = ReadoutModel(sigma=0.5, t_ro_us=0.0)
        levels = np.full(20_000, 1)
        iq = sample_iq_batch(levels, model, q1, seed=3)
        # every point is centered on the |01> blob: mean distance ~ sigma
        d = np.linalg.norm(iq - model.means[1], axis=1)
        assert d.mean() == pytest.approx(0.5 * math.sqrt(math.pi / 2),
                                         rel=0.05)

    def test_decay_fraction_matches_closed_form(self, q1):
        # t_RO / T1 = 0.1: fraction read out as |00> ~ 1 - exp(-0.05)
        t1 = q1.T1_Q_us
        model = ReadoutModel(sigma=0.05, t_ro_us=0.1 * t1)
        levels = np.full(100_000, 1)
        iq = sample_iq_batch(levels, model, q1, seed=9)
        clf = ideal_classifier(model.means, model.sigma)
        assigned = classify_batch(clf, iq)
        frac00 = np.mean(assigned == 0)
        assert frac00 == pytest.approx(1 - math.exp(-0.05), rel=0.10)

    def test_doubly_excited_parent_blobs(self, q1):
        model = ReadoutModel(sigma=0.1, t_ro_us=0.0)
        levels = np.array([3, 4, 5] * 500)  # |11>, |02>, |20>
        iq = sample_iq_batch(levels, model, q1, seed=4)
        clf = ideal_classifier(model.means, model.sigma)
        assigned = classify_batch(clf, iq)
        assert np.all(assigned[levels == 4] == 1)   # |02> -> |01>
        assert np.all(assigned[levels == 5] == 2)   # |20> -> |10>
        assert np.all(assigned[levels == 3] == 1)   # |11> -> Q parent


class TestFitGmm:
    def test_well_separated_recovery(self):
        rng = np.random.default_rng(7)
        means = default_blob_means(sigma=1.0, radius_sigmas=10.0)
        iq, labels = make_training_set(rng, means, 1.0, 3333)
        clf = fit_gmm(iq, labels)
        for k in range(3):
            assert np.linalg.norm(clf.means[k] - means[k]) < 0.1

    def test_mean_consistency_bound(self):
        # recovered means within 5/sqrt(N) sigma units per class
        rng = np.random.default_rng(21)
        means = default_blob_means(sigma=1.0, radius_sigmas=5.0)
        n = 10_000
        iq, labels = make_training_set(rng, means, 1.0, n)
        clf = fit_gmm(iq, labels)
        for k in range(3):
            assert np.linalg.norm(clf.means[k] - means[k]) < 5 / math.sqrt(n)

    def test_identical_points_degenerate(self):
        iq = np.zeros((600, 2))
        labels = np.array(["00", "01", "10"] * 200)
        with pytest.raises(DegenerateModelError):
            fit_gmm(iq, labels)

    def test_em_loglikelihood_monotone(self):
        rng = np.random.default_rng(3)
        means = default_blob_means(sigma=1.0, radius_sigmas=2.0)  # overlapping
        iq, labels = make_training_set(rng, means, 1.0, 800)
        clf = fit_gmm(iq, labels)
        assert len(clf.ll_history) >= 2
        assert np.all(np.diff(clf.ll_history) >= -1e-10)

    def test_label_map_is_bijection(self):
        rng = np.random.default_rng(5)
        means = default_blob_means(sigma=1.0, radius_sigmas=8.0)
        iq, labels = make_training_set(rng, means, 1.0, 500)
        clf = fit_gmm(iq, labels)
        assert sorted(lv.label for lv in clf.labels) == ["00", "01", "10"]

    def test_needs_all_classes_and_enough_shots(self):
        rng = np.random.default_rng(1)
        means = default_blob_means()
        iq, labels = make_training_set(rng, means, 1.0, 500)
        with pytest.raises(ConfigError):
            fit_gmm(iq[labels != "10"], labels[labels != "10"])
        iq2, labels2 = make_training_set(rng, means, 1.0, 50)
        with pytest.raises(ConfigError, match="100"):
            fit_gmm(iq2, labels2)

    def test_unsupervised_mode(self):
        rng = np.random.default_rng(11)
        means = default_blob_means(sigma=1.0, radius_sigmas=9.0)
        iq, labels = make_training_set(rng, means, 1.0, 700)
        clf = fit_gmm(iq, labels, supervised=False, seed=2)
        for k in range(3):
            assert np.linalg.norm(clf.means[k] - means[k]) < 0.15


class TestClassify:
    def test_component_mean_high_responsibility(self):
        means = default_blob_means(sigma=1.0, radius_sigmas=8.0)
        clf = ideal_classifier(means, 1.0)
        assert classify_batch(clf, means[1]).tolist() == [DimonLevel.L01.index]
        resp = np.exp(clf.log_responsibilities(means[1])[0])
        assert resp[1] > 0.999

    def test_equidistant_tie_breaks_low(self):
        clf = ideal_classifier([[0, 0], [2, 0], [1, 5]], 1.0)
        resp = np.exp(clf.log_responsibilities([1.0, 0.0])[0])
        assert resp[0] == pytest.approx(resp[1], rel=1e-9)
        assigned = classify_batch(clf, [1.0, 0.0])
        assert assigned.tolist() == [DimonLevel.L00.index]

    def test_misassignment_rate_at_6_sigma(self):
        rng = np.random.default_rng(13)
        means = default_blob_means(sigma=1.0, radius_sigmas=6.0)
        clf = ideal_classifier(means, 1.0)
        n = 100_000
        iq, labels = make_training_set(rng, means, 1.0, n // 3)
        assigned = classify_batch(clf, iq)
        truth = np.repeat([0, 1, 2], n // 3)
        assert np.mean(assigned != truth) < 1e-3

    def test_affine_isometry_invariance(self):
        rng = np.random.default_rng(17)
        means = default_blob_means(sigma=1.0, radius_sigmas=4.0)
        clf = ideal_classifier(means, 1.0)
        pts = rng.normal(0, 4, (500, 2))
        theta = 0.73
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        shift = np.array([3.1, -2.2])
        moved = GmmClassifier(
            means=means @ rot.T + shift,
            covariances=np.stack([rot @ c @ rot.T for c in clf.covariances]),
            weights=clf.weights)
        a = classify_batch(clf, pts)
        b = classify_batch(moved, pts @ rot.T + shift)
        assert np.array_equal(a, b)

    def test_equal_covariance_regions_convex(self):
        rng = np.random.default_rng(23)
        clf = ideal_classifier(default_blob_means(1.0, 5.0), 1.0)
        pts_a = rng.normal(0, 5, (400, 2))
        pts_b = rng.normal(0, 5, (400, 2))
        la = classify_batch(clf, pts_a)
        lb = classify_batch(clf, pts_b)
        same = la == lb
        mids = 0.5 * (pts_a[same] + pts_b[same])
        assert np.array_equal(classify_batch(clf, mids), la[same])

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(29)
        means = default_blob_means(sigma=1.0, radius_sigmas=7.0)
        iq, labels = make_training_set(rng, means, 1.0, 400)
        clf = fit_gmm(iq, labels)
        clf2 = GmmClassifier.from_json(clf.to_json())
        pts = rng.normal(0, 5, (200, 2))
        assert np.array_equal(classify_batch(clf, pts),
                              classify_batch(clf2, pts))


class TestConfusionMatrix:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(31)
        means = default_blob_means(sigma=1.0, radius_sigmas=3.0)
        clf = ideal_classifier(means, 1.0)
        iq, labels = make_training_set(rng, means, 1.0, 2000)
        mat = confusion_matrix(clf, iq, labels)
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_sharp_blobs_identity(self):
        rng = np.random.default_rng(37)
        means = default_blob_means(sigma=1.0, radius_sigmas=5.0)
        clf = ideal_classifier(means, 1.0)
        iq, labels = make_training_set(rng, means, 1e-6, 300)
        mat = confusion_matrix(clf, iq, labels)
        assert np.allclose(mat, np.eye(3))

    def test_decay_during_readout_row(self, q1):
        t1 = q1.T1_Q_us
        model = ReadoutModel(sigma=0.05, t_ro_us=0.1 * t1)
        levels = np.concatenate([np.zeros(5000, int), np.ones(50_000, int),
                                 np.full(5000, 2)])
        labels = np.array(["00"] * 5000 + ["01"] * 50_000 + ["10"] * 5000)
        iq = sample_iq_batch(levels, model, q1, seed=41)
        clf = ideal_classifier(model.means, model.sigma)
        mat = confusion_matrix(clf, iq, labels)
        assert mat[1, 0] == pytest.approx(1 - math.exp(-0.05), rel=0.12)

    def test_empty_class_rejected(self):
        clf = ideal_classifier(default_blob_means(), 1.0)
        iq = np.zeros((10, 2))
        labels = ["00"] * 10
        with pytest.raises(ConfigError):
            confusion_matrix(clf, iq, labels)
