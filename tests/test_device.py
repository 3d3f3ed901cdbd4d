import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddqsim.device import (DeviceParams, DimonLevel, GHZ, MHZ,
                           device_dephasing_ratio, junction_sensitivity,
                           load_device, photon_dephasing_ratio)
from ddqsim.errors import ConfigError

TWO_PI = 2 * math.pi

# Shipped config values, frozen (bench-sheet presentation units).
Q1_CONFIG = {
    "omega_D_GHz": 4.707, "omega_Q_GHz": 5.468, "alpha_D_MHz": -136,
    "alpha_Q_MHz": -156, "eta_MHz": -283, "omega_R_GHz": 9.997,
    "kappa_R_MHz": 0.81, "two_chi_DR_MHz": 1.42, "two_chi_QR_MHz": 1.86,
    "T1_D_us": 63.6, "T1_Q_us": 65.3, "T2E_D_us": 63.4, "T2E_Q_us": 87.1,
    "T2R_D_us": 15.6, "T2R_Q_us": 16.6, "r_junction": 0.963, "n_th": 0.02,
}
Q2_KEY_VALUES = {"omega_D_GHz": 4.353, "omega_Q_GHz": 5.403,
                 "T1_Q_us": 55.4, "r_junction": 0.959}
Q3_KEY_VALUES = {"omega_D_GHz": 4.235, "omega_Q_GHz": 5.276,
                 "kappa_R_MHz": 0.79, "r_junction": 0.931}


@pytest.fixture(scope="module")
def q1():
    return load_device("q1")


class TestDimonLevel:
    def test_exactly_six_members(self):
        assert len(DimonLevel) == 6

    def test_label_roundtrip(self):
        for lv in DimonLevel:
            assert DimonLevel.from_label(lv.label) is lv

    def test_occupations(self):
        assert (DimonLevel.L02.m, DimonLevel.L02.n) == (0, 2)
        assert (DimonLevel.L20.m, DimonLevel.L20.n) == (2, 0)


class TestConfigLoading:
    def test_q1_values_verbatim(self, q1):
        assert q1.omega_D == pytest.approx(4.707 * GHZ)
        assert q1.omega_Q == pytest.approx(5.468 * GHZ)
        assert q1.alpha_Q == pytest.approx(-156 * MHZ)
        assert q1.eta == pytest.approx(-283 * MHZ)
        assert q1.kappa_R == pytest.approx(0.81 * MHZ)
        # loader halves the full-shift entries
        assert q1.chi_DR == pytest.approx(0.71 * MHZ)
        assert q1.chi_QR == pytest.approx(0.93 * MHZ)
        assert q1.T1_Q_us == 65.3
        assert q1.r_junction == 0.963
        assert q1.n_th_D == q1.n_th_Q == 0.02

    @pytest.mark.parametrize("name,expected",
                             [("q2", Q2_KEY_VALUES), ("q3", Q3_KEY_VALUES)])
    def test_builtin_devices(self, name, expected):
        params = load_device(name)
        assert params.omega_D == pytest.approx(expected["omega_D_GHz"] * GHZ)
        assert params.omega_Q == pytest.approx(expected["omega_Q_GHz"] * GHZ)
        assert params.r_junction == expected["r_junction"]

    def test_every_key_scales_by_its_unit(self):
        # omega_Q must exceed omega_D, so it alone is 2
        cfg = dict.fromkeys(Q1_CONFIG, 1.0)
        cfg["omega_Q_GHz"] = 2.0
        params = DeviceParams.from_config(cfg, name="unit")
        assert dataclasses.asdict(params) == {
            "omega_D": GHZ, "omega_Q": 2.0 * GHZ, "alpha_D": MHZ,
            "alpha_Q": MHZ, "eta": MHZ, "omega_R": GHZ, "kappa_R": MHZ,
            # the two_chi_* keys hold the full shift 2 chi
            "chi_DR": 0.5 * MHZ, "chi_QR": 0.5 * MHZ,
            "T1_D_us": 1.0, "T1_Q_us": 1.0, "T2E_D_us": 1.0,
            "T2E_Q_us": 1.0, "T2R_D_us": 1.0, "T2R_Q_us": 1.0,
            "r_junction": 1.0, "n_th_D": 1.0, "n_th_Q": 1.0, "name": "unit"}

    def test_missing_key_rejected(self):
        cfg = dict(Q1_CONFIG)
        del cfg["eta_MHz"]
        with pytest.raises(ConfigError, match="missing"):
            DeviceParams.from_config(cfg)

    def test_unknown_key_rejected(self):
        cfg = dict(Q1_CONFIG, extra_knob=1.0)
        with pytest.raises(ConfigError, match="unknown"):
            DeviceParams.from_config(cfg)

    def test_junction_ratio_canonicalized(self):
        cfg = dict(Q1_CONFIG, r_junction=1.0 / 0.963)
        params = DeviceParams.from_config(cfg)
        assert params.r_junction == pytest.approx(0.963)

    def test_detuning_positive_enforced(self):
        cfg = dict(Q1_CONFIG, omega_Q_GHz=4.0)
        with pytest.raises(ConfigError):
            DeviceParams.from_config(cfg)

    @pytest.mark.parametrize("key", ["n_th", "T1_D_us", "omega_D_GHz",
                                     "kappa_R_MHz", "r_junction"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_value_rejected(self, tmp_path, key, value):
        # a NaN n_th used to switch relaxation off: every rate was NaN
        path = tmp_path / "dev.json"
        path.write_text(json.dumps(dict(Q1_CONFIG, **{key: value})))
        with pytest.raises(ConfigError, match="must be finite"):
            load_device(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_device(tmp_path / "nope.json")

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "dev.json"
        path.write_text("[4.707, 5.468]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_device(path)


class TestPhotonDephasingRatio:
    def test_symmetric_shifts_fully_protected(self):
        ratio, reduction = photon_dephasing_ratio(0.8, 0.8, 1.0)
        assert ratio == 0.0 and reduction == 1.0

    def test_single_shift_algebraic_limits(self):
        # chi_DR = 0 reduces the ratio to 4(k^2 + c^2)/(k^2 + 4c^2), which
        # runs from 1 (narrow resonator) to 4 (broad resonator).
        ratio_narrow, _ = photon_dephasing_ratio(1.0, 0.0, 1e-9)
        assert ratio_narrow == pytest.approx(1.0, rel=1e-6)
        ratio_broad, _ = photon_dephasing_ratio(1.0, 0.0, 1e9)
        assert ratio_broad == pytest.approx(4.0, rel=1e-6)
        kappa = 0.7
        expect = 4 * (kappa**2 + 1) / (kappa**2 + 4)
        ratio_mid, _ = photon_dephasing_ratio(1.0, 0.0, kappa)
        assert ratio_mid == pytest.approx(expect, rel=1e-12)

    def test_q1_half_shift_values(self):
        ratio, reduction = photon_dephasing_ratio(0.93, 0.71, 0.81)
        assert ratio == pytest.approx(0.2834, abs=2e-4)
        assert reduction == pytest.approx(1 - 0.2834, abs=2e-4)

    def test_zero_mean_shift_rejected(self):
        with pytest.raises(ValueError):
            photon_dephasing_ratio(0.5, -0.5, 1.0)

    @given(chi_q=st.floats(0.1, 3.0), chi_d=st.floats(0.1, 3.0),
           kappa=st.floats(0.1, 3.0), s=st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance_and_symmetry(self, chi_q, chi_d, kappa, s):
        r1, _ = photon_dephasing_ratio(chi_q, chi_d, kappa)
        r2, _ = photon_dephasing_ratio(s * chi_q, s * chi_d, s * kappa)
        r3, _ = photon_dephasing_ratio(chi_d, chi_q, kappa)
        assert r1 == pytest.approx(r2, rel=1e-9)
        assert r1 == pytest.approx(r3, rel=1e-9)

    def test_device_conventions_differ(self, q1):
        # The measured-shift convention is ambiguous, so both are exposed:
        # half-shifts give ~72% reduction for Q1, full shifts ~43%.
        _, red_half = device_dephasing_ratio(q1, "half")
        _, red_full = device_dephasing_ratio(q1, "full")
        assert red_half == pytest.approx(0.7166, abs=2e-3)
        assert red_full == pytest.approx(0.4256, abs=2e-3)
        with pytest.raises(ValueError):
            device_dephasing_ratio(q1, "both")


class TestJunctionSensitivity:
    def test_symmetric_junctions_protected(self):
        sens, factor = junction_sensitivity(1.0, 1.0)
        assert sens == 0.0 and factor == 0.0

    def test_factor_values(self):
        _, f1 = junction_sensitivity(0.963, 1.0)
        assert f1 == pytest.approx(0.01867, abs=2e-5)
        delta = TWO_PI * 1.041e9
        sens, f3 = junction_sensitivity(0.931, delta)
        assert f3 == pytest.approx(0.03512, abs=2e-5)
        assert sens == pytest.approx(0.03512 / delta, rel=1e-3)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            junction_sensitivity(0.0, 1.0)
        with pytest.raises(ValueError):
            junction_sensitivity(-0.5, 1.0)

    def test_reciprocal_ratio_equivalent(self):
        assert junction_sensitivity(0.8, 2.0) == junction_sensitivity(1.25, 2.0)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_r(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo < 1e-9:
            return
        _, f_lo = junction_sensitivity(lo, 1.0)
        _, f_hi = junction_sensitivity(hi, 1.0)
        assert f_lo > f_hi
