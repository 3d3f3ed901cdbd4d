"""Device parameters and closed-form physics of the two-mode (dimon) qubit.

Conventions
-----------
Config files store frequencies the way they are usually quoted on the bench:
``omega_*_GHz`` are omega/2pi in GHz, anharmonicities / cross-Kerr /
dispersive shifts / linewidths in MHz, coherence times in microseconds.
Internally every frequency-like quantity is an SI angular frequency (rad/s);
coherence times stay in microseconds because that is the simulation time
unit. The ``two_chi_*_MHz`` config keys carry the *full* resonator shift
(2 chi); the loader halves them so `DeviceParams` stores half-shifts chi.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from enum import Enum
from importlib import resources

from .errors import ConfigError
from .tables import read_json

TWO_PI = 2.0 * math.pi
GHZ = 1e9 * TWO_PI   # GHz (omega/2pi) -> rad/s
MHZ = 1e6 * TWO_PI   # MHz (omega/2pi) -> rad/s


class DimonLevel(Enum):
    """The six ladder states |mn> with m D-mode and n Q-mode excitations."""

    L00 = (0, 0)
    L01 = (0, 1)
    L10 = (1, 0)
    L11 = (1, 1)
    L02 = (0, 2)
    L20 = (2, 0)

    @property
    def m(self) -> int:
        return self.value[0]

    @property
    def n(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return f"{self.m}{self.n}"

    @property
    def index(self) -> int:
        return LEVEL_ORDER.index(self)

    @classmethod
    def from_label(cls, label: str) -> "DimonLevel":
        for lv in cls:
            if lv.label == label:
                return lv
        raise ValueError(f"unknown level label {label!r}")


# Fixed basis ordering used by rate matrices and probability vectors: the
# member order of `DimonLevel`.
LEVEL_ORDER = tuple(DimonLevel)

# config key -> (the DeviceParams fields it fills, its unit factor); the
# table-style configs store the full shift 2*chi, so two_chi_* are halved
CONFIG_UNITS = {
    "omega_D_GHz": (("omega_D",), GHZ), "omega_Q_GHz": (("omega_Q",), GHZ),
    "alpha_D_MHz": (("alpha_D",), MHZ), "alpha_Q_MHz": (("alpha_Q",), MHZ),
    "eta_MHz": (("eta",), MHZ), "omega_R_GHz": (("omega_R",), GHZ),
    "kappa_R_MHz": (("kappa_R",), MHZ),
    "two_chi_DR_MHz": (("chi_DR",), 0.5 * MHZ),
    "two_chi_QR_MHz": (("chi_QR",), 0.5 * MHZ),
    **{k: ((k,), 1.0) for k in ("T1_D_us", "T1_Q_us", "T2E_D_us", "T2E_Q_us",
                                "T2R_D_us", "T2R_Q_us", "r_junction")},
    "n_th": (("n_th_D", "n_th_Q"), 1.0),
}

BUILTIN_DEVICES = ("q1", "q2", "q3")


@dataclass(frozen=True)
class DeviceParams:
    """All parameters of one dimon + readout resonator.

    Frequencies are angular (rad/s), times in microseconds, chi_DR/chi_QR are
    half-shifts. ``r_junction`` is stored in canonical order (min/max, so
    0 < r <= 1).
    """

    omega_D: float
    omega_Q: float
    alpha_D: float
    alpha_Q: float
    eta: float
    omega_R: float
    kappa_R: float
    chi_DR: float
    chi_QR: float
    T1_D_us: float
    T1_Q_us: float
    T2E_D_us: float
    T2E_Q_us: float
    T2R_D_us: float
    T2R_Q_us: float
    r_junction: float
    n_th_D: float = 0.02
    n_th_Q: float = 0.02
    name: str = "device"

    def __post_init__(self):
        for f in fields(self):
            if f.name != "name" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if not self.omega_Q > self.omega_D:
            raise ConfigError("require omega_Q > omega_D (positive detuning)")
        for field in ("T1_D_us", "T1_Q_us", "T2E_D_us", "T2E_Q_us",
                      "T2R_D_us", "T2R_Q_us", "kappa_R"):
            if not getattr(self, field) > 0:
                raise ConfigError(f"{field} must be > 0")
        if self.n_th_D < 0 or self.n_th_Q < 0:
            raise ConfigError("n_th must be >= 0")
        r = self.r_junction
        if r <= 0:
            raise ConfigError("r_junction must be > 0")
        if r > 1.0:
            object.__setattr__(self, "r_junction", 1.0 / r)

    def with_(self, **kwargs) -> "DeviceParams":
        return replace(self, **kwargs)

    @classmethod
    def from_config(cls, cfg: dict, name: str = "device") -> "DeviceParams":
        if not isinstance(cfg, dict):
            raise ConfigError("a device config must be a JSON object")
        missing = [k for k in CONFIG_UNITS if k not in cfg]
        unknown = [k for k in cfg if k not in CONFIG_UNITS]
        if missing:
            raise ConfigError(f"config missing keys: {missing}")
        if unknown:
            raise ConfigError(f"config has unknown keys: {unknown}")
        try:
            values = {k: float(cfg[k]) for k in CONFIG_UNITS}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric config value: {exc}") from exc
        return cls(name=name, **{f: values[k] * factor
                                 for k, (names, factor) in CONFIG_UNITS.items()
                                 for f in names})


def load_device(source) -> DeviceParams:
    """Load a device config from a JSON path or a builtin name (q1/q2/q3)."""
    name = str(source)
    if name.lower() in BUILTIN_DEVICES:
        with resources.as_file(resources.files("ddqsim") / "configs" /
                               f"{name.lower()}.json") as path:
            return DeviceParams.from_config(
                read_json(path, "device config"), name=name.lower())
    stem = os.path.splitext(os.path.basename(name))[0]
    return DeviceParams.from_config(read_json(name, "device config"),
                                    name=stem)


def photon_dephasing_ratio(chi_QR: float, chi_DR: float,
                           kappa: float) -> tuple[float, float]:
    """Ratio of encoded-qubit to mean physical-mode photon-shot-noise dephasing.

    Returns ``(ratio, reduction)`` where

        ratio = dchi^2 (kappa^2 + 4 chibar^2) / (chibar^2 (kappa^2 + 4 dchi^2))

    with dchi = chi_QR - chi_DR and chibar = (chi_QR + chi_DR)/2, and
    reduction = 1 - ratio. Dimensionless and homogeneous of degree zero: any
    common unit for the chis and kappa works.
    """
    chibar = 0.5 * (chi_QR + chi_DR)
    if chibar == 0:
        raise ValueError("mean dispersive shift is zero; ratio undefined")
    dchi = chi_QR - chi_DR
    ratio = (dchi * dchi * (kappa * kappa + 4.0 * chibar * chibar)
             / (chibar * chibar * (kappa * kappa + 4.0 * dchi * dchi)))
    return ratio, 1.0 - ratio


def device_dephasing_ratio(params: DeviceParams,
                           convention: str = "half") -> tuple[float, float]:
    """Photon-shot-noise dephasing ratio for a device, by chi convention.

    ``convention="half"`` feeds the stored half-shifts chi; ``"full"`` feeds
    the full shifts 2*chi. The two give different ratios (kappa is not
    rescaled) and the measured-device literature is ambiguous about which is
    meant, so both are first-class.
    """
    if convention == "half":
        return photon_dephasing_ratio(params.chi_QR, params.chi_DR, params.kappa_R)
    if convention == "full":
        return photon_dephasing_ratio(2.0 * params.chi_QR, 2.0 * params.chi_DR,
                                      params.kappa_R)
    raise ValueError("convention must be 'half' or 'full'")


def junction_sensitivity(r: float, delta: float) -> tuple[float, float]:
    """Junction-asymmetry dephasing sensitivity (1 - sqrt(r)) / delta.

    Returns ``(sensitivity, factor)`` with factor = 1 - sqrt(r); the overall
    proportionality constant of the dephasing rate is deliberately not
    modeled. ``r`` is canonicalized to (0, 1] (a ratio and its reciprocal
    describe the same pair of junctions); delta is the mode detuning in rad/s.
    """
    if r <= 0:
        raise ValueError("junction ratio must be > 0")
    if r > 1.0:
        r = 1.0 / r
    if delta <= 0:
        raise ValueError("detuning must be > 0")
    factor = 1.0 - math.sqrt(r)
    return factor / delta, factor
