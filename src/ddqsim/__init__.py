"""Simulator and coherence-metrology toolkit for a dual-rail dimon qubit.

Synthetic measurement shots of a two-mode (dimon) transmon under
configurable decoherence and frequency noise, end-of-line readout
classification, error-detected postselection, coherence fitting with
bootstrap bounds, and frequency-stability analysis (Allan deviation, Welch
spectra).
"""

__version__ = "0.1.0"

from .device import (DeviceParams, DimonLevel, LEVEL_ORDER, LOGICAL_ONE,
                     LOGICAL_ZERO, device_dephasing_ratio, dispersive_shifts,
                     junction_sensitivity, level_energy, load_device,
                     photon_dephasing_ratio)
from .dynamics import (PulseSequence, ShotBatch, build_rate_matrix,
                       propagate_exact, run_sequence_batch)
from .noise import NoiseProcess, synthesize_noise
from .readout import GmmClassifier, ReadoutModel, confusion_matrix, fit_gmm

__all__ = [
    "DeviceParams", "DimonLevel", "LEVEL_ORDER", "LOGICAL_ONE", "LOGICAL_ZERO",
    "device_dephasing_ratio", "dispersive_shifts", "junction_sensitivity",
    "level_energy", "load_device", "photon_dephasing_ratio",
    "PulseSequence", "ShotBatch", "build_rate_matrix", "propagate_exact",
    "run_sequence_batch",
    "NoiseProcess", "synthesize_noise",
    "GmmClassifier", "ReadoutModel", "confusion_matrix", "fit_gmm",
]
