"""Shear waves in magneto-active soft bi-laminates.

Constitutive models and magneto-elastic equilibrium (:mod:`lamwave.materials`),
the homogenised wave model (:mod:`lamwave.homogenize`), Floquet-Bloch and
homogenised dispersion (:mod:`lamwave.dispersion`), solitary-wave analysis
(:mod:`lamwave.soliton`), direct finite-volume simulation
(:mod:`lamwave.fv_sim`), pseudo-spectral marching of the unidirectional model
(:mod:`lamwave.spectral_sim`) and tunability sweeps (:mod:`lamwave.sweeps`).
"""

from .errors import (
    CFLViolation,
    ConfigError,
    DispersionTooStrong,
    DomainError,
    GentLocking,
    GeometryError,
    Instability,
    LamwaveError,
    NoBound,
    NoGap,
    NoRoot,
    NoSoliton,
    NotReached,
)
from .homogenize import EffectiveModel, effective_model
from .materials import (
    MU0,
    HyperelasticModel,
    Laminate,
    MagneticLoad,
    Phase,
    ShearCoefficients,
    stretch_from_field,
)
from .soliton import SolitonSolution, WaveModel

__all__ = [
    "MU0",
    "CFLViolation",
    "ConfigError",
    "DispersionTooStrong",
    "DomainError",
    "EffectiveModel",
    "GentLocking",
    "GeometryError",
    "HyperelasticModel",
    "Instability",
    "Laminate",
    "LamwaveError",
    "MagneticLoad",
    "NoBound",
    "NoGap",
    "NoRoot",
    "NoSoliton",
    "NotReached",
    "Phase",
    "ShearCoefficients",
    "SolitonSolution",
    "WaveModel",
    "effective_model",
    "stretch_from_field",
]

__version__ = "0.1.0"
