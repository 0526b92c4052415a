"""Constitutive catalogue and static magneto-elastic equilibrium of soft bi-laminates.

Each layer is an incompressible generalised neo-Hookean solid whose strain
energy depends on the first invariant only.  Four models are supported:
``neo-hookean``, ``yeoh`` (two-term), ``fung-demiray`` and ``gent``.  All
quantities are SI unless a function is explicitly documented as dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._roots import bisect, newton
from .errors import DomainError, GentLocking, NoRoot

MU0 = 4.0e-7 * math.pi  # vacuum permeability, N/A^2

#: evaluation margin on the Gent denominator 1 - beta*(I1 - 3)
GENT_MARGIN = 1.0e-9

NEO_HOOKEAN = "neo-hookean"
YEOH = "yeoh"
FUNG_DEMIRAY = "fung-demiray"
GENT = "gent"
KINDS = (NEO_HOOKEAN, YEOH, FUNG_DEMIRAY, GENT)

_KIND_ALIASES = {
    "neohookean": NEO_HOOKEAN,
    "neo-hookean": NEO_HOOKEAN,
    "neo_hookean": NEO_HOOKEAN,
    "yeoh": YEOH,
    "fungdemiray": FUNG_DEMIRAY,
    "fung-demiray": FUNG_DEMIRAY,
    "fung_demiray": FUNG_DEMIRAY,
    "gent": GENT,
}


def canonical_kind(kind: str) -> str:
    """Normalise a model-kind spelling (``"NeoHookean"`` -> ``"neo-hookean"``)."""
    key = kind.strip().lower().replace(" ", "")
    try:
        return _KIND_ALIASES[key]
    except KeyError:
        raise DomainError(f"unknown hyperelastic model kind: {kind!r}") from None


def _require_finite(obj, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value).all():
            raise DomainError(f"{name} must be finite, got {value}")


def _exp(x):
    """math.exp of a float (OverflowError past the float range), np.exp of an array."""
    return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)


def _least(x):
    """The smallest entry of an array (NaN if any is NaN, inf if empty), or a float itself."""
    return float(np.minimum.reduce(x, axis=None, initial=np.inf)) if isinstance(x, np.ndarray) else x


@dataclass(frozen=True)
class HyperelasticModel:
    """One-invariant incompressible model with ground-state modulus and nonlinearity.

    ``shear_modulus`` is the small-strain shear modulus (Pa); ``beta`` is the
    dimensionless stiffening parameter, absent (zero) for neo-Hookean.  An
    array of moduli stands for one model per entry (arrays of coefficients).
    """

    kind: str
    shear_modulus: float | np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        _require_finite(self, ("shear_modulus", "beta"))
        if not _least(self.shear_modulus) > 0.0:
            raise DomainError(f"shear_modulus must be positive, got {self.shear_modulus}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be non-negative, got {self.beta}")
        if self.kind == NEO_HOOKEAN and self.beta != 0.0:
            raise DomainError("neo-Hookean model takes no beta parameter")


def _gent_denominator(model: HyperelasticModel, d):
    """1 - beta*d at the invariant excess d = I1 - 3, or :class:`GentLocking` if any locks."""
    denom = 1.0 - model.beta * d
    worst = _least(denom)
    if worst <= GENT_MARGIN:
        raise GentLocking(
            f"Gent model locked: 1 - beta*(I1-3) = {worst:.3e} at I1 - 3 = {float(np.max(d)):.6g} "
            f"(limit I1 - 3 = {1.0 / model.beta:.6g})"
        )
    return denom


def _modulus(model: HyperelasticModel, d):
    """G at the invariant excess d = I1 - 3."""
    G, b = model.shear_modulus, model.beta
    if model.kind == NEO_HOOKEAN or b == 0.0:
        return G
    if model.kind == YEOH:
        return G * (1.0 + b * d)
    if model.kind == FUNG_DEMIRAY:
        return G * _exp(b * d)
    return G / _gent_denominator(model, d)


def _modulus_slope(model: HyperelasticModel, d):
    """dG/dI1 at the invariant excess d = I1 - 3."""
    G, b = model.shear_modulus, model.beta
    if model.kind == NEO_HOOKEAN or b == 0.0:
        return 0.0
    if model.kind == YEOH:
        return G * b
    if model.kind == FUNG_DEMIRAY:
        return G * b * _exp(b * d)
    return G * b / _gent_denominator(model, d) ** 2


def uniaxial_invariant_excess(stretch):
    """I1 - 3 of an isochoric uniaxial stretch x, as (x - 1)^2 (1 + 2/x).

    Unlike x^2 + 2/x - 3, which cancels to a few ulp of 3 near x = 1, the
    factored form keeps full relative precision there; an infinite stretch
    gives inf.
    """
    if not _least(stretch) > 0.0:
        raise DomainError(f"stretch must be positive, got {stretch}")
    e = stretch - 1.0
    return e * e * (1.0 + 2.0 / stretch)


@dataclass(frozen=True)
class ShearCoefficients:
    """Linear and cubic stiffness of the shear stress law sigma = g*gamma + h/3*gamma^3."""

    g: float | np.ndarray  # Pa
    h: float | np.ndarray  # Pa


def shear_coefficients(model: HyperelasticModel, stretch) -> ShearCoefficients:
    """Shear-wave stiffness coefficients of a pre-stretched layer.

    ``g = stretch^2 * G(I1)`` and ``h = 3 * stretch^4 * G'(I1)`` evaluated at
    the uniaxial base state ``I1 = stretch^2 + 2/stretch``; an array of
    stretches (or of moduli) gives arrays.
    """
    d = uniaxial_invariant_excess(stretch)
    l2 = stretch * stretch
    g = l2 * _modulus(model, d)
    slope = _modulus_slope(model, d)
    if np.any(slope):
        h = 3.0 * l2 * l2 * slope
    else:  # G' = 0 (neo-Hookean, or beta = 0): h is 0, also where x^4 overflows
        h = np.zeros(np.shape(l2)) if np.ndim(l2) else 0.0
    return ShearCoefficients(g=g, h=h)


@dataclass(frozen=True)
class Phase:
    """One material layer of the laminate."""

    model: HyperelasticModel
    density: float  # kg/m^3
    volume_fraction: float
    permeability: float = MU0  # N/A^2
    remnant_induction: float = 0.0  # T

    def __post_init__(self):
        _require_finite(self, ("density", "volume_fraction", "permeability", "remnant_induction"))
        if not self.density > 0.0:
            raise DomainError(f"density must be positive, got {self.density}")
        if not 0.0 < self.volume_fraction < 1.0:
            raise DomainError(f"volume_fraction must lie in (0, 1), got {self.volume_fraction}")
        if self.permeability < MU0 * (1.0 - 1e-12):
            raise DomainError("permeability cannot be below the vacuum value")


@dataclass(frozen=True)
class Laminate:
    """Periodic bi-laminate: two alternating phases and the undeformed period."""

    phase1: Phase
    phase2: Phase
    period: float  # undeformed spatial period L, m

    def __post_init__(self):
        nu_sum = self.phase1.volume_fraction + self.phase2.volume_fraction
        if abs(nu_sum - 1.0) > 1e-9:
            raise DomainError(f"volume fractions must sum to 1, got {nu_sum}")
        if not self.period > 0.0:
            raise DomainError(f"period must be positive, got {self.period}")

    @property
    def phases(self) -> tuple[Phase, Phase]:
        return (self.phase1, self.phase2)


@dataclass(frozen=True)
class MagneticLoad:
    """Applied axial magnetic induction, physical or dimensionless.

    Exactly one of ``b`` (T) or ``bn_br_product`` (the dimensionless load) may
    be given.  The product form only determines the equilibrium when the
    effective permeability equals the vacuum value.
    """

    b: float | None = None
    bn_br_product: float | None = None

    def __post_init__(self):
        given = [v for v in (self.b, self.bn_br_product) if v is not None]
        if len(given) != 1:
            raise DomainError("specify exactly one of b, bn_br_product")
        if not math.isfinite(given[0]):
            raise DomainError("magnetic load must be finite")


def arithmetic_modulus(lam: Laminate) -> float:
    """Volume-weighted arithmetic mean of the ground-state shear moduli (Pa)."""
    p1, p2 = lam.phases
    return (
        p1.volume_fraction * p1.model.shear_modulus
        + p2.volume_fraction * p2.model.shear_modulus
    )


def average_shear_modulus(lam: Laminate, stretch):
    """Volume-weighted average of the generalised moduli at the stretched state."""
    d = uniaxial_invariant_excess(stretch)
    p1, p2 = lam.phases
    return p1.volume_fraction * _modulus(p1.model, d) + p2.volume_fraction * _modulus(p2.model, d)


def effective_permeability(lam: Laminate) -> float:
    """Series (harmonic) mixture of the phase permeabilities."""
    p1, p2 = lam.phases
    return 1.0 / (p1.volume_fraction / p1.permeability + p2.volume_fraction / p2.permeability)


def effective_remnant_induction(lam: Laminate) -> float:
    """Effective remnant induction of the stack (T)."""
    p1, p2 = lam.phases
    mu_breve = effective_permeability(lam)
    return mu_breve * (
        p1.volume_fraction * p1.remnant_induction / p1.permeability
        + p2.volume_fraction * p2.remnant_induction / p2.permeability
    )


@dataclass(frozen=True)
class LoadNormalization:
    """Scales converting physical inductions to the dimensionless pair (bn, brn)."""

    b_scale: float  # T per unit of bn
    br_n: float  # dimensionless remnant induction of this laminate


def load_normalization(lam: Laminate) -> LoadNormalization:
    scale = math.sqrt(MU0 * arithmetic_modulus(lam))
    mu_breve = effective_permeability(lam)
    br_n = 2.0 * effective_remnant_induction(lam) * MU0 / mu_breve / scale
    return LoadNormalization(b_scale=scale, br_n=br_n)


def dimensionless_load_rhs(lam: Laminate, load: MagneticLoad) -> float:
    """Right-hand side of the stretch balance, normalised by mu0 * mean modulus."""
    mu_breve = effective_permeability(lam)
    vac_term = 1.0 - MU0 / mu_breve
    norm = load_normalization(lam)
    if load.bn_br_product is not None:
        if abs(vac_term) > 1e-12:
            raise DomainError(
                "bn_br_product only defines the load when the effective permeability "
                "equals the vacuum value"
            )
        return load.bn_br_product
    bn = load.b / norm.b_scale
    return vac_term * bn * bn + bn * norm.br_n


def _stretch_probe(lam: Laminate, x, r):
    """(residual <= 0, residual, its slope) of the stretch balance at x under the normalised
    load r, for :func:`~lamwave._roots.newton`: the residual is gbar (x^2 - 1/x) - r with
    gbar = Gbar(x) / Gbar(1), its slope gbar' (x^2 - 1/x) + gbar (2x + 1/x^2), dI1/dx = 2x - 2/x^2."""
    (p1, p2), mean, d, w = lam.phases, arithmetic_modulus(lam), uniaxial_invariant_excess(x), x * x - 1.0 / x
    gbar = (p1.volume_fraction * _modulus(p1.model, d) + p2.volume_fraction * _modulus(p2.model, d)) / mean
    inv2 = 1.0 / (x * x)
    dg = p1.volume_fraction * _modulus_slope(p1.model, d) + p2.volume_fraction * _modulus_slope(p2.model, d)
    f = gbar * w - r
    return f <= 0.0, f, dg / mean * 2.0 * (x - inv2) * w + gbar * (2.0 * x + inv2)


def _locking_stretch(beta: float, side: float, margin: float = 0.0) -> float:
    """Stretch at which a Gent phase's 1 - beta*(I1 - 3) falls to ``margin``.

    ``side >= 0`` picks the tension side, a negative ``side`` the compression side.
    Returns the last float, counted from 1, at which I1 - 3 <= (1 - margin)/beta:
    the unlocked end of the adjacent-float pair across the lock.
    """
    d_lock = (1.0 - margin) / beta
    i1 = 3.0 + d_lock
    # I1 - 3 - d_lock is -d_lock < 0 at 1, while it is i1^2 + 2/i1 - i1 > 0 at i1 and
    # 1/i1^2 + i1 > 0 at 1/i1 even after rounding
    end = i1 if side >= 0.0 else 1.0 / i1
    return float(bisect(lambda x: uniaxial_invariant_excess(x) <= d_lock, 1.0, end))


def stretch_roots(lam: Laminate, loads) -> tuple[np.ndarray, dict[int, NoRoot]]:
    """Axial stretches of the laminate under an array of normalised loads r, in one solve.

    Solves ``Gbar(x) / Gbar(1) * (x^2 - 1/x) = r``.  Every model has G'(I1) >= 0 and
    dI1/dx has the sign of x^2 - 1/x, so the residual is strictly increasing and
    has one root.  Gbar(x) >= Gbar(1) brackets it in closed form, with a margin of
    at least |r|/2 against rounding: [1, sqrt(1 + 2r)] under tension,
    [1/(1 - 2r), 1] under compression; where the Gent validity limit cuts a
    bracket, its end moves to just inside it.  All brackets are solved at once, by
    Newton steps on the residual (:func:`~lamwave._roots.newton`) and a bisection on
    its sign that ends on adjacent floats; the lower float (residual <= 0) is returned.

    Returns the stretches, NaN where a load has no root, and the :class:`NoRoot`
    of each such load by index: its root lies beyond the Gent limit (the error
    carries the locking stretch), its bracket leaves the float range (r >= 9e307,
    or r infinite or NaN), or the residual overflows at either float of the final
    pair (a Fung-Demiray stack near |r| = 1e308).
    """
    r = np.array(loads, dtype=float, ndmin=1)
    errors: dict[int, NoRoot] = {}
    # the stiffest Gent phase locks first
    beta = max((p.model.beta for p in lam.phases if p.model.kind == GENT), default=0.0)
    # inf is the intended value past the float range: sqrt(1 + 2r) at r >= 9e307 and a
    # Fung-Demiray exp(beta*(I1 - 3)), which gives the residual the sign of r
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        end = np.where(r >= 0.0, np.sqrt(1.0 + 2.0 * r), 0.5 / (0.5 - r))  # 0 at r = -inf
        for side in (1.0, -1.0) if beta else ():
            d = uniaxial_invariant_excess(np.where(end > 0.0, end, np.inf))
            rows = (1.0 - beta * d <= GENT_MARGIN) & (np.copysign(1.0, r) == side) & ~np.isnan(r)
            if not rows.any():
                continue
            end[rows] = _locking_stretch(beta, side, margin=2.0 * GENT_MARGIN)
            short = np.flatnonzero(rows)[_stretch_probe(lam, end[rows], r[rows])[1] * side < 0.0]
            if short.size:  # only their errors read the locking stretch itself
                lock = _locking_stretch(beta, side)
                for i in short.tolist():
                    errors[i] = NoRoot(f"load {r[i]:.6g} needs a stretch beyond the Gent locking "
                                       f"stretch {lock:.6g}", locking_stretch=lock)
        for i in np.flatnonzero(~((end > 0.0) & (end < np.inf))).tolist():
            message = f"load {r[i]:.6g} puts the stretch bracket beyond the float range"
            errors.setdefault(i, NoRoot(message))
        live = np.ones(r.shape, dtype=bool)
        live[list(errors)] = False
        target, end = np.where(live, r, 0.0), np.where(live, end, 1.0)
        top = np.maximum(1.0, end)
        brackets = newton(lambda x: _stretch_probe(lam, x, target), np.minimum(1.0, end), top)
        x = bisect(lambda mid: _stretch_probe(lam, mid, target)[0], *brackets)
        # a sign flip to or from an infinite residual is an overflow, not a root; the final
        # pair is x and its next float toward the top, x alone where the bracket was empty
        pair = _stretch_probe(lam, np.stack([x, np.nextafter(x, top)]), target)[1]
        for i in np.flatnonzero(live & ~np.isfinite(pair).all(axis=0)).tolist():
            errors[i] = NoRoot(f"load {r[i]:.6g}: the stretch residual overflows near its root {x[i]:.6g}")
            live[i] = False
    return np.where(live, x, np.nan), errors


def stretch_from_field(lam: Laminate, load: MagneticLoad) -> float:
    """Axial stretch produced by a permanent magnetic induction along the layers.

    The one-load call of :func:`stretch_roots`: raises its :class:`NoRoot`.
    """
    (stretch,), errors = stretch_roots(lam, [dimensionless_load_rhs(lam, load)])
    if errors:
        raise errors[0]
    return float(stretch)
