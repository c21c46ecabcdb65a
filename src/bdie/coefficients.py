"""Scalar diffusion coefficients and their admissibility audit.

The solver needs a(x) together with its gradient and Laplacian, all
user-supplied in closed form; nothing here differentiates numerically.
``validate_conditions`` samples the coefficient on spheres of increasing
radius and classifies it against the conditions the theory needs: two-sided
positive bounds, boundedness of w(x)|grad a| and w(x)^2|lap a| with the
radial weight w(x) = (1 + |x|^2)^(1/2), and decay of w(x)|grad a| at
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# The audit samples ANGULAR_SAMPLES directions on each sphere of RADII; the
# decay check passes when w|grad a| falls below DECAY_TOL on the last one.
RADII = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
ANGULAR_SAMPLES = 128
DECAY_TOL = 1e-3
# A supremum sequence is called bounded when its tail stops growing by more
# than this relative factor between the mid and final radius.
GROWTH_TOL = 0.1
ABS_FLOOR = 1e-12


def weight(points) -> np.ndarray:
    """Radial weight w(x) = sqrt(1 + |x|^2)."""
    pts = np.asarray(points, dtype=float)
    return np.sqrt(1.0 + (pts * pts).sum(axis=-1))


@dataclass
class CoefficientField:
    """Variable diffusion coefficient with closed-form derivatives.

    Parameters
    ----------
    a : callable
        Maps (..., 3) points to positive values.
    grad_a : callable
        Maps (..., 3) points to (..., 3) gradients.
    laplacian_a : callable
        Maps (..., 3) points to scalar Laplacian values.
    c_lower, c_upper : float
        Claimed two-sided bounds 0 < c_lower < a < c_upper.
    name : str
        Identifier used in reports.
    constant : bool
        True only when a is constant everywhere; the solver then skips the
        remainder R, the dn ln a term of W and the source of the point-source
        case.  Set by ``constant_coefficient``; nothing samples a to decide it.
    """

    a: Callable
    grad_a: Callable
    laplacian_a: Callable
    c_lower: float
    c_upper: float
    name: str = "custom"
    constant: bool = False

    def __post_init__(self):
        if not (0.0 < self.c_lower < self.c_upper):
            raise ValueError("need 0 < c_lower < c_upper")

    def eval_a(self, points) -> np.ndarray:
        return np.asarray(self.a(np.asarray(points, dtype=float)), dtype=float)

    def eval_grad_ln_a(self, points) -> np.ndarray:
        """grad(ln a) = grad a / a."""
        pts = np.asarray(points, dtype=float)
        return np.asarray(self.grad_a(pts), dtype=float) / self.eval_a(pts)[..., None]

    def eval_laplacian_ln_a(self, points) -> np.ndarray:
        """lap(ln a) = lap a / a - |grad a|^2 / a^2."""
        pts = np.asarray(points, dtype=float)
        a = self.eval_a(pts)
        g = np.asarray(self.grad_a(pts), dtype=float)
        lap = np.asarray(self.laplacian_a(pts), dtype=float)
        return lap / a - (g * g).sum(axis=-1) / a**2

    @property
    def is_constant(self) -> bool:
        return self.constant


@dataclass
class CoefficientReport:
    """Outcome of the sampled admissibility audit."""

    name: str
    passes_cond0: bool
    passes_cond1: bool
    passes_cond3: bool
    passes_decay: bool
    sup_weighted_grad: float
    sup_weighted_laplacian: float
    tail_samples: list = field(default_factory=list)  # (radius, sup w|grad a|)
    decay_tol: float = DECAY_TOL

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passes_cond0": self.passes_cond0,
            "passes_cond1": self.passes_cond1,
            "passes_cond3": self.passes_cond3,
            "passes_decay": self.passes_decay,
            "sup_weighted_grad": self.sup_weighted_grad,
            "sup_weighted_laplacian": self.sup_weighted_laplacian,
            "tail_samples": [[float(r), float(s)] for r, s in self.tail_samples],
            "decay_tol": self.decay_tol,
        }


def fibonacci_sphere(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit directions (golden-angle lattice)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _tail_bounded(per_radius: np.ndarray) -> bool:
    # Bounded if the final supremum does not exceed the mid-tail one by more
    # than the growth tolerance (with an absolute floor for the zero case).
    last = per_radius[-1]
    mid = per_radius[len(per_radius) // 2]
    if last <= ABS_FLOOR:
        return True
    return last <= mid * (1.0 + GROWTH_TOL) + ABS_FLOOR


def validate_conditions(field: CoefficientField) -> CoefficientReport:
    """Audit a coefficient by sampling on the spheres of RADII.

    The checks are necessarily sampled proxies: the bound check verifies
    c_lower < a < c_upper at every sample; the boundedness checks require
    the per-radius suprema of w|grad a| and w^2|lap a| to stop growing along
    the tail; the decay check requires the largest-radius supremum of
    w|grad a| to fall below DECAY_TOL.

    Returns
    -------
    CoefficientReport
    """
    radii = np.asarray(RADII, dtype=float)
    dirs = fibonacci_sphere(ANGULAR_SAMPLES)

    sup_grad, sup_lap = [], []
    cond0 = True
    for r in radii:
        pts = r * dirs
        a = field.eval_a(pts)
        if not np.all((a > field.c_lower) & (a < field.c_upper) & (a > 0)):
            cond0 = False
        w = weight(pts)
        g = np.linalg.norm(np.asarray(field.grad_a(pts), dtype=float), axis=-1)
        lap = np.abs(np.asarray(field.laplacian_a(pts), dtype=float))
        sup_grad.append((w * g).max())
        sup_lap.append((w**2 * lap).max())
    sup_grad = np.asarray(sup_grad)
    sup_lap = np.asarray(sup_lap)

    return CoefficientReport(
        name=field.name,
        passes_cond0=bool(cond0),
        passes_cond1=_tail_bounded(sup_grad),
        passes_cond3=_tail_bounded(sup_lap),
        passes_decay=bool(sup_grad[-1] < DECAY_TOL),
        sup_weighted_grad=float(sup_grad.max()),
        sup_weighted_laplacian=float(sup_lap.max()),
        tail_samples=list(zip(radii.tolist(), sup_grad.tolist())),
        decay_tol=DECAY_TOL,
    )


# --- built-in catalog -------------------------------------------------------

def constant_coefficient(value: float = 1.0) -> CoefficientField:
    """a(x) = value."""
    if value <= 0:
        raise ValueError("coefficient must be positive")

    def a(x):
        return np.full(np.asarray(x).shape[:-1], value)

    def grad(x):
        return np.zeros(np.asarray(x).shape)

    def lap(x):
        return np.zeros(np.asarray(x).shape[:-1])

    return CoefficientField(
        a=a,
        grad_a=grad,
        laplacian_a=lap,
        c_lower=value / 2.0,
        c_upper=value * 2.0,
        name=f"constant({value:g})",
        constant=True,
    )


def gaussian_coefficient(beta: float = 1.0) -> CoefficientField:
    """a(x) = 1 + beta * exp(-|x|^2); all conditions hold for 0 < beta."""
    if beta <= 0:
        raise ValueError("beta must be positive")

    def a(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + beta * np.exp(-(x * x).sum(axis=-1))

    def grad(x):
        x = np.asarray(x, dtype=float)
        e = np.exp(-(x * x).sum(axis=-1))
        return -2.0 * beta * e[..., None] * x

    def lap(x):
        x = np.asarray(x, dtype=float)
        r2 = (x * x).sum(axis=-1)
        return beta * np.exp(-r2) * (4.0 * r2 - 6.0)

    return CoefficientField(
        a=a,
        grad_a=grad,
        laplacian_a=lap,
        c_lower=0.5,
        c_upper=1.0 + beta + 0.5,
        name=f"gaussian({beta:g})",
    )


def sinusoidal_coefficient() -> CoefficientField:
    """a(x) = 2 + sin(x1); bounded but its weighted gradient grows."""

    def a(x):
        x = np.asarray(x, dtype=float)
        return 2.0 + np.sin(x[..., 0])

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[..., 0] = np.cos(x[..., 0])
        return g

    def lap(x):
        x = np.asarray(x, dtype=float)
        return -np.sin(x[..., 0])

    return CoefficientField(
        a=a,
        grad_a=grad,
        laplacian_a=lap,
        c_lower=0.5,
        c_upper=3.5,
        name="sinusoidal",
    )


def inclusion_coefficient(centre=(0.0, 0.0, -2.0), radius: float = 0.8,
                          height: float = 0.5) -> CoefficientField:
    """a = 1 + height exp(-1 / (1 - s)) with s = |x - c|^2 / radius^2 inside
    the ball, 1 outside: smooth, with compact support away from the origin.
    The default ball misses the unit sphere and every sample of a few fixed
    points, so only declared constancy tells it from a = 1."""
    c = np.asarray(centre, dtype=float)

    def parts(x):
        d = np.asarray(x, dtype=float) - c
        s = (d * d).sum(axis=-1) / radius**2
        inside = s < 1.0
        t = np.where(inside, 1.0 - s, 1.0)
        g = np.where(inside, np.exp(-1.0 / t), 0.0)
        return d, s, t, g

    def a(x):
        return 1.0 + height * parts(x)[3]

    def grad(x):
        d, _, t, g = parts(x)
        return (-height * 2.0 / radius**2 * g / t**2)[..., None] * d

    def lap(x):
        _, s, t, g = parts(x)
        g1 = -g / t**2
        g2 = g * (1.0 - 2.0 * t) / t**4
        return height * (4.0 * s * g2 + 6.0 * g1) / radius**2

    return CoefficientField(a=a, grad_a=grad, laplacian_a=lap,
                            c_lower=0.5, c_upper=2.0, name="inclusion")


_CATALOG = {
    "constant": constant_coefficient,
    "gaussian": gaussian_coefficient,
    "inclusion": inclusion_coefficient,
    "sinusoidal": sinusoidal_coefficient,
}


def coefficient_by_name(name: str, **params) -> CoefficientField:
    """Look up a built-in coefficient by catalog name."""
    if name not in _CATALOG:
        raise KeyError(f"unknown coefficient {name!r}; catalog: {sorted(_CATALOG)}")
    return _CATALOG[name](**params)


def coefficient_names() -> tuple:
    """Catalog names accepted by coefficient_by_name."""
    return tuple(sorted(_CATALOG))
