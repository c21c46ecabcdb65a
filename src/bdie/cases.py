"""Reference problem catalog: manufactured cases, refinement levels, probes.

Each case bundles a coefficient, a source term, mixed boundary data, and the
closed-form field the data was manufactured from, so solver output can be
compared against something exact.  The refinement levels pair partitioned
icospheres with truncated-shell volume meshes that refine in lockstep.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import coefficients as co
from . import geometry as geo
from . import greens as gr

TRUNCATION_RADIUS = 4.0
LEVELS = (1, 2, 3)

PROBE_POINTS = np.array([
    [0.0, 0.0, 2.5],
    [2.0, 0.0, 0.0],
    [0.0, -2.0, 1.0],
])

LEVEL_RADIAL = {1: 4, 2: 6, 3: 8}

PARTITION_RULES = {
    "equator": lambda: geo.halfspace_rule(),
    "tilted": lambda: geo.halfspace_rule(normal=(1.0, 0.0, 1.0)),
    "polar-cap": lambda: geo.halfspace_rule(offset=-0.5),
}


def partition_rule(name: str) -> Callable:
    """Look up a named triangle-partition predicate."""
    try:
        return PARTITION_RULES[name]()
    except KeyError:
        known = ", ".join(sorted(PARTITION_RULES))
        raise ValueError(f"unknown partition rule '{name}'; choose from {known}")


def level_meshes(level: int, partition: str = "equator",
                 truncation_radius: float = TRUNCATION_RADIUS,
                 n_radial: Optional[int] = None,
                 angular_level: Optional[int] = None):
    """Surface/volume mesh pair for a refinement level.

    The level-``l`` icosphere is paired with a shell whose angular sectors
    are one subdivision coarser and whose radial count grows with the level;
    ``n_radial`` and ``angular_level`` override those two shell counts.
    The shell's own per-cell rule is one order above the default (18 nodes
    against 6).  The volume engine uses it on near target-cell pairs only,
    which include the pairs of each boundary collocation point with the
    cells next to it; far pairs take the default rule, which every shell
    carries as its far table (see laplace._volume_rows).
    """
    if level not in LEVEL_RADIAL:
        raise ValueError(f"unsupported level {level}; choose from 1, 2, 3")
    surf = geo.partition_boundary(geo.build_icosphere(level),
                                  rule=partition_rule(partition))
    vol = geo.build_shell_mesh(
        truncation_radius,
        n_radial=LEVEL_RADIAL[level] if n_radial is None else n_radial,
        angular_level=level - 1 if angular_level is None else angular_level,
        radial_order=3, triangle_order=3)
    return surf, vol


@dataclass(frozen=True)
class Case:
    """Manufactured mixed problem for div(a grad u) = f outside the unit ball.

    ``dirichlet`` samples the trace datum, ``neumann`` the conormal datum
    a du/dn with the normal pointing toward the origin (out of the domain).
    ``f`` is evaluated at volume quadrature nodes; None means f == 0.
    ``exact`` is the field the data came from, None when no closed form is
    claimed.  ``u_inf`` is its limit at infinity: the boundary-domain
    equations hold with u_inf on the right, and the representation formula
    drops it, so a solve adds it to the right-hand side and to field values.
    """

    name: str
    field: co.CoefficientField
    f: Optional[Callable]
    dirichlet: Callable
    neumann: Callable
    exact: Optional[gr.AnalyticField]
    u_inf: float = 0.0


def point_source_case(field: co.CoefficientField) -> Case:
    """u = 1/(4 pi |x|), with f = grad a . grad u picking up the coefficient."""
    exact = gr.point_source_field()

    def f(nodes):
        pts = np.atleast_2d(np.asarray(nodes, dtype=float))
        grad_a = np.asarray(field.grad_a(pts), dtype=float)
        return np.einsum("ij,ij->i", grad_a, exact.grad_u(pts))

    def neumann(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        normals = -pts / np.linalg.norm(pts, axis=1, keepdims=True)
        flux = np.einsum("ij,ij->i", exact.grad_u(pts), normals)
        return field.eval_a(pts) * flux

    return Case(
        name="point-source",
        field=field,
        f=None if field.is_constant else f,
        dirichlet=lambda pts: exact.u(np.atleast_2d(pts)),
        neumann=neumann,
        exact=exact,
    )


def constant_one_case(field: co.CoefficientField) -> Case:
    """u == 1: zero source, unit trace, zero flux."""
    return Case(
        name="u1",
        field=field,
        f=None,
        dirichlet=lambda pts: np.ones(np.atleast_2d(pts).shape[0]),
        neumann=lambda pts: np.zeros(np.atleast_2d(pts).shape[0]),
        exact=gr.constant_field(1.0),
        u_inf=1.0,
    )


def zero_case(field: co.CoefficientField) -> Case:
    """u == 0: everything vanishes; exercises the trivial paths."""
    return Case(
        name="zero",
        field=field,
        f=None,
        dirichlet=lambda pts: np.zeros(np.atleast_2d(pts).shape[0]),
        neumann=lambda pts: np.zeros(np.atleast_2d(pts).shape[0]),
        exact=gr.constant_field(0.0),
    )


CASES = {
    "point-source": point_source_case,
    "u1": constant_one_case,
    "zero": zero_case,
}


def case_by_name(name: str, field: co.CoefficientField) -> Case:
    """Look up a named manufactured case for the given coefficient."""
    try:
        builder = CASES[name]
    except KeyError:
        known = ", ".join(sorted(CASES))
        raise ValueError(f"unknown case '{name}'; choose from {known}")
    return builder(field)
