"""Numerical verifiers for the Green identities of div(a grad u).

All identities are posed on the unbounded exterior of the unit sphere with
the stored surface normals pointing toward the origin (out of the domain),
so the divergence theorem reads int_domain div F = oint_S F . n with no
extra signs, provided the fields decay fast enough for the truncated outer
boundary to carry negligible flux.  Constants do not decay.  Only
``second_green_residual`` guards against such inputs, by sampling the flux
density at the outer radius.  ``third_green_residual`` and
``trace_identity_residual``, u (or (1/2) gamma u) minus the solver's own
representation formula (``parametrix.represent``), hold for decaying
fields; for a field tending to a limit u_inf the sphere at infinity
contributes u_inf, so their residual is u_inf rather than zero.  They
accept such fields and leave that term to the caller.

Conormal (one-sided) quantities evaluated through offset stencils use the
exterior side, consistent with ``laplace.normal_derivative``: a one-sided
offset value of the adjoint double layer carries the half-jump, so identity
residuals are formed against full one-sided values rather than principal
values plus explicit half-jump terms.
"""

import logging
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np
from scipy import linalg as sla

from . import laplace as lp
from . import parametrix as px
from . import quadrature as qd
from .coefficients import CoefficientField, fibonacci_sphere
from .geometry import INNER_RADIUS, SurfaceMesh, VolumeMesh

logger = logging.getLogger(__name__)

# Largest flux density of a (u grad v - v grad u) at the outer radius, times
# radius^2, that second_green_residual accepts as negligible.
OUTER_FLUX_TOL = 0.02


class TruncationError(RuntimeError):
    """The truncated outer boundary would carry non-negligible flux."""


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form scalar field with gradient and Laplacian evaluators.

    Evaluators broadcast over point arrays of shape (n, 3); ``u`` and
    ``laplacian_u`` return (n,), ``grad_u`` returns (n, 3).
    """

    u: Callable
    grad_u: Callable
    laplacian_u: Callable
    name: str = ""


def finite_difference_check(afield: AnalyticField, points, h: float = 1e-4):
    """Max deviation of grad_u and laplacian_u from central differences of u."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    eye = np.eye(3)
    grad_fd = np.stack(
        [(afield.u(pts + h * e) - afield.u(pts - h * e)) / (2.0 * h) for e in eye],
        axis=1)
    lap_fd = sum((afield.u(pts + h * e) - 2.0 * afield.u(pts) + afield.u(pts - h * e)) / h**2
                 for e in eye)
    grad_err = np.abs(grad_fd - afield.grad_u(pts)).max()
    lap_err = np.abs(lap_fd - afield.laplacian_u(pts)).max()
    return {"grad": float(grad_err), "laplacian": float(lap_err)}


def point_source_field(center=None) -> AnalyticField:
    """u(x) = 1 / (4 pi |x - center|), harmonic away from the center."""
    c = np.zeros(3) if center is None else np.asarray(center, dtype=float)

    def u(pts):
        d = np.atleast_2d(pts) - c
        return 1.0 / (lp.FOUR_PI * np.linalg.norm(d, axis=-1))

    def grad(pts):
        d = np.atleast_2d(pts) - c
        r = np.linalg.norm(d, axis=-1)
        return -d / (lp.FOUR_PI * r[..., None] ** 3)

    def lap(pts):
        return np.zeros(np.atleast_2d(pts).shape[0])

    tag = "point_source" if center is None else f"point_source@{tuple(c)}"
    return AnalyticField(u, grad, lap, name=tag)


def constant_field(value: float = 1.0) -> AnalyticField:
    def u(pts):
        return np.full(np.atleast_2d(pts).shape[0], value)

    def grad(pts):
        return np.zeros_like(np.atleast_2d(pts), dtype=float)

    def lap(pts):
        return np.zeros(np.atleast_2d(pts).shape[0])

    return AnalyticField(u, grad, lap, name=f"constant({value})")


@dataclass(frozen=True)
class ResidualReport:
    """Per-point identity residuals with a scale for relative reporting."""

    residuals: np.ndarray
    scale: float
    level: Optional[int] = None
    label: str = ""
    details: dict = dc_field(default_factory=dict)

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.residuals).max()) if self.residuals.size else 0.0

    @property
    def rel_to_scale(self) -> float:
        if self.scale > 0:
            return self.max_abs / self.scale
        return 0.0 if self.max_abs == 0.0 else float("inf")

    def to_dict(self) -> dict:
        out = {
            "label": self.label,
            "level": self.level,
            "scale": self.scale,
            "max_abs": self.max_abs,
            "rel_to_scale": self.rel_to_scale,
            "residuals": np.asarray(self.residuals, dtype=float).tolist(),
        }
        if self.details:
            out["details"] = {k: float(v) for k, v in self.details.items()}
        return out


# --- analytic building blocks ----------------------------------------------------

def operator_A(field: CoefficientField, afield: AnalyticField, points) -> np.ndarray:
    """div(a grad u) sampled analytically: grad a . grad u + a lap u."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = field.eval_a(pts)
    grad_a = a[:, None] * field.eval_grad_ln_a(pts)
    return np.einsum("ij,ij->i", grad_a, afield.grad_u(pts)) + a * afield.laplacian_u(pts)


def conormal_trace(field: CoefficientField, afield: AnalyticField,
                   points, normals) -> np.ndarray:
    """a(y) grad_u(y) . n(y) at boundary points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    nrm = np.atleast_2d(np.asarray(normals, dtype=float))
    return field.eval_a(pts) * np.einsum("ij,ij->i", afield.grad_u(pts), nrm)


def _surface_integral(mesh: SurfaceMesh, fn: Callable, order: int = 3) -> float:
    ref_pts, ref_wts = qd.gauss_triangle(order)
    nodes, wts = qd.map_to_panel(mesh.corners(), ref_pts, ref_wts)
    vals = fn(nodes.reshape(-1, 3))
    return float(np.sum(vals * wts.reshape(-1)))


def _flux_decay_check(field, u: AnalyticField, v: AnalyticField, radius: float) -> float:
    dirs = fibonacci_sphere(64)
    pts = radius * dirs
    a = field.eval_a(pts)
    flux = a[:, None] * (u.u(pts)[:, None] * v.grad_u(pts)
                         - v.u(pts)[:, None] * u.grad_u(pts))
    worst = float((np.linalg.norm(flux, axis=1) * radius**2).max())
    if worst > OUTER_FLUX_TOL:
        raise TruncationError(
            f"truncation-unsound: flux density {worst:.3g} at radius {radius:g} "
            f"exceeds {OUTER_FLUX_TOL:g}; fields decay too slowly for the truncated shell")
    return worst


# --- identity residuals ------------------------------------------------------------

def second_green_residual(field: CoefficientField, u: AnalyticField,
                          v: AnalyticField, surfmesh: SurfaceMesh,
                          volmesh: VolumeMesh, level: Optional[int] = None) -> ResidualReport:
    """Volume side minus boundary side of the second Green identity.

    int [v Au - u Av] over the shell against oint_S [v T u - u T v], with
    T the conormal a dn and the surface normal pointing out of the domain.
    Raises TruncationError when the outer-sphere flux density of
    a (u grad v - v grad u) is above OUTER_FLUX_TOL.
    """
    worst = _flux_decay_check(field, u, v, volmesh.outer_radius)
    nodes = volmesh.all_nodes()
    wts = volmesh.all_weights()
    vol = float(np.sum(wts * (v.u(nodes) * operator_A(field, u, nodes)
                              - u.u(nodes) * operator_A(field, v, nodes))))

    def bdry_fn(pts):
        nrm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        # inner boundary of the shell: normals stored toward the origin
        return (v.u(pts) * conormal_trace(field, u, pts, -nrm)
                - u.u(pts) * conormal_trace(field, v, pts, -nrm))

    bdry = _surface_integral(surfmesh, bdry_fn)
    resid = vol - bdry
    # both sides vanish for harmonic pairs, so scale by the field itself
    scale = float(np.abs(u.u(nodes)).max())
    return ResidualReport(np.array([resid]), scale, level=level,
                          label=f"second_green[{u.name},{v.name}]",
                          details={"volume_side": vol, "boundary_side": bdry,
                                   "outer_flux_density": worst})


def _boundary_data(field, afield, surfmesh):
    """Analytic trace (vertex-linear) and conormal trace (triangle-constant)."""
    gamma = lp.BoundaryDensity(lp.SPACE_VERTEX, afield.u(surfmesh.vertices))
    tplus = lp.BoundaryDensity(
        lp.SPACE_TRIANGLE, conormal_trace(field, afield, surfmesh.centroids, surfmesh.normals))
    return gamma, tplus


def _represented(field, afield, surfmesh, volmesh, targets):
    """V(Tu) - W(gamma u) - R u + P(Au) at targets, from the analytic
    traces and A u at the cell centres: the representation formula of the
    solver (px.represent), one near set per block of targets."""
    gamma, tplus = _boundary_data(field, afield, surfmesh)
    centers = volmesh.centers
    coefs = (tplus.values, -gamma.values, -afield.u(centers))
    f = lp.DomainDensity(operator_A(field, afield, centers))
    return px.represent(surfmesh, volmesh, field, targets, coefs, f)


def third_green_residual(field: CoefficientField, afield: AnalyticField,
                         surfmesh: SurfaceMesh, volmesh: VolumeMesh,
                         test_points, level: Optional[int] = None) -> ResidualReport:
    """Residual of u + Ru - V(Tu) + W(gamma u) - P(Au) at interior points.

    That is u(y) minus the representation formula (px.represent).  Traces
    and A u are sampled analytically so the report isolates operator
    assembly error.  Points closer to the surface than one panel diameter
    are excluded and logged; when that leaves no point, ValueError says so.
    The residual vanishes for decaying fields; a field tending to u_inf at
    infinity leaves the residual u_inf.
    """
    pts = np.atleast_2d(np.asarray(test_points, dtype=float))
    h = surfmesh.max_edge
    keep = np.linalg.norm(pts, axis=1) >= INNER_RADIUS + h
    if not np.any(keep):
        raise ValueError(f"third Green residual: every test point ({len(keep)}) lies within "
                         f"one panel diameter ({h:.3g}) of the surface and is excluded")
    if not np.all(keep):
        logger.info("third Green residual: excluding %d test points within "
                    "one panel diameter of the surface", int((~keep).sum()))
    pts = pts[keep]
    u = afield.u(pts)
    res = u - _represented(field, afield, surfmesh, volmesh, pts)
    return ResidualReport(res, float(np.abs(u).max()), level=level,
                          label=f"third_green[{afield.name}]")


def trace_identity_residual(field: CoefficientField, afield: AnalyticField,
                            surfmesh: SurfaceMesh, volmesh: VolumeMesh,
                            level: Optional[int] = None) -> ResidualReport:
    """Boundary-collocated form of the third Green identity.

    (1/2) gamma u + gamma Ru - calV(Tu) + calW(gamma u) - gamma P(Au)
    at triangle centroids: (1/2) gamma u minus the representation formula
    (px.represent) at the registered centroids, where V and W are the
    direct values calV and calW and the volume terms integrate through
    their exclusion-ball quadrature.  As for the interior form, a field
    tending to u_inf at infinity leaves the residual u_inf.
    """
    colloc = lp.Collocation.centroids(surfmesh, np.arange(surfmesh.n_triangles))
    gamma_c = afield.u(colloc.points)
    res = 0.5 * gamma_c - _represented(field, afield, surfmesh, volmesh, colloc)
    return ResidualReport(res, float(np.abs(gamma_c).max()), level=level,
                          label=f"trace_identity[{afield.name}]")


def conormal_identity_residual_offset(field: CoefficientField,
                                      afield: AnalyticField,
                                      surfmesh: SurfaceMesh,
                                      volmesh: VolumeMesh, offset: float,
                                      level: Optional[int] = None) -> ResidualReport:
    """Offset-stencil residual of the conormal form of the identity.

    All conormal actions of potentials are realized as full one-sided
    offset values on the exterior side; the half-jump of the adjoint
    double layer is therefore carried by the offset evaluation rather
    than written as an explicit (1/2)I term.  R u and P(Au) at the 2m
    stencil points come from one volume target set.  Diagnostic only.
    """
    if offset <= 0:
        raise ValueError("offset must be positive")
    colloc = lp.Collocation.centroids(surfmesh, np.arange(surfmesh.n_triangles))
    gamma, tplus = _boundary_data(field, afield, surfmesh)
    t_exact = tplus.values
    ucells = lp.DomainDensity(afield.u(volmesh.centers))
    fcells = lp.DomainDensity(operator_A(field, afield, volmesh.centers))
    a_c = field.eval_a(colloc.points)

    def volume_terms(points):
        volume = px._VolumeTargets(volmesh, field, points)
        r_u = px._R(volmesh, px._remainder_data(volmesh, field), volume.near, ucells)
        return r_u - volume.P(fcells)

    t_volume = a_c * lp.normal_derivative(volume_terms, colloc.points, surfmesh.normals, offset)
    w_prime = px.op_Wprime_offset(surfmesh, field, tplus, colloc, offset)
    l_hat = px.op_Lhat_offset(surfmesh, field, gamma, colloc, offset)

    res = t_exact + t_volume - w_prime + l_hat
    scale = float(np.abs(t_exact).max())
    return ResidualReport(res, scale, level=level,
                          label=f"conormal_identity[{afield.name}]@{offset:g}")


# --- injectivity and the representation operator -----------------------------------

def single_layer_injectivity(mesh: SurfaceMesh, field: CoefficientField) -> float:
    """Smallest singular value of the direct-value single-layer block.

    The triangle-constant block is assembled at centroid collocation and
    the columns are scaled by 1/sqrt(area), which makes the basis
    L2-normalized; under this area normalization the smallest singular
    value is mesh-stable instead of shrinking linearly with h.
    """
    px.check_dense_caps(n_triangles=mesh.n_triangles)
    colloc = lp.Collocation.centroids(mesh, np.arange(mesh.n_triangles))
    block = px.op_V_matrix(mesh, field, lp.SPACE_TRIANGLE, colloc)
    block = block / np.sqrt(mesh.areas)[None, :]
    return float(np.linalg.svd(block, compute_uv=False)[-1])


def representation_C(surfmesh: SurfaceMesh, volmesh: VolumeMesh,
                     field: CoefficientField, f_star_field: AnalyticField):
    """Split a decaying field F into a cell density and a boundary density.

    Returns (f, Psi) with f = a lap F sampled on cells and Psi the
    triangle-constant density solving the direct-value Laplace single-layer
    system for the trace of F - P_lap(lap F), scaled by a on the boundary.
    The Newton potential of f / a then recombines with the single layer of
    Psi to reproduce F at interior points.
    """
    px.check_dense_caps(n_triangles=surfmesh.n_triangles,
                        n_cells=volmesh.n_cells)
    lap_cells = f_star_field.laplacian_u(volmesh.centers)
    f_star = lp.DomainDensity(field.eval_a(volmesh.centers) * lap_cells)

    colloc = lp.Collocation.centroids(surfmesh, np.arange(surfmesh.n_triangles))
    newton = lp.newton_potential(volmesh, lp.DomainDensity(lap_cells), colloc.points)
    rhs = f_star_field.u(colloc.points) - newton
    block = lp.single_layer_matrix(surfmesh, lp.SPACE_TRIANGLE, colloc)
    weights = sla.solve(block, rhs)
    psi_star = lp.BoundaryDensity(lp.SPACE_TRIANGLE, field.eval_a(colloc.points) * weights)
    return f_star, psi_star
