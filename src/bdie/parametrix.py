"""Variable-coefficient potential operators via kernel rescaling.

For the operator div(a grad u) with a positive scalar coefficient, the
approximate fundamental solution P(x, y) = P_lap(x - y)/a(x) carries a
weakly singular remainder kernel

    R(x, y) = -[lap ln a(x) * P_lap(x - y) + grad ln a(x) . grad_x P_lap],

and every surface/volume operator of the variable-coefficient problem
reduces to a Laplace-kernel operator applied to a pointwise-rescaled
density.  The relations implemented here (rescaling happens at quadrature
nodes, never on basis coefficients):

    V rho = V_lap(rho / a)            single layer
    W rho = W_lap(rho) - V_lap(rho * dn_ln_a)   double layer
    P f   = N_lap(f / a)              volume potential
    R u   = volume integral of R(x, y) u(x)

plus their on-surface direct values and two offset diagnostics for the
adjoint double layer and the hypersingular action.  With a constant
coefficient all of them collapse to their Laplace counterparts through the
same code path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import laplace as lp
from .coefficients import CoefficientField
from .geometry import SurfaceMesh, VolumeMesh
from .laplace import FOUR_PI, Collocation, QuadConfig

MAX_DENSE_CELLS = 4000
MAX_DENSE_TRIANGLES = 2500


class ResourceLimitError(RuntimeError):
    """Raised when a dense assembly would exceed the desk-scale caps."""


def check_dense_caps(n_triangles: int = 0, n_cells: int = 0) -> None:
    if n_triangles > MAX_DENSE_TRIANGLES:
        raise ResourceLimitError(
            f"{n_triangles} panels exceed the dense cap of {MAX_DENSE_TRIANGLES}"
        )
    if n_cells > MAX_DENSE_CELLS:
        raise ResourceLimitError(
            f"{n_cells} cells exceed the dense cap of {MAX_DENSE_CELLS}"
        )


# --- kernels -----------------------------------------------------------------

def kernel_P(field: CoefficientField, x, y) -> np.ndarray:
    """Parametrix kernel P_lap(x - y) / a(x)."""
    return lp.fundamental_solution(x, y) / field.eval_a(np.asarray(x, dtype=float))


def kernel_R(field: CoefficientField, x, y) -> np.ndarray:
    """Remainder kernel of the parametrix, in expanded closed form."""
    x = np.asarray(x, dtype=float)
    lap_ln = field.eval_laplacian_ln_a(x)
    grad_ln = field.eval_grad_ln_a(x)
    p = lp.fundamental_solution(x, y)
    gp = lp.grad_fundamental_solution(x, y)
    return -(lap_ln * p + np.einsum("...j,...j->...", grad_ln, gp))


def _inv_a(field: CoefficientField) -> Callable:
    return lambda nodes, normals: 1.0 / field.eval_a(nodes)


def _dn_ln_a(field: CoefficientField) -> Callable:
    # Conormal direction of the stored surface normals.
    return lambda nodes, normals: np.einsum(
        "...j,...j->...", normals, field.eval_grad_ln_a(nodes)
    )


# --- surface operators ----------------------------------------------------------

def op_V(mesh: SurfaceMesh, field: CoefficientField, density, targets,
         cfg: QuadConfig = lp.DEFAULT_QUAD, workers: int = 1) -> np.ndarray:
    """Weighted single layer: V_lap applied to rho / a at quadrature nodes."""
    return lp.single_layer(mesh, density, targets, cfg, factor=_inv_a(field),
                           workers=workers)


def op_W(mesh: SurfaceMesh, field: CoefficientField, density, targets,
         cfg: QuadConfig = lp.DEFAULT_QUAD, workers: int = 1) -> np.ndarray:
    """Weighted double layer: W_lap(rho) - V_lap(rho * dn ln a)."""
    w = lp.double_layer(mesh, density, targets, cfg, workers=workers)
    if field.is_constant:
        return w
    return w - lp.single_layer(mesh, density, targets, cfg,
                               factor=_dn_ln_a(field), workers=workers)


def dv_V(mesh: SurfaceMesh, field: CoefficientField, density, colloc: Collocation,
         cfg: QuadConfig = lp.DEFAULT_QUAD, workers: int = 1) -> np.ndarray:
    """Direct (on-surface) value of the weighted single layer."""
    lp._require_registered(colloc)
    return op_V(mesh, field, density, colloc, cfg, workers)


def dv_W(mesh: SurfaceMesh, field: CoefficientField, density, colloc: Collocation,
         cfg: QuadConfig = lp.DEFAULT_QUAD, workers: int = 1) -> np.ndarray:
    """Principal value of the weighted double layer on the surface."""
    lp._require_registered(colloc)
    return op_W(mesh, field, density, colloc, cfg, workers)


def op_V_matrix(mesh, field, space_tag, targets, cfg=lp.DEFAULT_QUAD,
                workers: int = 1) -> np.ndarray:
    check_dense_caps(n_triangles=mesh.n_triangles)
    return lp.single_layer_matrix(mesh, space_tag, targets, cfg,
                                  factor=_inv_a(field), workers=workers)


def op_W_matrix(mesh, field, space_tag, targets, cfg=lp.DEFAULT_QUAD,
                workers: int = 1) -> np.ndarray:
    return _W_matrix_terms(mesh, field, space_tag, targets, cfg)[0]


def _W_matrix_terms(mesh, field, space_tag, targets,
                    cfg=lp.DEFAULT_QUAD) -> tuple[np.ndarray, np.ndarray]:
    """op_W_matrix and its Laplace double-layer term W_lap.

    At registered targets the row sums of the vertex-linear W_lap are the
    unit-density principal values, the jump coefficients of the assembly.
    """
    check_dense_caps(n_triangles=mesh.n_triangles)
    w = lp.double_layer_matrix(mesh, space_tag, targets, cfg)
    if field.is_constant:
        return w, w
    return w - lp.single_layer_matrix(mesh, space_tag, targets, cfg,
                                      factor=_dn_ln_a(field)), w


# --- volume operators ------------------------------------------------------------

def op_P(volmesh: VolumeMesh, field: CoefficientField, density, targets,
         workers: int = 1) -> np.ndarray:
    """Weighted Newton potential: N_lap applied to f / a at the nodes."""
    return lp.newton_potential(volmesh, density, targets,
                               factor=lambda nodes: 1.0 / field.eval_a(nodes))


def op_P_matrix(volmesh, field, targets, workers: int = 1) -> np.ndarray:
    check_dense_caps(n_cells=volmesh.n_cells)
    return lp.newton_potential_matrix(
        volmesh, targets, factor=lambda nodes: 1.0 / field.eval_a(nodes))


def _remainder_kernel(field: CoefficientField, nodes: np.ndarray):
    comps = np.ascontiguousarray(nodes.T)
    gx, gy, gz = np.ascontiguousarray(field.eval_grad_ln_a(nodes).T)
    lap_ln = field.eval_laplacian_ln_a(nodes)

    def kern(y):
        dx, dy, dz, r2 = lp._offsets(comps, y)
        r = np.sqrt(r2)
        p = -1.0 / (FOUR_PI * r)
        dot = gx * dx + gy * dy + gz * dz
        vals = -(lap_ln * p + dot / (FOUR_PI * r * r2))
        return vals, r

    return kern


def op_R(volmesh: VolumeMesh, field: CoefficientField, density, targets,
         exclusion_factor: float = 0.5, workers: int = 1) -> np.ndarray:
    """Remainder operator: volume integral of kernel_R against u.

    Vanishes identically for constant coefficients.  Uses the same
    exclusion-ball contract as the Newton potential.
    """
    targets = lp._volume_points(targets)
    if field.is_constant:
        return np.zeros(len(targets))
    weights = volmesh.all_weights() * lp._node_values(volmesh, density)
    return lp._volume_rows(targets, _remainder_kernel(field, volmesh.all_nodes()),
                           weights, lp.exclusion_radii(volmesh, exclusion_factor))


def op_R_matrix(volmesh: VolumeMesh, field: CoefficientField, targets,
                exclusion_factor: float = 0.5, workers: int = 1) -> np.ndarray:
    """Dense remainder block on cell-wise constant densities."""
    check_dense_caps(n_cells=volmesh.n_cells)
    targets = lp._volume_points(targets)
    if field.is_constant:
        return np.zeros((len(targets), volmesh.n_cells))
    return lp._volume_rows(targets, _remainder_kernel(field, volmesh.all_nodes()),
                           volmesh.all_weights(),
                           lp.exclusion_radii(volmesh, exclusion_factor),
                           per_cell=volmesh.n_nodes_per_cell)


def op_R_divergence_form(volmesh: VolumeMesh, field: CoefficientField, density,
                         targets, h: float = 1e-3) -> np.ndarray:
    """Dual formulation of the remainder operator, for cross-validation.

    Computes div_y of the vector Newton potential of u * grad ln a by
    central finite differences, minus the Newton potential of u * lap ln a.
    Used only as an oracle against the kernel form of op_R.
    """
    targets = lp._volume_points(targets)
    out = -lp.newton_potential(
        volmesh, density, targets,
        factor=lambda nodes: field.eval_laplacian_ln_a(nodes))
    for k in range(3):
        fac = lambda nodes, k=k: field.eval_grad_ln_a(nodes)[:, k]
        e = np.zeros(3)
        e[k] = h
        plus = lp.newton_potential(volmesh, density, targets + e, factor=fac)
        minus = lp.newton_potential(volmesh, density, targets - e, factor=fac)
        out += (plus - minus) / (2.0 * h)
    return out


# --- direct kernel quadrature (cross-validation) ----------------------------------

def op_V_by_kernel(mesh: SurfaceMesh, field: CoefficientField, density, targets,
                   cfg: QuadConfig = lp.DEFAULT_QUAD) -> np.ndarray:
    """op_V assembled by quadrature of -P(x, y) rho(x) directly.

    Algebraically identical to the relation-based path when evaluated on the
    same nodes; kept as an independent code path for the cross-check.
    """
    kern = lambda nodes, normals, ys: (
        -lp.fundamental_solution(nodes, ys) / field.eval_a(nodes))
    colloc = lp._as_collocation(targets)
    dens = lp._make_dens(mesh, density, None)
    return lp._surface_rows(mesh, kern, colloc, dens, cfg, "duffy", None, None)


def op_P_by_kernel(volmesh: VolumeMesh, field: CoefficientField, density, targets,
                   exclusion_factor: float = 0.5) -> np.ndarray:
    """op_P assembled by quadrature of P(x, y) f(x) directly."""
    targets = lp._volume_points(targets)
    nodes = volmesh.all_nodes()
    wts = volmesh.all_weights()
    dvals = lp._node_values(volmesh, density)
    a_vals = field.eval_a(nodes)
    excl = lp.exclusion_radii(volmesh, exclusion_factor)
    out = np.zeros(len(targets))
    for i, t in enumerate(targets):
        d = nodes - t
        r = np.sqrt((d * d).sum(axis=1))
        keep = r > excl
        out[i] = np.dot(wts[keep] * dvals[keep],
                        -1.0 / (FOUR_PI * r[keep]) / a_vals[keep])
    return out


# --- offset diagnostics -------------------------------------------------------------

def _target_normals(mesh: SurfaceMesh, colloc: Collocation) -> np.ndarray:
    cache = lp._panel_cache(mesh, lp.DEFAULT_QUAD)
    normals = np.zeros((colloc.n, 3))
    for i, (kind, idx) in enumerate(zip(colloc.kinds, colloc.indices)):
        if kind == lp.KIND_CENTROID:
            normals[i] = mesh.normals[idx]
        elif kind == lp.KIND_VERTEX:
            star = cache.vertex_star[int(idx)]
            n = mesh.normals[star].mean(axis=0)
            normals[i] = n / np.linalg.norm(n)
        else:
            raise ValueError("offset diagnostics need registered boundary points")
    return normals


def op_Wprime_offset(mesh: SurfaceMesh, field: CoefficientField, density,
                     colloc: Collocation, offset: float,
                     cfg: QuadConfig = lp.DEFAULT_QUAD) -> np.ndarray:
    """Adjoint double layer diagnostic at exterior offset points.

    Evaluates a(y) * n(y) . grad_y V_lap(rho / a) at y - offset * n
    (the exterior side), using the analytic gradient of the single-layer
    integrand.  Diagnostic only; not part of the assembled system.
    """
    if offset <= 0:
        raise ValueError("offset must be positive")
    normals = _target_normals(mesh, colloc)
    a_y = field.eval_a(colloc.points)
    out = np.zeros(colloc.n)
    dens = lp._make_dens(mesh, density, _inv_a(field))
    for i in range(colloc.n):
        n_y = normals[i]
        kern = lambda nodes, panel_normals, ys: np.einsum(
            "j,...j->...", n_y, nodes - ys) / (
            FOUR_PI * np.linalg.norm(nodes - ys, axis=-1) ** 3)
        pt = Collocation.free((colloc.points[i] - offset * n_y)[None])
        out[i] = a_y[i] * lp._surface_rows(
            mesh, kern, pt, dens, cfg, "duffy", None, None)[0]
    return out


def op_Lhat_offset(mesh: SurfaceMesh, field: CoefficientField, density,
                   colloc: Collocation, offset: float,
                   cfg: QuadConfig = lp.DEFAULT_QUAD) -> np.ndarray:
    """Hypersingular action probed through offset normal derivatives.

    a(y) * d/dn[W_lap rho] - a(y) * d/dn[V_lap(rho * dn ln a)], each normal
    derivative taken with the two-point exterior offset stencil.  Diagnostic
    only.
    """
    if offset <= 0:
        raise ValueError("offset must be positive")
    normals = _target_normals(mesh, colloc)
    a_y = field.eval_a(colloc.points)
    out = np.zeros(colloc.n)
    for i in range(colloc.n):
        pot_w = lambda pts: lp.double_layer(mesh, density, pts, cfg)
        out[i] = a_y[i] * lp.normal_derivative(pot_w, colloc.points[i], normals[i], offset)
        if not field.is_constant:
            pot_v = lambda pts: lp.single_layer(mesh, density, pts, cfg,
                                                factor=_dn_ln_a(field))
            out[i] -= a_y[i] * lp.normal_derivative(pot_v, colloc.points[i],
                                                    normals[i], offset)
    return out
