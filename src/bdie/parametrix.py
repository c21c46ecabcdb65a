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
    return _W_from(*lp._surface_rows(mesh, targets, _W_terms(mesh, field, density), cfg))


def op_V_W(mesh: SurfaceMesh, field: CoefficientField, psi, phi, targets,
           cfg: QuadConfig = lp.DEFAULT_QUAD) -> tuple[np.ndarray, np.ndarray]:
    """op_V of psi and op_W of phi at the same targets, from one surface pass."""
    terms = [lp._single_term(mesh, psi, factor=_inv_a(field))] + _W_terms(mesh, field, phi)
    v, *w = lp._surface_rows(mesh, targets, terms, cfg)
    return v, _W_from(*w)


def _W_terms(mesh, field, density=None, space=None) -> list:
    """The surface terms of W: W_lap and, for a variable coefficient,
    V_lap(. dn ln a); see _W_from."""
    terms = [lp._double_term(mesh, density, space)]
    if not field.is_constant:
        terms.append(lp._single_term(mesh, density, space, _dn_ln_a(field)))
    return terms


def _W_from(w_lap, *v_dn):
    """W from the outputs of _W_terms, built in place of W_lap."""
    if v_dn:
        w_lap -= v_dn[0]
    return w_lap


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
    check_dense_caps(n_triangles=mesh.n_triangles)
    return _W_from(*lp._surface_rows(mesh, targets, _W_terms(mesh, field, space=space_tag), cfg))


def _VW_matrices(mesh, field, targets, cfg=lp.DEFAULT_QUAD):
    """op_V_matrix (triangle-constant) and op_W_matrix (vertex-linear) at
    the same targets from one surface pass, and the row sums of W's Laplace
    term W_lap.  At registered targets those row sums are the unit-density
    principal values, the jump coefficients of the assembly."""
    check_dense_caps(n_triangles=mesh.n_triangles)
    terms = [lp._single_term(mesh, space=lp.SPACE_TRIANGLE, factor=_inv_a(field))]
    terms += _W_terms(mesh, field, space=lp.SPACE_VERTEX)
    v, w_lap, *v_dn = lp._surface_rows(mesh, targets, terms, cfg)
    jump = w_lap.sum(axis=1)
    return v, _W_from(w_lap, *v_dn), jump


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
    term = lp._Term(kern, lp._make_dens(mesh, density, None), "duffy")
    return lp._surface_rows(mesh, targets, [term], cfg)[0]


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


# (x - y)_k / (4 pi r^3): the components of grad_y of 1/(4 pi r).
_GRADIENT_KERNELS = [lp._offset_kernel(lambda d, r, normals, k=k: d[..., k] / (FOUR_PI * r**3))
                     for k in range(3)]


def op_Wprime_offset(mesh: SurfaceMesh, field: CoefficientField, density,
                     colloc: Collocation, offset: float,
                     cfg: QuadConfig = lp.DEFAULT_QUAD) -> np.ndarray:
    """Adjoint double layer diagnostic at exterior offset points.

    Evaluates a(y) * n(y) . grad_y V_lap(rho / a) at y - offset * n
    (the exterior side), using the analytic gradient of the single-layer
    integrand: its three components are the terms of one surface pass.
    Diagnostic only; not part of the assembled system.
    """
    if offset <= 0:
        raise ValueError("offset must be positive")
    normals = _target_normals(mesh, colloc)
    dens = lp._make_dens(mesh, density, _inv_a(field))
    terms = [lp._Term(kernel, dens, "duffy") for kernel in _GRADIENT_KERNELS]
    grad = lp._surface_rows(mesh, colloc.points - offset * normals, terms, cfg)
    return field.eval_a(colloc.points) * np.einsum("ij,ij->i", np.stack(grad, axis=1),
                                                   normals)


def op_Lhat_offset(mesh: SurfaceMesh, field: CoefficientField, density,
                   colloc: Collocation, offset: float,
                   cfg: QuadConfig = lp.DEFAULT_QUAD) -> np.ndarray:
    """Hypersingular action probed through offset normal derivatives.

    a(y) * d/dn[W_lap rho - V_lap(rho * dn ln a)], the normal derivative
    taken with the two-point exterior offset stencil of
    ``laplace.normal_derivative``; both terms at all 2m stencil points come
    from one surface pass.  Diagnostic only.
    """
    if offset <= 0:
        raise ValueError("offset must be positive")
    normals = _target_normals(mesh, colloc)
    a_y = field.eval_a(colloc.points)
    stencil = np.concatenate([colloc.points - offset * normals,
                              colloc.points - 2.0 * offset * normals])
    w = _W_from(*lp._surface_rows(mesh, stencil, _W_terms(mesh, field, density), cfg))
    return a_y * -(w[colloc.n:] - w[:colloc.n]) / offset
