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

The on-surface direct values calV and calW are no separate operators:
op_V and op_W and their rows (op_V_matrix, _VW_matrices) take them at
registered targets, a Collocation of panel centroids or mesh vertices, and
refuse a free target that lies on a panel.  R rows and P f at one target
set are the methods of one object, _VolumeTargets, which measures its near
set (laplace._NearSet, which carries its points) once for both.  The
representation formula V c - W t - R u + P f is one function, represent,
on the rows of _VW_matrices and of a _VolumeTargets: the solver evaluates
solutions with it and the Green residuals check it.  Every
surface operator is built as dense rows on the basis of its density
(triangle-constant or vertex-linear) in one pass of
``laplace._surface_rows``; a value is those rows applied to the density's
coefficients, so a density must be a ``laplace.BoundaryDensity`` with one
coefficient per triangle or vertex of the mesh.  No operator takes a
quadrature setting: each is a function of mesh, field, density and
targets.  With a constant coefficient all of them collapse to their
Laplace counterparts through the same code path.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import laplace as lp
from .coefficients import CoefficientField
from .geometry import SurfaceMesh, VolumeMesh
from .laplace import FOUR_PI

MAX_DENSE_CELLS = 4000
MAX_DENSE_TRIANGLES = 2500
# Central-difference step of op_R_divergence_form.
DIVERGENCE_FORM_STEP = 1e-3


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

def op_V(mesh: SurfaceMesh, field: CoefficientField, density, targets) -> np.ndarray:
    """Weighted single layer: V_lap applied to rho / a at quadrature nodes;
    the direct value calV at registered targets."""
    return lp.single_layer(mesh, density, targets, factor=_inv_a(field))


def op_W(mesh: SurfaceMesh, field: CoefficientField, density, targets) -> np.ndarray:
    """Weighted double layer: W_lap(rho) - V_lap(rho * dn ln a); the
    principal value calW at registered targets."""
    terms = _W_terms(field, lp._space_of(mesh, density))
    return lp.apply_rows_in_blocks(
        mesh, targets, lambda block: [_W_from(*lp._surface_rows(mesh, block, terms))],
        [density.values])[0]


def _W_terms(field, space) -> list:
    """The surface terms of W on the basis of space: W_lap and, for a
    variable coefficient, V_lap(. dn ln a); see _W_from."""
    terms = [lp._double_term(space)]
    if not field.is_constant:
        terms.append(lp._single_term(space, _dn_ln_a(field)))
    return terms


def _W_from(w_lap, *v_dn):
    """W from the outputs of _W_terms, built in place of W_lap."""
    if v_dn:
        w_lap -= v_dn[0]
    return w_lap


def op_V_matrix(mesh, field, space_tag, targets) -> np.ndarray:
    check_dense_caps(n_triangles=mesh.n_triangles)
    return lp.single_layer_matrix(mesh, space_tag, targets, factor=_inv_a(field))


def _VW_matrices(mesh, field, targets):
    """op_V_matrix (triangle-constant) and the rows of op_W (vertex-linear)
    at the same targets from one surface pass, and the row sums of W's Laplace
    term W_lap.  At registered targets those row sums are the unit-density
    principal values, the jump coefficients of the assembly."""
    check_dense_caps(n_triangles=mesh.n_triangles)
    terms = [lp._single_term(lp.SPACE_TRIANGLE, _inv_a(field))]
    terms += _W_terms(field, lp.SPACE_VERTEX)
    v, w_lap, *v_dn = lp._surface_rows(mesh, targets, terms)
    jump = w_lap.sum(axis=1)
    return v, _W_from(w_lap, *v_dn), jump


# --- volume operators ------------------------------------------------------------

def op_P(volmesh: VolumeMesh, field: CoefficientField, density, targets) -> np.ndarray:
    """Weighted Newton potential: N_lap applied to f / a at the nodes."""
    return _P(volmesh, _P_weights(volmesh, field), density, targets)


def _P_weights(volmesh: VolumeMesh, field: CoefficientField) -> lp._Tables:
    """The weights w_q / a of P on both volume tables."""
    inv_a = lp._at_nodes(volmesh, lambda nodes: 1.0 / field.eval_a(nodes))
    return lp._times(lp._cell_cache(volmesh).weights, inv_a)


def _P(volmesh: VolumeMesh, weights: lp._Tables, density, targets) -> np.ndarray:
    """P f at targets, points or a laplace._NearSet, on the weights w_q / a,
    for a density f: cell values, a callable or its node values
    (laplace._node_values)."""
    term = lp._VolumeTerm(lp._newton_weights(volmesh, weights, density))
    return lp._volume_rows(volmesh, targets, term)


class _VolumeTargets:
    """A volume target set: a copy of the points, and the data-free parts
    of R and P f there, which its methods R and P share: the near set
    (laplace._NearSet), measured once for both, with the sparse operator
    of its inverse distances that P's near half applies, and the node data
    of each (the weights w_q / a of P; grad ln a and lap ln a of R).  Each
    is built when first read, so a set that needs neither R nor P f
    measures nothing; a set cut from this one by take measures its own
    near set and shares the node data, so the blocks of one pass build it
    once.  Per density, P pays for f at the nodes (nothing when it is given
    its node values), one far pass and one sparse product on the near
    pairs' weights."""

    def __init__(self, volmesh: VolumeMesh, field: CoefficientField, targets):
        # A copy: the caller's array may change before a part is built.
        self._volmesh, self._field = volmesh, field
        self.points = np.array(lp._volume_points(targets))
        # build(volmesh, field) of the node data, once per build function.
        self._nodes = functools.cache(lambda build: build(volmesh, field))

    def take(self, index: slice) -> "_VolumeTargets":
        """The set of points[index], on the node data of this one."""
        part = _VolumeTargets(self._volmesh, self._field, self.points[index])
        part._nodes = self._nodes
        return part

    @functools.cached_property
    def near(self) -> lp._NearSet:
        return lp._near_set(self._volmesh, self.points)

    def P(self, density) -> np.ndarray:
        """op_P at the points, with its bits, for cell values, a callable
        or its node values (laplace._node_values)."""
        return _P(self._volmesh, self._nodes(_P_weights), density, self.near)

    def R(self, out=None) -> np.ndarray:
        """op_R_matrix at the points, with its bits, written into ``out``
        when it is given (see _R); a constant coefficient reads no near set."""
        targets = self.points if self._field.is_constant else self.near
        return _R(self._volmesh, self._nodes(_remainder_data), targets, out=out)


def _remainder_data(volmesh: VolumeMesh, field: CoefficientField):
    """The per-node data of R on both volume tables: grad ln a,
    component-major (3, nodes, cells), the g of its g . (x - y), and lap ln
    a (nodes, cells), the data of _remainder_kernel; None for a constant
    coefficient, whose R vanishes."""
    if field.is_constant:
        return None
    grad = lp._at_nodes(volmesh, field.eval_grad_ln_a).map(
        lambda g: np.ascontiguousarray(np.moveaxis(g, -1, 0)))
    return grad, lp._at_nodes(volmesh, field.eval_laplacian_ln_a)


def _remainder_kernel(inv_r, dot, lap_ln, out):
    """R as a volume kernel (see laplace._volume_rows), the same for far and
    near pairs: from inv_r = 1/|x - y|, dot = grad ln a . (x - y) and lap ln
    a at the nodes, -(lap ln a p + dot / (4 pi r^3)) with p = -1/(4 pi r),
    that is (lap ln a - dot / r^2) / (4 pi r), into out, with no divide;
    0 where inv_r is 0.  dot is overwritten, inv_r is not."""
    np.multiply(inv_r, inv_r, out=out)
    dot *= out
    np.subtract(lap_ln, dot, out=dot)
    np.multiply(inv_r, 1.0 / FOUR_PI, out=out)
    out *= dot
    return out


def _R(volmesh: VolumeMesh, data, targets, u=None, out=None) -> np.ndarray:
    """R u at targets for a density u, or with u None the dense rows of R
    on cell-wise constant densities, written into ``out`` when it is given
    (zeros, such as a block of a new matrix): one volume pass on the node
    data of R (_remainder_data), at the targets' points or on a measured
    set of them (laplace._NearSet).  For a constant coefficient (data None)
    R vanishes and no pass runs."""
    m = len(lp._volume_points(targets))
    if u is None:
        check_dense_caps(n_cells=volmesh.n_cells)
        R = np.zeros((m, volmesh.n_cells)) if out is None else out
    else:
        R = np.zeros(m)
    if data is None:
        return R
    wts = lp._cell_cache(volmesh).weights
    if u is not None:
        wts = lp._times(wts, lp._node_values(volmesh, u))
    return lp._volume_rows(volmesh, targets, lp._VolumeTerm(
        wts, _remainder_kernel, *data, u is None, R))


def op_R(volmesh: VolumeMesh, field: CoefficientField, density, targets) -> np.ndarray:
    """Remainder operator: volume integral of kernel_R against u.

    Vanishes identically for constant coefficients.  Uses the same
    exclusion-ball contract as the Newton potential.
    """
    return _R(volmesh, _remainder_data(volmesh, field), targets, density)


def op_R_matrix(volmesh: VolumeMesh, field: CoefficientField, targets) -> np.ndarray:
    """Dense remainder block on cell-wise constant densities."""
    return _R(volmesh, _remainder_data(volmesh, field), targets)


def represent(surfmesh: SurfaceMesh, volmesh: VolumeMesh, field: CoefficientField,
              targets, coefs, f=None, block=None, keep=None) -> np.ndarray:
    """The representation formula V c - W t - R u + P f at targets (points
    or registered boundary points) for coefs = (c, -t, -u) on the
    triangles, vertices and cells, and a source f (None: no P f).

    Its data-free build is the V and W rows of one surface pass
    (_VW_matrices), the volume target set (_VolumeTargets) and, unless a
    is constant, its R rows; its apply is the row products
    (laplace.apply_rows) plus the set's P f.  Targets run in blocks of
    ``block`` (by default whole surface chunks of about
    laplace.VALUE_BLOCK_ENTRIES entries of V and W rows, laplace._value_block,
    as for surface values), each built and applied in turn; their volume
    sets are cut from one, so the node data of R and P is built once, and f
    is taken at the nodes once (it may be given as its node values,
    laplace._node_values).  A single block is built through keep(build)
    when keep is given, which may return a build it kept."""
    colloc = lp._as_collocation(targets)
    if block is None:
        block = lp._value_block(surfmesh, len(coefs[0]) + len(coefs[1]))
    if f is not None:
        f = lp._node_values(volmesh, f)

    def build(y, volume):
        v, w, _ = _VW_matrices(surfmesh, field, y)
        return ((v, w) if field.is_constant else (v, w, volume.R())), volume

    def apply(part):
        rows, volume = part
        total = sum(lp.apply_rows(r, c) for r, c in zip(rows, coefs))
        return total if f is None else total + volume.P(f)

    if colloc.n <= block:
        whole = lambda: build(targets, _VolumeTargets(volmesh, field, targets))
        return apply(whole() if keep is None else keep(whole))
    volume = _VolumeTargets(volmesh, field, colloc.points)
    blocks = (slice(lo, lo + block) for lo in range(0, colloc.n, block))
    return np.concatenate([apply(build(colloc.take(s), volume.take(s))) for s in blocks])


def op_R_divergence_form(volmesh: VolumeMesh, field: CoefficientField, density,
                         targets) -> np.ndarray:
    """Dual formulation of the remainder operator, for cross-validation.

    Computes div_y of the vector Newton potential of u * grad ln a by
    central differences of step DIVERGENCE_FORM_STEP, minus the Newton
    potential of u * lap ln a.
    Used only as an oracle against the kernel form of op_R: a plain loop
    over targets, in which every point of a target's stencil integrates
    with the rule of that target (see _split_rule), so the differences do
    not see the far/near switch.
    """
    targets = lp._volume_points(targets)
    out = np.zeros(len(targets))
    for i, t in enumerate(targets):
        nodes, wts, cells, excl = _split_rule(volmesh, t)
        u = _density_at(density, nodes, cells)
        grad = field.eval_grad_ln_a(nodes)

        def newton(y, fac):
            r = np.linalg.norm(nodes - y, axis=1)
            keep = r > excl
            return np.sum(wts[keep] * u[keep] * fac[keep] / r[keep]) / -FOUR_PI

        out[i] = -newton(t, field.eval_laplacian_ln_a(nodes))
        for k in range(3):
            e = np.zeros(3)
            e[k] = DIVERGENCE_FORM_STEP
            out[i] += ((newton(t + e, grad[:, k]) - newton(t - e, grad[:, k]))
                       / (2.0 * DIVERGENCE_FORM_STEP))
    return out


# --- direct kernel quadrature (cross-validation) ----------------------------------

def op_V_by_kernel(mesh: SurfaceMesh, field: CoefficientField, density,
                   targets) -> np.ndarray:
    """op_V assembled by quadrature of -P(x, y) rho(x) directly.

    Algebraically identical to the relation-based path when evaluated on the
    same nodes; kept as an independent code path for the cross-check.
    """
    kern = lambda nodes, normals, ys: (
        -lp.fundamental_solution(nodes, ys) / field.eval_a(nodes))
    term = lp._Term(kern, None, "duffy", lp._space_of(mesh, density))
    return lp.apply_rows_in_blocks(mesh, targets,
                                   lambda block: lp._surface_rows(mesh, block, [term]),
                                   [density.values])[0]


def _split_rule(volmesh: VolumeMesh, target: np.ndarray):
    """The rule the volume engine integrates with for one target (3,): the
    far table on the target's far cells and the mesh's own rule on its near
    cells (laplace._near_cells).  Returns nodes (n, 3), weights (n,), the
    cell of each node (n,) and its exclusion radius (n,), the cell's on near
    cells and zero on far ones, whose nodes are never that close."""
    near = lp._near_cells(volmesh, target)[0]
    far = ~near
    q_far, q_near = volmesh.far_weights.shape[1], volmesh.n_nodes_per_cell
    nodes = np.concatenate([volmesh.far_nodes[far].reshape(-1, 3),
                            volmesh.nodes[near].reshape(-1, 3)])
    wts = np.concatenate([volmesh.far_weights[far].ravel(),
                          volmesh.node_weights[near].ravel()])
    cells = np.concatenate([np.repeat(np.flatnonzero(far), q_far),
                            np.repeat(np.flatnonzero(near), q_near)])
    excl = np.concatenate([np.zeros(q_far * int(far.sum())),
                           np.repeat(lp.exclusion_radii(volmesh)[near], q_near)])
    return nodes, wts, cells, excl


def _density_at(density, nodes, cells) -> np.ndarray:
    """A DomainDensity (by the cell of each node) or a callable density at nodes."""
    if isinstance(density, lp.DomainDensity):
        return density.values[cells]
    return np.asarray(density(nodes), dtype=float)


def op_P_by_kernel(volmesh: VolumeMesh, field: CoefficientField, density,
                   targets) -> np.ndarray:
    """op_P assembled by quadrature of P(x, y) f(x) directly: a plain loop
    over targets, each on the rule the volume engine uses for it."""
    targets = lp._volume_points(targets)
    out = np.zeros(len(targets))
    for i, t in enumerate(targets):
        nodes, wts, cells, excl = _split_rule(volmesh, t)
        d = nodes - t
        r = np.sqrt((d * d).sum(axis=1))
        keep = r > excl
        dvals = _density_at(density, nodes[keep], cells[keep])
        out[i] = np.dot(wts[keep] * dvals,
                        -1.0 / (FOUR_PI * r[keep]) / field.eval_a(nodes[keep]))
    return out

