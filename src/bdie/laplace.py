"""Layer and volume potentials for the Laplace kernel.

All operators here use the fundamental solution -1/(4 pi |x - y|) and the
package-wide normal convention (surface normals point out of the exterior
domain, toward the origin for the unit sphere).  Sign ledger, fixed once:

* single layer     S rho(y) = + int_S rho(x) / (4 pi |x - y|) dS(x)
* double layer     D rho(y) = - int_S n(x).grad_x[-1/(4 pi |x-y|)] rho dS(x)
* newton potential N f(y)   = - int_V f(x) / (4 pi |x - y|) dx

so that on the unit sphere S[1](y) = 1/max(1, |y|) and D[1] is 1 in the
bounded complement, 0 in the exterior domain, and 1/2 in the principal-value
sense on the surface.  Direct values on the surface integrate with a Duffy
rule (single layer) or skip the flat panels through the collocation point
(double layer, exact for flat panels).

Every surface operator runs through one engine, ``_surface_rows``, which
serves a list of terms in one pass over the targets, and every volume
operator through another, ``_volume_rows``; both work over blocks of
targets.  The ``workers`` argument is accepted and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy import sparse

from . import quadrature as quad
from .geometry import SurfaceMesh, VolumeMesh

FOUR_PI = 4.0 * np.pi

SPACE_TRIANGLE = "triangle-constant"
SPACE_VERTEX = "vertex-linear"
SUPPORT_ALL = "all"
SUPPORT_D = "D"
SUPPORT_N = "N"


# --- kernels ----------------------------------------------------------------

def fundamental_solution(x, y) -> np.ndarray:
    """Parametrix numerator -1/(4 pi |x - y|); broadcasts over leading axes."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.sqrt((d * d).sum(axis=-1))
    return -1.0 / (FOUR_PI * r)

def grad_fundamental_solution(x, y) -> np.ndarray:
    """Gradient in x of the fundamental solution: (x - y)/(4 pi |x - y|^3)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    r = np.sqrt((d * d).sum(axis=-1))
    return d / (FOUR_PI * r**3)[..., None]


def _layer_offsets(nodes, targets):
    """Offsets d = x - y of nodes x from targets y, and r = |d|."""
    d = nodes - targets
    return d, np.sqrt(np.einsum("...j,...j->...", d, d))


def _offset_kernel(of_offsets: Callable) -> Callable:
    """A surface kernel ``(nodes, normals, targets)`` from a function
    ``of_offsets(d, r, normals)`` of the offsets alone.  The surface engine
    forms d and r once for all such kernels of a pass."""
    def kernel(nodes, normals, targets):
        return of_offsets(*_layer_offsets(nodes, targets), normals)
    kernel.of_offsets = of_offsets
    kernel.__name__, kernel.__doc__ = of_offsets.__name__, of_offsets.__doc__
    return kernel


@_offset_kernel
def single_layer_kernel(d, r, normals):
    """1/(4 pi |x - y|) at nodes x for targets y; all arguments broadcast."""
    return 1.0 / (FOUR_PI * r)


@_offset_kernel
def double_layer_kernel(d, r, normals):
    """-n(x) . grad_x fund_solution = -n.(x-y)/(4 pi |x-y|^3); broadcasts."""
    return -np.einsum("...j,...j->...", normals, d) / (FOUR_PI * r**3)


def _kernel_values(kernels, nodes, normals, targets) -> dict:
    """Each distinct kernel's values at nodes for targets, keyed by kernel;
    the offset kernels share one d and r."""
    if any(hasattr(k, "of_offsets") for k in kernels):
        d, r = _layer_offsets(nodes, targets)
    return {k: k.of_offsets(d, r, normals) if hasattr(k, "of_offsets")
            else k(nodes, normals, targets) for k in dict.fromkeys(kernels)}


# --- densities ---------------------------------------------------------------

@dataclass
class BoundaryDensity:
    """Discrete surface density.

    space_tag "triangle-constant" carries one coefficient per triangle;
    "vertex-linear" one per vertex (continuous piecewise-linear).  The
    support_tag restricts where coefficients may be nonzero: "D"/"N" limit a
    triangle-constant density to one part, and a vertex-linear density to
    vertices strictly interior to that part (zero on the interface).
    """

    space_tag: str
    support_tag: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.space_tag not in (SPACE_TRIANGLE, SPACE_VERTEX):
            raise ValueError(f"unknown space_tag {self.space_tag!r}")
        if self.support_tag not in (SUPPORT_ALL, SUPPORT_D, SUPPORT_N):
            raise ValueError(f"unknown support_tag {self.support_tag!r}")

    def validate_support(self, mesh: SurfaceMesh) -> None:
        n = mesh.n_triangles if self.space_tag == SPACE_TRIANGLE else mesh.n_vertices
        if self.values.shape != (n,):
            raise ValueError("density length does not match mesh")
        if self.support_tag == SUPPORT_ALL:
            return
        if mesh.part_label is None:
            raise ValueError("support restriction needs a partitioned mesh")
        if self.space_tag == SPACE_TRIANGLE:
            off = mesh.part_label != self.support_tag
        else:
            off = mesh.vertex_class != self.support_tag
        if np.any(self.values[off] != 0.0):
            raise ValueError(f"density has mass outside part {self.support_tag!r}")


@dataclass
class DomainDensity:
    """Cell-wise constant density on a volume mesh."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


# --- collocation -------------------------------------------------------------

KIND_FREE = "free"
KIND_CENTROID = "centroid"
KIND_VERTEX = "vertex"


@dataclass
class Collocation:
    """Evaluation points with their registration on the surface.

    Registered points (panel centroids or mesh vertices) get singular
    quadrature on the panels that contain them; free points must keep a
    positive distance from the surface for plain rules to apply.
    """

    points: np.ndarray
    kinds: list
    indices: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def free(points) -> "Collocation":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return Collocation(pts, [KIND_FREE] * len(pts), np.full(len(pts), -1))

    @staticmethod
    def centroids(mesh: SurfaceMesh, tri_indices=None) -> "Collocation":
        idx = np.arange(mesh.n_triangles) if tri_indices is None else np.asarray(tri_indices)
        return Collocation(mesh.centroids[idx], [KIND_CENTROID] * len(idx), idx)

    @staticmethod
    def vertices(mesh: SurfaceMesh, vert_indices=None) -> "Collocation":
        idx = np.arange(mesh.n_vertices) if vert_indices is None else np.asarray(vert_indices)
        return Collocation(mesh.vertices[idx], [KIND_VERTEX] * len(idx), idx)

    @staticmethod
    def concat(parts) -> "Collocation":
        return Collocation(
            np.concatenate([p.points for p in parts]),
            sum((p.kinds for p in parts), []),
            np.concatenate([p.indices for p in parts]),
        )


def _as_collocation(targets) -> Collocation:
    if isinstance(targets, Collocation):
        return targets
    return Collocation.free(targets)


# --- quadrature configuration and panel caches -------------------------------

@dataclass(frozen=True)
class QuadConfig:
    """Scheme-selection knobs shared by all surface operators."""

    far_order: int = quad.FAR_ORDER
    near_order: int = quad.NEAR_ORDER
    levels: int = quad.SUBDIVISION_LEVELS
    near_threshold: float = quad.NEAR_THRESHOLD
    duffy_order: int = quad.DUFFY_ORDER


DEFAULT_QUAD = QuadConfig()


class _PanelCache:
    """Per-mesh physical quadrature nodes for the far and near rules."""

    def __init__(self, mesh: SurfaceMesh, cfg: QuadConfig):
        corners = mesh.corners()
        fpts, fwts = quad.gauss_triangle(cfg.far_order)
        npts, nwts = quad.subdivided_triangle_rule(cfg.near_order, cfg.levels)
        self.far_nodes, self.far_wts = quad.map_to_panel(corners, fpts, fwts)
        self.near_nodes, self.near_wts = quad.map_to_panel(corners, npts, nwts)
        self.far_bary = np.stack([1 - fpts[:, 0] - fpts[:, 1], fpts[:, 0], fpts[:, 1]], 1)
        self.near_bary = np.stack([1 - npts[:, 0] - npts[:, 1], npts[:, 0], npts[:, 1]], 1)
        # Every point of a panel lies within radius of its centroid.
        self.radius = np.linalg.norm(corners - mesh.centroids[:, None, :], axis=2).max(axis=1)
        # Star panels per vertex, for vertex-registered targets.
        self.vertex_star = [[] for _ in range(mesh.n_vertices)]
        for t, tri in enumerate(mesh.triangles):
            for v in tri:
                self.vertex_star[v].append(t)


def _panel_cache(mesh: SurfaceMesh, cfg: QuadConfig) -> _PanelCache:
    store = getattr(mesh, "_panel_caches", None)
    if store is None:
        store = {}
        object.__setattr__(mesh, "_panel_caches", store)
    if cfg not in store:
        store[cfg] = _PanelCache(mesh, cfg)
    return store[cfg]


# --- density adapters ---------------------------------------------------------

class _NodeDensity:
    """Evaluates density * optional smooth factor at rule nodes of panels."""

    def __init__(self, mesh, density=None, fn=None, factor=None):
        self.mesh = mesh
        self.density = density
        self.fn = fn
        self.factor = factor
        if density is not None and density.space_tag == SPACE_VERTEX:
            self.vert_vals = density.values
        else:
            self.vert_vals = None

    def values(self, tri_idx, nodes, bary, normals):
        # nodes: (n_sel, n_q, 3); bary: (n_q, 3) or (n_sel, n_q, 3)
        if self.density is None and self.fn is None:
            out = np.ones(nodes.shape[:-1])
        elif self.fn is not None:
            out = np.asarray(self.fn(nodes), dtype=float)
        elif self.density.space_tag == SPACE_TRIANGLE:
            out = np.broadcast_to(
                self.density.values[tri_idx][:, None], nodes.shape[:-1]
            ).copy()
        else:
            corner_vals = self.vert_vals[self.mesh.triangles[tri_idx]]  # (n_sel, 3)
            if bary.ndim == 2:
                out = np.einsum("qk,sk->sq", bary, corner_vals)
            else:
                out = np.einsum("sqk,sk->sq", bary, corner_vals)
        if self.factor is not None:
            out = out * self.factor(nodes, normals)
        return out


class _Columns:
    """Where the quadrature nodes of a panel land in the output: one value
    per target, the panel's own column (triangle-constant), or its three
    corner columns weighted by barycentric coordinates (vertex-linear)."""

    def __init__(self, mesh: SurfaceMesh, matrix_space: Optional[str]):
        self.vertex = matrix_space == SPACE_VERTEX
        self.triangles = mesh.triangles
        if matrix_space is None:
            self.n, self.panel_column = 1, np.zeros(mesh.n_triangles, dtype=int)
        elif matrix_space == SPACE_TRIANGLE:
            self.n, self.panel_column = mesh.n_triangles, np.arange(mesh.n_triangles)
        else:
            self.n, self.panel_column = mesh.n_vertices, None

    def of(self, panels):
        """Columns (k, c) of panels (k,)."""
        return self.triangles[panels] if self.vertex else self.panel_column[panels][:, None]

    def reduce(self, contrib, bary):
        """Weighted kernel values (k, q) at nodes with barycentric coordinates
        bary, (q, 3) or (k, q, 3), summed onto the columns (k, c)."""
        if not self.vertex:
            return contrib.sum(axis=-1, keepdims=True)
        return contrib @ bary if bary.ndim == 2 else np.einsum("kq,kqc->kc", contrib, bary)

    def node_map(self, panels, weights, bary):
        """Sparse (columns x nodes) map of the node table of panels (t,) with
        weights (t, q)."""
        t, q = weights.shape
        coef = weights[:, :, None] * (bary[None] if self.vertex else 1.0)
        nodes = np.broadcast_to(np.arange(t * q).reshape(t, q, 1), coef.shape)
        cols = np.broadcast_to(self.of(panels)[:, None, :], coef.shape)
        return sparse.csr_matrix((coef.ravel(), (cols.ravel(), nodes.ravel())),
                                 shape=(self.n, t * q))


def _scatter_add(out, rows, cols, vals):
    """out[rows, cols] += vals with repeated entries summed pairwise, as
    np.sum does.  Added one after another, the tens of near pairs of a row
    lose digits that the linearity checks of the Green identities see."""
    key = np.broadcast_to(rows * out.shape[1] + cols, vals.shape).ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    np.put(out, key[starts], out.flat[key[starts]] + np.add.reduceat(vals.ravel()[order], starts))


# --- the assembly engine -------------------------------------------------------

# Target-node pairs per block of far-field kernel values, and target-panel
# pairs per batch of near-field corrections.  They bound every temporary of
# the surface engine, whatever the numbers of targets and panels.
FAR_BLOCK_PAIRS = 1 << 15
NEAR_BATCH_PAIRS = 256


def _singular_pairs(cache: _PanelCache, colloc: Collocation):
    """(target, panel) pairs of registered targets and their own panels:
    the panel of a centroid, the star of a vertex; sorted by target."""
    rows, panels = [], []
    for i, (kind, index) in enumerate(zip(colloc.kinds, colloc.indices)):
        own = ([int(index)] if kind == KIND_CENTROID
               else cache.vertex_star[int(index)] if kind == KIND_VERTEX else [])
        rows.extend([i] * len(own))
        panels.extend(own)
    return np.array(rows, dtype=int), np.array(panels, dtype=int)


def _barycentric(corners, nodes):
    """Barycentric coordinates (k, q, 3) of nodes (k, q, 3) in panels (k, 3, 3)."""
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    d = nodes - corners[:, None, 0]
    d11 = np.einsum("kj,kj->k", e1, e1)[:, None]
    d12 = np.einsum("kj,kj->k", e1, e2)[:, None]
    d22 = np.einsum("kj,kj->k", e2, e2)[:, None]
    det = d11 * d22 - d12**2
    p1 = np.einsum("kqj,kj->kq", d, e1)
    p2 = np.einsum("kqj,kj->kq", d, e2)
    s = (d22 * p1 - d12 * p2) / det
    t = (d11 * p2 - d12 * p1) / det
    return np.stack([1 - s - t, s, t], axis=-1)


class _Term(NamedTuple):
    """One output of a surface pass: ``kernel`` against the density and
    factor of ``dens``, with the singular scheme "duffy" or "skip", into the
    columns of ``space`` (None: one value per target), over the panels of
    ``mask`` (None: every panel)."""

    kernel: Callable
    dens: _NodeDensity
    scheme: str
    space: Optional[str] = None
    mask: Optional[np.ndarray] = None


def _single_term(mesh, density=None, space=None, factor=None) -> _Term:
    """Single layer of a density (values) or of the basis of space (a matrix)."""
    mask = None
    if (isinstance(density, BoundaryDensity) and density.support_tag != SUPPORT_ALL
            and density.space_tag == SPACE_TRIANGLE):
        # Vertex support is enforced by zero coefficients.
        mask = mesh.part_label == density.support_tag
    return _Term(single_layer_kernel, _make_dens(mesh, density, factor, space), "duffy",
                 space, mask)


def _double_term(mesh, density=None, space=None, factor=None) -> _Term:
    """Double layer, as _single_term; principal value at registered targets."""
    return _Term(double_layer_kernel, _make_dens(mesh, density, factor, space), "skip", space)


def _surface_rows(mesh: SurfaceMesh, targets, terms, cfg: QuadConfig = DEFAULT_QUAD) -> list:
    """The one surface-quadrature engine: one pass over the targets for a
    list of terms (see _Term); returns per term values (m,) or a dense matrix.

    ``kernel(nodes, normals, targets)`` broadcasts its arguments.  Targets
    run in blocks of FAR_BLOCK_PAIRS // (far nodes).  In a block, a
    target-panel pair is far when a centroid bound already puts the panel
    ``near_threshold`` diameters away; the exact point-triangle distance is
    computed for the other pairs only, once for all terms.  Far pairs take
    one block of kernel values at all far nodes, masked to the far pairs and
    mapped to each term's columns by a sparse node-to-column matrix; near
    pairs (the subdivided rule) and the target's own panels (a Duffy rule)
    add their sums as corrections.  The terms share the offsets x - y and r,
    and a kernel shared by several terms is evaluated once.  A term's
    density and factor are folded into its node weights once per call: into
    the far weights of the active panels up front, into the near weights of
    a panel at its first near pair.  Terms over different panels (support
    masks) take one pass per set of panels.

    A term's scheme is "duffy" for weakly singular kernels or "skip" for the
    principal-value double layer (flat panels through the collocation point
    contribute zero exactly).  A target on an active panel that is not one
    of its registered panels raises ``ValueError``: no rule here is accurate
    there.
    """
    colloc = _as_collocation(targets)
    masks = [None if term.mask is None else term.mask.tobytes() for term in terms]
    if len(set(masks)) > 1:
        outs = {}
        for key in dict.fromkeys(masks):
            part = [t for t, mask in enumerate(masks) if mask == key]
            outs.update(zip(part, _surface_rows(mesh, colloc, [terms[t] for t in part], cfg)))
        return [outs[t] for t in range(len(terms))]

    cache = _panel_cache(mesh, cfg)
    corners = mesh.corners()
    n_tri = mesh.n_triangles
    kernels = [term.kernel for term in terms]
    columns = [_Columns(mesh, term.space) for term in terms]
    outs = [np.zeros((colloc.n, c.n)) for c in columns]
    active = np.ones(n_tri, dtype=bool) if terms[0].mask is None else terms[0].mask
    on_panel_tol = 1e-12 * mesh.diameters
    near_cut = cfg.near_threshold * mesh.diameters

    def node_weights(term, panels, nodes, wts, bary):
        normals = np.broadcast_to(mesh.normals[panels][:, None, :], nodes.shape)
        return wts * term.dens.values(panels, nodes, bary, normals)

    # The far table covers the active panels only.
    act = np.flatnonzero(active)
    n_far = cache.far_wts.shape[1]
    far_w = [node_weights(term, act, cache.far_nodes[act], cache.far_wts[act], cache.far_bary)
             for term in terms]
    far_map = [None if term.space is None else c.node_map(act, w, cache.far_bary)
               for term, c, w in zip(terms, columns, far_w)]
    far_nodes = cache.far_nodes[act].reshape(-1, 3)
    far_normals = np.repeat(mesh.normals[act], n_far, axis=0)
    sing_rows, sing_panels = _singular_pairs(cache, colloc)
    duffy = [t for t, term in enumerate(terms) if term.scheme == "duffy"]

    # Near weights are folded in when a panel first has a near pair: a call
    # with few targets meets few near panels.
    near_w = [np.empty(cache.near_wts.shape) for _ in terms]
    near_ready = np.zeros(n_tri, dtype=bool)

    def add_pairs(ts, rows, panels, nodes, weight_of, bary):
        # Target-panel pairs (rows[k], panels[k]) of the terms ts; a row may
        # repeat.  A term's node weights are formed only when it is summed.
        vals = _kernel_values([kernels[t] for t in ts], nodes, mesh.normals[panels][:, None, :],
                              colloc.points[rows][:, None, :])
        for t in ts:
            _scatter_add(outs[t], rows[:, None], columns[t].of(panels),
                         columns[t].reduce(vals[kernels[t]] * weight_of(t), bary))

    block = max(1, FAR_BLOCK_PAIRS // cache.far_wts.size)
    for start in range(0, colloc.n, block):
        y = colloc.points[start:start + block]
        lo, hi = np.searchsorted(sing_rows, [start, start + len(y)])
        rows, panels = sing_rows[lo:hi], sing_panels[lo:hi]
        regular = np.broadcast_to(active, (len(y), n_tri)).copy()
        regular[rows - start, panels] = False

        # Classification: the centroid bound, then exact distances where it
        # cannot decide.  The margin keeps rounding in the bound from calling
        # a pair far that the exact distance would call near.
        gap = np.linalg.norm(y[:, None, :] - mesh.centroids, axis=2) - cache.radius
        cand = regular & (gap < near_cut * (1.0 + 1e-9))
        d = np.full(cand.shape, np.inf)
        cand_rows, cand_cols = cand.any(axis=1), cand.any(axis=0)
        if cand_rows.any():
            d[np.ix_(cand_rows, cand_cols)] = quad.point_triangle_distance(
                y[cand_rows], corners[cand_cols])
        on_panel = cand & (d <= on_panel_tol)
        if on_panel.any():
            i, p = (int(k[0]) for k in np.nonzero(on_panel))
            raise ValueError(
                f"target {y[i]} lies on panel {p}, which is "
                "not one of its registered panels; pass it as a Collocation "
                "centroid or vertex of that panel")
        near = cand & (d < near_cut)

        # Far pairs: kernel values at every far node, masked to far pairs.
        # Masked nodes may sit on a target; their values are discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _kernel_values(kernels, far_nodes, far_normals, y[:, None, :])
        not_far = (~regular | near)[:, act]
        for kernel, v in vals.items():
            v = v.reshape(len(y), len(act), n_far)
            v[not_far] = 0.0
            vals[kernel] = v.reshape(len(y), -1)
        for t, kernel in enumerate(kernels):
            if far_map[t] is None:
                outs[t][start:start + len(y), 0] += (vals[kernel] * far_w[t].ravel()).sum(axis=1)
            else:
                outs[t][start:start + len(y)] += (far_map[t] @ vals[kernel].T).T

        new = np.flatnonzero(near.any(axis=0) & ~near_ready)
        if len(new):
            for term, w in zip(terms, near_w):
                w[new] = node_weights(term, new, cache.near_nodes[new], cache.near_wts[new],
                                      cache.near_bary)
            near_ready[new] = True
        near_rows, near_panels = np.nonzero(near)
        for k in range(0, len(near_rows), NEAR_BATCH_PAIRS):
            r, p = near_rows[k:k + NEAR_BATCH_PAIRS], near_panels[k:k + NEAR_BATCH_PAIRS]
            add_pairs(range(len(terms)), r + start, p, cache.near_nodes[p],
                      lambda t: near_w[t][p], cache.near_bary)

        # Singular pairs: a Duffy rule per kind of registered point.
        if not duffy:
            continue
        keep = active[panels]
        rows, panels = rows[keep], panels[keep]
        kinds = quad.singular_point_kind(corners[panels], colloc.points[rows])
        if np.any(kinds == quad.UNREGISTERED):
            k = int(np.argmax(kinds == quad.UNREGISTERED))
            raise ValueError(f"registered target {colloc.points[rows[k]]} is neither a "
                             f"vertex nor the centroid of its panel {panels[k]}")
        for kind in np.unique(kinds):
            r, p = rows[kinds == kind], panels[kinds == kind]
            nodes, w = quad.duffy_panel_nodes(corners[p], kind, cfg.duffy_order)
            bary = _barycentric(corners[p], nodes)
            normals = np.broadcast_to(mesh.normals[p][:, None, :], nodes.shape)
            add_pairs(duffy, r, p, nodes,
                      lambda t: w * terms[t].dens.values(p, nodes, bary, normals), bary)
    return [out[:, 0] if term.space is None else out for term, out in zip(terms, outs)]


# --- public surface operators --------------------------------------------------

def single_layer(
    mesh: SurfaceMesh,
    density: Union[BoundaryDensity, Callable],
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
    workers: int = 1,
) -> np.ndarray:
    """Single layer potential of a surface density, evaluated at targets.

    Targets may be free points or a Collocation; for registered on-surface
    points the self-panel integral uses a Duffy rule (this is the direct
    value of the operator on the surface).

    Parameters
    ----------
    density : BoundaryDensity or callable(nodes) -> values
    factor : optional callable(nodes, normals) -> values
        Smooth rescaling applied at quadrature nodes.
    """
    term = _single_term(mesh, density, factor=factor)
    return _surface_rows(mesh, targets, [term], cfg)[0]


def double_layer(
    mesh: SurfaceMesh,
    density: Union[BoundaryDensity, Callable],
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
    workers: int = 1,
) -> np.ndarray:
    """Double layer potential; for registered on-surface targets this is the
    principal value (panels through the target are skipped, exact for flat
    panels)."""
    term = _double_term(mesh, density, factor=factor)
    return _surface_rows(mesh, targets, [term], cfg)[0]


def _make_dens(mesh, density, factor, space=None):
    if space is not None:  # a matrix integrates the basis of its space
        return _NodeDensity(mesh, factor=factor)
    if isinstance(density, BoundaryDensity):
        return _NodeDensity(mesh, density=density, factor=factor)
    if callable(density):
        return _NodeDensity(mesh, fn=density, factor=factor)
    raise TypeError("density must be a BoundaryDensity or a callable")


def single_layer_matrix(
    mesh: SurfaceMesh,
    space_tag: str,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
    workers: int = 1,
) -> np.ndarray:
    """Dense single-layer matrix mapping density coefficients to target values."""
    term = _single_term(mesh, space=space_tag, factor=factor)
    return _surface_rows(mesh, targets, [term], cfg)[0]


def double_layer_matrix(
    mesh: SurfaceMesh,
    space_tag: str,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
    workers: int = 1,
) -> np.ndarray:
    """Dense double-layer matrix (principal value at registered targets)."""
    term = _double_term(mesh, space=space_tag, factor=factor)
    return _surface_rows(mesh, targets, [term], cfg)[0]


# Direct values are the on-surface evaluations; kept as named wrappers since
# they are distinct operators in the integral-equation system.

def single_layer_direct(mesh, density, colloc: Collocation, cfg=DEFAULT_QUAD, factor=None):
    """On-surface (direct) value of the single layer at registered points."""
    _require_registered(colloc)
    return single_layer(mesh, density, colloc, cfg, factor)


def double_layer_direct(mesh, density, colloc: Collocation, cfg=DEFAULT_QUAD, factor=None):
    """Principal value of the double layer at registered points."""
    _require_registered(colloc)
    return double_layer(mesh, density, colloc, cfg, factor)


def _require_registered(colloc: Collocation):
    if not isinstance(colloc, Collocation) or any(k == KIND_FREE for k in colloc.kinds):
        raise ValueError("direct values require registered collocation points")


# --- volume potential -----------------------------------------------------------

def exclusion_radii(volmesh: VolumeMesh, factor: float = 0.5) -> np.ndarray:
    """Per-node exclusion radius: factor times the local node spacing."""
    return np.repeat(factor * volmesh.node_spacing(), volmesh.n_nodes_per_cell)


def _volume_points(targets) -> np.ndarray:
    return np.atleast_2d(np.asarray(
        targets.points if isinstance(targets, Collocation) else targets, dtype=float))


def _node_values(volmesh: VolumeMesh, density) -> np.ndarray:
    """A DomainDensity or a callable density at every volume node."""
    if isinstance(density, DomainDensity):
        return np.repeat(density.values, volmesh.n_nodes_per_cell)
    return np.asarray(density(volmesh.all_nodes()), dtype=float)


# Target-node pairs per block of volume kernel values (see FAR_BLOCK_PAIRS).
VOLUME_BLOCK_PAIRS = 1 << 15


def _volume_rows(targets, kernel: Callable, weights: np.ndarray, excl: np.ndarray,
                 per_cell: Optional[int] = None) -> np.ndarray:
    """The one engine behind every production volume integral.

    Targets run in blocks of VOLUME_BLOCK_PAIRS // (nodes); ``kernel(y)``
    returns new arrays (overwritten here) of the kernel values and distances
    r, (B, nodes) each, for a (B, 3) block y.  ``weights`` carry the node
    weights times the coefficient factor (and, for values, the density).
    Nodes with r <= ``excl`` are dropped.  Returns one value per target, or
    with ``per_cell`` nodes per cell, one row of per-cell sums per target.
    """
    targets = _volume_points(targets)
    m, n = len(targets), len(weights)
    out = np.zeros(m) if per_cell is None else np.zeros((m, n // per_cell))
    block = max(1, VOLUME_BLOCK_PAIRS // n)
    for start in range(0, m, block):
        y = targets[start:start + block]
        # Dropped nodes may sit on a target; their values are discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals, r = kernel(y)
        vals[r <= excl] = 0.0
        if per_cell is None:
            out[start:start + len(y)] = vals @ weights
        else:
            vals *= weights
            out[start:start + len(y)] = vals.reshape(len(y), -1, per_cell).sum(axis=2)
    return out


def _offsets(comps: np.ndarray, y: np.ndarray):
    """Node-minus-target components, (B, n) each, and r^2 for targets y (B, 3);
    comps holds the node coordinates as contiguous component arrays (3, n)."""
    dx, dy, dz = (comps[k] - y[:, k, None] for k in range(3))
    return dx, dy, dz, dx * dx + dy * dy + dz * dz


def _newton_kernel(nodes: np.ndarray) -> Callable:
    comps = np.ascontiguousarray(nodes.T)
    def kern(y):
        r = np.sqrt(_offsets(comps, y)[3])
        return -1.0 / (FOUR_PI * r), r
    return kern


def _newton_weights(volmesh: VolumeMesh, factor: Optional[Callable]) -> np.ndarray:
    wts = volmesh.all_weights()
    return wts if factor is None else wts * factor(volmesh.all_nodes())


def newton_potential(
    volmesh: VolumeMesh,
    density: Union[DomainDensity, Callable],
    targets,
    factor: Optional[Callable] = None,
    exclusion_factor: float = 0.5,
    workers: int = 1,
) -> np.ndarray:
    """Volume potential with kernel -1/(4 pi |x - y|) and an exclusion ball.

    Nodes within the per-cell exclusion radius of a target are skipped; the
    omitted mass is O(radius^2) for this kernel.
    """
    weights = _newton_weights(volmesh, factor) * _node_values(volmesh, density)
    return _volume_rows(targets, _newton_kernel(volmesh.all_nodes()), weights,
                        exclusion_radii(volmesh, exclusion_factor))


def newton_potential_matrix(
    volmesh: VolumeMesh,
    targets,
    factor: Optional[Callable] = None,
    exclusion_factor: float = 0.5,
    workers: int = 1,
) -> np.ndarray:
    """Dense matrix of the Newton potential on cell-wise constant densities."""
    return _volume_rows(targets, _newton_kernel(volmesh.all_nodes()),
                        _newton_weights(volmesh, factor),
                        exclusion_radii(volmesh, exclusion_factor),
                        per_cell=volmesh.n_nodes_per_cell)


# --- offset normal derivative -----------------------------------------------

def normal_derivative(potential: Callable, point, normal, offset: float) -> float:
    """Normal derivative of a potential probed from the exterior side.

    Uses two evaluations at point - k*offset*n (k = 1, 2), which lie inside
    the exterior domain since n points out of it; second-order accurate at
    the midpoint of the stencil.

    Parameters
    ----------
    potential : callable(points (m, 3)) -> (m,)
    """
    if offset <= 10.0 * np.finfo(float).eps:
        raise ValueError("offset too small for a stable stencil")
    p = np.asarray(point, dtype=float)
    n = np.asarray(normal, dtype=float)
    pts = np.stack([p - offset * n, p - 2.0 * offset * n])
    v = np.asarray(potential(pts), dtype=float)
    # d/d(-n) g = (g(p - 2 eps n) - g(p - eps n)) / eps; flip sign for d/dn.
    return float(-(v[1] - v[0]) / offset)
