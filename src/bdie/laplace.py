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

Every surface operator runs through one engine, ``_surface_rows``, and
every volume operator through another, ``_volume_rows``.  Each serves a
list of terms (several outputs) in one pass over blocks of targets: the
terms of a surface pass share one classification and one r, those of a
volume pass (the remainder's rows or values and P f, say) one r and one
exclusion mask.  The surface engine returns only dense rows on a basis,
triangle-constant or vertex-linear: the value of a layer potential is its
rows applied to the density's coefficients (``apply_rows``), so a surface
density is always a ``BoundaryDensity``.  The Newton potential carries
-1/(4 pi), its factor (1/a for P) and its density in the node weights, so
each of its target-node pairs costs one divide, weights / r.

Kernel contract of both engines: quadrature nodes are stored
component-major, (3, ...), so that a block builds r^2 = (dx^2 + dy^2) + dz^2
in place from contiguous component arrays with one scratch buffer
(``_squared_distances``), and each kernel writes one output array with
in-place ufuncs.  On the flat panels n . (x - y) = n . (c - y) for every
node of a panel with centroid c, so the double layer takes it once per
target-panel pair.  Callbacks of points (factors, kernels that are not
functions of the offsets, volume densities) still receive (..., 3) arrays.
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

# Volume nodes within this fraction of their cell's node spacing of a
# target are dropped (see exclusion_radii).
EXCLUSION_FACTOR = 0.5


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


def _squared_distances(nodes, targets, out, scratch, each=None) -> np.ndarray:
    """r^2 = (dx^2 + dy^2) + dz^2 of component-major nodes (3, ...) from
    targets (3, ...), broadcast against each other, built in ``out`` with
    the one ``scratch`` buffer.  ``each(k, d)``, if given, sees each offset
    component d = x_k - y_k before it is squared, and must not change it."""
    for k in range(3):
        d = np.subtract(nodes[k], targets[k], out=scratch)
        if each is not None:
            each(k, d)
        if k == 0:
            np.multiply(d, d, out=out)
        else:
            d *= d
            out += d
    return out


def _four_pi_r3(r, out) -> np.ndarray:
    """4 pi r^3 into out, the cube by multiplication."""
    np.multiply(r, r, out=out)
    out *= r
    out *= FOUR_PI
    return out


class _Offsets(NamedTuple):
    """Offsets x - y of component-major nodes (3, ...) from targets (3, ...),
    which broadcast against each other, with r = |x - y|.  Each node lies on
    the flat panel through ``centroids`` with unit ``normals`` (3, ...)."""

    nodes: np.ndarray
    targets: np.ndarray
    normals: np.ndarray
    centroids: np.ndarray
    r: np.ndarray

    def component(self, k: int) -> np.ndarray:
        """x_k - y_k, a new array."""
        return self.nodes[k] - self.targets[k]

    def plane(self) -> np.ndarray:
        """n . (x - y): on a flat panel this is n . (c - y) for every node,
        so it is taken once per target-panel pair."""
        n, c, y = self.normals, self.centroids, self.targets
        return (n[0] * (c[0] - y[0]) + n[1] * (c[1] - y[1])) + n[2] * (c[2] - y[2])


def _offset_kernel(of_offsets: Callable) -> Callable:
    """A surface kernel from ``of_offsets(off, out)``, which writes its
    values at the offsets ``off`` (an _Offsets) into ``out`` in place and
    returns it.  The surface engine forms r once for all such kernels of a
    pass.  Called as ``kernel(nodes, normals, targets)`` on broadcasting
    (..., 3) arrays, it takes the panel of each node through that node."""
    def kernel(nodes, normals, targets):
        nodes, normals, targets = (np.moveaxis(np.asarray(a, dtype=float), -1, 0)
                                   for a in (nodes, normals, targets))
        return _kernel_values([kernel], nodes, targets, normals, nodes)[kernel]
    kernel.of_offsets = of_offsets
    kernel.__name__, kernel.__doc__ = of_offsets.__name__, of_offsets.__doc__
    return kernel


@_offset_kernel
def single_layer_kernel(off, out):
    """1/(4 pi |x - y|) at nodes x for targets y."""
    np.multiply(off.r, FOUR_PI, out=out)
    return np.divide(1.0, out, out=out)


@_offset_kernel
def double_layer_kernel(off, out):
    """-n(x) . grad_x fund_solution = -n.(x-y)/(4 pi |x-y|^3)."""
    np.divide(off.plane(), _four_pi_r3(off.r, out), out=out)
    return np.negative(out, out=out)


def _kernel_values(kernels, nodes, targets, normals, centroids) -> dict:
    """Each distinct kernel's values at component-major nodes (3, ...) for
    targets (3, ...), keyed by kernel; ``normals`` and ``centroids`` (3, ...)
    give each node's flat panel, and all four broadcast.  The offset kernels
    share one r, built in place; any other kernel is called on (..., 3)
    views, as ``kernel(nodes, normals, targets)``."""
    shape = np.broadcast_shapes(nodes.shape[1:], targets.shape[1:])
    vals, off = {}, None
    for kernel in dict.fromkeys(kernels):
        if not hasattr(kernel, "of_offsets"):
            vals[kernel] = kernel(*(np.moveaxis(a, 0, -1) for a in (nodes, normals, targets)))
            continue
        out = np.empty(shape)
        if off is None:
            # The scratch buffer of r becomes the first kernel's output.
            r = np.empty(shape)
            np.sqrt(_squared_distances(nodes, targets, r, out), out=r)
            off = _Offsets(nodes, targets, normals, centroids, r)
        vals[kernel] = kernel.of_offsets(off, out)
    return vals


# --- densities ---------------------------------------------------------------

@dataclass
class BoundaryDensity:
    """Discrete surface density.

    space_tag "triangle-constant" carries one coefficient per triangle;
    "vertex-linear" one per vertex (continuous piecewise-linear).  The
    support_tag declares where coefficients may be nonzero: "D"/"N" limit a
    triangle-constant density to one part, and a vertex-linear density to
    vertices strictly interior to that part (zero on the interface).  The
    declaration is what ``validate_support`` checks; the operators integrate
    the coefficients over every panel, so a valid restricted density
    contributes exact zeros off its part.
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
    """Per-mesh physical quadrature nodes for the far and near rules, stored
    component-major: (3, panels, nodes)."""

    def __init__(self, mesh: SurfaceMesh, cfg: QuadConfig):
        corners = mesh.corners()
        fpts, fwts = quad.gauss_triangle(cfg.far_order)
        npts, nwts = quad.subdivided_triangle_rule(cfg.near_order, cfg.levels)
        far_nodes, self.far_wts = quad.map_to_panel(corners, fpts, fwts)
        near_nodes, self.near_wts = quad.map_to_panel(corners, npts, nwts)
        self.far_nodes = np.ascontiguousarray(np.moveaxis(far_nodes, -1, 0))
        self.near_nodes = np.ascontiguousarray(np.moveaxis(near_nodes, -1, 0))
        # Every call on the mesh shares the far table, and callbacks see views of it.
        self.far_nodes.flags.writeable = False
        self.normals = np.ascontiguousarray(mesh.normals.T)
        self.centroids = np.ascontiguousarray(mesh.centroids.T)
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


class _Columns:
    """Where the quadrature nodes of a panel land in the output: the panel's
    own column (triangle-constant), or its three corner columns weighted by
    barycentric coordinates (vertex-linear)."""

    def __init__(self, mesh: SurfaceMesh, space: str):
        if space not in (SPACE_TRIANGLE, SPACE_VERTEX):
            raise ValueError(f"unknown space {space!r}")
        self.vertex = space == SPACE_VERTEX
        self.triangles = mesh.triangles
        self.n = mesh.n_vertices if self.vertex else mesh.n_triangles

    def of(self, panels):
        """Columns (k, c) of panels (k,)."""
        return self.triangles[panels] if self.vertex else panels[:, None]

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


class _Scatter(NamedTuple):
    """How to add values at (rows, cols) into a C-contiguous (m, n) output
    with repeated entries summed pairwise, as np.sum does: the stable order
    of the flat keys, the starts of their runs, and the key of each run.
    Added one after another, the tens of near pairs of a row lose digits
    that the linearity checks of the Green identities see.  Terms whose
    columns coincide share one plan."""

    order: np.ndarray
    starts: np.ndarray
    keys: np.ndarray

    @staticmethod
    def plan(n, rows, cols) -> "_Scatter":
        key = (rows * n + cols).ravel()
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        return _Scatter(order, starts, key[starts])

    def add(self, out, vals) -> None:
        """out[rows, cols] += vals; out's flat reshape is a view."""
        out.reshape(-1)[self.keys] += np.add.reduceat(vals.ravel()[self.order], self.starts)


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
    """One output of a surface pass: the dense rows of ``kernel`` times the
    optional smooth ``factor(nodes, normals)`` on the basis of ``space``
    (triangle-constant or vertex-linear), over every panel, with the
    singular scheme "duffy" or "skip"."""

    kernel: Callable
    factor: Optional[Callable]
    scheme: str
    space: str


def _single_term(space: str, factor: Optional[Callable] = None) -> _Term:
    """Single-layer rows on the basis of space."""
    return _Term(single_layer_kernel, factor, "duffy", space)


def _double_term(space: str, factor: Optional[Callable] = None) -> _Term:
    """Double-layer rows; principal value at registered targets."""
    return _Term(double_layer_kernel, factor, "skip", space)


def apply_rows(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Rows (m, n) applied to coefficients (n,): a row-wise pairwise sum,
    never a matrix product, so a row's value does not depend on the others."""
    return (rows * coefficients).sum(axis=1)


def _surface_rows(mesh: SurfaceMesh, targets, terms, cfg: QuadConfig = DEFAULT_QUAD) -> list:
    """The one surface-quadrature engine: one pass over the targets for a
    list of terms (see _Term); returns per term its dense rows (m, columns).
    A value of a layer potential is its rows applied to the density's
    coefficients (apply_rows).  A space other than triangle-constant or
    vertex-linear raises ``ValueError``.

    Targets run in blocks of FAR_BLOCK_PAIRS // (far nodes).  In a block, a
    target-panel pair is far when a centroid bound already puts the panel
    ``near_threshold`` diameters away; the exact point-triangle distance is
    computed for the other pairs only (one paired call per block), once for
    all terms.  Far pairs take one block of kernel values at all far nodes,
    masked to the far pairs and mapped to each term's columns by a sparse
    node-to-column matrix; near pairs (the subdivided rule) and the target's
    own panels (a Duffy rule) add their sums as corrections.  A term's
    factor is folded into its node weights once per call: into the far
    weights of every panel up front, into the near weights of a panel at
    its first near pair.

    Kernel contract (see _kernel_values): node tables are component-major,
    (3, panels, nodes), and the terms of a block share r = |x - y|, built in
    place from them with one scratch buffer; an offset kernel writes its
    values into one output array with in-place ufuncs, and a kernel shared
    by several terms is evaluated once.  The double layer takes n . (x - y)
    once per target-panel pair, as n . (c - y) with the panel's centroid c,
    since the panels are flat.  Other kernels, ``kernel(nodes, normals,
    targets)``, get broadcasting (..., 3) views, as do the factors.

    A term's scheme is "duffy" for weakly singular kernels or "skip" for the
    principal-value double layer (flat panels through the collocation point
    contribute zero exactly).  A target on a panel that is not one of its
    registered panels raises ``ValueError``: no rule here is accurate
    there.
    """
    colloc = _as_collocation(targets)
    cache = _panel_cache(mesh, cfg)
    corners = mesh.corners()
    n_tri = mesh.n_triangles
    kernels = [term.kernel for term in terms]
    columns = [_Columns(mesh, term.space) for term in terms]
    outs = [np.zeros((colloc.n, c.n)) for c in columns]
    on_panel_tol = 1e-12 * mesh.diameters
    near_cut = cfg.near_threshold * mesh.diameters

    def node_weights(term, panels, nodes, wts):
        # The factor sees nodes (k, q, 3) and their panels' normals.
        if term.factor is None:
            return wts
        normals = np.broadcast_to(mesh.normals[panels][:, None, :], nodes.shape)
        return wts * term.factor(nodes, normals)

    def panel_data(panels):
        # Normals and centroids (3, k, 1) of panels (k,), against nodes (3, k, q).
        return cache.normals[:, panels, None], cache.centroids[:, panels, None]

    every = np.arange(n_tri)
    every_nodes = np.moveaxis(cache.far_nodes, 0, -1)
    far_map = [c.node_map(every, node_weights(term, every, every_nodes, cache.far_wts),
                          cache.far_bary) for term, c in zip(terms, columns)]
    # With a leading target axis: nodes (3, 1, n_tri, n_far), panels (3, 1, n_tri, 1).
    far_nodes = cache.far_nodes[:, None]
    far_panels = [a[:, None] for a in panel_data(every)]
    sing_rows, sing_panels = _singular_pairs(cache, colloc)
    duffy = [t for t, term in enumerate(terms) if term.scheme == "duffy"]

    # Near weights are folded in when a panel first has a near pair: a call
    # with few targets meets few near panels.
    near_w = [np.empty(cache.near_wts.shape) for _ in terms]
    near_ready = np.zeros(n_tri, dtype=bool)

    def add_pairs(ts, rows, panels, nodes, weight_of, bary):
        # Distinct target-panel pairs (rows[k], panels[k]) of the terms ts,
        # nodes (3, k, q); a row may repeat.  A term's node weights are
        # formed only when it is summed.  Each pair has its own triangle
        # column, so those add directly; vertex columns repeat, and the
        # vertex terms share one scatter plan.
        vals = _kernel_values([kernels[t] for t in ts], nodes,
                              colloc.points[rows].T[:, :, None], *panel_data(panels))
        plan = None
        for t in ts:
            cols = columns[t].of(panels)
            contrib = columns[t].reduce(vals[kernels[t]] * weight_of(t), bary)
            if not columns[t].vertex:
                outs[t][rows, cols[:, 0]] += contrib[:, 0]
                continue
            if plan is None:
                plan = _Scatter.plan(columns[t].n, rows[:, None], cols)
            plan.add(outs[t], contrib)

    block = max(1, FAR_BLOCK_PAIRS // cache.far_wts.size)
    for start in range(0, colloc.n, block):
        y = colloc.points[start:start + block]
        lo, hi = np.searchsorted(sing_rows, [start, start + len(y)])
        rows, panels = sing_rows[lo:hi], sing_panels[lo:hi]
        regular = np.ones((len(y), n_tri), dtype=bool)
        regular[rows - start, panels] = False

        # Classification: the centroid bound, then exact distances of the
        # candidate pairs it cannot decide.  The margin keeps rounding in the
        # bound from calling a pair far that the exact distance would call near.
        gap = np.linalg.norm(y[:, None, :] - mesh.centroids, axis=2) - cache.radius
        cand_rows, cand_panels = np.nonzero(regular & (gap < near_cut * (1.0 + 1e-9)))
        d = np.empty(0)
        if len(cand_rows):
            d = quad.point_triangle_distance(y[cand_rows], corners[cand_panels],
                                             True)  # paired, one distance per pair
        on_panel = d <= on_panel_tol[cand_panels]
        if on_panel.any():
            k = int(np.argmax(on_panel))
            raise ValueError(
                f"target {y[cand_rows[k]]} lies on panel {cand_panels[k]}, which is "
                "not one of its registered panels; pass it as a Collocation "
                "centroid or vertex of that panel")
        is_near = d < near_cut[cand_panels]
        near_rows, near_panels = cand_rows[is_near], cand_panels[is_near]

        # Far pairs: kernel values at every far node, masked to far pairs.
        # Masked nodes may sit on a target; their values are discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _kernel_values(kernels, far_nodes, y.T[:, :, None, None], *far_panels)
        not_far = ~regular
        not_far[near_rows, near_panels] = True
        for v in vals.values():
            v[not_far] = 0.0
        for t, kernel in enumerate(kernels):
            outs[t][start:start + len(y)] += (far_map[t] @ vals[kernel].reshape(len(y), -1).T).T

        new = np.unique(near_panels)
        new = new[~near_ready[new]]
        if len(new):
            nodes = np.moveaxis(cache.near_nodes[:, new], 0, -1)
            for term, w in zip(terms, near_w):
                w[new] = node_weights(term, new, nodes, cache.near_wts[new])
            near_ready[new] = True
        for k in range(0, len(near_rows), NEAR_BATCH_PAIRS):
            r, p = near_rows[k:k + NEAR_BATCH_PAIRS], near_panels[k:k + NEAR_BATCH_PAIRS]
            add_pairs(range(len(terms)), r + start, p, cache.near_nodes[:, p],
                      lambda t: near_w[t][p], cache.near_bary)

        # Singular pairs: a Duffy rule per kind of registered point.
        if not duffy:
            continue
        kinds = quad.singular_point_kind(corners[panels], colloc.points[rows])
        if np.any(kinds == quad.UNREGISTERED):
            k = int(np.argmax(kinds == quad.UNREGISTERED))
            raise ValueError(f"registered target {colloc.points[rows[k]]} is neither a "
                             f"vertex nor the centroid of its panel {panels[k]}")
        for kind in np.unique(kinds):
            r, p = rows[kinds == kind], panels[kinds == kind]
            nodes, w = quad.duffy_panel_nodes(corners[p], kind, cfg.duffy_order)
            bary = _barycentric(corners[p], nodes)
            add_pairs(duffy, r, p, np.moveaxis(nodes, -1, 0),
                      lambda t: node_weights(terms[t], p, nodes, w), bary)
    return outs


# --- public surface operators --------------------------------------------------

def _space_of(density) -> str:
    """The basis space of a surface density, which must be a BoundaryDensity."""
    if not isinstance(density, BoundaryDensity):
        raise TypeError(f"density must be a BoundaryDensity, not {type(density).__name__}")
    return density.space_tag


def single_layer(
    mesh: SurfaceMesh,
    density: BoundaryDensity,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Single layer potential of a surface density, evaluated at targets:
    the single-layer rows on the density's basis applied to its
    coefficients.

    Targets may be free points or a Collocation; for registered on-surface
    points the self-panel integral uses a Duffy rule (this is the direct
    value of the operator on the surface).

    Parameters
    ----------
    density : BoundaryDensity; anything else raises TypeError
    factor : optional callable(nodes, normals) -> values
        Smooth rescaling applied at quadrature nodes.
    """
    rows = single_layer_matrix(mesh, _space_of(density), targets, cfg, factor)
    return apply_rows(rows, density.values)


def double_layer(
    mesh: SurfaceMesh,
    density: BoundaryDensity,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Double layer potential, as single_layer; for registered on-surface
    targets this is the principal value (panels through the target are
    skipped, exact for flat panels)."""
    rows = double_layer_matrix(mesh, _space_of(density), targets, cfg, factor)
    return apply_rows(rows, density.values)


def single_layer_matrix(
    mesh: SurfaceMesh,
    space_tag: str,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Dense single-layer matrix mapping density coefficients to target values."""
    return _surface_rows(mesh, targets, [_single_term(space_tag, factor)], cfg)[0]


def double_layer_matrix(
    mesh: SurfaceMesh,
    space_tag: str,
    targets,
    cfg: QuadConfig = DEFAULT_QUAD,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Dense double-layer matrix (principal value at registered targets)."""
    return _surface_rows(mesh, targets, [_double_term(space_tag, factor)], cfg)[0]


# --- volume potential -----------------------------------------------------------

def exclusion_radii(volmesh: VolumeMesh) -> np.ndarray:
    """Per-node exclusion radius: EXCLUSION_FACTOR times the local node spacing."""
    return np.repeat(EXCLUSION_FACTOR * volmesh.node_spacing(), volmesh.n_nodes_per_cell)


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


class _VolumeTerm(NamedTuple):
    """One output of a volume pass: kernel values times the node ``weights``,
    one sum per target or, with ``per_cell`` nodes per cell, one row of
    per-cell sums per target, written into ``out`` when it is given.
    ``kernel`` None is the Newton kernel, whose -1/(4 pi) and factors the
    weights carry (see _newton_weights): one divide per target-node pair."""

    weights: np.ndarray
    kernel: Optional[Callable] = None
    per_cell: Optional[int] = None
    out: Optional[np.ndarray] = None


def _volume_nodes(volmesh: VolumeMesh) -> np.ndarray:
    """The quadrature nodes of every cell, component-major: (3, nodes)."""
    return np.ascontiguousarray(volmesh.all_nodes().T)


def _volume_rows(targets, nodes: np.ndarray, excl: np.ndarray, terms) -> list:
    """The one engine behind every production volume integral: one pass over
    the targets for a list of terms (see _VolumeTerm); returns per term
    values (m,) or rows (m, cells).

    Targets run in blocks of VOLUME_BLOCK_PAIRS // (nodes).  The terms of a
    block share r = |x - y| and the exclusion mask: nodes with r <= ``excl``
    are dropped.  A Newton term is weights / r, summed.  A pass may have one
    term with a kernel, ``kernel(nodes, y, r, scratch)``, which writes r
    into ``r`` for targets y (3, B, 1), may use the (B, nodes) ``scratch``,
    and returns its values in a new (B, nodes) array, which is then masked
    and weighted in place.  Without one, the pass builds r itself.  Either
    way a block holds two (B, nodes) arrays besides the kernel's own, and
    the Newton terms reuse the scratch.

    Kernel contract: nodes are component-major, (3, nodes), so that r^2 =
    (dx^2 + dy^2) + dz^2 is built in place from contiguous component arrays
    with one scratch buffer (_squared_distances), and a kernel writes its
    values with in-place ufuncs.  The weighted values are reduced row by row
    with numpy's pairwise sum, never a matrix product, so a target's value
    does not depend on which targets share its block.
    """
    targets = _volume_points(targets)
    m, n = len(targets), nodes.shape[1]
    kernels = [term.kernel for term in terms if term.kernel is not None]
    if len(kernels) > 1:
        raise ValueError("a volume pass evaluates at most one kernel term")
    outs = [term.out if term.out is not None
            else np.zeros(m) if term.per_cell is None
            else np.zeros((m, n // term.per_cell)) for term in terms]
    block = max(1, VOLUME_BLOCK_PAIRS // n)
    for start in range(0, m, block):
        y = targets[start:start + block]
        r, scratch = np.empty((len(y), n)), np.empty((len(y), n))
        # Dropped nodes may sit on a target; their values are discarded.
        with np.errstate(divide="ignore", invalid="ignore"):
            if kernels:
                kernel_vals = kernels[0](nodes, y.T[:, :, None], r, scratch)
            else:
                np.sqrt(_squared_distances(nodes, y.T[:, :, None], r, scratch), out=r)
            dropped = r <= excl
            for term, out in zip(terms, outs):
                if term.kernel is None:
                    vals = np.divide(term.weights, r, out=scratch)
                    vals[dropped] = 0.0
                else:
                    vals = kernel_vals
                    vals[dropped] = 0.0
                    vals *= term.weights
                if term.per_cell is None:
                    out[start:start + len(y)] = vals.sum(axis=1)
                else:
                    out[start:start + len(y)] = vals.reshape(len(y), -1, term.per_cell).sum(axis=2)
    return outs


def _newton_weights(volmesh: VolumeMesh, factor: Optional[Callable] = None,
                    density=None) -> np.ndarray:
    """Node weights of the Newton potential: the quadrature weights times
    the factor and the density at the nodes, when given, and -1/(4 pi), so
    that what is left per pair is 1/r."""
    wts = volmesh.all_weights()
    if factor is not None:
        wts = wts * factor(volmesh.all_nodes())
    if density is not None:
        wts = wts * _node_values(volmesh, density)
    return wts / -FOUR_PI


def newton_potential(
    volmesh: VolumeMesh,
    density: Union[DomainDensity, Callable],
    targets,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Volume potential with kernel -1/(4 pi |x - y|) and an exclusion ball.

    Nodes within the per-cell exclusion radius of a target are skipped; the
    omitted mass is O(radius^2) for this kernel.
    """
    term = _VolumeTerm(_newton_weights(volmesh, factor, density))
    return _volume_rows(targets, _volume_nodes(volmesh),
                        exclusion_radii(volmesh), [term])[0]


def newton_potential_matrix(
    volmesh: VolumeMesh,
    targets,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Dense matrix of the Newton potential on cell-wise constant densities."""
    term = _VolumeTerm(_newton_weights(volmesh, factor), per_cell=volmesh.n_nodes_per_cell)
    return _volume_rows(targets, _volume_nodes(volmesh),
                        exclusion_radii(volmesh), [term])[0]


# --- offset normal derivative -----------------------------------------------

def normal_derivative(potential: Callable, points, normals, offset: float):
    """Normal derivatives of a potential probed from the exterior side.

    Uses two evaluations at p - k*offset*n (k = 1, 2) for each point p with
    normal n, which lie inside the exterior domain since n points out of it;
    second-order accurate at the midpoint of the stencil.  The potential is
    called once, on all 2m stencil points of m points (m, 3) with normals
    (m, 3), and the result is (m,); one point (3,) gives a float.

    Parameters
    ----------
    potential : callable(points (k, 3)) -> (k,)
    """
    if offset <= 10.0 * np.finfo(float).eps:
        raise ValueError("offset too small for a stable stencil")
    p = np.asarray(points, dtype=float)
    n = np.asarray(normals, dtype=float)
    pts = np.concatenate([np.atleast_2d(p - offset * n), np.atleast_2d(p - 2.0 * offset * n)])
    v = np.asarray(potential(pts), dtype=float)
    m = len(pts) // 2
    # d/d(-n) g = (g(p - 2 eps n) - g(p - eps n)) / eps; flip sign for d/dn.
    d = -(v[m:] - v[:m]) / offset
    return float(d[0]) if p.ndim == 1 else d
