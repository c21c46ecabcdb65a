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
every volume operator through another, ``_volume_rows``.  Both loop over
chunks of targets, whole numbers of cache-sized far blocks by one rule
(``_far_blocks``), and a chunk does all of its own work.  A surface pass
serves a list of terms (several outputs), which share one classification
and one r.  A volume pass evaluates one term at points or at a measured set
(``_NearSet``, which carries its points), so the passes at one target set
(the remainder's rows and P f, say) share its near set.  A remainder value
is the pairwise sum of its row; a Newton value (P f) is the pairwise sum
of its far row plus one sparse product on the near pairs (see
_volume_rows).  Both split the pairs of a target and an element by
distance.  The surface engine takes
far, near (subdivided) and Duffy panels on the one rule of ``quadrature``
(FAR_ORDER; NEAR_ORDER at the depth ``quad.near_depth`` gives a near
pair, at most SUBDIVISION_LEVELS; NEAR_THRESHOLD; DUFFY_ORDER), so no
operator takes a setting: each is a function of the mesh, the
coefficient, the density and the targets.  The volume engine
takes far cells on the shell's default 6-node rule, its far table, and
near cells on the mesh's own rule with the exclusion ball.  The surface
engine returns only dense rows on a basis, triangle-constant or
vertex-linear: the value of a layer potential is its rows applied to the
density's coefficients (``apply_rows``, a block of targets at a time in
the value functions), so a surface density is always a
``BoundaryDensity``, with one coefficient per triangle or vertex of the
mesh (``_space_of`` checks both).  The Newton potential carries -1/(4 pi),
a factor (1/a for P) and its density in the node weights, so each of its
far target-node pairs costs one divide, weights / r, and its near pairs
one sparse product of their inverse distances with the near table's
weights (``_NearSet.op``, whose data is a view of the set's).  The near
pairs of a target set and their nodes' inverse distances 1/r depend on no
term: ``_near_set`` is the one place that classifies and measures them,
and a pass given the ``_NearSet`` does neither again, whatever its term
(the system's volume target sets, ``parametrix._VolumeTargets``, measure
one each for R and P f).

Kernel contract of both engines: quadrature nodes are stored
component-major, (3, ...).  A surface block builds r^2 = (dx^2 + dy^2) +
dz^2 in place from contiguous component arrays with one scratch buffer
(``_squared_distances``), and each kernel writes one output array with
in-place ufuncs.  On the flat panels n . (x - y) = n . (c - y) for every
node of a panel with centroid c, so the double layer takes it once per
target-panel pair.  The volume tables are node-major within a cell, (3,
nodes, cells).  A volume far block measures all its target-node pairs by
one matrix product, the block's augmented targets [y, 1, |y|^2] times the
far table's augmented nodes [-2x, |x|^2, 1], which the mesh's _CellCache
keeps (|x - y|^2 = |y|^2 - 2 x . y + |x|^2); near pairs take 1/r from
their _NearSet, where a node in the exclusion ball has 1/r = 0.  A volume
kernel (the remainder) is a function of 1/r, g . (x - y) for its per-node
vector g (grad ln a), and its per-node data (lap ln a), whether the pair
is far or near, and vanishes where 1/r is 0, so it needs no mask: a far
block takes g . (x - y) from a second product, [y, 1] times [-g, g . x],
built once per pass, and a near batch from the gathered offsets.  Callbacks of points (factors, kernels
that are not functions of the offsets, volume densities) still receive
(..., 3) arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from scipy import sparse

from . import quadrature as quad
from .geometry import SurfaceMesh, VolumeMesh

FOUR_PI = 4.0 * np.pi

SPACE_TRIANGLE = "triangle-constant"
SPACE_VERTEX = "vertex-linear"

# Volume nodes within this fraction of their cell's node spacing of a
# target are dropped (see exclusion_radii).
EXCLUSION_FACTOR = 0.5
# A target-cell pair is near when the target lies within this many cell
# radii (centre to farthest corner) of the cell's centre, or within the
# radius plus the cell's exclusion radius; the other pairs take the far
# table (see _volume_rows), and none of their nodes lies within the
# exclusion radius of the target.  Chosen by measurement: at the level-2
# and level-3 boundary points the far table moves R u and P f of the
# point-source field by at most 7.4e-5 of max |u| on the sphere (1.1e-4
# at 1.5 radii, 6.2e-5 at 2), and at level 2 8% of the pairs are near
# (13% at 2 radii, where the near pairs cost as much as the far ones).
NEAR_CELL_FACTOR = 1.75


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


def _squared_distances(nodes, targets, out, scratch) -> np.ndarray:
    """r^2 = (dx^2 + dy^2) + dz^2 of component-major nodes (3, ...) from
    targets (3, ...), broadcast against each other, built in ``out`` with
    the one ``scratch`` buffer."""
    for k in range(3):
        d = np.subtract(nodes[k], targets[k], out=scratch)
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
    operators integrate the coefficients over every panel, and each checks
    that there is one per triangle or vertex of its mesh.  Where a density
    may be nonzero is the business of its producer: the unknown layout of
    the system puts psi on S_D and phi at interior-S_N vertices.
    """

    space_tag: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.space_tag not in (SPACE_TRIANGLE, SPACE_VERTEX):
            raise ValueError(f"unknown space_tag {self.space_tag!r}")


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
        pts = _target_points(points)
        return Collocation(pts, [KIND_FREE] * len(pts), np.full(len(pts), -1))

    @staticmethod
    def centroids(mesh: SurfaceMesh, tri_indices=None) -> "Collocation":
        idx = np.arange(mesh.n_triangles) if tri_indices is None else np.asarray(tri_indices)
        return Collocation(mesh.centroids[idx], [KIND_CENTROID] * len(idx), idx)

    @staticmethod
    def vertices(mesh: SurfaceMesh, vert_indices=None) -> "Collocation":
        idx = np.arange(mesh.n_vertices) if vert_indices is None else np.asarray(vert_indices)
        return Collocation(mesh.vertices[idx], [KIND_VERTEX] * len(idx), idx)

    def take(self, index: slice) -> "Collocation":
        """The points of a slice, with their registration."""
        return Collocation(self.points[index], self.kinds[index], self.indices[index])

    @staticmethod
    def concat(parts) -> "Collocation":
        return Collocation(
            np.concatenate([p.points for p in parts]),
            sum((p.kinds for p in parts), []),
            np.concatenate([p.indices for p in parts]),
        )


def _target_points(points) -> np.ndarray:
    """Targets given as an array: finite points (m, 3), or one point (3,)
    as one row.  Any other shape, or a coordinate that is not finite,
    raises ValueError: no rule gives a value there."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"targets must be 3-vectors, shape (m, 3); got shape {pts.shape}")
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"target {pts[k]} has a coordinate that is not finite")
    return pts


def _as_collocation(targets) -> Collocation:
    if isinstance(targets, Collocation):
        return targets
    return Collocation.free(targets)


# --- panel caches ---------------------------------------------------------------

class _NodeTable(NamedTuple):
    """A reference rule mapped to every panel of a mesh: its nodes,
    component-major (3, panels, nodes), their weights (panels, nodes) and
    their barycentric coordinates (nodes, 3), the same on every panel."""

    nodes: np.ndarray
    wts: np.ndarray
    bary: np.ndarray

    @staticmethod
    def of(corners: np.ndarray, pts: np.ndarray, wts: np.ndarray) -> "_NodeTable":
        nodes, w = quad.map_to_panel(corners, pts, wts)
        return _NodeTable(np.ascontiguousarray(np.moveaxis(nodes, -1, 0)), w,
                          quad.barycentric(pts))


class _PanelCache:
    """Per-mesh physical quadrature nodes: the far table (quad.FAR_ORDER),
    built up front, and one near table per subdivision depth (quad.NEAR_ORDER
    on k levels, the depth quad.near_depth gives a pair), each built when a
    pair first needs it."""

    def __init__(self, mesh: SurfaceMesh):
        self.corners = mesh.corners()
        self.far = _NodeTable.of(self.corners, *quad.gauss_triangle(quad.FAR_ORDER))
        # Every call on the mesh shares the far table, and callbacks see views of it.
        self.far.nodes.flags.writeable = False
        self._near = {}
        self.normals = np.ascontiguousarray(mesh.normals.T)
        self.centroids = np.ascontiguousarray(mesh.centroids.T)
        # Every point of a panel lies within radius of its centroid.
        self.radius = np.linalg.norm(self.corners - mesh.centroids[:, None, :],
                                     axis=2).max(axis=1)
        # Star panels per vertex, for vertex-registered targets.
        self.vertex_star = [[] for _ in range(mesh.n_vertices)]
        for t, tri in enumerate(mesh.triangles):
            for v in tri:
                self.vertex_star[v].append(t)

    def near(self, depth: int) -> _NodeTable:
        """The near table of a subdivision depth (>= 1)."""
        if depth not in self._near:
            self._near[depth] = _NodeTable.of(
                self.corners, *quad.subdivided_triangle_rule(quad.NEAR_ORDER, depth))
        return self._near[depth]


def _panel_cache(mesh: SurfaceMesh) -> _PanelCache:
    cache = getattr(mesh, "_panel_cache", None)
    if cache is None:
        cache = _PanelCache(mesh)
        object.__setattr__(mesh, "_panel_cache", cache)
    return cache


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
        bary (q, 3), summed onto the columns (k, c)."""
        if not self.vertex:
            return contrib.sum(axis=-1, keepdims=True)
        return contrib @ bary

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

# Target-node pairs per far block and target-element pairs per chunk of
# both engines (_far_blocks), and node pairs per surface near batch (a
# volume near batch holds about FAR_BLOCK_PAIRS).  They bound every
# temporary of the engines, whatever the numbers of targets and elements.
FAR_BLOCK_PAIRS = 1 << 15
NEAR_BATCH_NODES = 1 << 14


def _far_blocks(elements: int, nodes: int):
    """The block rule of both engines, over ``elements`` panels or cells of
    ``nodes`` far nodes each: (block, chunk), targets per far block,
    FAR_BLOCK_PAIRS // (far nodes), and per chunk, whole far blocks with
    about FAR_BLOCK_PAIRS target-element pairs."""
    block = max(1, FAR_BLOCK_PAIRS // (elements * nodes))
    return block, block * max(1, FAR_BLOCK_PAIRS // (block * elements))


def _surface_blocks(cache: _PanelCache):
    """(block, chunk) of the surface engine (_far_blocks): at level 2,
    chunks of 102 targets in far blocks of 17."""
    return _far_blocks(*cache.far.wts.shape)


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


class _Pairs(NamedTuple):
    """Target-panel pairs on one node table, sorted by target: their rows
    and panels (k,), each panel's vertex columns (k, 3) in the order of the
    table's corners, the nodes (3, k, q), the node weights of each term
    (k, q) by term index, and the nodes' barycentric coordinates (q, 3)."""

    rows: np.ndarray
    panels: np.ndarray
    corner_cols: np.ndarray
    nodes: np.ndarray
    weights: dict
    bary: np.ndarray


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


def _double_term(space: str) -> _Term:
    """Double-layer rows; principal value at registered targets."""
    return _Term(double_layer_kernel, None, "skip", space)


def apply_rows(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Rows (m, n) applied to coefficients (n,): a row-wise pairwise sum,
    never a matrix product, so a row's value does not depend on the others."""
    return (rows * coefficients).sum(axis=1)


# Row entries that a surface value call holds at once (see apply_rows_in_blocks).
VALUE_BLOCK_ENTRIES = 1 << 18


def apply_rows_in_blocks(mesh: SurfaceMesh, targets, rows_of: Callable, coefficients) -> list:
    """Surface values without holding every row: for each block of targets,
    ``rows_of(block)`` builds a list of rows (a Collocation block, its rows
    on the surface of ``mesh``), each applied to its entry of
    ``coefficients`` (apply_rows, one coefficient per column of its rows);
    returns per entry the values (m,).

    The blocks are whole numbers of the surface engine's chunks
    (_value_block), so the engine meets the same targets together as in one
    call over all of them, and every value has the bits of that call."""
    colloc = _as_collocation(targets)
    block = _value_block(mesh, sum(len(c) for c in coefficients))
    parts = [[apply_rows(rows, c) for rows, c in
              zip(rows_of(colloc.take(slice(start, start + block))), coefficients)]
             for start in range(0, max(colloc.n, 1), block)]
    return [np.concatenate(values) for values in zip(*parts)]


def _value_block(mesh: SurfaceMesh, width: int) -> int:
    """Targets per block of values on rows of ``width`` columns: about
    VALUE_BLOCK_ENTRIES row entries, in whole chunks of the surface engine
    (_surface_blocks)."""
    step = _surface_blocks(_panel_cache(mesh))[1]
    return step * max(1, VALUE_BLOCK_ENTRIES // (step * width))


def _surface_rows(mesh: SurfaceMesh, targets, terms) -> list:
    """The one surface-quadrature engine: one pass over the targets for a
    list of terms (see _Term); returns per term its dense rows (m, columns).
    A value of a layer potential is its rows applied to the density's
    coefficients (apply_rows).  A space other than triangle-constant or
    vertex-linear raises ``ValueError``.

    The rule is the one of ``quadrature``, in the mesh's one _PanelCache.
    Targets run in chunks of about FAR_BLOCK_PAIRS target-panel pairs, each
    a whole number of far blocks of FAR_BLOCK_PAIRS // (far nodes) targets
    (_surface_blocks: at level 2, chunks of 102 targets in blocks of 17).
    Each chunk does all of its own work.  In it, a target-panel pair is far
    when a centroid bound (squared
    distances of the centroids, component-major) already puts the panel
    quad.NEAR_THRESHOLD diameters away; the exact point-triangle distance is
    computed for the other pairs only (paired calls on pieces of at most
    FAR_BLOCK_PAIRS // 8 pairs), once for all terms, and quad.near_depth
    maps each to its depth, 0 for far.  Far pairs take, a far block at a
    time, kernel values at all far nodes (quad.FAR_ORDER), masked to the far
    pairs and mapped to each term's columns by a sparse node-to-column
    matrix.  Near pairs are grouped by depth and take the near table of
    their depth (quad.NEAR_ORDER on that many levels), in batches of about
    NEAR_BATCH_NODES node pairs; the target's own panels take a Duffy rule
    of quad.DUFFY_ORDER.  Both add their sums as corrections.  A chunk
    finds the kinds of its own singular pairs (corner or centroid), then
    maps their nodes and weights, every corner kind on the one rule
    singular at corner 0 (each panel's corners and vertex columns rolled
    to put the target there).  A term's factor is folded into its node
    weights: into the far weights of every panel once per call, into the
    near weights of a depth and a panel at the panel's first near pair of
    that depth, and into the Duffy weights when a chunk maps them.  A
    chunk's rows depend only on its targets, so calls over slices of whole
    chunks give the rows of one call, bit for bit.

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
    there; so does a free target that is not a finite 3-vector.
    """
    colloc = _as_collocation(targets)
    cache = _panel_cache(mesh)
    corners = cache.corners
    n_tri = mesh.n_triangles
    kernels = [term.kernel for term in terms]
    columns = [_Columns(mesh, term.space) for term in terms]
    outs = [np.zeros((colloc.n, c.n)) for c in columns]
    on_panel_tol = 1e-12 * mesh.diameters
    # The centroid bound, squared: a pair is a candidate while the target
    # lies within radius + quad.NEAR_THRESHOLD diameters of the centroid.
    # The margin keeps rounding in the bound from calling a pair far that
    # the exact distance would call near.
    bound2 = (cache.radius + quad.NEAR_THRESHOLD * mesh.diameters * (1.0 + 1e-9)) ** 2

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
    far = cache.far
    every_nodes = np.moveaxis(far.nodes, 0, -1)
    far_map = [c.node_map(every, node_weights(term, every, every_nodes, far.wts), far.bary)
               for term, c in zip(terms, columns)]
    # With a leading target axis: nodes (3, 1, n_tri, n_far), panels (3, 1, n_tri, 1).
    far_nodes = far.nodes[:, None]
    far_panels = [a[:, None] for a in panel_data(every)]
    sing_rows, sing_panels = _singular_pairs(cache, colloc)
    duffy = [t for t, term in enumerate(terms) if term.scheme == "duffy"]

    def duffy_pairs(rows, panels):
        # A chunk's singular pairs, one _Pairs per rule, with Duffy nodes and
        # weights (factors included): every corner kind on the rule singular
        # at corner 0, each panel's corners (and vertex columns) rolled to put
        # the target there; centroids on their own.
        kinds = quad.singular_point_kind(corners[panels], colloc.points[rows])
        if np.any(kinds == quad.UNREGISTERED):
            k = int(np.argmax(kinds == quad.UNREGISTERED))
            raise ValueError(f"registered target {colloc.points[rows[k]]} is neither "
                             f"a vertex nor the centroid of its panel {panels[k]}")
        groups = []
        for at_corner in (True, False):
            pick = kinds != quad.AT_CENTROID if at_corner else kinds == quad.AT_CENTROID
            r, p = rows[pick], panels[pick]
            if not len(r):
                continue
            order = (kinds[pick, None] + np.arange(3)) % 3 if at_corner else np.arange(3)[None]
            pair = np.arange(len(p))[:, None]
            nodes, w, bary = quad.duffy_panel_nodes(
                corners[p][pair, order], 0 if at_corner else quad.AT_CENTROID, quad.DUFFY_ORDER)
            nodes = np.ascontiguousarray(np.moveaxis(nodes, -1, 0))
            weights = {t: node_weights(terms[t], p, np.moveaxis(nodes, 0, -1), w) for t in duffy}
            groups.append(_Pairs(r, p, mesh.triangles[p][pair, order], nodes, weights, bary))
        return groups

    # Near weights of each depth are folded in when a panel first has a
    # near pair of that depth: a call with few targets meets few panels.
    near_w, near_ready = {}, {}

    def near_pairs(rows, panels, depth):
        # The near pairs of one depth as batches of about NEAR_BATCH_NODES
        # node pairs, with each term's folded weights.
        table = cache.near(depth)
        if depth not in near_w:
            near_w[depth] = [np.empty(table.wts.shape) for _ in terms]
            near_ready[depth] = np.zeros(n_tri, dtype=bool)
        new = np.unique(panels)
        new = new[~near_ready[depth][new]]
        if len(new):
            nodes = np.moveaxis(table.nodes[:, new], 0, -1)
            for term, w in zip(terms, near_w[depth]):
                w[new] = node_weights(term, new, nodes, table.wts[new])
            near_ready[depth][new] = True
        batch = max(1, NEAR_BATCH_NODES // table.wts.shape[1])
        for k in range(0, len(rows), batch):
            p = panels[k:k + batch]
            yield _Pairs(rows[k:k + batch], p, mesh.triangles[p], table.nodes[:, p],
                         dict(enumerate(w[p] for w in near_w[depth])), table.bary)

    def add_pairs(ts, pairs):
        # Distinct target-panel pairs of the terms ts; a row may repeat.
        # Each pair has its own triangle column, so those add directly;
        # vertex columns repeat, and the vertex terms share one scatter plan.
        vals = _kernel_values([kernels[t] for t in ts], pairs.nodes,
                              colloc.points[pairs.rows].T[:, :, None],
                              *panel_data(pairs.panels))
        plan = None
        for t in ts:
            contrib = columns[t].reduce(vals[kernels[t]] * pairs.weights[t], pairs.bary)
            if not columns[t].vertex:
                outs[t][pairs.rows, pairs.panels] += contrib[:, 0]
                continue
            if plan is None:
                plan = _Scatter.plan(columns[t].n, pairs.rows[:, None], pairs.corner_cols)
            plan.add(outs[t], contrib)

    block, chunk = _surface_blocks(cache)
    # A paired distance holds about 36 floats of temporaries, so a piece of
    # FAR_BLOCK_PAIRS // 8 candidate pairs holds about 1.2 MB.
    piece = FAR_BLOCK_PAIRS // 8
    for lo in range(0, colloc.n, chunk):
        y = colloc.points[lo:lo + chunk]
        p0, p1 = np.searchsorted(sing_rows, [lo, lo + len(y)])
        regular = np.ones((len(y), n_tri), dtype=bool)
        regular[sing_rows[p0:p1] - lo, sing_panels[p0:p1]] = False

        # Classification: the centroid bound, component-major, then exact
        # distances of the candidate pairs it cannot decide, a piece at a
        # time, and their depths.
        shape = (len(y), n_tri)
        d2 = _squared_distances(cache.centroids, y.T[:, :, None], np.empty(shape),
                                np.empty(shape))
        cand_rows, cand_panels = np.nonzero(regular & (d2 < bound2))
        d = np.concatenate([np.empty(0)] + [
            quad.point_triangle_distance(y[cand_rows[k:k + piece]],
                                         corners[cand_panels[k:k + piece]],
                                         True)  # paired, one distance per pair
            for k in range(0, len(cand_rows), piece)])
        on_panel = d <= on_panel_tol[cand_panels]
        if on_panel.any():
            k = int(np.argmax(on_panel))
            raise ValueError(
                f"target {y[cand_rows[k]]} lies on panel {cand_panels[k]}, which is "
                "not one of its registered panels; pass it as a Collocation "
                "centroid or vertex of that panel")
        sing = duffy_pairs(sing_rows[p0:p1], sing_panels[p0:p1]) if duffy else []
        depth = quad.near_depth(d, mesh.diameters[cand_panels])
        near = depth > 0
        depth, near_rows, near_panels = depth[near], cand_rows[near], cand_panels[near]

        # Far pairs, a far block at a time: kernel values at every far node,
        # masked to far pairs.  Masked nodes may sit on a target; their
        # values are discarded.
        not_far = ~regular
        not_far[near_rows, near_panels] = True
        for start in range(0, len(y), block):
            stop = min(start + block, len(y))
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = _kernel_values(kernels, far_nodes, y[start:stop].T[:, :, None, None],
                                      *far_panels)
            for v in vals.values():
                v[not_far[start:stop]] = 0.0
            for t, kernel in enumerate(kernels):
                outs[t][lo + start:lo + stop] += (
                    far_map[t] @ vals[kernel].reshape(stop - start, -1).T).T

        # Near pairs, grouped by depth; then the singular pairs of the chunk,
        # on the corner rule and the centroid rule.
        for k in np.unique(depth):
            at = depth == k
            for pairs in near_pairs(near_rows[at] + lo, near_panels[at], k):
                add_pairs(range(len(terms)), pairs)
        for pairs in sing:
            add_pairs(duffy, pairs)
    return outs


# --- public surface operators --------------------------------------------------

def _space_of(mesh: SurfaceMesh, density) -> str:
    """The basis space of a surface density on mesh.  The density must be a
    BoundaryDensity (else TypeError) with one coefficient per triangle or
    vertex of the mesh, as its space says (else ValueError)."""
    if not isinstance(density, BoundaryDensity):
        raise TypeError(f"density must be a BoundaryDensity, not {type(density).__name__}")
    columns = _Columns(mesh, density.space_tag)
    if density.values.shape != (columns.n,):
        raise ValueError(f"a {density.space_tag} density on this mesh needs {columns.n} "
                         f"coefficients (one per {'vertex' if columns.vertex else 'triangle'}), "
                         f"got shape {density.values.shape}")
    return density.space_tag


def single_layer(
    mesh: SurfaceMesh,
    density: BoundaryDensity,
    targets,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Single layer potential of a surface density, evaluated at targets:
    the single-layer rows on the density's basis applied to its
    coefficients, a block of targets at a time (apply_rows_in_blocks).

    Targets may be free points or a Collocation; for registered on-surface
    points the self-panel integral uses a Duffy rule (this is the direct
    value of the operator on the surface).

    Parameters
    ----------
    density : BoundaryDensity with one coefficient per triangle or vertex
        of mesh; anything else raises TypeError, a wrong length ValueError
    factor : optional callable(nodes, normals) -> values
        Smooth rescaling applied at quadrature nodes.
    """
    space = _space_of(mesh, density)
    return apply_rows_in_blocks(
        mesh, targets, lambda block: [single_layer_matrix(mesh, space, block, factor)],
        [density.values])[0]


def double_layer(mesh: SurfaceMesh, density: BoundaryDensity, targets) -> np.ndarray:
    """Double layer potential, as single_layer but with no factor; for
    registered on-surface targets this is the principal value (panels
    through the target are skipped, exact for flat panels)."""
    space = _space_of(mesh, density)
    return apply_rows_in_blocks(
        mesh, targets, lambda block: [double_layer_matrix(mesh, space, block)],
        [density.values])[0]


def single_layer_matrix(
    mesh: SurfaceMesh,
    space_tag: str,
    targets,
    factor: Optional[Callable] = None,
) -> np.ndarray:
    """Dense single-layer matrix mapping density coefficients to target values."""
    return _surface_rows(mesh, targets, [_single_term(space_tag, factor)])[0]


def double_layer_matrix(mesh: SurfaceMesh, space_tag: str, targets) -> np.ndarray:
    """Dense double-layer matrix (principal value at registered targets)."""
    return _surface_rows(mesh, targets, [_double_term(space_tag)])[0]


# --- volume potential -----------------------------------------------------------

def exclusion_radii(volmesh: VolumeMesh) -> np.ndarray:
    """Per-cell exclusion radius of the mesh's own rule, which near
    target-cell pairs integrate with: EXCLUSION_FACTOR times the cell's node
    spacing.  Nodes of a near pair within it of the target are dropped."""
    return EXCLUSION_FACTOR * volmesh.node_spacing()


def _volume_points(targets) -> np.ndarray:
    if isinstance(targets, (Collocation, _NearSet)):
        return targets.points
    return _target_points(targets)


class _Tables(NamedTuple):
    """Per-node arrays on the two volume tables, each (..., nodes, cells):
    the far table (the shell's default rule) and the near table (the mesh's
    own rule)."""

    far: np.ndarray
    near: np.ndarray

    def map(self, fn) -> "_Tables":
        return _Tables(fn(self.far), fn(self.near))


def _times(a: _Tables, b: _Tables) -> _Tables:
    """The product of two tables, which broadcast."""
    return _Tables(a.far * b.far, a.near * b.near)


class _CellCache:
    """Per-mesh volume quadrature tables, node-major within a cell: the
    nodes of the far and the near table, component-major (3, nodes, cells),
    their points (nodes * cells, 3) for callbacks, and their weights (nodes,
    cells); the cell centres (3, cells); each cell's exclusion radius, which
    near pairs use; the square of NEAR_CELL_FACTOR times each cell's
    radius about its centre (at least the radius plus the exclusion
    radius), which decides near pairs (see _near_cells); and the far
    table's augmented nodes ``far_gram``, [-2x, |x|^2, 1] (5, nodes *
    cells), which every far block multiplies (see _far_distances)."""

    def __init__(self, volmesh: VolumeMesh):
        def frozen(a):
            a = np.ascontiguousarray(a)
            a.flags.writeable = False
            return a

        # The mesh's tables are (cells, nodes, ...).
        nodes = _Tables(volmesh.far_nodes, volmesh.nodes)
        self.n_cells = volmesh.n_cells
        self.nodes = nodes.map(lambda x: frozen(x.transpose(2, 1, 0)))
        self.points = nodes.map(lambda x: frozen(x.transpose(1, 0, 2).reshape(-1, 3)))
        self.weights = _Tables(volmesh.far_weights, volmesh.node_weights).map(
            lambda w: frozen(w.T))
        self.centers = np.ascontiguousarray(volmesh.centers.T)
        self.excl = exclusion_radii(volmesh)
        # The cell is {r w : r in [r0, r1], w in its spherical patch}; its
        # farthest points from the centre are among the six corners.
        corners = volmesh.angular_mesh.corners()[volmesh.sector_index]
        corners /= np.linalg.norm(corners, axis=2, keepdims=True)
        radial = volmesh.radial_breaks[volmesh.radial_index[:, None] + np.arange(2)]
        points = radial[:, :, None, None] * corners[:, None]
        radius = np.linalg.norm(points - volmesh.centers[:, None, None], axis=3).max(axis=(1, 2))
        # A far pair's nodes lie farther than the exclusion radius from the
        # target, whatever the rule (see NEAR_CELL_FACTOR).
        self.near_cut2 = np.maximum(NEAR_CELL_FACTOR * radius, radius + self.excl) ** 2
        # The far table's augmented nodes [-2x, |x|^2, 1] (5, nodes * cells),
        # the right factor of every far block's distances (see _far_distances).
        x = self.nodes.far.reshape(3, -1)
        self.far_gram = frozen(np.concatenate([-2.0 * x, _dot3(x, x)[None],
                                               np.ones((1, x.shape[1]))]))


def _cell_cache(volmesh: VolumeMesh) -> _CellCache:
    cache = getattr(volmesh, "_cell_cache", None)
    if cache is None:
        cache = _CellCache(volmesh)
        object.__setattr__(volmesh, "_cell_cache", cache)
    return cache


def _at_nodes(volmesh: VolumeMesh, fn: Callable) -> _Tables:
    """fn(points (n, 3)) -> (n, ...) at the nodes of both tables, shaped
    (nodes, cells, ...)."""
    n_c = volmesh.n_cells

    def on(points):
        vals = np.asarray(fn(points), dtype=float)
        return vals.reshape((-1, n_c) + vals.shape[1:])

    return _cell_cache(volmesh).points.map(on)


def _node_values(volmesh: VolumeMesh, density) -> _Tables:
    """A DomainDensity or a callable density at the nodes of both tables,
    one call of the callable per table; a DomainDensity as (1, cells),
    which broadcasts against a table.  Node values (a _Tables) are returned
    as they are, so a density evaluated once serves every pass."""
    if isinstance(density, _Tables):
        return density
    if isinstance(density, DomainDensity):
        values = density.values[None, :]
        return _Tables(values, values)
    return _at_nodes(volmesh, density)


def _near_cells(volmesh: VolumeMesh, targets) -> np.ndarray:
    """(targets, cells) mask of the near target-cell pairs: the target lies
    within NEAR_CELL_FACTOR cell radii of the cell's centre, or within the
    radius plus the cell's exclusion radius.  This is the volume engine's
    one classification; the kernel-loop oracles take theirs from it too."""
    cache = _cell_cache(volmesh)
    y = _volume_points(targets)
    d2, scratch = np.empty((len(y), cache.n_cells)), np.empty((len(y), cache.n_cells))
    return _squared_distances(cache.centers, y.T[:, :, None], d2, scratch) <= cache.near_cut2


def _volume_blocks(cache: _CellCache):
    """(block, chunk, batch) of the volume engine: the block rule's far
    block and chunk over the cells (_far_blocks), and near pairs per batch,
    about FAR_BLOCK_PAIRS node pairs."""
    block, chunk = _far_blocks(cache.n_cells, cache.weights.far.shape[0])
    return block, chunk, max(1, FAR_BLOCK_PAIRS // cache.weights.near.shape[0])


@dataclass(frozen=True, eq=False)
class _NearSet:
    """A measured volume target set (see _near_set): a copy of its points
    (m, 3); the target and the cell of each near pair, sorted by target and
    then by cell; the number of cells of the mesh; and the inverse
    distances 1/|x - y| (pairs, near nodes), pair-major, of the pairs'
    near-table nodes from their targets, 0 within the cell's exclusion
    radius, so that a weight times it, and a kernel of it, is zero there.
    A pass given the set takes its targets from it.  At levels 2 and 3 the
    inverse distances of the cell centres and collocation points take 4.0
    MB and about 14 MB (27970 and 100340 pairs of 18 nodes)."""

    points: np.ndarray
    rows: np.ndarray
    cells: np.ndarray
    inv: np.ndarray
    n_cells: int

    def chunk(self, lo: int, hi: int) -> "_NearSet":
        """The set of targets lo:hi, with its rows counted from lo."""
        a, b = np.searchsorted(self.rows, [lo, hi])
        return _NearSet(self.points[lo:hi], self.rows[a:b] - lo, self.cells[a:b],
                        self.inv[a:b], self.n_cells)

    @functools.cached_property
    def op(self) -> sparse.csr_matrix:
        """The near half of a Newton value as a sparse (targets, near nodes
        * cells) operator on the near table's node weights, raveled
        node-major: one row per target, whose entries are the inverse
        distances of its pairs, in their order.  Its data is a view of
        ``inv`` and its int32 columns are node * n_cells + cell, so it adds
        a third of the inverse distances' memory; a row's product sums its
        entries in order and does not depend on the other rows."""
        q = self.inv.shape[1]
        cols = self.cells.astype(np.int32)[:, None] + np.arange(q, dtype=np.int32) * np.int32(
            self.n_cells)
        indptr = np.zeros(len(self.points) + 1, dtype=np.int32)
        np.cumsum(np.bincount(self.rows, minlength=len(self.points)) * q, out=indptr[1:])
        return sparse.csr_matrix((self.inv.reshape(-1), cols.reshape(-1), indptr),
                                 shape=(len(self.points), q * self.n_cells))


def _near_set(volmesh: VolumeMesh, targets) -> _NearSet:
    """The near pairs of targets and their nodes' inverse distances,
    classified a chunk of targets at a time and measured a batch of pairs
    at a time.  This is the volume engine's one classification and
    measurement of near pairs: _volume_rows takes each chunk's from here,
    or from a given set."""
    cache = _cell_cache(volmesh)
    targets = np.array(_volume_points(targets))
    _, chunk, batch = _volume_blocks(cache)
    starts = range(0, len(targets), chunk)
    pairs = [np.nonzero(_near_cells(volmesh, targets[lo:lo + chunk])) for lo in starts]
    empty = [np.empty(0, dtype=np.intp)]
    rows = np.concatenate(empty + [t + lo for lo, (t, _) in zip(starts, pairs)])
    cells = np.concatenate(empty + [c for _, c in pairs])
    inv = np.empty((len(rows), cache.weights.near.shape[0]))
    for k in range(0, len(rows), batch):
        t, c = rows[k:k + batch], cells[k:k + batch]
        r = inv[k:k + len(t)]
        # The gathered nodes (3, near nodes, pairs), viewed pair-major.
        np.sqrt(_squared_distances(cache.nodes.near[..., c].transpose(0, 2, 1),
                                   targets[t].T[:, :, None], r, np.empty(r.shape)), out=r)
        inside = r <= cache.excl[c, None]
        np.divide(1.0, r, out=r, where=~inside)
        r[inside] = 0.0
    return _NearSet(targets, rows, cells, inv, cache.n_cells)


def _dot3(a, b) -> np.ndarray:
    """(a0 b0 + a1 b1) + a2 b2 of component-major arrays (3, ...)."""
    out = np.multiply(a[0], b[0])
    out += a[1] * b[1]
    out += a[2] * b[2]
    return out


def _augmented(points) -> np.ndarray:
    """Augmented targets [y, 1, |y|^2] (m, 5) of points (m, 3).  Their
    product with the far table's augmented nodes [-2x, |x|^2, 1] is |x - y|^2
    (see _far_distances), and that of the first four columns [y, 1] with
    [-g, g . x] is g . (x - y)."""
    aug = np.empty((len(points), 5))
    aug[:, :3] = points
    aug[:, 3] = 1.0
    aug[:, 4] = _dot3(points.T, points.T)
    return aug


def _product(left, right, out) -> np.ndarray:
    """left (b, k) times right (k, n) into out (b, n), one BLAS product.
    numpy computes a one-row product by gemv, whose bits differ from the
    same row's inside a product of two rows or more (gemm, which gives each
    row the same bits whatever rows share it), so a one-row left is padded
    to two rows: a target's far distances do not depend on its block."""
    if len(left) > 1:
        return np.matmul(left, right, out=out)
    out[...] = np.matmul(np.concatenate([left, left]), right)[:1]
    return out


def _far_distances(cache: _CellCache, aug, out) -> np.ndarray:
    """r = |x - y| (b, nodes, cells) of the far table's nodes from a block of
    augmented targets (b, 5) (see _augmented), written into ``out``: r^2 is
    one product by the far table's augmented nodes, |y|^2 - 2 x . y + |x|^2,
    then its square root.  On far pairs r is within 1.8, 5.9 and 23.4 eps
    (relative) of the direct form at levels 1-3; a node near the target
    loses every digit (r^2 may round below zero, and r is nan), which only
    near pairs have, and their far values are discarded."""
    _product(aug, cache.far_gram, out.reshape(len(aug), -1))
    return np.sqrt(out, out=out)


class _VolumeTerm(NamedTuple):
    """What a volume pass evaluates: kernel values times the node
    ``weights`` (a _Tables), one sum per target or, with ``rows``, one row
    of per-cell sums per target, written into ``out`` when it is given.
    ``kernel`` None is the Newton kernel, whose -1/(4 pi) and factors the
    weights carry (see _newton_weights): per target-node pair, one divide
    by r on far pairs and one product by 1/r on near pairs.  A kernel term
    is a function of 1/r, g . (x - y) for its per-node vector ``grad`` g
    (_Tables, (3, nodes, cells)) and its per-node ``data`` (_Tables,
    (nodes, cells)); see _volume_rows."""

    weights: _Tables
    kernel: Optional[Callable] = None
    grad: Optional[_Tables] = None
    data: Optional[_Tables] = None
    rows: bool = False
    out: Optional[np.ndarray] = None


def _volume_rows(volmesh: VolumeMesh, targets, term: _VolumeTerm) -> np.ndarray:
    """The one engine behind every production volume integral: one pass over
    the targets for one term (see _VolumeTerm); returns values (m,) or rows
    (m, cells).  The targets are points, or a _NearSet, which is measured.

    Targets run in chunks of whole far blocks (about FAR_BLOCK_PAIRS
    target-cell pairs, _volume_blocks).  A chunk's near pairs come from the
    _NearSet the targets are, or else from _near_set of the chunk's points,
    the engine's one classification and measurement; the bits are the
    same.  Far pairs integrate with the far table, the shell's default
    6-node rule, in blocks of FAR_BLOCK_PAIRS // (far nodes) targets over
    every cell: a block's distances are one matrix product
    (_far_distances), and a kernel term's g . (x - y) a second, the block's
    [y, 1] times [-g, g . x] at the far nodes, built once per pass.  The
    weighted kernel is reduced to per-cell sums, which fill the chunk's
    rows.  No far node lies within its cell's exclusion radius of the
    target (see NEAR_CELL_FACTOR).  Near pairs integrate with the mesh's
    own rule (18 nodes at levels 1-3) and the exclusion ball, whose nodes
    have inverse distance 0 in the set.  No distance is measured twice.

    Rows, and the values of a kernel term, take the near pairs in batches
    of about FAR_BLOCK_PAIRS node pairs after the chunk's far blocks, and
    each pair's sum overwrites its cell in the rows: a Newton term's is its
    gathered weights times the set's inverse distances; a kernel term takes
    1/r from the set too and g . (x - y) from the gathered offsets, and is
    weighted.  Such a value is the pairwise sum of its row, so it is the
    row sum of the rows pass, bit for bit.  A Newton value (P f and the
    Newton potential) is the pairwise sum of its far row with the near
    cells zeroed, plus its near half: the near set's sparse operator
    (_NearSet.op) applied to the near table's weights, once for all the
    targets of a given set or per chunk of a measured one.  Either way a
    value does not depend on which targets share its block.

    Kernel contract: the tables are node-major within a cell, (..., nodes,
    cells), so that the inner loops run over cells or pairs.  A kernel,
    ``kernel(inv_r, dot, data, out)``, receives inv_r = 1/|x - y|, which it
    must not change (a near batch's is a view of the set's), dot = g . (x -
    y), which it may overwrite, and the term's ``data`` on the same nodes
    (the far table's, or the near table's gathered per pair), which
    broadcast against inv_r; it writes its values into ``out``, which is
    then weighted in place.  A kernel must vanish where inv_r is 0: that is
    how the exclusion ball drops a node, with no mask.
    """
    cache = _cell_cache(volmesh)
    near = targets if isinstance(targets, _NearSet) else None
    targets = _volume_points(targets)
    m, n_c = len(targets), cache.n_cells
    out = (term.out if term.out is not None
           else np.zeros((m, n_c)) if term.rows else np.zeros(m))
    block, chunk, batch = _volume_blocks(cache)
    aug = _augmented(targets)
    # Newton values take their near half from a sparse product.
    sparse_near = term.kernel is None and not term.rows
    if sparse_near:
        near_weights = term.weights.near.reshape(-1)
    if term.kernel is not None:
        # [-g, g . x] (4, far nodes), the right factor of g . (x - y).
        g = term.grad.far.reshape(3, -1)
        g_gram = np.concatenate([-g, _dot3(g, cache.nodes.far.reshape(3, -1))[None]])

    def far_sums(y):
        # Per-cell sums of the weighted kernel at the far table's nodes for
        # augmented targets y (b, 5); those of near pairs may be inf or nan
        # (a node may sit on a target) and are overwritten.
        shape = (len(y),) + cache.weights.far.shape
        with np.errstate(divide="ignore", invalid="ignore"):
            r = _far_distances(cache, y, np.empty(shape))
            if term.kernel is None:
                vals = np.divide(term.weights.far, r, out=r)
            else:
                inv = np.divide(1.0, r, out=r)
                dot = _product(y[:, :4], g_gram, np.empty((len(y), g_gram.shape[1])))
                vals = term.kernel(inv, dot.reshape(shape), term.data.far, np.empty(shape))
                vals *= term.weights.far
            return vals.sum(axis=1)

    def near_sums(pairs, rows):
        # The near pairs of a chunk, sorted by target, into its rows: each
        # sum overwrites the far sum of its cell.
        for k in range(0, len(pairs.rows), batch):
            t, c = pairs.rows[k:k + batch], pairs.cells[k:k + batch]
            inv = pairs.inv[k:k + len(t)].T
            w = term.weights.near[..., c]
            # Summed over nodes in a C-ordered buffer, as in the far blocks:
            # the gathered weights are not, and the order of a sum is its bits.
            if term.kernel is None:
                vals = np.multiply(w, inv, out=np.empty(inv.shape))
            else:
                offsets = cache.nodes.near[..., c] - pairs.points[t].T[:, None, :]
                dot = _dot3(term.grad.near[..., c], offsets)
                vals = term.kernel(inv, dot, term.data.near[..., c], np.empty(inv.shape))
                vals *= w
            rows[t, c] = vals.sum(axis=0)

    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        pairs = _near_set(volmesh, targets[lo:hi]) if near is None else near.chunk(lo, hi)
        rows = out[lo:hi] if term.rows else np.empty((hi - lo, n_c))
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            rows[start - lo:stop - lo] = far_sums(aug[start:stop])
        if sparse_near:
            rows[pairs.rows, pairs.cells] = 0.0
        else:
            near_sums(pairs, rows)
        if not term.rows:
            out[lo:hi] = rows.sum(axis=1)
        if sparse_near and near is None:
            out[lo:hi] += pairs.op @ near_weights
    if sparse_near and near is not None:
        out += near.op @ near_weights
    return out


def _newton_weights(volmesh: VolumeMesh, weights: _Tables, density=None) -> _Tables:
    """Node weights of the Newton potential on both tables from quadrature
    weights (times a factor at the nodes, 1/a for P): times the density at
    the nodes, when given, and -1/(4 pi), so that what is left per pair is
    1/r."""
    if density is not None:
        weights = _times(weights, _node_values(volmesh, density))
    return weights.map(lambda w: w / -FOUR_PI)


def newton_potential(
    volmesh: VolumeMesh,
    density: Union[DomainDensity, Callable],
    targets,
) -> np.ndarray:
    """Volume potential with kernel -1/(4 pi |x - y|) and an exclusion ball.

    Far target-cell pairs take the shell's default rule; on near pairs,
    nodes within the cell's exclusion radius of a target are skipped, and
    the omitted mass is O(radius^2) for this kernel.  This is the one
    Newton values pass of op_P (see _volume_rows).
    """
    term = _VolumeTerm(_newton_weights(volmesh, _cell_cache(volmesh).weights, density))
    return _volume_rows(volmesh, targets, term)
