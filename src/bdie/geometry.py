"""Meshes for the exterior of the unit sphere.

Two objects are produced here: a closed triangulated surface approximating
the unit sphere (the boundary of the computational domain), and a graded
radial shell of frustum cells covering the truncated exterior.  The surface
normal convention is fixed once for the whole package: normals point out of
the exterior domain, i.e. from the domain into the bounded complement, so on
the unit sphere they point toward the origin.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

log = logging.getLogger(__name__)

# Per-triangle part labels and vertex classes.
PART_DIRICHLET = "D"
PART_NEUMANN = "N"
VERTEX_INTERFACE = "I"

MAX_SUBDIVISION_LEVEL = 6

# Radius of the sphere the icosphere approximates: the boundary of the
# domain and the inner radius of every volume shell.
INNER_RADIUS = 1.0
# Geometric growth factor of the shell's radial interval widths.
GRADING = 1.3


class PartitionError(ValueError):
    """Raised when a boundary partition leaves one part empty."""


@dataclass
class SurfaceMesh:
    """Closed triangulated surface with inward-pointing unit normals.

    Parameters
    ----------
    vertices : (n_v, 3) float array
    triangles : (n_t, 3) int array
        Vertex indices, wound so that the cross product of the first two
        edges points toward the origin (out of the exterior domain).
    part_label : (n_t,) str array or None
        "D" or "N" per triangle once a partition has been applied.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    part_label: Optional[np.ndarray] = None

    # Derived quantities, filled in __post_init__.
    normals: np.ndarray = field(init=False)
    areas: np.ndarray = field(init=False)
    centroids: np.ndarray = field(init=False)
    diameters: np.ndarray = field(init=False)
    vertex_class: Optional[np.ndarray] = field(init=False, default=None)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        corners = self.vertices[self.triangles]  # (n_t, 3, 3)
        e1 = corners[:, 1] - corners[:, 0]
        e2 = corners[:, 2] - corners[:, 0]
        raw = np.cross(e1, e2)
        norms = np.linalg.norm(raw, axis=1)
        self.areas = 0.5 * norms
        self.normals = raw / norms[:, None]
        self.centroids = corners.mean(axis=1)
        edges = np.stack(
            [
                np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1),
                np.linalg.norm(corners[:, 2] - corners[:, 1], axis=1),
                np.linalg.norm(corners[:, 0] - corners[:, 2], axis=1),
            ],
            axis=1,
        )
        self.diameters = edges.max(axis=1)
        if self.part_label is not None:
            self.part_label = np.asarray(self.part_label, dtype="U1")
            self.vertex_class = _classify_vertices(self)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def max_edge(self) -> float:
        return float(self.diameters.max())

    def corners(self) -> np.ndarray:
        """Vertex coordinates per triangle, shape (n_t, 3, 3)."""
        return self.vertices[self.triangles]

    def triangles_with_label(self, label: str) -> np.ndarray:
        if self.part_label is None:
            raise ValueError("mesh has no partition labels")
        return np.nonzero(self.part_label == label)[0]

    def vertices_with_class(self, cls: str) -> np.ndarray:
        if self.vertex_class is None:
            raise ValueError("mesh has no partition labels")
        return np.nonzero(self.vertex_class == cls)[0]

    def validate(self) -> None:
        """Check closure, orientation and label invariants; raise on failure."""
        if not np.allclose(np.linalg.norm(self.normals, axis=1), 1.0, atol=1e-12):
            raise ValueError("normals are not unit length")
        # Closed orientable surface: every edge shared by exactly two
        # triangles, traversed once in each direction.
        directed = {}
        for t, (i, j, k) in enumerate(self.triangles):
            for a, b in ((i, j), (j, k), (k, i)):
                key = (int(a), int(b))
                if key in directed:
                    raise ValueError("edge traversed twice in same direction")
                directed[key] = t
        for a, b in directed:
            if (b, a) not in directed:
                raise ValueError("surface is not closed")
        if self.part_label is not None:
            for lbl in (PART_DIRICHLET, PART_NEUMANN):
                if not np.any(self.part_label == lbl):
                    raise PartitionError(f"partition leaves part {lbl!r} empty")


def _classify_vertices(mesh: SurfaceMesh) -> np.ndarray:
    """Vertex classes: D (only D triangles), N (only N), I (both)."""
    touches_d = np.zeros(mesh.n_vertices, dtype=bool)
    touches_n = np.zeros(mesh.n_vertices, dtype=bool)
    d_mask = mesh.part_label == PART_DIRICHLET
    for col in range(3):
        idx = mesh.triangles[:, col]
        np.logical_or.at(touches_d, idx[d_mask], True)
        np.logical_or.at(touches_n, idx[~d_mask], True)
    cls = np.full(mesh.n_vertices, "?", dtype="U1")
    cls[touches_d & ~touches_n] = PART_DIRICHLET
    cls[touches_n & ~touches_d] = PART_NEUMANN
    cls[touches_d & touches_n] = VERTEX_INTERFACE
    return cls


# --- icosphere -------------------------------------------------------------

def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    # Pole-aligned orientation: no coarse face is symmetric about the
    # equator, so the default half-space partition stays area-balanced.
    zu = 1.0 / np.sqrt(5.0)
    ru = 2.0 / np.sqrt(5.0)
    upper = [
        (ru * np.cos(2 * np.pi * k / 5), ru * np.sin(2 * np.pi * k / 5), zu)
        for k in range(5)
    ]
    lower = [
        (
            ru * np.cos(2 * np.pi * k / 5 + np.pi / 5),
            ru * np.sin(2 * np.pi * k / 5 + np.pi / 5),
            -zu,
        )
        for k in range(5)
    ]
    verts = np.array([(0.0, 0.0, 1.0)] + upper + lower + [(0.0, 0.0, -1.0)])
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = []
    for k in range(5):
        k1 = (k + 1) % 5
        u, u1 = 1 + k, 1 + k1
        l, l1 = 6 + k, 6 + k1
        faces.extend([(0, u, u1), (u, l, u1), (u1, l, l1), (11, l1, l)])
    return verts, np.asarray(faces, dtype=np.int64)


def build_icosphere(level: int) -> SurfaceMesh:
    """Triangulate the unit sphere by subdividing an icosahedron.

    Each subdivision splits every triangle into four through the projected
    edge midpoints, so level ``l`` has ``20 * 4**l`` triangles.  Triangle
    winding is chosen so normals point toward the origin.

    Parameters
    ----------
    level : int
        Subdivision level, 0 <= level <= 6.

    Returns
    -------
    SurfaceMesh
        Unlabeled mesh with all vertices on the unit sphere.
    """
    if not 0 <= level <= MAX_SUBDIVISION_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_SUBDIVISION_LEVEL}]")
    verts, faces = _icosahedron()
    verts = list(map(tuple, verts))
    midpoint_cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key not in midpoint_cache:
            p = np.asarray(verts[i]) + np.asarray(verts[j])
            p /= np.linalg.norm(p)
            verts.append(tuple(p))
            midpoint_cache[key] = len(verts) - 1
        return midpoint_cache[key]

    for _ in range(level):
        new_faces = []
        for i, j, k in faces:
            a = midpoint(i, j)
            b = midpoint(j, k)
            c = midpoint(k, i)
            new_faces.extend([(i, a, c), (j, b, a), (k, c, b), (a, b, c)])
        faces = np.asarray(new_faces, dtype=np.int64)
        midpoint_cache.clear()

    vertices = np.asarray(verts, dtype=float)
    # Flip winding where the raw normal points away from the origin.
    corners = vertices[faces]
    raw = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    outward = np.einsum("ij,ij->i", raw, corners.mean(axis=1)) > 0
    faces[outward] = faces[outward][:, [0, 2, 1]]
    return SurfaceMesh(vertices=vertices, triangles=faces)


# --- partition -------------------------------------------------------------

def halfspace_rule(normal=(0.0, 0.0, 1.0), offset: float = 0.0) -> Callable:
    """Predicate assigning D to triangles with centroid . normal < offset."""
    n = np.asarray(normal, dtype=float)

    def rule(centroids: np.ndarray) -> np.ndarray:
        return centroids @ n < offset

    return rule


def partition_boundary(mesh: SurfaceMesh, rule: Optional[Callable] = None) -> SurfaceMesh:
    """Label triangles D/N by a half-space predicate on centroids.

    The default rule sends centroids with z < 0 to the Dirichlet part.
    Vertices incident only to D triangles are classed "D", only to N
    triangles "N", and vertices on the dividing curve "I".

    Raises
    ------
    PartitionError
        If either part ends up empty.
    """
    if rule is None:
        rule = halfspace_rule()
    is_d = np.asarray(rule(mesh.centroids), dtype=bool)
    labels = np.where(is_d, PART_DIRICHLET, PART_NEUMANN)
    out = SurfaceMesh(vertices=mesh.vertices, triangles=mesh.triangles, part_label=labels)
    for lbl in (PART_DIRICHLET, PART_NEUMANN):
        if not np.any(out.part_label == lbl):
            raise PartitionError(f"partition leaves part {lbl!r} empty")
    return out


# --- orientation probe -----------------------------------------------------

def orientation_check(mesh: SurfaceMesh, probe) -> float:
    """Discrete solid-angle flux of the mesh seen from an interior probe.

    Computes sum_T area_T * n_T . (probe - c_T) / |probe - c_T|^3 / (4 pi).
    With the inward normal convention this is ~ +1 when the probe lies in
    the bounded complement and the winding is consistent.
    """
    p = np.asarray(probe, dtype=float)
    d = p[None, :] - mesh.centroids
    r3 = np.linalg.norm(d, axis=1) ** 3
    flux = np.einsum("ij,ij->i", mesh.normals, d) / r3
    return float((mesh.areas * flux).sum() / (4.0 * np.pi))


# --- volume shell ----------------------------------------------------------

@dataclass
class VolumeMesh:
    """Graded radial shell of spherical-sector cells from the unit sphere
    (INNER_RADIUS) to ``outer_radius``.

    Each cell is a radial interval times a spherical triangle patch of the
    angular icosphere, {r * w : r in [r_k, r_k+1], w in patch}, so the cells
    tile the shell exactly and their volumes sum to (4 pi / 3)(R^3 - 1) to
    rounding.  Cell centers sit at the radial midpoint along the patch
    centroid direction, strictly between the inner and outer radius.

    Fields ``nodes``/``node_weights`` hold the mesh's own per-cell
    quadrature rule: radial Gauss points times triangle-rule directions
    pushed to the sphere, with angular weights normalized against the exact
    patch solid angle so weights sum to the exact cell volume.  Fields
    ``far_nodes``/``far_weights`` hold the default rule on the same cells
    (DEFAULT_RADIAL_ORDER x DEFAULT_TRIANGLE_ORDER, 6 nodes), which the
    volume engine uses for well-separated target-cell pairs.
    """

    outer_radius: float
    radial_breaks: np.ndarray
    centers: np.ndarray        # (n_c, 3)
    volumes: np.ndarray        # (n_c,)
    nodes: np.ndarray          # (n_c, n_q, 3)
    node_weights: np.ndarray   # (n_c, n_q)
    far_nodes: np.ndarray      # (n_c, n_far, 3), the default rule
    far_weights: np.ndarray    # (n_c, n_far)
    radial_index: np.ndarray   # (n_c,)
    sector_index: np.ndarray   # (n_c,) triangle index in the angular mesh
    angular_mesh: SurfaceMesh

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def n_nodes_per_cell(self) -> int:
        return self.nodes.shape[1]

    def all_nodes(self) -> np.ndarray:
        return self.nodes.reshape(-1, 3)

    def all_weights(self) -> np.ndarray:
        return self.node_weights.reshape(-1)

    def node_spacing(self) -> np.ndarray:
        """Per-cell estimate of the distance between quadrature nodes."""
        return (self.volumes / self.n_nodes_per_cell) ** (1.0 / 3.0)


def radial_breakpoints(inner: float, outer: float, n: int, grading: float) -> np.ndarray:
    """Geometrically graded interval breakpoints from inner to outer."""
    if n < 1:
        raise ValueError("need at least one radial interval")
    if grading <= 0:
        raise ValueError("grading must be positive")
    if abs(grading - 1.0) < 1e-14:
        widths = np.full(n, (outer - inner) / n)
    else:
        w0 = (outer - inner) * (grading - 1.0) / (grading**n - 1.0)
        widths = w0 * grading ** np.arange(n)
    breaks = inner + np.concatenate([[0.0], np.cumsum(widths)])
    breaks[-1] = outer
    return breaks


def spherical_triangle_solid_angle(corners: np.ndarray) -> np.ndarray:
    """Solid angle of spherical triangles with unit-vector corners (n, 3, 3)."""
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    triple = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    denom = (
        1.0
        + np.einsum("ij,ij->i", a, b)
        + np.einsum("ij,ij->i", b, c)
        + np.einsum("ij,ij->i", c, a)
    )
    return 2.0 * np.arctan2(triple, denom)


# Orders of the default per-cell rule (6 nodes), which integrates the cell
# volume exactly; every shell carries it as its far table.
DEFAULT_RADIAL_ORDER = 2
DEFAULT_TRIANGLE_ORDER = 2


def build_shell_mesh(
    outer_radius: float = 4.0,
    n_radial: int = 8,
    angular_level: int = 2,
    radial_order: int = DEFAULT_RADIAL_ORDER,
    triangle_order: int = DEFAULT_TRIANGLE_ORDER,
) -> VolumeMesh:
    """Build the truncated-exterior volume mesh.

    The shell runs from the unit sphere (INNER_RADIUS) to ``outer_radius``
    with radial interval widths growing by the factor GRADING.

    Parameters
    ----------
    outer_radius : float
        Truncation radius; the region beyond it is dropped, which is
        justified when the remainder kernel decays there.
    n_radial : int
        Number of radial intervals.
    angular_level : int
        Icosphere subdivision level providing the angular sectors.
    radial_order, triangle_order : int
        Orders of the per-cell rule (Gauss in r times a symmetric triangle
        rule pushed to the spherical patch).  The defaults integrate the
        cell volume exactly; the default rule is also built as the far
        table (see VolumeMesh).
    """
    if not outer_radius > INNER_RADIUS:
        raise ValueError(f"outer_radius must exceed the inner radius {INNER_RADIUS:g}")
    ang = build_icosphere(angular_level)
    breaks = radial_breakpoints(INNER_RADIUS, outer_radius, n_radial, GRADING)
    n_t = ang.n_triangles
    omega = spherical_triangle_solid_angle(ang.corners())
    centroid_dir = ang.centroids / np.linalg.norm(ang.centroids, axis=1)[:, None]
    mid = 0.5 * (breaks[:-1] + breaks[1:])
    centers = (mid[:, None, None] * centroid_dir[None]).reshape(-1, 3)
    volumes = ((breaks[1:]**3 - breaks[:-1]**3) / 3.0)[:, None] * omega[None]

    nodes, node_weights = _shell_rule(ang, breaks, omega, radial_order, triangle_order)
    far_nodes, far_weights = _shell_rule(ang, breaks, omega, DEFAULT_RADIAL_ORDER,
                                         DEFAULT_TRIANGLE_ORDER)

    return VolumeMesh(
        outer_radius=outer_radius,
        radial_breaks=breaks,
        centers=centers,
        volumes=volumes.reshape(-1),
        nodes=nodes,
        node_weights=node_weights,
        far_nodes=far_nodes,
        far_weights=far_weights,
        radial_index=np.repeat(np.arange(n_radial), n_t),
        sector_index=np.tile(np.arange(n_t), n_radial),
        angular_mesh=ang,
    )


def _shell_rule(ang: SurfaceMesh, breaks: np.ndarray, omega: np.ndarray,
                radial_order: int, triangle_order: int):
    """Nodes (n_c, n_q, 3) and weights (n_c, n_q) of the per-cell rule,
    cells ordered radial interval by interval, sectors within."""
    from .quadrature import gauss_legendre_interval, gauss_triangle

    tri_pts, tri_wts = gauss_triangle(triangle_order)  # reference, wts sum 1/2
    corners = ang.corners()                      # (n_t, 3, 3)
    n_t = ang.n_triangles
    d_plane = np.abs(np.einsum("ij,ij->i", ang.normals, corners[:, 0]))
    # Triangle-rule points on the flat panel, projected to unit directions.
    lam0 = 1.0 - tri_pts[:, 0] - tri_pts[:, 1]
    bary = np.stack([lam0, tri_pts[:, 0], tri_pts[:, 1]], axis=1)  # (n_tp, 3)
    panel_pts = np.einsum("qk,tkj->tqj", bary, corners)            # (n_t, n_tp, 3)
    pnorm = np.linalg.norm(panel_pts, axis=2)
    directions = panel_pts / pnorm[:, :, None]
    # Solid-angle element pulled back to the flat panel: dOmega =
    # d_plane / |p|^3 * 2A du dv.  Normalize so each patch's angular
    # weights sum to its exact solid angle.
    ang_wts = tri_wts[None, :] * (2.0 * ang.areas * d_plane)[:, None] / pnorm**3
    ang_wts *= (omega / ang_wts.sum(axis=1))[:, None]

    cells_nodes, cells_wts = [], []
    for k in range(len(breaks) - 1):
        s_pts, s_wts = gauss_legendre_interval(radial_order, breaks[k], breaks[k + 1])
        nodes = s_pts[None, :, None, None] * directions[:, None, :, :]
        wts = (s_wts * s_pts**2)[None, :, None] * ang_wts[:, None, :]
        cells_nodes.append(nodes.reshape(n_t, -1, 3))
        cells_wts.append(wts.reshape(n_t, -1))
    return np.concatenate(cells_nodes), np.concatenate(cells_wts)


# --- OFF import/export -----------------------------------------------------

def write_off(mesh: SurfaceMesh, path) -> None:
    """Write vertices and triangles in OFF format (labels are not stored)."""
    with open(path, "w") as f:
        f.write("OFF\n")
        f.write(f"{mesh.n_vertices} {mesh.n_triangles} 0\n")
        for v in mesh.vertices:
            f.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.triangles:
            f.write(f"3 {t[0]} {t[1]} {t[2]}\n")


def read_off(path) -> SurfaceMesh:
    """Read a triangle mesh in OFF format.

    Raises ValueError for a file that is not OFF, a vertex or face list
    shorter than its header says, a face that is not a triangle, or a
    vertex index outside [0, n_v).
    """
    with open(path) as f:
        tokens = []
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "OFF":
        raise ValueError("not an OFF file")
    n_v, n_t = int(tokens[1]), int(tokens[2])
    if n_v < 0 or n_t < 0:
        raise ValueError("OFF header counts must be non-negative")
    pos = 4
    if len(tokens) < pos + 3 * n_v:
        raise ValueError(f"OFF vertex list is shorter than the {n_v} vertices of its header")
    verts = np.asarray(tokens[pos:pos + 3 * n_v], dtype=float).reshape(n_v, 3)
    pos += 3 * n_v
    tris = []
    for _ in range(n_t):
        if len(tokens) < pos + 4:
            raise ValueError(f"OFF face list is shorter than the {n_t} faces of its header")
        cnt = int(tokens[pos])
        if cnt != 3:
            raise ValueError("only triangle faces are supported")
        tris.append([int(x) for x in tokens[pos + 1:pos + 4]])
        pos += 1 + cnt
    tris = np.asarray(tris, dtype=np.int64).reshape(n_t, 3)
    bad = tris[(tris < 0) | (tris >= n_v)]
    if bad.size:
        raise ValueError(f"OFF face index {bad[0]} is outside [0, {n_v})")
    return SurfaceMesh(vertices=verts, triangles=tris)
