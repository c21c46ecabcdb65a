"""Quadrature rules for weakly singular surface and volume integrals.

Surface rules live on the unit reference triangle {(x, y) : x, y >= 0,
x + y <= 1}; weights sum to its measure 1/2.  Three regimes are used when
integrating a kernel against a panel: a plain symmetric Gauss rule when the
target is well separated, a uniformly subdivided Gauss rule in the
near-singular band, and a Duffy (square-to-triangle) transform when the
target lies on the panel at a registered point; ``laplace._surface_rows``
selects among them.  The subdivision is graded: ``near_depth`` maps a
pair's distance over its panel's diameter to a depth, the one rule of
that choice, so a near pair pays only for the depth it needs.  All rules
are deterministic: the same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import functools

import numpy as np

# The surface rule of every operator (laplace._surface_rows reads these; no
# operator takes a setting): a target at least NEAR_THRESHOLD panel
# diameters h from a panel takes its Gauss rule of FAR_ORDER.  A closer,
# off-panel target at distance d takes the rule of NEAR_ORDER on the
# shallowest uniform subdivision of depth k with 2**k d >= NEAR_THRESHOLD h,
# whose sub-panels (h / 2**k across) then lie as far off, in their own
# diameters, as a far pair; SUBDIVISION_LEVELS caps k (see near_depth).  So
# 1.5 <= d/h < 3 takes depth 1 and d/h < 1.5 depth 2.  A registered target's
# own panels take a Duffy rule of DUFFY_ORDER.
NEAR_THRESHOLD = 3.0
FAR_ORDER = 3
NEAR_ORDER = 4
SUBDIVISION_LEVELS = 2
DUFFY_ORDER = 8


def _orbit3(a: float) -> np.ndarray:
    """Symmetric 3-orbit with barycentric coordinates (1-2a, a, a)."""
    return np.array([[1 - 2 * a, a, a], [a, 1 - 2 * a, a], [a, a, 1 - 2 * a]])


def _orbit6(a: float, b: float) -> np.ndarray:
    c = 1.0 - a - b
    return np.array(
        [[a, b, c], [b, c, a], [c, a, b], [a, c, b], [c, b, a], [b, a, c]]
    )


def _bary_to_ref(bary: np.ndarray) -> np.ndarray:
    return bary[:, 1:]


def barycentric(pts: np.ndarray) -> np.ndarray:
    """Barycentric coordinates (q, 3) of reference points (q, 2): the weights
    of the corners a, b, c in a + x (b - a) + y (c - a)."""
    return np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)


def gauss_triangle(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric Gauss rule on the reference triangle.

    Exact for polynomials of total degree ``order``; all weights positive.
    Orders 1, 2, 3, 4 and 6 are available (3 is served by the degree-4
    six-point rule, which is exact for degree 3 as well).

    Returns
    -------
    points : (n, 2) array
    weights : (n,) array summing to 1/2
    """
    if order == 1:
        bary = np.array([[1 / 3, 1 / 3, 1 / 3]])
        w = np.array([1.0])
    elif order == 2:
        bary = _orbit3(1 / 6)
        w = np.full(3, 1 / 3)
    elif order in (3, 4):
        bary = np.concatenate(
            [_orbit3(0.44594849091596489), _orbit3(0.09157621350977074)]
        )
        w = np.concatenate(
            [np.full(3, 0.22338158967801147), np.full(3, 0.10995174365532187)]
        )
    elif order == 6:
        bary = np.concatenate(
            [
                _orbit3(0.24928674517091042),
                _orbit3(0.06308901449150223),
                _orbit6(0.31035245103378440, 0.05314504984481695),
            ]
        )
        w = np.concatenate(
            [
                np.full(3, 0.11678627572637936),
                np.full(3, 0.05084490637020681),
                np.full(6, 0.08285107561837358),
            ]
        )
    else:
        raise ValueError(f"no rule of order {order}; available: 1, 2, 3, 4, 6")
    return _bary_to_ref(bary), w / 2.0


def gauss_legendre_interval(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def duffy_triangle(singular_vertex: int, order: int = DUFFY_ORDER):
    """Duffy rule on the reference triangle, singular at a chosen vertex.

    The square-to-triangle map (u, v) -> (u(1-v), uv) has Jacobian u, which
    cancels a 1/r singularity at the origin vertex.  For other vertices the
    barycentric coordinates are cyclically rolled, which leaves integrals of
    symmetric functions invariant.

    Parameters
    ----------
    singular_vertex : int
        0, 1 or 2; reference vertices are (0,0), (1,0), (0,1).
    order : int
        Tensor Gauss order per direction (order**2 nodes).
    """
    if singular_vertex not in (0, 1, 2):
        raise ValueError("singular_vertex must be 0, 1 or 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    gx, gw = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (gx + 1.0)
    wu = 0.5 * gw
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    xi = (U * (1.0 - V)).ravel()
    eta = (U * V).ravel()
    w = (WU * WV * U).ravel()
    bary = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    bary = np.roll(bary, singular_vertex, axis=1)
    return _bary_to_ref(bary), w


def near_depth(distance, diameter) -> np.ndarray:
    """The subdivision depth of target-panel pairs at ``distance`` from
    panels of ``diameter`` (arrays that broadcast): 0, the far rule, when
    distance >= NEAR_THRESHOLD diameters; else the shallowest k with
    2**k distance >= NEAR_THRESHOLD diameter, capped at SUBDIVISION_LEVELS.
    The powers of two scale exactly, so depth 0 is the far test itself."""
    d = np.asarray(distance, dtype=float)
    cut = NEAR_THRESHOLD * np.asarray(diameter, dtype=float)
    depth = np.zeros(np.broadcast_shapes(d.shape, cut.shape), dtype=np.intp)
    for k in range(SUBDIVISION_LEVELS):
        depth += 2.0**k * d < cut
    return depth


def subdivided_triangle_rule(order: int, levels: int):
    """Gauss rule replicated on a uniform 4**levels subdivision."""
    pts, wts = gauss_triangle(order)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = [verts]
    for _ in range(levels):
        new = []
        for a, b, c in tris:
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            new.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        tris = new
    all_pts, all_wts = [], []
    scale = 0.25**levels
    for a, b, c in tris:
        mapped = a + np.outer(pts[:, 0], b - a) + np.outer(pts[:, 1], c - a)
        all_pts.append(mapped)
        all_wts.append(wts * scale)
    return np.concatenate(all_pts), np.concatenate(all_wts)


@functools.lru_cache(maxsize=None)
def _duffy_rule(singular_vertex: int, order: int):
    """Cached Duffy rule, read-only since every singular pair shares it."""
    pts, wts = duffy_triangle(singular_vertex, order)
    pts.flags.writeable = wts.flags.writeable = False
    return pts, wts


def map_to_panel(corners: np.ndarray, pts: np.ndarray, wts: np.ndarray):
    """Map a reference rule to a physical triangle.

    ``corners`` may be a single (3, 3) triangle or a batch (n_t, 3, 3);
    returned weights include the 2*area Jacobian.
    """
    single = corners.ndim == 2
    if single:
        corners = corners[None]
    a = corners[:, 0]
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    nodes = (
        a[:, None, :]
        + pts[None, :, 0, None] * e1[:, None, :]
        + pts[None, :, 1, None] * e2[:, None, :]
    )
    jac = np.linalg.norm(np.cross(e1, e2), axis=1)  # = 2 * area
    w = wts[None, :] * jac[:, None]
    if single:
        return nodes[0], w[0]
    return nodes, w


def _dot(u, v):
    """u . v over the last axis, summed in a fixed order for any broadcast."""
    return (u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]) + u[..., 2] * v[..., 2]


def point_triangle_distance(targets: np.ndarray, corners: np.ndarray,
                            paired: bool = False) -> np.ndarray:
    """Euclidean distance from points to triangles.

    Parameters
    ----------
    targets : (m, 3) or (3,)
    corners : (n, 3, 3) or (3, 3)
    paired : bool
        Pair target k with triangle k (m == n) instead of taking every
        target against every triangle.  The paired distances equal the
        diagonal of the cross form bit for bit.

    Returns
    -------
    (m, n) distances, or (m,) when paired (squeezed when either input is
    unbatched).
    """
    t_single = np.ndim(targets) == 1
    c_single = np.ndim(corners) == 2
    y = np.atleast_2d(np.asarray(targets, dtype=float))
    tri = np.asarray(corners, dtype=float)
    if c_single:
        tri = tri[None]
    if paired:
        if len(y) != len(tri):
            raise ValueError("paired distances need as many targets as triangles")
    else:
        y = y[:, None, :]                                  # (m, 1, 3) against (n, 3)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    e1, e2 = b - a, c - a
    n = np.cross(e1, e2)
    d = y - a
    # Barycentric coordinates of the in-plane projection.
    d11, d12, d22 = _dot(e1, e1), _dot(e1, e2), _dot(e2, e2)
    p1, p2 = _dot(d, e1), _dot(d, e2)
    det = d11 * d22 - d12**2
    s = (d22 * p1 - d12 * p2) / det
    t = (d11 * p2 - d12 * p1) / det
    inside = (s >= 0) & (t >= 0) & (s + t <= 1)
    plane_dist = np.abs(_dot(d, n)) / np.sqrt(_dot(n, n))

    def seg_dist(p0, seg):
        # p0: offsets from the segment start; seg: the segment, per triangle.
        tt = np.clip(_dot(p0, seg) / _dot(seg, seg), 0.0, 1.0)
        diff = p0 - tt[..., None] * seg
        return np.sqrt(_dot(diff, diff))

    edge = np.minimum(seg_dist(d, e1), np.minimum(seg_dist(d, e2), seg_dist(y - b, c - b)))
    out = np.where(inside, plane_dist, edge)
    if paired:
        return out[0] if t_single and c_single else out
    if t_single and c_single:
        return out[0, 0]
    if t_single:
        return out[0]
    if c_single:
        return out[:, 0]
    return out


# Registered point kinds of a panel: corners 0-2, or the centroid.
AT_CENTROID = 3
UNREGISTERED = -1


def singular_point_kind(corners: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Which registered point of each panel each target is (numerically).

    ``corners`` (k, 3, 3) and ``targets`` (k, 3) are paired; returns the
    corner index 0-2, ``AT_CENTROID`` or ``UNREGISTERED`` per pair.  A corner
    wins over the centroid; the tolerance is 1e-9 of the first edge.
    """
    tol = 1e-9 * np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    at_corner = np.linalg.norm(targets[:, None, :] - corners, axis=2) <= tol[:, None]
    at_centroid = np.linalg.norm(targets - corners.mean(axis=1), axis=1) <= tol
    return np.where(at_corner.any(axis=1), np.argmax(at_corner, axis=1),
                    np.where(at_centroid, AT_CENTROID, UNREGISTERED))


def duffy_panel_nodes(corners: np.ndarray, kind: int, order: int):
    """Duffy nodes (k, q, 3), weights (k, q) and the nodes' barycentric
    coordinates (q, 3) on panels (k, 3, 3) that all contain their target at
    the same kind of registered point.

    A corner target takes the Duffy rule singular at that corner; a centroid
    target splits its panel into three sub-triangles around the centroid.
    The barycentric coordinates come from the reference rule, so they are
    the same on every panel.
    """
    if kind != AT_CENTROID:
        pts, wts = _duffy_rule(kind, order)
        return (*map_to_panel(corners, pts, wts), barycentric(pts))
    centroid = corners.mean(axis=1)
    subs = np.stack([np.stack([centroid, corners[:, k], corners[:, (k + 1) % 3]], axis=1)
                     for k in range(3)], axis=1)
    pts, wts = _duffy_rule(0, order)
    nodes, weights = map_to_panel(subs.reshape(-1, 3, 3), pts, wts)
    # The corners of sub-triangle k, the centroid and corners k and k + 1,
    # in the barycentric coordinates of the panel.
    eye = np.eye(3)
    bary = np.concatenate([barycentric(pts) @ np.stack([np.full(3, 1.0 / 3.0), eye[k],
                                                        eye[(k + 1) % 3]])
                           for k in range(3)])
    return nodes.reshape(len(corners), -1, 3), weights.reshape(len(corners), -1), bary
