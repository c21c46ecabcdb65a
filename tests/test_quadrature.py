"""Reference rules, panel mapping, and the far, near and Duffy schemes as the
surface and volume engines apply them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdie import geometry as geo
from bdie import laplace as lp
from bdie import quadrature as quad

FOUR_PI = 4.0 * np.pi

# Exact monomial integrals over the reference triangle {x,y >= 0, x+y <= 1}:
# int x^a y^b = a! b! / (a+b+2)!
def ref_monomial(a, b):
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("order,degree", [(1, 1), (2, 2), (3, 4), (4, 4), (6, 6)])
def test_gauss_triangle_degree_exactness(order, degree):
    pts, wts = quad.gauss_triangle(order)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(wts, pts[:, 0] ** a * pts[:, 1] ** b)
            assert abs(val - ref_monomial(a, b)) < 1e-14


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
def test_gauss_triangle_weights_positive_and_sum(order):
    pts, wts = quad.gauss_triangle(order)
    assert np.all(wts > 0)
    assert abs(wts.sum() - 0.5) < 1e-14
    assert np.all(pts >= 0) and np.all(pts.sum(axis=1) <= 1 + 1e-14)


def test_gauss_triangle_unknown_order():
    with pytest.raises(ValueError):
        quad.gauss_triangle(5)


def test_gauss_legendre_interval():
    pts, wts = quad.gauss_legendre_interval(2, 1.0, 2.0)
    # 2-point Gauss integrates cubics exactly.
    assert abs(np.dot(wts, pts**3) - (2.0**4 - 1.0) / 4.0) < 1e-13


def test_duffy_integrates_vertex_singularity():
    # int over the reference triangle of 1/|x| with the singularity at the
    # origin vertex: sqrt(2) * log(1 + sqrt(2)).
    exact = math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
    pts, wts = quad.duffy_triangle(0, order=quad.DUFFY_ORDER)
    val = np.dot(wts, 1.0 / np.linalg.norm(pts, axis=1))
    assert abs(val - exact) / exact < 1e-6


@pytest.mark.parametrize("vertex", [0, 1, 2])
def test_duffy_weights_sum_to_half(vertex):
    pts, wts = quad.duffy_triangle(vertex, order=6)
    assert abs(wts.sum() - 0.5) < 1e-13
    assert np.all(wts > 0)


@pytest.mark.parametrize("k", [1, 2])
def test_duffy_singular_vertex_rotation(k):
    # int over the reference triangle of 1/|x - v_k| for the acute corners:
    # polar wedge integral gives log(1 + sqrt(2)).
    exact = math.log(1.0 + math.sqrt(2.0))
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pts, wts = quad.duffy_triangle(k, order=quad.DUFFY_ORDER)
    r = np.linalg.norm(pts - verts[k], axis=1)
    val = np.dot(wts, 1.0 / r)
    assert abs(val - exact) / exact < 1e-8


def test_subdivided_rule_on_smooth_integrand():
    # int over the reference triangle of cos(x + 2y) = cos 1 - (cos 2 + 1)/2.
    exact = math.cos(1.0) - (math.cos(2.0) + 1.0) / 2.0
    spts, swts = quad.subdivided_triangle_rule(4, 2)
    assert len(swts) == 16 * 6
    val = np.dot(swts, np.cos(spts[:, 0] + 2.0 * spts[:, 1]))
    assert abs(val - exact) < 1e-7
    assert abs(swts.sum() - 0.5) < 1e-13


@given(st.lists(st.floats(-2, 2), min_size=9, max_size=9))
@settings(max_examples=25, deadline=None)
def test_map_to_panel_constant_gives_area(flat):
    corners = np.array(flat).reshape(3, 3)
    area2 = np.linalg.norm(np.cross(corners[1] - corners[0], corners[2] - corners[0]))
    pts, wts = quad.gauss_triangle(2)
    _, w = quad.map_to_panel(corners, pts, wts)
    assert abs(w.sum() - 0.5 * area2) < 1e-12 * max(1.0, area2)


def test_map_to_panel_batch_matches_single():
    corners = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0]],
                        [[1.0, 1, 1], [2, 1, 1], [1, 3, 2]]])
    pts, wts = quad.gauss_triangle(3)
    nodes_b, w_b = quad.map_to_panel(corners, pts, wts)
    for i in range(2):
        nodes_s, w_s = quad.map_to_panel(corners[i], pts, wts)
        assert np.array_equal(nodes_b[i], nodes_s)
        assert np.array_equal(w_b[i], w_s)


class TestPointTriangleDistance:
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_above_interior(self):
        d = quad.point_triangle_distance(np.array([0.2, 0.2, 0.7]), self.corners)
        assert abs(d - 0.7) < 1e-14

    def test_beyond_vertex(self):
        d = quad.point_triangle_distance(np.array([-3.0, -4.0, 0.0]), self.corners)
        assert abs(d - 5.0) < 1e-14

    def test_beyond_edge(self):
        d = quad.point_triangle_distance(np.array([0.5, -2.0, 0.0]), self.corners)
        assert abs(d - 2.0) < 1e-14

    def test_on_triangle(self):
        d = quad.point_triangle_distance(np.array([0.25, 0.25, 0.0]), self.corners)
        assert d < 1e-14

    def test_batched_shapes(self):
        targets = np.zeros((4, 3))
        tris = np.stack([self.corners, self.corners + 1.0])
        assert quad.point_triangle_distance(targets, tris).shape == (4, 2)

    # Targets over the face, beyond each edge and beyond each vertex of the
    # reference triangle, in its plane and off it, with their distances.
    regions = [([0.2, 0.2, 0.7], 0.7), ([0.25, 0.25, 0.0], 0.0),
               ([0.5, -2.0, 0.0], 2.0), ([0.5, -2.0, 1.0], np.sqrt(5.0)),
               ([-2.0, 0.3, 0.0], 2.0), ([1.0, 1.0, 0.0], np.sqrt(0.5)),
               ([1.0, 1.0, -1.0], np.sqrt(1.5)), ([-3.0, -4.0, 0.0], 5.0),
               ([-3.0, -4.0, 12.0], 13.0), ([3.0, -1.0, 0.0], np.sqrt(5.0)),
               ([-1.0, 3.0, 2.0], 3.0)]

    def test_face_edge_and_vertex_regions(self):
        targets = np.array([y for y, _ in self.regions])
        want = np.array([d for _, d in self.regions])
        assert np.abs(quad.point_triangle_distance(targets, self.corners) - want).max() < 1e-14
        tris = np.broadcast_to(self.corners, (len(targets), 3, 3))
        paired = quad.point_triangle_distance(targets, tris, paired=True)
        assert np.abs(paired - want).max() < 1e-14

    def test_paired_form_is_the_diagonal_of_the_cross_form(self):
        # Every region target against the reference triangle and three
        # moved copies, pair by pair: the same bits as the cross form.
        rng = np.random.default_rng(12)
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        tris = np.stack([self.corners, 2.0 * self.corners + 1.0, self.corners @ rotation.T,
                         self.corners[[1, 2, 0]] - 0.5])
        targets = np.concatenate([np.array([y for y, _ in self.regions]),
                                  rng.normal(scale=2.0, size=(20, 3))])
        cross = quad.point_triangle_distance(targets, tris)
        rows, cols = (k.ravel() for k in np.indices(cross.shape))
        paired = quad.point_triangle_distance(targets[rows], tris[cols], paired=True)
        assert np.array_equal(paired, cross[rows, cols])
        assert quad.point_triangle_distance(targets[0], tris[0], paired=True) == cross[0, 0]
        with pytest.raises(ValueError, match="as many targets as triangles"):
            quad.point_triangle_distance(targets, tris, paired=True)


# --- scheme selection, through the surface and volume engines -----------------
#
# The surface checks integrate 1/|x - y| over one panel: the Laplace single
# layer of the unit density on a one-triangle mesh, times 4 pi.  Free targets
# off the panel take the far or the near rule by d/h; registered targets (the
# panel's vertex or centroid) take the Duffy rule.

def smooth_kernel(nodes, target):
    d = nodes - target
    return 1.0 / np.sqrt((d * d).sum(axis=-1))


def one_panel(corners):
    return geo.SurfaceMesh(vertices=corners, triangles=np.array([[0, 1, 2]]))


def panel_integral(corners, targets, density=None):
    """4 pi times the single layer: the integral of density / r over the panel."""
    mesh = one_panel(corners)
    if density is None:
        density = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(1))
    return FOUR_PI * lp.single_layer(mesh, density, targets)[0]


def test_integrate_layer_far_matches_reference():
    corners = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    target = np.array([1.0, 1.0, 1.0])  # d/h >> 3
    val = panel_integral(corners, target[None])
    pts, wts = quad.subdivided_triangle_rule(6, 3)
    nodes, w = quad.map_to_panel(corners, pts, wts)
    ref = np.dot(w, smooth_kernel(nodes, target))
    assert abs(val - ref) / abs(ref) < 1e-8


@pytest.mark.parametrize("ratio", [2.0, 1.0, 0.5, 0.25])
def test_integrate_layer_near_scheme_accuracy(ratio):
    # Targets at d/h below the threshold route to the subdivided rule; the
    # result must track a much finer reference within 1%.
    corners = np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.2, 0.0]])
    h = 0.2 * math.sqrt(2)
    target = np.array([0.05, 0.05, ratio * h])
    val = panel_integral(corners, target[None])
    pts, wts = quad.subdivided_triangle_rule(6, 4)
    nodes, w = quad.map_to_panel(corners, pts, wts)
    ref = np.dot(w, smooth_kernel(nodes, target))
    assert abs(val - ref) / abs(ref) < 1e-2


def test_integrate_layer_duffy_at_vertex():
    # Singularity on the panel at a registered corner: scaled analytic oracle.
    s = 0.3
    corners = np.array([[0.0, 0.0, 0.0], [s, 0.0, 0.0], [0.0, s, 0.0]])
    val = panel_integral(corners, lp.Collocation.vertices(one_panel(corners), [0]))
    exact = s * math.sqrt(2.0) * math.log(1.0 + math.sqrt(2.0))
    assert abs(val - exact) / exact < 1e-5


def test_integrate_layer_duffy_at_centroid():
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    centroid = corners.mean(axis=0)
    val = panel_integral(corners, lp.Collocation.centroids(one_panel(corners), [0]))
    # Reference: 3-way split with deep Duffy.  The default order carries
    # ~1e-3 relative error on the skinny sub-triangles of the split.
    pts, wts = quad.duffy_triangle(0, order=24)
    ref = 0.0
    for k in range(3):
        sub = np.stack([centroid, corners[k], corners[(k + 1) % 3]])
        nodes, w = quad.map_to_panel(sub, pts, wts)
        ref += np.dot(w, smooth_kernel(nodes, centroid))
    assert abs(val - ref) / ref < 2e-3


def test_integrate_layer_unregistered_on_panel_point_raises():
    # No rule is accurate on the panel away from a registered point, so a
    # free target there, or a registration that does not match the point,
    # is refused instead of integrated with the near rule.
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    odd_point = np.array([[0.3, 0.2, 0.0]])
    with pytest.raises(ValueError, match="lies on panel 0"):
        panel_integral(corners, odd_point)
    misregistered = lp.Collocation(odd_point, [lp.KIND_CENTROID], np.array([0]))
    with pytest.raises(ValueError, match="neither a vertex nor the centroid"):
        panel_integral(corners, misregistered)


def test_integrate_layer_with_density():
    corners = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    target = np.array([[2.0, 0.0, 1.0]])
    one = panel_integral(corners, target)
    two = panel_integral(corners, target,
                         density=lp.BoundaryDensity(lp.SPACE_TRIANGLE, [2.0]))
    assert abs(two - 2.0 * one) < 1e-15


def test_integrate_volume_exclusion_ball():
    # A unit kernel integrates the shell's volume (both tables hold the cell
    # volumes), less the weights of the near-rule nodes within their cell's
    # exclusion radius of the target, which sits on a node.
    vol = geo.build_shell_mesh(2.0, n_radial=2, angular_level=0,
                               radial_order=3, triangle_order=3)
    target = vol.nodes[7, 4][None]

    def kern(r, dot, data, out):
        # A unit kernel, whatever r, g . (x - y) and the data.
        out[...] = 1.0
        return out

    cache = lp._cell_cache(vol)
    term = lp._VolumeTerm(cache.weights, kern, cache.nodes, cache.weights)
    value = lp._volume_rows(vol, target, term)[0]
    near = lp._near_cells(vol, target)[0]
    r = np.linalg.norm(vol.nodes - target, axis=2)
    inside = near[:, None] & (r <= lp.exclusion_radii(vol)[:, None])
    assert 1 <= inside.sum() < vol.n_nodes_per_cell
    assert value == pytest.approx(vol.volumes.sum() - vol.node_weights[inside].sum(), rel=1e-12)


# --- the graded near rule --------------------------------------------------------

def test_near_depth_maps_distance_over_diameter_to_a_depth():
    # The shallowest k with 2**k d >= NEAR_THRESHOLD h, capped; 0 is far.
    assert quad.near_depth([2.99, 1.5, 1.49, 0.1], 1.0).tolist() == [1, 1, 2, 2]
    assert quad.near_depth([3.0, 7.5], 1.0).tolist() == [0, 0]
    assert quad.near_depth(np.array([[0.75], [0.37]]), np.array([0.5, 0.25])).tolist() == [
        [1, 0], [2, 2]]


@pytest.mark.parametrize("depth", range(1, quad.SUBDIVISION_LEVELS + 1))
def test_depth_tables_weigh_each_panel_and_stay_on_it(depth):
    # Each depth's node table: per panel, the weights sum to the panel's
    # area, and every node is a convex combination of the panel's corners.
    mesh = geo.build_icosphere(2)
    table = lp._panel_cache(mesh).near(depth)
    assert table.wts.shape == (mesh.n_triangles,
                               4**depth * quad.gauss_triangle(quad.NEAR_ORDER)[1].size)
    assert np.all(np.abs(table.wts.sum(axis=1) - mesh.areas) <= 1e-13 * mesh.areas)
    assert table.bary.min() >= 0.0 and table.bary.max() <= 1.0
    assert np.allclose(table.bary.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    nodes = np.einsum("qk,pkj->jpq", table.bary, mesh.corners())
    assert np.abs(table.nodes - nodes).max() <= 1e-15


def _layer_integrals(corners, pts, wts, target):
    """The integrals of 1/r and of the double-layer kernel n . (x - y) / r^3
    over one flat panel, with a reference rule (pts, wts)."""
    nodes, w = quad.map_to_panel(corners, pts, wts)
    normal = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    normal /= np.linalg.norm(normal)
    d = nodes - target
    r = np.sqrt((d * d).sum(axis=-1))
    return np.array([w @ (1.0 / r), w @ ((d @ normal) / r**3)])


def test_depth_one_keeps_the_far_rule_standard_down_to_the_cut():
    # Targets over three interior points of a flat panel, and beside the
    # midpoints of its edges (45 degrees out of its plane), at d/h = ratio.
    # The far rule's standard is its largest relative error at d/h = 3 over
    # each class of targets.  Depth 1, whose sub-panels are h/2 across, meets
    # it on 1.5 <= d/h < 3 in both classes; at d/h = 1 it does not, which is
    # why the pairs below 1.5 take depth 2.  Reference: depth 5 of the
    # degree-6 rule.
    corners = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.8, 0.0]])
    normal = np.array([0.0, 0.0, 1.0])
    h = max(np.linalg.norm(corners[k] - corners[k - 1]) for k in range(3))
    centroid = corners.mean(axis=0)
    above = [(np.array(b) @ corners, normal)
             for b in ([1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2], [0.1, 0.45, 0.45])]
    beside = []
    for k in range(3):
        mid = 0.5 * (corners[k] + corners[k - 1])
        out = np.cross(corners[k] - corners[k - 1], normal)
        out *= np.sign(out @ (mid - centroid)) / np.linalg.norm(out)
        beside.append((mid, (out + normal) / np.sqrt(2.0)))
    reference = quad.subdivided_triangle_rule(6, 5)
    far = quad.gauss_triangle(quad.FAR_ORDER)
    depth1 = quad.subdivided_triangle_rule(quad.NEAR_ORDER, 1)

    def errors(rule, ratio, targets):
        out = []
        for anchor, direction in targets:
            y = anchor + ratio * h * direction
            assert abs(quad.point_triangle_distance(y, corners) - ratio * h) < 1e-12
            want = _layer_integrals(corners, *reference, y)
            out.append(np.abs(_layer_integrals(corners, *rule, y) - want) / np.abs(want))
        return np.max(out, axis=0)  # per integral, the class's largest error

    for targets in (above, beside):
        standard = errors(far, 3.0, targets)
        assert quad.near_depth(3.0 * h, h) == 0
        for ratio in (1.5, 2.0, 2.5, 2.99):
            assert quad.near_depth(ratio * h, h) == 1
            assert np.all(errors(depth1, ratio, targets) <= standard)
        assert quad.near_depth(1.0 * h, h) == 2
        assert np.all(errors(depth1, 1.0, targets) > standard)
