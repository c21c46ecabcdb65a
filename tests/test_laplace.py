"""Laplace-kernel layer and volume potentials against sphere oracles.

The unit-sphere closed forms used throughout: the single layer of the unit
density equals 1/max(1, |y|); the double layer of the unit density is 1 in
the open unit ball, 0 outside, and 1/2 in the principal-value sense on the
surface (with normals pointing toward the origin).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bdie import geometry as geo
from bdie import laplace as lp
from bdie import quadrature as quad

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.fixture(scope="module")
def ones3(sphere3):
    return lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(sphere3.n_triangles))


def north_pole_index(mesh):
    return int(np.argmin(np.linalg.norm(mesh.vertices - np.array([0.0, 0.0, 1.0]), axis=1)))


# --- kernels -----------------------------------------------------------------

def test_fundamental_solution_values():
    x = np.array([1.0, 0.0, 0.0])
    assert lp.fundamental_solution(x, np.zeros(3)) == pytest.approx(-1.0 / FOUR_PI)
    assert lp.fundamental_solution(2 * x, np.zeros(3)) == pytest.approx(-0.0397887, rel=1e-5)


@given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_fundamental_solution_symmetry(vals):
    x = np.array(vals[:3])
    y = np.array(vals[3:])
    if np.linalg.norm(x - y) < 1e-6:
        return
    assert lp.fundamental_solution(x, y) == lp.fundamental_solution(y, x)


def test_grad_antisymmetry_and_magnitude():
    x = np.array([0.3, -0.2, 0.9])
    y = np.array([1.0, 0.5, -0.1])
    gx = lp.grad_fundamental_solution(x, y)
    gy = lp.grad_fundamental_solution(y, x)
    assert np.allclose(gx, -gy, atol=0, rtol=0)
    r = np.linalg.norm(x - y)
    assert np.linalg.norm(gx) == pytest.approx(1.0 / (FOUR_PI * r**2), rel=1e-12)


def test_grad_matches_finite_differences():
    x = np.array([0.4, 0.1, -0.3])
    y = np.array([-0.5, 0.8, 0.2])
    h = 1e-5
    g = lp.grad_fundamental_solution(x, y)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd = (lp.fundamental_solution(x + e, y) - lp.fundamental_solution(x - e, y)) / (2 * h)
        assert abs(g[i] - fd) < 1e-6


@pytest.mark.parametrize("where", ["random", "in-plane", "close"])
def test_component_major_kernels_match_closed_forms(where):
    # The engine's layer kernels on component-major near-rule nodes of
    # random panels, one target per panel, against the closed forms.  The
    # double layer takes n . (x - y) once per panel, as n . (c - y).
    rng = np.random.default_rng(31)
    corners = rng.uniform(-1.0, 1.0, size=(40, 3, 3))
    nodes, _ = quad.map_to_panel(corners, *quad.subdivided_triangle_rule(
        quad.NEAR_ORDER, quad.SUBDIVISION_LEVELS))
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    normals = np.cross(e1, e2)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    centroids = corners.mean(axis=1)
    s, t = rng.uniform(-2.0, 2.0, size=(2, len(corners), 1))
    targets = {
        "random": centroids + rng.normal(scale=2.0, size=centroids.shape),
        # In the panel's plane, off the panel: n . (x - y) = 0.
        "in-plane": centroids + (1.5 + np.abs(s)) * e1 + (1.5 + np.abs(t)) * e2,
        # Over the panel at a tenth of its size.
        "close": centroids + 0.2 * (s * e1 + t * e2) / 4.0
                 + 0.1 * np.linalg.norm(e1, axis=1)[:, None] * normals,
    }[where]
    single, double = lp.single_layer_kernel, lp.double_layer_kernel
    vals = lp._kernel_values([single, double], np.moveaxis(nodes, -1, 0),
                             targets.T[:, :, None], normals.T[:, :, None],
                             centroids.T[:, :, None])
    y = targets[:, None, :]
    want_single = -lp.fundamental_solution(nodes, y)
    grad = lp.grad_fundamental_solution(nodes, y)
    want_double = -np.einsum("pj,pqj->pq", normals, grad)
    # The double layer is n . grad, measured against |grad|.
    scale = np.linalg.norm(grad, axis=-1)
    assert np.abs(vals[single] - want_single).max() <= 1e-14 * np.abs(want_single).max()
    assert np.all(np.abs(vals[single] - want_single) <= 1e-14 * want_single)
    assert np.all(np.abs(vals[double] - want_double) <= 1e-14 * scale)
    if where == "in-plane":
        assert np.abs(vals[double]).max() <= 1e-14 * scale.max()
    # Called on (..., 3) arrays, a kernel takes the plane through each node.
    assert np.array_equal(single(nodes, normals[:, None, :], y), vals[single])
    assert np.all(np.abs(double(nodes, normals[:, None, :], y) - want_double) <= 1e-14 * scale)


# --- single layer ------------------------------------------------------------

def test_single_layer_sphere_off_surface(sphere3, ones3):
    pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    vals = lp.single_layer(sphere3, ones3, pts)
    exact = 1.0 / np.array([1.5, 2.0, 3.0])
    assert np.all(np.abs(vals - exact) / exact < 0.02)


def test_single_layer_direct_value_on_surface(sphere3, ones3):
    cv = lp.Collocation.vertices(sphere3, [north_pole_index(sphere3)])
    val = lp.single_layer(sphere3, ones3, cv)[0]
    assert abs(val - 1.0) < 0.02


def test_single_layer_error_halves_under_refinement():
    errs = []
    for level in (2, 3):
        m = geo.build_icosphere(level)
        d = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(m.n_triangles))
        pts = np.array([[0.0, 0.0, 1.5], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
        vals = lp.single_layer(m, d, pts)
        cv = lp.Collocation.vertices(m, [north_pole_index(m)])
        direct = lp.single_layer(m, d, cv)
        exact = 1.0 / np.array([1.5, 2.0, 3.0])
        errs.append(max(np.max(np.abs(vals - exact) / exact), abs(direct[0] - 1.0)))
    assert errs[1] <= 0.5 * errs[0]


def test_single_layer_zero_density(sphere3):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.zeros(sphere3.n_triangles))
    assert np.all(lp.single_layer(sphere3, zero, np.array([[2.0, 0.0, 0.0]])) == 0.0)


def test_single_layer_linearity(sphere3):
    rng = np.random.default_rng(5)
    r1 = rng.normal(size=sphere3.n_triangles)
    r2 = rng.normal(size=sphere3.n_triangles)
    pts = np.array([[1.7, 0.2, 0.4]])
    mk = lambda c: lp.BoundaryDensity(lp.SPACE_TRIANGLE, c)
    combo = lp.single_layer(sphere3, mk(2.0 * r1 - 3.0 * r2), pts)
    parts = 2.0 * lp.single_layer(sphere3, mk(r1), pts) - 3.0 * lp.single_layer(sphere3, mk(r2), pts)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-15)


# --- double layer ------------------------------------------------------------

def test_double_layer_exterior_probe(sphere3, ones3):
    vals = lp.double_layer(sphere3, ones3, np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 2.0]]))
    assert np.all(np.abs(vals) < 0.01)


def test_double_layer_interior_probe(sphere3, ones3):
    vals = lp.double_layer(sphere3, ones3, np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]))
    assert np.all(np.abs(vals - 1.0) < 0.01)


def test_double_layer_direct_value(sphere3, ones3):
    cc = lp.Collocation.centroids(sphere3)
    dv = lp.double_layer(sphere3, ones3, cc)
    assert np.all(np.abs(dv - 0.5) < 0.02 * 0.5)


def test_double_layer_direct_error_decreases_with_level():
    devs = []
    for level in (1, 2, 3):
        m = geo.build_icosphere(level)
        d = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(m.n_triangles))
        dv = lp.double_layer(m, d, lp.Collocation.centroids(m))
        devs.append(np.abs(dv - 0.5).max())
    assert devs[2] < devs[1] < devs[0]


def test_double_layer_zero_density(sphere3):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.zeros(sphere3.n_triangles))
    assert np.all(lp.double_layer(sphere3, zero, np.array([[0.0, 0.0, 0.0]])) == 0.0)


def test_jump_relation_refinement():
    # Exterior limit at a fixed physical offset vs -rho/2 + direct value;
    # the mismatch must shrink as the mesh refines.
    res = []
    for level in (1, 2, 3):
        m = geo.build_icosphere(level)
        rho = lp.BoundaryDensity(lp.SPACE_VERTEX, 1.0 + m.vertices[:, 2])
        sel = np.arange(0, m.n_vertices, 7)
        cc = lp.Collocation.vertices(m, sel)
        dv = lp.double_layer(m, rho, cc)
        pts = cc.points - 0.05 * (-m.vertices[sel])
        wext = lp.double_layer(m, rho, pts)
        rho_at = 1.0 + m.vertices[sel, 2]
        res.append(np.abs(wext - (-0.5 * rho_at + dv)).max())
    assert res[2] < res[1] < res[0]


def test_vertex_linear_density_matches_callable(sphere3):
    # z is linear, so its vertex-linear interpolant is z on every flat panel;
    # the per-pair reference (below) integrates z itself at the nodes.
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, sphere3.vertices[:, 2].copy())
    target = lp.Collocation.free([[0.0, 0.0, 0.0]])
    w_vl = lp.double_layer(sphere3, vl, target)
    w_fn = _reference_rows(sphere3, "double", target, density=lambda nodes: nodes[..., 2])
    assert np.allclose(w_vl, w_fn, atol=1e-12)


def test_surface_operators_refuse_callable_densities(sphere3):
    target = np.array([[0.0, 0.0, 2.0]])
    with pytest.raises(TypeError, match="BoundaryDensity"):
        lp.single_layer(sphere3, lambda nodes: nodes[..., 2], target)
    with pytest.raises(TypeError, match="BoundaryDensity"):
        lp.double_layer(sphere3, lambda nodes: nodes[..., 2], target)


# --- matrices ----------------------------------------------------------------

def test_single_layer_matrix_matches_value(sphere3):
    rng = np.random.default_rng(7)
    coef = rng.normal(size=sphere3.n_triangles)
    dd = lp.BoundaryDensity(lp.SPACE_TRIANGLE, coef.copy())
    cc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 97))
    val = lp.single_layer(sphere3, dd, cc)
    mat = lp.single_layer_matrix(sphere3, lp.SPACE_TRIANGLE, cc)
    assert mat.shape == (cc.n, sphere3.n_triangles)
    assert np.abs(mat @ coef - val).max() < 1e-12


def test_double_layer_matrix_matches_value(sphere3):
    rng = np.random.default_rng(8)
    coef = rng.normal(size=sphere3.n_vertices)
    dd = lp.BoundaryDensity(lp.SPACE_VERTEX, coef.copy())
    cv = lp.Collocation.vertices(sphere3, np.arange(0, sphere3.n_vertices, 53))
    val = lp.double_layer(sphere3, dd, cv)
    mat = lp.double_layer_matrix(sphere3, lp.SPACE_VERTEX, cv)
    assert np.abs(mat @ coef - val).max() < 1e-12


# --- newton potential ---------------------------------------------------------

@pytest.fixture(scope="module")
def shell12():
    return geo.build_shell_mesh(outer_radius=2.0, n_radial=8, angular_level=2)


def test_newton_shell_oracle(shell12):
    f = lp.DomainDensity(np.ones(shell12.n_cells))
    val = lp.newton_potential(shell12, f, np.array([[0.0, 0.0, 0.0]]))[0]
    # -int_1^2 r^2/r dr = -(4-1)/2
    assert abs(val - (-1.5)) / 1.5 < 0.01


def test_newton_zero_and_linearity(shell12):
    t = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    zero = lp.newton_potential(shell12, lp.DomainDensity(np.zeros(shell12.n_cells)), t)
    assert np.all(zero == 0.0)
    one = lp.newton_potential(shell12, lp.DomainDensity(np.ones(shell12.n_cells)), t)
    two = lp.newton_potential(shell12, lp.DomainDensity(2.0 * np.ones(shell12.n_cells)), t)
    assert np.allclose(two, 2.0 * one, rtol=1e-14)


def test_newton_matrix_matches_value(shell12):
    # The volume engine's rows pass with the Newton weights applies to a
    # density as its values pass does.
    rng = np.random.default_rng(9)
    f = rng.normal(size=shell12.n_cells)
    targets = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 0.0, 2.5]])
    val = lp.newton_potential(shell12, lp.DomainDensity(f.copy()), targets)
    weights = lp._newton_weights(shell12, lp._cell_cache(shell12).weights)
    mat = lp._volume_rows(shell12, targets, lp._VolumeTerm(weights, rows=True))
    assert np.abs(mat @ f - val).max() < 1e-12


def test_newton_exclusion_ball_applies_inside(shell12):
    # A target on a quadrature node would blow up without the exclusion ball.
    node = shell12.all_nodes()[1234]
    val = lp.newton_potential(shell12, lp.DomainDensity(np.ones(shell12.n_cells)), node[None])
    assert np.isfinite(val[0])


# --- one-sided limits ------------------------------------------------------------

def test_continuity_of_single_layer(sphere3, ones3):
    # Exterior values at offsets 0.1h, 0.05h, 0.025h extrapolate to the
    # direct value within 2%.
    idx = north_pole_index(sphere3)
    pole = sphere3.vertices[idx]
    h = sphere3.max_edge
    direct = lp.single_layer(sphere3, ones3, lp.Collocation.vertices(sphere3, [idx]))[0]
    offs = [0.1 * h, 0.05 * h, 0.025 * h]
    vals = [lp.single_layer(sphere3, ones3, (pole * (1.0 + o))[None])[0] for o in offs]
    extrap = 2.0 * vals[2] - vals[1]
    assert abs(extrap - direct) / direct < 0.02


# --- density and collocation plumbing ------------------------------------------

def test_density_validation():
    with pytest.raises(ValueError, match="unknown space_tag"):
        lp.BoundaryDensity("nope", np.ones(3))


def test_free_target_on_a_panel_is_refused(sphere3, ones3):
    # A centroid passed as a free point would get the near rule on its own
    # panel; only the registered centroid gets the Duffy rule.
    registered = lp.Collocation.centroids(sphere3, [5])
    assert np.isfinite(lp.single_layer(sphere3, ones3, registered)).all()
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.single_layer(sphere3, ones3, registered.points)
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.double_layer_matrix(sphere3, lp.SPACE_VERTEX, registered.points)


def test_collocation_index_must_match_its_point(sphere3, ones3):
    wrong = lp.Collocation(sphere3.centroids[[5]], [lp.KIND_CENTROID], np.array([3]))
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp.single_layer(sphere3, ones3, wrong)
    vertex = lp.Collocation(sphere3.vertices[[7]], [lp.KIND_VERTEX], np.array([8]))
    with pytest.raises(ValueError, match="not one of its registered panels"):
        lp.double_layer(sphere3, ones3, vertex)


def test_collocation_concat(sphere3):
    a = lp.Collocation.centroids(sphere3, [0, 1])
    b = lp.Collocation.vertices(sphere3, [5])
    c = lp.Collocation.concat([a, b])
    assert c.n == 3
    assert c.kinds == [lp.KIND_CENTROID, lp.KIND_CENTROID, lp.KIND_VERTEX]


# --- the batched engine against a per-pair reference ---------------------------

def _reference_rows(mesh, layer, colloc, space=None, density=None, factor=None,
                    support=None):
    """One target-panel pair at a time, as the engine's rules are defined.

    A target's own panels (its centroid panel, its vertex star) take the
    Duffy rule, or are skipped by the double layer; every other active panel
    takes the rule of its depth (quad.near_depth): the far rule at depth 0,
    the near rule subdivided that many levels below.  ``density`` (value mode) is a
    BoundaryDensity or a callable on nodes; ``space`` (matrix mode) is the
    column space.
    """
    corners = mesh.corners()
    rules = [quad.gauss_triangle(quad.FAR_ORDER)] + [
        quad.subdivided_triangle_rule(quad.NEAR_ORDER, k)
        for k in range(1, quad.SUBDIVISION_LEVELS + 1)]
    n_cols = {None: 1, lp.SPACE_TRIANGLE: mesh.n_triangles,
              lp.SPACE_VERTEX: mesh.n_vertices}[space]
    out = np.zeros((colloc.n, n_cols))
    for i, (y, kind, index) in enumerate(zip(colloc.points, colloc.kinds, colloc.indices)):
        own = ([index] if kind == lp.KIND_CENTROID
               else np.nonzero((mesh.triangles == index).any(axis=1))[0]
               if kind == lp.KIND_VERTEX else [])
        for p in range(mesh.n_triangles):
            if support is not None and not support[p]:
                continue
            c = corners[p]
            if p in own:
                if layer == "double":
                    continue
                if kind == lp.KIND_VERTEX:
                    k = int(np.argmin(np.linalg.norm(c - y, axis=1)))
                    pts, w = quad.duffy_triangle(k, quad.DUFFY_ORDER)
                    bary = np.stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], 1)
                    nodes, w = quad.map_to_panel(c, pts, w)
                else:
                    pts, w0 = quad.duffy_triangle(0, quad.DUFFY_ORDER)
                    nodes, w, bary = [], [], []
                    for k in range(3):
                        sub = np.stack([c.mean(axis=0), c[k], c[(k + 1) % 3]])
                        nd, wk = quad.map_to_panel(sub, pts, w0)
                        b = np.zeros((len(pts), 3))
                        b += (1 - pts[:, 0] - pts[:, 1])[:, None] / 3.0
                        b[:, k] += pts[:, 0]
                        b[:, (k + 1) % 3] += pts[:, 1]
                        nodes.append(nd), w.append(wk), bary.append(b)
                    nodes, w, bary = map(np.concatenate, (nodes, w, bary))
            else:
                d = quad.point_triangle_distance(y, c)
                pts, w0 = rules[int(quad.near_depth(d, mesh.diameters[p]))]
                bary = np.stack([1 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], 1)
                nodes, w = quad.map_to_panel(c, pts, w0)
            n = mesh.normals[p]
            r = np.linalg.norm(nodes - y, axis=1)
            kern = (1.0 / (FOUR_PI * r) if layer == "single"
                    else -((nodes - y) @ n) / (FOUR_PI * r**3))
            g = np.ones(len(nodes))
            if callable(density):
                g = density(nodes)
            elif density is not None and density.space_tag == lp.SPACE_TRIANGLE:
                g = np.full(len(nodes), density.values[p])
            elif density is not None:
                g = bary @ density.values[mesh.triangles[p]]
            if factor is not None:
                g = g * factor(nodes, np.broadcast_to(n, nodes.shape))
            wkg = w * kern * g
            if space == lp.SPACE_VERTEX:
                out[i, mesh.triangles[p]] += wkg @ bary
            else:
                out[i, 0 if space is None else p] += wkg.sum()
    return out[:, 0] if space is None else out


@pytest.fixture(scope="module")
def level1_targets():
    """Centroid, vertex and free targets on the level-1 sphere; the free ones
    inside, near and far from the surface."""
    mesh = geo.partition_boundary(geo.build_icosphere(1))
    dirs = np.array([[0.3, -0.5, 0.8], [-0.9, 0.1, 0.2], [0.2, 0.7, -0.6]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    free = np.concatenate([r * dirs for r in (0.6, 1.05, 1.3, 3.0)])
    return mesh, {
        "centroid": lp.Collocation.centroids(mesh, np.arange(0, mesh.n_triangles, 7)),
        "vertex": lp.Collocation.vertices(mesh, np.arange(0, mesh.n_vertices, 4)),
        "free": lp.Collocation.free(free),
    }


def _surface_factor(nodes, normals):
    # A smooth factor that reads both the nodes and their panel normals.
    return 1.0 + 0.3 * np.einsum("...j,...j->...", normals, nodes) + 0.1 * nodes[..., 0]


def _engine_matches(engine, reference):
    assert engine.shape == reference.shape
    assert np.max(np.abs(engine - reference)) <= 1e-13 * np.max(np.abs(reference))


def _double_rows_with_factor(mesh, space, colloc, factor):
    # The public double layer takes no factor; the engine folds one into
    # any term at its nodes, also under the double layer's skip rule.
    term = lp._Term(lp.double_layer_kernel, factor, "skip", space)
    return lp._surface_rows(mesh, colloc, [term])[0]


@pytest.mark.parametrize("factor", [None, _surface_factor], ids=["plain", "factor"])
@pytest.mark.parametrize("where", ["centroid", "vertex", "free"])
@pytest.mark.parametrize("space", [None, lp.SPACE_TRIANGLE, lp.SPACE_VERTEX],
                         ids=["values", "triangle", "vertex"])
@pytest.mark.parametrize("layer", ["single", "double"])
def test_engine_matches_per_pair_reference(level1_targets, layer, space, where, factor):
    mesh, targets = level1_targets
    colloc = targets[where]
    density = None
    if space is None:
        density = lp.BoundaryDensity(lp.SPACE_VERTEX,
                                     np.cos(3.0 * mesh.vertices[:, 0]) + mesh.vertices[:, 2])
    if layer == "double" and factor is not None:
        rows = _double_rows_with_factor(mesh, space or density.space_tag, colloc, factor)
        engine = rows if space is not None else lp.apply_rows(rows, density.values)
    elif space is None:
        engine = (lp.single_layer(mesh, density, colloc, factor=factor) if layer == "single"
                  else lp.double_layer(mesh, density, colloc))
    else:
        engine = (lp.single_layer_matrix(mesh, space, colloc, factor=factor)
                  if layer == "single" else lp.double_layer_matrix(mesh, space, colloc))
    _engine_matches(engine, _reference_rows(mesh, layer, colloc, space, density, factor))


@pytest.mark.parametrize("where", ["centroid", "vertex", "free"])
def test_engine_matches_reference_for_restricted_densities(level1_targets, where):
    mesh, targets = level1_targets
    colloc = targets[where]
    on_d = mesh.part_label == geo.PART_DIRICHLET
    restricted = lp.BoundaryDensity(lp.SPACE_TRIANGLE,
                                    np.where(on_d, 1.0 + mesh.centroids[:, 1], 0.0))
    _engine_matches(lp.single_layer(mesh, restricted, colloc),
                    _reference_rows(mesh, "single", colloc, density=restricted,
                                    support=on_d))


def test_engine_evaluates_the_factor_at_the_nodes_it_uses():
    # The factor is folded into the far weights of every panel, and into
    # the near weights of a depth only of the panels a target comes near at
    # that depth.
    mesh = geo.partition_boundary(geo.build_icosphere(3))
    n_far = quad.gauss_triangle(quad.FAR_ORDER)[1].size
    n_near = {k: quad.subdivided_triangle_rule(quad.NEAR_ORDER, k)[1].size
              for k in range(1, quad.SUBDIVISION_LEVELS + 1)}
    seen = []

    def factor(nodes, normals):
        seen.append(nodes[..., 0].size)
        return np.ones(nodes.shape[:-1])

    def points_for(density, target):
        seen.clear()
        lp.single_layer(mesh, density, target[None], factor=factor)
        return sum(seen)

    ones = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(mesh.n_triangles))
    assert points_for(ones, np.array([5.0, 0.0, 0.0])) == mesh.n_triangles * n_far
    target = 1.05 * mesh.centroids[0]
    depth = quad.near_depth(quad.point_triangle_distance(target, mesh.corners()),
                            mesh.diameters)
    near = points_for(ones, target) - mesh.n_triangles * n_far
    assert near == sum(n_near[k] * np.count_nonzero(depth == k) for k in n_near)
    assert 0 < near <= mesh.n_triangles // 10 * n_near[quad.SUBDIVISION_LEVELS]
    assert all(np.any(depth == k) for k in n_near)


# --- one pass for several terms ------------------------------------------------


def _custom_kernel(nodes, normals, targets):
    # A kernel of the nodes, not of the offsets alone: it takes its own path.
    return (1.0 + 0.1 * nodes[..., 2]) / (FOUR_PI * np.linalg.norm(nodes - targets, axis=-1))


def _mixed_terms():
    """Single and double layers into triangle and vertex columns, with and
    without a factor, and a custom kernel; several single-layer terms share
    their kernel."""
    return [
        lp._single_term(lp.SPACE_TRIANGLE, _surface_factor),
        lp._double_term(lp.SPACE_VERTEX),
        lp._single_term(lp.SPACE_VERTEX, _surface_factor),
        lp._single_term(lp.SPACE_VERTEX),
        lp._Term(lp.double_layer_kernel, _surface_factor, "skip", lp.SPACE_TRIANGLE),
        lp._single_term(lp.SPACE_TRIANGLE),
        lp._Term(_custom_kernel, None, "duffy", lp.SPACE_VERTEX),
    ]


@pytest.mark.parametrize("where", ["centroid", "vertex", "free", "mixed"])
def test_multi_term_outputs_equal_one_term_calls(level1_targets, where, monkeypatch):
    # Small blocks and batches, so that a call crosses their boundaries.
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 5 * 80 * 6)
    monkeypatch.setattr(lp, "NEAR_BATCH_NODES", 7 * 96)
    mesh, targets = level1_targets
    colloc = (lp.Collocation.concat([targets["vertex"], targets["free"], targets["centroid"]])
              if where == "mixed" else targets[where])
    terms = _mixed_terms()
    together = lp._surface_rows(mesh, colloc, terms)
    assert len(together) == len(terms)
    for term, out in zip(terms, together):
        assert np.array_equal(out, lp._surface_rows(mesh, colloc, [term])[0])


def test_surface_rows_over_chunk_aligned_slices_have_the_bits_of_one_call():
    # A chunk of targets is classified and its near and Duffy pairs added at
    # once, so rows depend on the chunk a target falls in; calls over
    # slices of whole chunks give the rows of one call, bit for bit, which
    # apply_rows_in_blocks relies on.  Level 2: far blocks of 17 targets,
    # chunks of 6 blocks.
    mesh = geo.partition_boundary(geo.build_icosphere(2))
    block, chunk = lp._surface_blocks(lp._panel_cache(mesh))
    assert (block, chunk) == (17, 102)
    rng = np.random.default_rng(5)
    d = rng.normal(size=(90, 3))
    radii = np.concatenate([rng.uniform(1.02, 1.3, 60), rng.uniform(0.5, 0.95, 30)])
    free = lp.Collocation.free(d / np.linalg.norm(d, axis=1, keepdims=True) * radii[:, None])
    parts = lp.Collocation.concat([lp.Collocation.centroids(mesh, np.arange(0, 320, 3)),
                                   lp.Collocation.vertices(mesh, np.arange(0, 162, 2)), free])
    order = rng.permutation(parts.n)
    colloc = lp.Collocation(parts.points[order], [parts.kinds[i] for i in order],
                            parts.indices[order])
    assert 2 * chunk < colloc.n < 3 * chunk
    terms = _mixed_terms()
    whole = lp._surface_rows(mesh, colloc, terms)
    sliced = [lp._surface_rows(mesh, colloc.take(slice(lo, lo + chunk)), terms)
              for lo in range(0, colloc.n, chunk)]
    for t, rows in enumerate(whole):
        assert np.array_equal(rows, np.concatenate([part[t] for part in sliced]))


def test_multi_term_call_refuses_bad_targets(level1_targets):
    mesh, _ = level1_targets
    terms = _mixed_terms()
    with pytest.raises(ValueError, match="lies on panel 5"):
        lp._surface_rows(mesh, lp.Collocation.free(mesh.centroids[[5]]), terms)
    # Registered to panel 5 and inside it, but neither its centroid nor a vertex.
    inside = 0.8 * mesh.centroids[5] + 0.2 * mesh.corners()[5, 0]
    unregistered = lp.Collocation(inside[None], [lp.KIND_CENTROID], np.array([5]))
    with pytest.raises(ValueError, match="neither a vertex nor the centroid"):
        lp._surface_rows(mesh, unregistered, terms)


def test_engine_refuses_an_unknown_space(level1_targets):
    mesh, targets = level1_targets
    for space in (None, "vertex-quadratic"):
        with pytest.raises(ValueError, match="unknown space"):
            lp._surface_rows(mesh, targets["free"], [lp._single_term(space)])
