"""Variable-coefficient operators built by rescaling the Laplace core.

Frozen reference values come from closed-form sphere and radial-shell
oracles evaluated with the built-in Gaussian coefficient a(x) = 1 + e^{-|x|^2}
(on the unit sphere a = 1 + e^{-1} and dn ln a = 2e^{-1}/(1+e^{-1}) with the
normal pointing toward the origin).
"""

import warnings

import numpy as np
import pytest

from bdie import cases
from bdie import coefficients as co
from bdie import geometry as geo
from bdie import laplace as lp
from bdie import parametrix as px
from bdie import system as sy

FOUR_PI = 4.0 * np.pi
DN_LN_A_SPHERE = 2.0 * np.exp(-1.0) / (1.0 + np.exp(-1.0))


@pytest.fixture(scope="module")
def unit_field():
    return co.constant_coefficient()


@pytest.fixture(scope="module")
def two_field():
    return co.constant_coefficient(2.0)


@pytest.fixture(scope="module")
def gauss_field():
    return co.gaussian_coefficient()


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.fixture(scope="module")
def ones_tc(sphere3):
    return lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(sphere3.n_triangles))


@pytest.fixture(scope="module")
def ones_vl(sphere3):
    return lp.BoundaryDensity(lp.SPACE_VERTEX, np.ones(sphere3.n_vertices))


@pytest.fixture(scope="module")
def shell12():
    return geo.build_shell_mesh(outer_radius=2.0, n_radial=6, angular_level=2)


@pytest.fixture(scope="module")
def shell14():
    return geo.build_shell_mesh(outer_radius=4.0, n_radial=8, angular_level=2)


# --- kernels -----------------------------------------------------------------

def test_scaled_kernel_divides_by_coefficient_at_source(two_field):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([1.0, 0.0, 2.0])
    assert px.kernel_P(two_field, x, y) == pytest.approx(-1.0 / (16.0 * np.pi), rel=1e-12)


def test_scaled_kernel_gaussian_surface_source(gauss_field):
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([1.0, 0.0, 2.0])
    expected = -1.0 / (8.0 * np.pi * (1.0 + np.exp(-1.0)))
    assert px.kernel_P(gauss_field, x, y) == pytest.approx(expected, rel=1e-12)


def test_scaled_kernel_reduces_for_unit_coefficient(unit_field):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    y = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(px.kernel_P(unit_field, x, y),
                          lp.fundamental_solution(x, y))


def test_remainder_kernel_vanishes_for_constant(two_field):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    y = np.array([0.0, 0.0, 3.0])
    assert np.array_equal(px.kernel_R(two_field, x, y), np.zeros(4))


def test_remainder_kernel_matches_operator_applied_to_scaled_kernel(gauss_field):
    # div(a grad_x P(x, y)) away from the diagonal, via central differences
    x = np.array([1.2, 0.3, 0.5])
    y = np.array([0.0, 0.0, 3.0])
    h = 1e-4
    eye = np.eye(3)

    def P(pts):
        return px.kernel_P(gauss_field, pts, y)

    lap = sum((P(x + h * eye[i]) - 2.0 * P(x) + P(x - h * eye[i])) / h**2
              for i in range(3))
    grad = np.array([(P(x + h * eye[i]) - P(x - h * eye[i])) / (2.0 * h)
                     for i in range(3)])
    a = gauss_field.eval_a(x)
    grad_a = a * gauss_field.eval_grad_ln_a(x)
    fd = a * lap + grad_a @ grad
    assert px.kernel_R(gauss_field, x, y) == pytest.approx(fd, rel=1e-5)


def test_remainder_kernel_decays_with_source_radius(gauss_field):
    y = np.array([0.0, 0.0, 5.0])
    near = px.kernel_R(gauss_field, np.array([1.2, 0.0, 0.0]), y)
    far = px.kernel_R(gauss_field, np.array([3.5, 0.0, 0.0]), y)
    assert abs(far) < 1e-3 * abs(near)


# --- rescaled single layer ---------------------------------------------------

def test_single_layer_unit_coefficient_bitwise(sphere3, unit_field):
    rng = np.random.default_rng(21)
    dens = lp.BoundaryDensity(lp.SPACE_TRIANGLE, rng.normal(size=sphere3.n_triangles))
    targets = np.array([[0.0, 0.0, 2.0], [1.5, 0.2, -0.3]])
    assert np.array_equal(px.op_V(sphere3, unit_field, dens, targets),
                          lp.single_layer(sphere3, dens, targets))


def test_single_layer_constant_two_value(sphere3, two_field, ones_tc):
    target = np.array([[2.0, 0.0, 0.0]])
    val = px.op_V(sphere3, two_field, ones_tc, target)[0]
    assert val == pytest.approx(0.25, rel=1e-2)


def test_single_layer_matches_direct_kernel_quadrature(sphere3, gauss_field, ones_tc):
    targets = np.array([[0.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
    rel = px.op_V(sphere3, gauss_field, ones_tc, targets)
    ker = px.op_V_by_kernel(sphere3, gauss_field, ones_tc, targets)
    assert np.abs(rel - ker).max() <= 1e-10


def test_direct_single_layer_near_one_on_surface(sphere3, unit_field, ones_tc):
    cent = lp.Collocation.centroids(sphere3, np.arange(sphere3.n_triangles))
    vals = px.op_V(sphere3, unit_field, ones_tc, cent)
    assert np.abs(vals - 1.0).max() < 0.02
    verts = lp.Collocation.vertices(sphere3, np.arange(sphere3.n_vertices))
    vals = px.op_V(sphere3, unit_field, ones_tc, verts)
    assert np.abs(vals - 1.0).max() < 0.02


def test_direct_single_layer_halves_for_constant_two(sphere3, unit_field,
                                                     two_field, ones_tc):
    cent = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 37))
    one = px.op_V(sphere3, unit_field, ones_tc, cent)
    two = px.op_V(sphere3, two_field, ones_tc, cent)
    assert np.abs(two - 0.5 * one).max() <= 1e-12


# --- rescaled double layer ---------------------------------------------------

def test_layer_operators_refuse_callable_densities(sphere3, gauss_field):
    target = np.array([[0.0, 0.0, 2.0]])
    for op in (px.op_V, px.op_W):
        with pytest.raises(TypeError, match="BoundaryDensity"):
            op(sphere3, gauss_field, lambda nodes: np.ones(nodes.shape[:-1]), target)


_LENGTH_CHECKED = {
    "single_layer": lambda m, f, d, c: lp.single_layer(m, d, 2.0 * c.points),
    "double_layer": lambda m, f, d, c: lp.double_layer(m, d, c),
    "op_V": lambda m, f, d, c: px.op_V(m, f, d, c),
    "op_W": lambda m, f, d, c: px.op_W(m, f, d, 2.0 * c.points),
    "op_V_by_kernel": lambda m, f, d, c: px.op_V_by_kernel(m, f, d, c),
    "op_Wprime_offset": lambda m, f, d, c: px.op_Wprime_offset(m, f, d, c, 0.05),
    "op_Lhat_offset": lambda m, f, d, c: px.op_Lhat_offset(m, f, d, c, 0.05),
}


@pytest.mark.parametrize("space", [lp.SPACE_TRIANGLE, lp.SPACE_VERTEX])
@pytest.mark.parametrize("too_many", [False, True])
@pytest.mark.parametrize("entry", sorted(_LENGTH_CHECKED))
def test_surface_operators_refuse_a_density_of_the_wrong_length(gauss_field, entry, too_many,
                                                                space):
    # One coefficient (which would broadcast) or one too many, at
    # registered targets on the level-1 sphere and free ones off it.
    mesh = geo.build_icosphere(1)
    n, unit = ((mesh.n_triangles, "triangle") if space == lp.SPACE_TRIANGLE
               else (mesh.n_vertices, "vertex"))
    given = n + 1 if too_many else 1
    density = lp.BoundaryDensity(space, np.ones(given))
    colloc = lp.Collocation.centroids(mesh, [0, 7])
    with pytest.raises(ValueError, match=rf"needs {n} coefficients \(one per {unit}\), "
                                         rf"got shape \({given},\)"):
        _LENGTH_CHECKED[entry](mesh, gauss_field, density, colloc)


def test_double_layer_unit_coefficient_bitwise(sphere3, unit_field):
    rng = np.random.default_rng(22)
    dens = lp.BoundaryDensity(lp.SPACE_VERTEX, rng.normal(size=sphere3.n_vertices))
    targets = np.array([[0.0, 0.0, 2.0], [0.3, 0.1, 0.2]])
    assert np.array_equal(px.op_W(sphere3, unit_field, dens, targets),
                          lp.double_layer(sphere3, dens, targets))


def test_double_layer_gaussian_axis_value(sphere3, gauss_field, ones_vl):
    # exterior Laplace double layer of 1 vanishes, leaving the single layer
    # of dn ln a, which is constant on the sphere: value -0.53788/3
    target = np.array([[3.0, 0.0, 0.0]])
    val = px.op_W(sphere3, gauss_field, ones_vl, target)[0]
    assert val == pytest.approx(-DN_LN_A_SPHERE / 3.0, rel=2e-2)


def test_double_layer_density_linearity(sphere3, gauss_field, ones_vl):
    target = np.array([[0.0, 0.0, 2.5]])
    scaled = lp.BoundaryDensity(lp.SPACE_VERTEX, 1.7 * ones_vl.values)
    a = px.op_W(sphere3, gauss_field, scaled, target)[0]
    b = px.op_W(sphere3, gauss_field, ones_vl, target)[0]
    assert a == pytest.approx(1.7 * b, rel=1e-12)


def test_direct_double_layer_half_on_surface(sphere3, unit_field, ones_vl):
    cent = lp.Collocation.centroids(sphere3, np.arange(sphere3.n_triangles))
    vals = px.op_W(sphere3, unit_field, ones_vl, cent)
    assert np.abs(vals - 0.5).max() < 0.01


# --- rescaled Newton potential -----------------------------------------------

def test_newton_unit_coefficient_bitwise(shell12, unit_field):
    rng = np.random.default_rng(23)
    dens = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    assert np.array_equal(px.op_P(shell12, unit_field, dens, targets),
                          lp.newton_potential(shell12, dens, targets))


def test_newton_of_coefficient_itself(shell12, gauss_field):
    # f = a makes the rescaled density one; radial closed form gives -3/2
    f = lp.DomainDensity(gauss_field.eval_a(shell12.centers))
    val = px.op_P(shell12, gauss_field, f, np.zeros((1, 3)))[0]
    assert val == pytest.approx(-1.5, rel=1e-2)


def test_newton_zero_density(shell12, gauss_field):
    f = lp.DomainDensity(np.zeros(shell12.n_cells))
    assert np.array_equal(px.op_P(shell12, gauss_field, f, np.zeros((1, 3))),
                          np.zeros(1))


def test_newton_matches_direct_kernel_quadrature(shell12, gauss_field):
    rng = np.random.default_rng(24)
    f = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    rel = px.op_P(shell12, gauss_field, f, targets)
    ker = px.op_P_by_kernel(shell12, gauss_field, f, targets)
    assert np.abs(rel - ker).max() <= 1e-10


# --- remainder operator ------------------------------------------------------

def test_remainder_vanishes_for_constant(shell14, two_field):
    rng = np.random.default_rng(25)
    u = lp.DomainDensity(rng.normal(size=shell14.n_cells))
    targets = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.array_equal(px.op_R(shell14, two_field, u, targets), np.zeros(2))


def test_remainder_divergence_form_agreement(shell14, gauss_field):
    # smooth density, targets at least 0.5 away from the support edge
    u = lp.DomainDensity(1.0 / np.linalg.norm(shell14.centers, axis=1))
    targets = np.array([[0.0, 0.0, 0.4], [5.0, 0.0, 0.0], [0.0, 4.8, 0.0]])
    kern = px.op_R(shell14, gauss_field, u, targets)
    dual = px.op_R_divergence_form(shell14, gauss_field, u, targets)
    rel = np.abs(kern - dual) / np.abs(dual)
    assert rel.max() <= 1e-3


def test_remainder_constant_density_self_convergence(shell14, gauss_field):
    target = np.array([[0.0, 0.0, 2.0]])
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    coarse = px.op_R(shell14, gauss_field, u, target)[0]
    fine_mesh = geo.build_shell_mesh(outer_radius=4.0, n_radial=8, angular_level=2,
                                     radial_order=4, triangle_order=6)
    u_fine = lp.DomainDensity(np.ones(fine_mesh.n_cells))
    fine = px.op_R(fine_mesh, gauss_field, u_fine, target)[0]
    assert coarse == pytest.approx(fine, rel=3e-2)


def test_remainder_density_linearity(shell14, gauss_field):
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    scaled = lp.DomainDensity(1.7 * u.values)
    target = np.array([[0.0, 0.0, 2.0]])
    a = px.op_R(shell14, gauss_field, scaled, target)[0]
    b = px.op_R(shell14, gauss_field, u, target)[0]
    assert a == pytest.approx(1.7 * b, rel=1e-12)


@pytest.mark.parametrize("where", ["centers", "boundary"])
def test_remainder_values_match_matrix(shell14, gauss_field, sphere3, where):
    rng = np.random.default_rng(26)
    v = rng.normal(size=shell14.n_cells)
    targets = (shell14.centers if where == "centers"
               else lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 5)))
    values = px.op_R(shell14, gauss_field, lp.DomainDensity(v), targets)
    matrix = px.op_R_matrix(shell14, gauss_field, targets)
    assert np.abs(values - matrix @ v).max() <= 1e-12 * np.abs(values).max()


def test_volume_values_on_a_node_are_finite(shell14, gauss_field, monkeypatch):
    # The exclusion ball drops the node under the target; its kernel value
    # (1/0) must neither leak into the sum, nor into the other rows of its
    # block of targets, nor warn.
    node = shell14.all_nodes()[1234][None]
    cell = 1234 // shell14.n_nodes_per_cell
    block = np.concatenate([shell14.centers[cell:cell + 1], node,
                            shell14.centers[cell + 1:cell + 2]])
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 3 * shell14.all_weights().size)
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    ops = [lambda t: px.op_R(shell14, gauss_field, u, t),
           lambda t: px.op_R_matrix(shell14, gauss_field, t),
           lambda t: lp.newton_potential(shell14, u, t),
           lambda t: lp.newton_potential_matrix(shell14, t)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        on_node = [op(node) for op in ops]
        in_block = [op(block) for op in ops]
    assert all(np.isfinite(v).all() for v in on_node + in_block)
    # The free rows match their one-target results bit for bit.
    for op, rows in zip(ops, in_block):
        for row, alone in ((rows[0], op(block[:1])[0]), (rows[2], op(block[2:])[0])):
            assert np.array_equal(row, alone)


def test_volume_values_do_not_depend_on_the_block(shell14, gauss_field, monkeypatch):
    # A cell centre's value has the same bits alone and inside a block of
    # three targets: each row is reduced by its own pairwise sum.
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 3 * shell14.all_weights().size)
    u = lp.DomainDensity(np.ones(shell14.n_cells))
    block = shell14.centers[40:43]
    ops = [lambda t: px.op_R(shell14, gauss_field, u, t),
           lambda t: px.op_P(shell14, gauss_field, u, t),
           lambda t: lp.newton_potential(shell14, u, t)]
    for op in ops:
        together = op(block)
        for k in range(3):
            assert np.array_equal(op(block[k:k + 1]), together[k:k + 1])


@pytest.mark.parametrize("block_pairs", [None, 3])
def test_kept_near_set_gives_the_bits_of_a_measured_pass(shell14, sphere3, gauss_field,
                                                         monkeypatch, block_pairs):
    # P f, Newton rows and the remainder's rows and values on a measured
    # target set have the bits of a pass that measures its own, also when
    # the set was measured in other chunks and batches; a node under a
    # target is dropped either way.
    node = shell14.all_nodes()[1234][None]
    targets = np.concatenate([shell14.centers[::97], node, sphere3.centroids[::70]])
    volume = px._VolumeTargets(shell14, gauss_field, targets)
    near = lp._near_set(shell14, targets)
    assert np.isinf(near.dist).any()
    if block_pairs is not None:
        monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", block_pairs * shell14.far_weights.size)
    rng = np.random.default_rng(32)
    cells = lp.DomainDensity(rng.normal(size=shell14.n_cells))
    for f in (cells, lambda x: np.exp(-(x * x).sum(axis=-1))):
        assert np.array_equal(volume.P(f), px.op_P(shell14, gauss_field, f, targets))
    weights = lp._cell_cache(shell14).weights
    rows = lp._VolumeTerm(lp._newton_weights(shell14, weights), rows=True)
    assert np.array_equal(lp._volume_rows(shell14, near, rows),
                          lp.newton_potential_matrix(shell14, targets))
    assert np.array_equal(volume.R(), px.op_R_matrix(shell14, gauss_field, targets))
    u = lp.DomainDensity(rng.normal(size=shell14.n_cells))
    assert np.array_equal(px.op_R(shell14, gauss_field, u, volume.near),
                          px.op_R(shell14, gauss_field, u, targets))


def test_a_target_set_keeps_its_own_points(shell14, gauss_field):
    # The target set and its near set copy the points they are given:
    # overwriting the caller's array afterwards changes neither the R rows
    # nor P f, whether the near set was measured before or after.
    targets = np.concatenate([shell14.centers[::61], [[0.0, 0.3, 1.7], [2.2, 0.0, 0.4]]])
    f = lambda x: np.exp(-(x * x).sum(axis=-1))
    want_R = px.op_R_matrix(shell14, gauss_field, targets)
    want_P = px.op_P(shell14, gauss_field, f, targets)
    points = targets.copy()
    measured = px._VolumeTargets(shell14, gauss_field, points)
    near = measured.near
    lazy = px._VolumeTargets(shell14, gauss_field, points)
    points *= 1.3
    for volume in (measured, lazy):
        assert np.array_equal(volume.R(), want_R)
        assert np.array_equal(volume.P(f), want_P)
    assert np.array_equal(near.points, targets)
    term = lp._VolumeTerm(lp._newton_weights(shell14, lp._cell_cache(shell14).weights, f))
    assert np.array_equal(lp._volume_rows(shell14, near, term),
                          lp.newton_potential(shell14, f, targets))


def test_remainder_matrix_matches_kernel_loop_at_level_1(gauss_field):
    surf, vol = cases.level_meshes(1)
    targets = np.concatenate([vol.centers, sy.boundary_collocation(surf).points])
    got = px.op_R_matrix(vol, gauss_field, targets)
    want = _volume_reference(vol, gauss_field, "remainder", targets)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _volume_reference(volmesh, field, kind, targets, density=None, all_near=False):
    """A plain loop over targets: the volume integral of the Newton or
    remainder kernel, as values of a density (cell values or a callable of
    points) or, without one, as per-cell rows.  Each target integrates its
    far cells with the far table and its near cells (lp._near_cells, the
    engine's one classification) with the mesh's own rule and the exclusion
    ball; with ``all_near``, every cell takes the mesh's own rule."""
    n_c = volmesh.n_cells
    excl = lp.exclusion_radii(volmesh)
    rows = []
    for t in targets:
        near = np.ones(n_c, dtype=bool) if all_near else lp._near_cells(volmesh, t)[0]
        row = np.zeros(n_c)
        for cells, nodes, wts, radius in (
                (~near, volmesh.far_nodes, volmesh.far_weights, np.zeros(n_c)),
                (near, volmesh.nodes, volmesh.node_weights, excl)):
            q = nodes.shape[1]
            x = nodes[cells].reshape(-1, 3)
            w = wts[cells].ravel()
            cell = np.repeat(np.flatnonzero(cells), q)
            keep = np.linalg.norm(x - t, axis=1) > np.repeat(radius[cells], q)
            x, w, cell = x[keep], w[keep], cell[keep]
            k = lp.fundamental_solution(x, t) if kind == "newton" else px.kernel_R(field, x, t)
            if density is not None:
                w = w * (density(x) if callable(density) else density[cell])
            row += np.bincount(cell, w * k, minlength=n_c)
        rows.append(row if density is None else row.sum())
    return np.array(rows)


@pytest.mark.parametrize("where", ["centers", "boundary"])
@pytest.mark.parametrize("output", ["values", "matrix"])
@pytest.mark.parametrize("kind", ["newton", "remainder"])
def test_volume_engine_matches_per_target_reference(shell14, gauss_field, sphere3,
                                                    monkeypatch, kind, output, where):
    # Blocks of three targets: the 20 centres and 16 centroids end in a
    # partial block; most centroids have volume nodes inside their balls.
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 3 * shell14.far_weights.size + 1)
    targets = shell14.centers[::128] if where == "centers" else sphere3.centroids[::80]
    v = np.random.default_rng(6).normal(size=shell14.n_cells)
    u = lp.DomainDensity(v)
    got = {
        ("newton", "values"): lambda: lp.newton_potential(shell14, u, targets),
        ("newton", "matrix"): lambda: lp.newton_potential_matrix(shell14, targets),
        ("remainder", "values"): lambda: px.op_R(shell14, gauss_field, u, targets),
        ("remainder", "matrix"): lambda: px.op_R_matrix(shell14, gauss_field, targets),
    }[kind, output]()
    want = _volume_reference(shell14, gauss_field, kind, targets,
                             v if output == "values" else None)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


# --- far and near target-cell pairs ---------------------------------------------

@pytest.fixture(scope="module")
def level_volumes():
    return {level: cases.level_meshes(level) for level in (1, 2, 3)}


@pytest.mark.parametrize("level", [2, 3])
def test_far_table_moves_point_source_integrals_by_under_1e4(level_volumes, gauss_field,
                                                              level):
    # R u and P f of the exact point-source field at boundary collocation
    # points (a subsample at level 3): the engine is the far/near split,
    # and it is within 1e-4 of max |u| on the sphere of the mesh's own
    # rule on every cell.
    surf, vol = level_volumes[level]
    case = cases.point_source_case(gauss_field)
    targets = sy.boundary_collocation(surf).points[::1 if level == 2 else 10]
    near = lp._near_cells(vol, targets)
    assert 0.0 < near.mean() < 0.15
    scale = np.abs(case.exact.u(surf.vertices)).max()
    r_u = px.op_R(vol, gauss_field, case.exact.u, targets)
    p_f = px.op_P(vol, gauss_field, case.f, targets)
    f_over_a = lambda x: case.f(x) / gauss_field.eval_a(x)
    for got, kind, density in ((r_u, "remainder", case.exact.u), (p_f, "newton", f_over_a)):
        split = _volume_reference(vol, gauss_field, kind, targets, density)
        assert np.abs(got - split).max() <= 1e-13 * np.abs(split).max()
        all_near = _volume_reference(vol, gauss_field, kind, targets, density, all_near=True)
        assert np.abs(got - all_near).max() <= 1e-4 * scale


def test_split_volume_pass_does_not_depend_on_the_block(level_volumes, gauss_field,
                                                        monkeypatch):
    # On an 18-node mesh the far and near tables differ.  R rows, R u and
    # P f in blocks of three targets have the bits of one-target blocks.
    surf, vol = level_volumes[1]
    assert vol.far_nodes.shape[1] == 6 and vol.n_nodes_per_cell == 18
    targets = np.concatenate([vol.centers[::3], sy.boundary_collocation(surf).points[::4]])
    near = lp._near_cells(vol, targets)
    assert near.any(axis=1).all() and (~near).any(axis=1).all()
    case = cases.point_source_case(gauss_field)
    u = lp.DomainDensity(case.exact.u(vol.centers))
    passes = {}
    for per_block in (3, 1):
        monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", per_block * vol.far_weights.size)
        passes[per_block] = (px.op_R_matrix(vol, gauss_field, targets),
                             px.op_R(vol, gauss_field, u, targets),
                             px.op_P(vol, gauss_field, case.f, targets))
    for three, one in zip(passes[3], passes[1]):
        assert np.array_equal(three, one)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_far_pairs_have_no_node_inside_the_exclusion_ball(level_volumes, level):
    # Far pairs take no exclusion mask: at the cell centres, the boundary
    # collocation points and volume nodes (a sample at levels 2-3), no
    # far-table node of a far pair lies within its cell's exclusion radius
    # of the target.
    surf, vol = level_volumes[level]
    targets = np.concatenate([vol.centers, sy.boundary_collocation(surf).points,
                              vol.all_nodes()[::{1: 1, 2: 4, 3: 40}[level]]])
    excl2 = np.broadcast_to(lp.exclusion_radii(vol) ** 2, (64, vol.n_cells))
    for start in range(0, len(targets), 64):
        y = targets[start:start + 64]
        far = ~lp._near_cells(vol, y)
        d2 = sum((vol.far_nodes[None, :, :, k] - y[:, None, None, k]) ** 2
                 for k in range(3)).min(axis=2)
        assert np.all(d2[far] > excl2[:len(y)][far])


@pytest.mark.parametrize("level", [1, 2])
def test_far_distances_from_the_product_are_within_16_eps(level_volumes, level):
    """The far blocks' r = |x - y|, from one matrix product of augmented
    targets and nodes (|y|^2 - 2 x . y + |x|^2), against the direct form
    at the cell centres and collocation points, far pairs only.  Measured:
    1.8 eps at level 1, 5.9 at level 2 and 23.4 at level 3 (relative)."""
    surf, vol = level_volumes[level]
    cache = lp._cell_cache(vol)
    targets = np.concatenate([vol.centers, sy.boundary_collocation(surf).points])
    worst = 0.0
    for start in range(0, len(targets), 16):
        y = targets[start:start + 16]
        with np.errstate(invalid="ignore"):
            r = lp._far_distances(cache, lp._augmented(y),
                                  np.empty((len(y),) + cache.weights.far.shape))
        direct = np.sqrt(sum((cache.nodes.far[k] - y[:, k, None, None]) ** 2 for k in range(3)))
        far = np.broadcast_to(~lp._near_cells(vol, y)[:, None, :], r.shape)
        worst = max(worst, (np.abs(r - direct) / direct)[far].max())
    assert worst <= 16 * np.finfo(float).eps


def test_a_one_target_far_block_has_the_bits_of_a_larger_block(level_volumes, gauss_field):
    # The last far block of a level-2 pass over block + 1 targets holds one
    # target, whose product numpy would compute by gemv.  op_P, op_R and
    # op_R_matrix there have the bits of the same targets two at a time.
    surf, vol = level_volumes[2]
    block, _, _ = lp._volume_blocks(lp._cell_cache(vol))
    targets = np.concatenate([vol.centers[::37], sy.boundary_collocation(surf).points[::13]])
    targets = targets[:block + 1]
    assert block > 1 and len(targets) == block + 1
    case = cases.point_source_case(gauss_field)
    u = lp.DomainDensity(case.exact.u(vol.centers))
    ops = [lambda t: px.op_P(vol, gauss_field, case.f, t),
           lambda t: px.op_R(vol, gauss_field, u, t),
           lambda t: px.op_R_matrix(vol, gauss_field, t)]
    for op in ops:
        pairs = np.concatenate([op(targets[k:k + 2]) for k in range(0, len(targets), 2)])
        assert np.array_equal(op(targets), pairs)


def test_remainder_rows_on_a_measured_set_measure_no_distance(level_volumes, gauss_field,
                                                              monkeypatch):
    # Far blocks take r from the matrix product and near batches from the
    # set: after the near set is measured, R rows call _squared_distances
    # for no near batch and no far block.
    surf, vol = level_volumes[1]
    targets = np.concatenate([vol.centers, sy.boundary_collocation(surf).points])
    volume = px._VolumeTargets(vol, gauss_field, targets)
    assert len(volume.near.rows) > 0
    calls = []
    measure = lp._squared_distances

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return measure(*args, **kwargs)

    monkeypatch.setattr(lp, "_squared_distances", counted)
    rows = volume.R()
    assert calls == []
    monkeypatch.setattr(lp, "_squared_distances", measure)
    assert np.array_equal(rows, px.op_R_matrix(vol, gauss_field, targets))


def test_a_volume_value_is_the_sum_of_its_row(level_volumes, gauss_field):
    # A values pass builds each target's row as the rows pass does, far
    # sums overwritten by near sums, and stores its pairwise sum: at the
    # level-2 cell centres and collocation points the values of the unit
    # density are the row sums of the matrices, bit for bit.
    surf, vol = level_volumes[2]
    targets = np.concatenate([vol.centers, sy.boundary_collocation(surf).points])
    ones = lp.DomainDensity(np.ones(vol.n_cells))
    assert np.array_equal(lp.newton_potential(vol, ones, targets),
                          lp.newton_potential_matrix(vol, targets).sum(axis=1))
    assert np.array_equal(px.op_R(vol, gauss_field, ones, targets),
                          px.op_R_matrix(vol, gauss_field, targets).sum(axis=1))


def test_surface_chunks_add_their_own_duffy_pairs(level_volumes, gauss_field, monkeypatch):
    # Each chunk maps and adds the Duffy pairs of its own targets: V, W and
    # the jump coefficients at the level-2 boundary collocation agree with
    # the default chunks of 102 targets and with chunks of 18 (far blocks
    # of 3).  A Duffy pair lost or added twice at a chunk boundary would
    # move its row by O(h).
    surf, _ = level_volumes[2]
    colloc = sy.boundary_collocation(surf)
    default = px._VW_matrices(surf, gauss_field, colloc)
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 3 * surf.n_triangles * 6)
    assert lp._surface_blocks(lp._panel_cache(surf)) == (3, 18)
    small = px._VW_matrices(surf, gauss_field, colloc)
    for want, got in zip(default, small):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_remainder_far_target_rows_decay(shell14, gauss_field):
    """Far-target rows of R decay like 1/|y|, with a known constant.

    R(x, y) = -[lap ln a P_lap + grad ln a . grad_x P_lap] decays fast in
    the source x but only like 1/|y| in the target, because the integral
    of lap ln a over |x| > 1 is 4 pi dn ln a|_S, not zero.  The row sums
    obey a closed law: R1 = -W1 (the third identity for u == 1), and with
    the exterior Laplace double layer of 1 vanishing, -W1 is the single
    layer of the constant dn ln a, which is DN_LN_A_SPHERE / |y| for
    |y| > 1.  A wrong sign, scale or rate of R breaks the law.
    """
    matrix = px.op_R_matrix(shell14, gauss_field, shell14.centers)
    radii = np.linalg.norm(shell14.centers, axis=1)
    far = radii >= 3.0
    assert far.any()
    # |y| (R1)(y) = dn ln a on the unit sphere, for every target |y| > 1
    law = radii[far] * matrix[far].sum(axis=1)
    assert np.abs(law / DN_LN_A_SPHERE - 1.0).max() <= 1e-3


# --- offset diagnostics ------------------------------------------------------

def test_adjoint_offset_extrapolation_stable(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    h = sphere3.diameters.max()
    v = {c: px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=c * h)
         for c in (0.2, 0.1, 0.05)}
    e1 = 2.0 * v[0.1] - v[0.2]
    e2 = 2.0 * v[0.05] - v[0.1]
    assert np.abs(e1 - 1.0).max() < 0.05
    assert np.abs(e1 - e2).max() < 0.05


def test_adjoint_offset_constant_two_equals_unit(sphere3, unit_field, two_field,
                                                 ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    one = px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=0.05)
    two = px.op_Wprime_offset(sphere3, two_field, ones_tc, colloc, offset=0.05)
    assert np.abs(two - one).max() <= 1e-14


def test_adjoint_offset_zero_density(sphere3, gauss_field):
    zero = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.zeros(sphere3.n_triangles))
    colloc = lp.Collocation.centroids(sphere3, np.array([0, 5]))
    vals = px.op_Wprime_offset(sphere3, gauss_field, zero, colloc, offset=0.1)
    assert np.array_equal(vals, np.zeros(2))


def test_adjoint_offset_requires_positive_offset(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.array([0]))
    with pytest.raises(ValueError):
        px.op_Wprime_offset(sphere3, unit_field, ones_tc, colloc, offset=0.0)


def test_hypersingular_offset_zero_density(sphere3, gauss_field):
    zero = lp.BoundaryDensity(lp.SPACE_VERTEX, np.zeros(sphere3.n_vertices))
    colloc = lp.Collocation.centroids(sphere3, np.array([0, 5]))
    vals = px.op_Lhat_offset(sphere3, gauss_field, zero, colloc, offset=0.1)
    assert np.array_equal(vals, np.zeros(2))


def test_hypersingular_reduces_for_unit_coefficient(sphere3, unit_field):
    phi = lp.BoundaryDensity(lp.SPACE_VERTEX, 1.0 + sphere3.vertices[:, 2])
    idx = np.arange(0, sphere3.n_triangles, 160)
    colloc = lp.Collocation.centroids(sphere3, idx)
    vals = px.op_Lhat_offset(sphere3, unit_field, phi, colloc, offset=0.1)
    ref = np.array([lp.normal_derivative(
        lambda t: lp.double_layer(sphere3, phi, t),
        colloc.points[i], sphere3.normals[tri], offset=0.1)
        for i, tri in enumerate(idx)])
    assert np.abs(vals - ref).max() <= 1e-14


def test_hypersingular_constants_extrapolate_small(sphere3, unit_field, ones_tc):
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 40))
    v = {d: px.op_Lhat_offset(sphere3, unit_field, ones_tc, colloc, offset=d)
         for d in (0.2, 0.1, 0.05)}
    extrap = (8.0 * v[0.05] - 6.0 * v[0.1] + v[0.2]) / 3.0
    assert np.abs(extrap).max() < 0.05


def _wprime_per_target(mesh, field, density, colloc, offset):
    # One engine call per target with its own normal-projected kernel.
    normals = px._target_normals(mesh, colloc)
    out = np.zeros(colloc.n)
    for i, (y, n_y) in enumerate(zip(colloc.points, normals)):
        kern = lambda nodes, panel_normals, ys, n_y=n_y: np.einsum(
            "j,...j->...", n_y, nodes - ys) / (
            FOUR_PI * np.linalg.norm(nodes - ys, axis=-1) ** 3)
        point = lp.Collocation.free((y - offset * n_y)[None])
        term = lp._Term(kern, px._inv_a(field), "duffy", density.space_tag)
        value = lp.apply_rows(lp._surface_rows(mesh, point, [term])[0], density.values)[0]
        out[i] = field.eval_a(y[None])[0] * value
    return out


def _lhat_per_target(mesh, field, density, colloc, offset):
    # Two-point stencils of the public layers, one target at a time.
    normals = px._target_normals(mesh, colloc)
    a_y = field.eval_a(colloc.points)
    out = np.zeros(colloc.n)
    for i in range(colloc.n):
        pot_w = lambda pts: lp.double_layer(mesh, density, pts)
        pot_v = lambda pts: lp.single_layer(mesh, density, pts, factor=px._dn_ln_a(field))
        out[i] = a_y[i] * (lp.normal_derivative(pot_w, colloc.points[i], normals[i], offset)
                           - lp.normal_derivative(pot_v, colloc.points[i], normals[i], offset))
    return out


@pytest.mark.parametrize("offset", [0.02, 0.1])
def test_offset_diagnostics_match_per_target_loop(sphere3, gauss_field, offset):
    """Both diagnostics evaluate all their offset points in one surface pass;
    a target's value does not depend on the others beyond rounding."""
    colloc = lp.Collocation.concat([
        lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 97)),
        lp.Collocation.vertices(sphere3, np.arange(0, sphere3.n_vertices, 61)),
    ])
    tc = lp.BoundaryDensity(lp.SPACE_TRIANGLE, 1.0 + 0.5 * sphere3.centroids[:, 0])
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, np.cos(2.0 * sphere3.vertices[:, 2]))
    for got, want in (
            (px.op_Wprime_offset(sphere3, gauss_field, tc, colloc, offset),
             _wprime_per_target(sphere3, gauss_field, tc, colloc, offset)),
            (px.op_Lhat_offset(sphere3, gauss_field, vl, colloc, offset),
             _lhat_per_target(sphere3, gauss_field, vl, colloc, offset))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# --- resource caps -----------------------------------------------------------

def test_caps_reject_oversized_counts():
    px.check_dense_caps(n_triangles=px.MAX_DENSE_TRIANGLES,
                        n_cells=px.MAX_DENSE_CELLS)
    with pytest.raises(px.ResourceLimitError):
        px.check_dense_caps(n_triangles=px.MAX_DENSE_TRIANGLES + 1)
    with pytest.raises(px.ResourceLimitError):
        px.check_dense_caps(n_cells=px.MAX_DENSE_CELLS + 1)


def test_surface_matrix_cap(gauss_field):
    big = geo.build_icosphere(4)
    target = np.zeros((1, 3))
    with pytest.raises(px.ResourceLimitError):
        px.op_V_matrix(big, gauss_field, lp.SPACE_TRIANGLE, target)
    with pytest.raises(px.ResourceLimitError):
        px.op_W_matrix(big, gauss_field, lp.SPACE_VERTEX, target)


def test_volume_matrix_cap(gauss_field):
    big = geo.build_shell_mesh(outer_radius=4.0, n_radial=13, angular_level=2)
    target = np.zeros((1, 3))
    with pytest.raises(px.ResourceLimitError):
        px.op_R_matrix(big, gauss_field, target)


# --- unit-coefficient reduction sweep ----------------------------------------

def test_unit_coefficient_reduction_sweep(sphere3, shell12, unit_field):
    rng = np.random.default_rng(30)
    tc = lp.BoundaryDensity(lp.SPACE_TRIANGLE, rng.normal(size=sphere3.n_triangles))
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, rng.normal(size=sphere3.n_vertices))
    f = lp.DomainDensity(rng.normal(size=shell12.n_cells))
    targets = np.array([[0.0, 0.0, 2.0], [2.5, 0.4, -0.1]])
    colloc = lp.Collocation.centroids(sphere3, np.arange(0, sphere3.n_triangles, 51))

    pairs = [
        (px.op_V(sphere3, unit_field, tc, targets),
         lp.single_layer(sphere3, tc, targets)),
        (px.op_W(sphere3, unit_field, vl, targets),
         lp.double_layer(sphere3, vl, targets)),
        (px.op_V(sphere3, unit_field, tc, colloc),
         lp.single_layer(sphere3, tc, colloc)),
        (px.op_W(sphere3, unit_field, vl, colloc),
         lp.double_layer(sphere3, vl, colloc)),
        (px.op_P(shell12, unit_field, f, targets),
         lp.newton_potential(shell12, f, targets)),
        (px.op_R(shell12, unit_field, f, targets), np.zeros(2)),
    ]
    for got, want in pairs:
        assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("target, fault", [
    ([[np.nan, 0.0, 2.0]], "not finite"),
    ([[np.inf, 0.0, 2.0]], "not finite"),
    ([[0.0, 2.0]], r"3-vectors, shape \(m, 3\); got shape \(1, 2\)"),
], ids=["nan", "inf", "shape-1x2"])
def test_operators_refuse_targets_that_are_not_finite_3_vectors(target, fault, gauss_field,
                                                                shell12):
    # Before, a nan target gave a nan row and a (1, 2) target a broadcast error.
    mesh = geo.build_icosphere(1)
    density = lp.BoundaryDensity(lp.SPACE_TRIANGLE, np.ones(mesh.n_triangles))
    f = lambda x: np.ones(len(x))
    for op in (lambda y: lp.single_layer(mesh, density, y),
               lambda y: px.op_P(shell12, gauss_field, f, y),
               lambda y: px.op_R(shell12, gauss_field, f, y)):
        with pytest.raises(ValueError, match=fault):
            op(target)
