"""Square collocated system for the mixed exterior problem.

Frozen reference values come from manufactured point-source solves on the
built-in level meshes (icosphere levels 1-2 paired with truncated shells)
with the Gaussian coefficient a(x) = 1 + e^{-|x|^2} and with a == 1.  The
rows are the third Green identity, which for a field tending to u_inf at
infinity holds with u_inf on the right; the constant-solution test adds
that term back before solving.
"""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bdie import cases as cs
from bdie import coefficients as co
from bdie import geometry as geo
from bdie import greens as gr
from bdie import laplace as lp
from bdie import parametrix as px
from bdie import quadrature as quad
from bdie import system as sy

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def unit_field():
    return co.constant_coefficient()


@pytest.fixture(scope="module")
def gauss_field():
    return co.gaussian_coefficient()


@pytest.fixture(scope="module")
def level1():
    return cs.level_meshes(1)


@pytest.fixture(scope="module")
def level2():
    return cs.level_meshes(2)


@pytest.fixture(scope="module")
def psrc_a1_sys1(level1, unit_field):
    surf, vol = level1
    case = cs.point_source_case(unit_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    return sy.assemble_M12(vol, surf, unit_field, f=case.f, extensions=ext)


@pytest.fixture(scope="module")
def psrc_a1_sol1(psrc_a1_sys1):
    return sy.solve_M12(psrc_a1_sys1)


@pytest.fixture(scope="module")
def psrc_gauss_sys1(level1, gauss_field):
    surf, vol = level1
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    return sy.assemble_M12(vol, surf, gauss_field, f=case.f, extensions=ext)


@pytest.fixture(scope="module")
def gauss_sys2(level2, gauss_field):
    surf, vol = level2
    return sy.assemble_M12(vol, surf, gauss_field)


@pytest.fixture(scope="module")
def psrc_a1_sys2(level2, unit_field):
    surf, vol = level2
    case = cs.point_source_case(unit_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    return sy.assemble_M12(vol, surf, unit_field, f=case.f, extensions=ext)


# --- extensions -------------------------------------------------------------


def test_extensions_indicator(level1):
    surf, _ = level1
    ext = sy.build_extensions(surf, 1.0, 0.0)
    touched = surf.vertex_class != geo.PART_NEUMANN
    assert np.array_equal(ext.phi0.values, touched.astype(float))
    assert np.all(ext.psi0.values == 0.0)


def test_extensions_zero(level1):
    surf, _ = level1
    ext = sy.zero_extensions(surf)
    assert np.all(ext.phi0.values == 0.0)
    assert np.all(ext.psi0.values == 0.0)


def test_extensions_point_source_trace(level1, gauss_field):
    surf, _ = level1
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    touched = surf.vertex_class != geo.PART_NEUMANN
    assert np.allclose(ext.phi0.values[touched], 1.0 / FOUR_PI, rtol=1e-12)
    assert np.all(ext.phi0.values[~touched] == 0.0)
    n_tris = surf.triangles_with_label(geo.PART_NEUMANN)
    assert np.all(ext.psi0.values[n_tris] > 0.0)
    mask = np.ones(surf.n_triangles, dtype=bool)
    mask[n_tris] = False
    assert np.all(ext.psi0.values[mask] == 0.0)


def test_extensions_require_partition():
    plain = geo.build_icosphere(1)
    with pytest.raises(ValueError, match="partition"):
        sy.build_extensions(plain, 1.0, 0.0)


def test_extensions_reject_nonfinite(level1):
    surf, _ = level1
    bad = lambda pts: np.full(np.atleast_2d(pts).shape[0], np.nan)
    with pytest.raises(ValueError, match="finite"):
        sy.build_extensions(surf, bad, 0.0)


# --- right-hand side --------------------------------------------------------


def test_f0_zero_data(psrc_gauss_sys1):
    system = psrc_gauss_sys1
    swapped = system.with_data(None, sy.zero_extensions(system.surfmesh))
    assert np.all(swapped.rhs == 0.0)


def test_f0_constant_case_reduces_to_double_layer(psrc_gauss_sys1, gauss_field):
    system = psrc_gauss_sys1
    surf, vol = system.surfmesh, system.volmesh
    case = cs.constant_one_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    cells = system.with_data(None, ext).rhs[system.slice_u]
    direct = -px.op_W(surf, gauss_field, ext.phi0, vol.centers)
    assert np.max(np.abs(cells - direct)) < 1e-14


def test_f0_far_cell_matches_fine_quadrature(gauss_sys2, gauss_field, monkeypatch):
    surf, vol = gauss_sys2.surfmesh, gauss_sys2.volmesh
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    rhs = gauss_sys2.with_data(case.f, ext).rhs
    idx = int(np.argmax(np.linalg.norm(vol.centers, axis=1)))
    target = vol.centers[idx]
    assert np.linalg.norm(target) > 3.5

    vol_fine = geo.build_shell_mesh(4.0, n_radial=12, angular_level=2,
                                    radial_order=3, triangle_order=3)
    # A finer surface rule on a fresh copy of the mesh, which builds its
    # own panel cache with it.
    for name, value in (("FAR_ORDER", 6), ("NEAR_ORDER", 6), ("SUBDIVISION_LEVELS", 3)):
        monkeypatch.setattr(quad, name, value)
    surf_fine = dataclasses.replace(surf)
    fine = (px.op_P(vol_fine, gauss_field, case.f, target)
            + px.op_V(surf_fine, gauss_field, ext.psi0, target)
            - px.op_W(surf_fine, gauss_field, ext.phi0, target))
    assert abs(rhs[idx] - fine[0]) / abs(fine[0]) < 0.02


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("coefficient,partition", [
    ("gaussian", "equator"),
    ("constant", "polar-cap"),
])
def test_graded_near_rule_agrees_with_depth_two_everywhere(level, coefficient, partition,
                                                          monkeypatch):
    """The graded surface near rule (depth 1 for 1.5 <= d/h < 3) against
    depth 2 for every near pair: the matrix and the data columns agree to
    1e-7 of their largest entry, and the three accuracy ratios to 1e-6."""
    field = co.coefficient_by_name(coefficient)
    graded = quad.near_depth

    def solve():
        surf, vol = cs.level_meshes(level, partition)
        case = cs.point_source_case(field)
        ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
        system = sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext)
        report = sy.equivalence_residuals(sy.solve_M12(system), case.exact, field, surf, vol)
        return system, np.array([report.trace_rel, report.conormal_rel, report.interior_rel])

    system, ratios = solve()
    monkeypatch.setattr(quad, "near_depth", lambda d, h: np.where(
        graded(d, h) > 0, quad.SUBDIVISION_LEVELS, 0))
    deep, deep_ratios = solve()
    for a, b in ((system.matrix, deep.matrix), (system.data_columns, deep.data_columns)):
        assert np.abs(a - b).max() <= 1e-7 * np.abs(b).max()
    assert np.all(np.abs(ratios - deep_ratios) <= 1e-6 * deep_ratios)


@pytest.mark.parametrize("coefficient,partition", [
    ("gaussian", "equator"),
    ("constant", "polar-cap"),
])
def test_f0_matches_density_path(coefficient, partition):
    """The data columns applied to the extensions give the F0 that the
    density path integrates: P f + V Psi0 - W Phi0 at the cells, and its
    exterior trace minus Phi0 on the boundary rows."""
    field = co.coefficient_by_name(coefficient)
    surf, vol = cs.level_meshes(1, partition)
    case = cs.point_source_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    system = sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext)
    colloc = system.colloc
    phi0_at = sy.vertex_eval_matrix(surf, colloc) @ ext.phi0.values
    jump = px._VW_matrices(surf, field, colloc)[2]
    cells = (px.op_V(surf, field, ext.psi0, vol.centers)
             - px.op_W(surf, field, ext.phi0, vol.centers))
    bdry = (px.op_V(surf, field, ext.psi0, colloc)
            - (px.op_W(surf, field, ext.phi0, colloc) - jump * phi0_at) - phi0_at)
    if case.f is not None:
        cells += px.op_P(vol, field, case.f, vol.centers)
        bdry += px.op_P(vol, field, case.f, colloc.points)
    assert np.any(ext.psi0.values) and np.any(ext.phi0.values)
    assert np.max(np.abs(system.rhs - np.concatenate([cells, bdry]))) < 1e-14


def test_extensions_must_vanish_on_the_unknowns(psrc_gauss_sys1):
    system = psrc_gauss_sys1
    ext = system.extensions
    psi0 = ext.psi0.values.copy()
    psi0[system.psi_triangles[0]] = 1.0
    bad = sy.ExtensionPair(
        phi0=ext.phi0,
        psi0=lp.BoundaryDensity(lp.SPACE_TRIANGLE, psi0))
    with pytest.raises(ValueError, match="vanish"):
        system.with_data(None, bad)


# --- assembly ---------------------------------------------------------------


@pytest.mark.parametrize("level,n,counts", [
    (1, 136, (80, 40, 16)),
    (2, 711, (480, 160, 71)),
])
def test_system_square_with_expected_layout(level, n, counts, gauss_field):
    surf, vol = cs.level_meshes(level)
    system = sy.assemble_M12(vol, surf, gauss_field)
    assert system.matrix.shape == (n, n)
    assert (system.n_cells, system.n_psi, system.n_phi) == counts


def test_constant_coefficient_has_no_remainder(psrc_a1_sys1):
    system = psrc_a1_sys1
    n_c = system.n_cells
    domain_block = system.matrix[:n_c, :n_c] - np.eye(n_c)
    boundary_block = system.matrix[n_c:, :n_c]
    assert np.max(np.abs(domain_block)) < 1e-12
    assert np.max(np.abs(boundary_block)) < 1e-12


def test_trace_block_matches_direct_operator_application(psrc_gauss_sys1,
                                                         gauss_field):
    system = psrc_gauss_sys1
    surf = system.surfmesh
    applied = system.matrix[system.n_cells:, system.slice_phi] @ np.ones(system.n_phi)
    indicator = np.zeros(surf.n_vertices)
    indicator[system.phi_vertices] = 1.0
    dens = lp.BoundaryDensity(lp.SPACE_VERTEX, indicator)
    coef = px._VW_matrices(surf, gauss_field, system.colloc)[2]
    direct = (px.op_W(surf, gauss_field, dens, system.colloc)
              + (1.0 - coef) * (sy.vertex_eval_matrix(surf, system.colloc) @ indicator))
    assert np.max(np.abs(applied - direct)) < 1e-10


def test_jump_coefficient_is_half_at_centroids(level1, unit_field):
    surf, _ = level1
    colloc = lp.Collocation.centroids(surf, np.arange(surf.n_triangles))
    coef = px._VW_matrices(surf, unit_field, colloc)[2]
    assert np.max(np.abs(coef - 0.5)) < 1e-4


def test_jump_coefficient_approaches_half_at_vertices(unit_field):
    worst = []
    for level in (1, 2):
        surf = geo.partition_boundary(geo.build_icosphere(level))
        colloc = lp.Collocation.vertices(surf, np.arange(surf.n_vertices))
        coef = px._VW_matrices(surf, unit_field, colloc)[2]
        assert np.all(coef > 0.25) and np.all(coef < 0.5)
        worst.append(np.max(np.abs(coef - 0.5)))
    assert worst[1] < worst[0]


def test_boundary_W_block_transient_memory(level2, gauss_field):
    """The surface engine keeps its temporaries per chunk of targets: one
    level-2 boundary W block peaks near 5.9 MB over its 0.3 MB result, where
    classifying every target-panel pair at once peaks near 11 MB."""
    surf, _ = level2
    colloc = sy.boundary_collocation(surf)
    # Warm the per-mesh node tables, which outlive the call.
    px.op_W_matrix(surf, gauss_field, lp.SPACE_VERTEX, lp.Collocation.centroids(surf, [0]))
    tracemalloc.start()
    try:
        px.op_W_matrix(surf, gauss_field, lp.SPACE_VERTEX, colloc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_boundary_surface_pass_transient_memory(level2, gauss_field):
    """One surface pass builds the three boundary blocks of the assembly,
    V(1/a), W_lap and V(dn ln a), at level 2: it peaks near 7.2 MB over
    its 1.2 MB of results (9.7 MB if a chunk's candidate distances were
    not taken a piece at a time)."""
    surf, _ = level2
    colloc = sy.boundary_collocation(surf)
    px._VW_matrices(surf, gauss_field, lp.Collocation.centroids(surf, [0]))
    tracemalloc.start()
    try:
        px._VW_matrices(surf, gauss_field, colloc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_assembly_classifies_each_target_set_once(level2, gauss_field, monkeypatch):
    """Exact point-triangle distances run once per piece of at most
    FAR_BLOCK_PAIRS // 8 candidate pairs of a chunk of targets, the pairs
    the centroid bound cannot decide, whatever the number of terms: at
    level 2, 6 calls for the 3 of 5 chunks of cell centres that have
    candidates and 7 for the 3 chunks of boundary points."""
    surf, vol = level2
    calls = []
    distance = quad.point_triangle_distance

    def counted(*args):
        calls.append(1)
        return distance(*args)

    monkeypatch.setattr(quad, "point_triangle_distance", counted)
    sy.assemble_M12(vol, surf, gauss_field)
    assert len(calls) == 13


def test_remainder_block_transient_memory(level2, gauss_field):
    """The volume engine keeps its temporaries per block of targets: one
    level-2 R block at the cell centres peaks near 5 MB over its 1.8 MB
    result."""
    _, vol = level2
    # A one-target call first, so that one-time set-up stays out of the peak.
    px.op_R_matrix(vol, gauss_field, vol.centers[:1])
    tracemalloc.start()
    try:
        px.op_R_matrix(vol, gauss_field, vol.centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_dense_caps_enforced(gauss_field):
    surf, vol = cs.level_meshes(1)
    big_vol = geo.build_shell_mesh(4.0, n_radial=4, angular_level=3)
    with pytest.raises(px.ResourceLimitError):
        sy.assemble_M12(big_vol, surf, gauss_field)
    big_surf = geo.partition_boundary(geo.build_icosphere(4))
    with pytest.raises(px.ResourceLimitError):
        sy.assemble_M12(vol, big_surf, gauss_field)


def test_assembly_refuses_a_surface_off_the_unit_sphere(level1, gauss_field):
    # The shell starts at the unit sphere; unchecked, a surface scaled by
    # 1.2 solves to a trace error three times that of the unit sphere.
    _, vol = level1
    sphere = geo.build_icosphere(1)
    scaled = geo.partition_boundary(geo.SurfaceMesh(1.2 * sphere.vertices, sphere.triangles))
    with pytest.raises(ValueError, match=r"off the unit sphere: .* = 0\.2 "):
        sy.assemble_M12(vol, scaled, gauss_field)


def test_data_requires_extensions(level1, gauss_field):
    surf, vol = level1
    case = cs.point_source_case(gauss_field)
    with pytest.raises(ValueError, match="extensions"):
        sy.assemble_M12(vol, surf, gauss_field, f=case.f)


def test_with_data_shares_matrix(psrc_gauss_sys1, gauss_field, monkeypatch):
    system = psrc_gauss_sys1
    surf, vol = system.surfmesh, system.volmesh
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    rebuilt = sy.assemble_M12(vol, surf, gauss_field, f=case.f,
                              extensions=ext)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("with_data ran surface quadrature")

    for name in ("single_layer", "double_layer", "single_layer_matrix",
                 "double_layer_matrix", "_surface_rows"):
        monkeypatch.setattr(lp, name, no_quadrature)
    swapped = system.with_data(case.f, ext)
    assert swapped.matrix is system.matrix
    assert np.array_equal(swapped.rhs, rebuilt.rhs)


def test_assembly_deterministic_across_workers(level1, gauss_field):
    surf, vol = level1
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    one = sy.assemble_M12(vol, surf, gauss_field, f=case.f, extensions=ext,
                          workers=1)
    four = sy.assemble_M12(vol, surf, gauss_field, f=case.f, extensions=ext,
                           workers=4)
    assert np.array_equal(one.matrix, four.matrix)
    assert np.array_equal(one.rhs, four.rhs)


# --- solving ----------------------------------------------------------------


def test_zero_rhs_gives_zero_solution(level1, gauss_field):
    surf, vol = level1
    system = sy.assemble_M12(vol, surf, gauss_field)
    solution = sy.solve_M12(system)
    assert np.all(solution.u.values == 0.0)
    assert np.all(solution.psi.values == 0.0)
    assert np.all(solution.phi.values == 0.0)
    assert solution.residual_norm == 0.0


def test_solve_residual_within_gate(psrc_a1_sol1):
    assert psrc_a1_sol1.residual_norm <= 1e-10
    assert np.isfinite(psrc_a1_sol1.conditioning)
    assert psrc_a1_sol1.method == "direct"


def test_iterative_agrees_with_direct(psrc_gauss_sys1, monkeypatch):
    direct = sy.solve_M12(psrc_gauss_sys1)

    def no_factorization(*args, **kwargs):
        raise AssertionError("the iterative solve factored the matrix")

    # GMRES alone must meet the gate: the iterative path factors nothing.
    monkeypatch.setattr(scipy.linalg, "lu_factor", no_factorization)
    iterative = sy.solve_M12(psrc_gauss_sys1, method="iterative")
    num = np.linalg.norm(iterative.u.values - direct.u.values)
    den = np.linalg.norm(direct.u.values)
    assert num / den < 1e-6
    assert iterative.residual_norm <= 1e-10
    assert iterative.method == "iterative"
    assert iterative.conditioning is None


@pytest.mark.filterwarnings("error")
def test_singular_matrix_raises(psrc_a1_sys1):
    broken = np.array(psrc_a1_sys1.matrix)
    broken[:, psrc_a1_sys1.n_cells] = 0.0
    bad = dataclasses.replace(psrc_a1_sys1, matrix=broken)
    with pytest.raises(sy.SolverError):
        sy.solve_M12(bad)


def test_nonsquare_matrix_rejected(psrc_a1_sys1):
    bad = dataclasses.replace(psrc_a1_sys1, matrix=psrc_a1_sys1.matrix[:, :-1])
    with pytest.raises(ValueError, match="square"):
        sy.solve_M12(bad)


def test_with_data_sweep_factors_once(level1, gauss_field, monkeypatch):
    """One LU per matrix object: a sweep of right-hand sides factors once,
    and each solution equals a solve with a freshly factored copy."""
    surf, vol = level1
    base = sy.assemble_M12(vol, surf, gauss_field)
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    solutions = []
    for k in range(3):
        ext = sy.build_extensions(surf, lambda p, k=k: np.cos(k * p[:, 0]), float(k))
        system = base.with_data(None, ext)
        solutions.append((system, sy.solve_M12(system)))
    assert len(calls) == 1
    for system, solution in solutions:
        fresh = sy.solve_M12(dataclasses.replace(system, matrix=np.array(system.matrix)))
        assert np.array_equal(solution.u.values, fresh.u.values)
        assert np.array_equal(solution.psi.values, fresh.psi.values)
        assert np.array_equal(solution.phi.values, fresh.phi.values)
        assert solution.conditioning == fresh.conditioning
        assert solution.residual_norm == fresh.residual_norm
    assert len(calls) == 1 + len(solutions)


def test_assembled_blocks_are_read_only(psrc_gauss_sys1):
    with pytest.raises(ValueError, match="read-only"):
        psrc_gauss_sys1.matrix[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        psrc_gauss_sys1.data_columns[0, 0] = 0.0


@pytest.mark.filterwarnings("error")
def test_replaced_matrix_is_never_served_a_stale_factor(psrc_a1_sys1):
    """A singular replacement raises on every solve, even read-only, and
    leaves the original system's factor as it was; a writable matrix
    changed in place after a solve is factored again."""
    before = sy.solve_M12(psrc_a1_sys1)
    broken = np.array(psrc_a1_sys1.matrix)
    broken[:, psrc_a1_sys1.n_cells] = 0.0
    broken.flags.writeable = False
    bad = dataclasses.replace(psrc_a1_sys1, matrix=broken)
    for _ in range(2):
        with pytest.raises(sy.SolverError):
            sy.solve_M12(bad)
    writable = np.array(psrc_a1_sys1.matrix)
    edited = dataclasses.replace(psrc_a1_sys1, matrix=writable)
    assert np.array_equal(sy.solve_M12(edited).u.values, before.u.values)
    writable[:, psrc_a1_sys1.n_cells] = 0.0
    with pytest.raises(sy.SolverError):
        sy.solve_M12(edited)
    after = sy.solve_M12(psrc_a1_sys1)
    assert np.array_equal(after.u.values, before.u.values)
    assert np.array_equal(after.phi.values, before.phi.values)
    assert after.conditioning == before.conditioning


def test_conditioning_growth_stays_moderate(psrc_gauss_sys1, psrc_a1_sys2,
                                            gauss_sys2):
    cond1 = sy.solve_M12(psrc_gauss_sys1).conditioning
    cond2 = sy.solve_M12(dataclasses.replace(gauss_sys2, rhs=np.zeros(gauss_sys2.matrix.shape[0]))).conditioning
    assert cond1 > 1.0
    assert cond2 / cond1 < 10.0


# --- exact-solution recovery ------------------------------------------------


def test_consistency_residual_of_exact_densities(psrc_a1_sys1, unit_field):
    system = psrc_a1_sys1
    surf, vol = system.surfmesh, system.volmesh
    exact = gr.point_source_field()
    a_c = unit_field.eval_a(surf.centroids)
    t_full = a_c * np.einsum("ij,ij->i", exact.grad_u(surf.centroids),
                             surf.normals)
    gamma_full = exact.u(surf.vertices)
    x = np.concatenate([
        exact.u(vol.centers),
        (t_full - system.extensions.psi0.values)[system.psi_triangles],
        (gamma_full - system.extensions.phi0.values)[system.phi_vertices],
    ])
    residual = system.matrix @ x - system.rhs
    assert np.max(np.abs(residual[:system.n_cells])) < 3.5e-3
    assert np.max(np.abs(residual[system.n_cells:])) < 1.0e-2


def test_point_source_probe_value(psrc_a1_sys1, psrc_a1_sol1):
    value = sy.evaluate_solution(psrc_a1_sys1, psrc_a1_sol1,
                                 np.array([[0.0, 0.0, 2.5]]))[0]
    exact = 1.0 / (FOUR_PI * 2.5)
    assert abs(value - exact) / exact < 0.05


def test_point_source_probes_within_gate(psrc_a1_sys1, psrc_a1_sol1):
    exact = gr.point_source_field().u(cs.PROBE_POINTS)
    values = sy.evaluate_solution(psrc_a1_sys1, psrc_a1_sol1, cs.PROBE_POINTS)
    assert np.max(np.abs(values - exact) / np.abs(exact)) < 0.05


def test_evaluate_solution_refuses_points_off_the_domain(psrc_gauss_sys1):
    # Inside the unit sphere the representation formula returns small,
    # plausible numbers that are no value of u; at a point with a nan
    # coordinate it returns nan.
    solution = sy.solve_M12(psrc_gauss_sys1)
    for point in ([0.0, 0.0, 0.5], [0.0, 0.0, 0.99], [0.0, 1.0, 0.0], [np.nan, 0.0, 2.0]):
        probes = np.array([[0.0, 0.0, 2.5], point])
        with pytest.raises(ValueError, match=r"not in the exterior domain") as info:
            sy.evaluate_solution(psrc_gauss_sys1, solution, probes)
        assert str(np.array(point)) in str(info.value)
    with pytest.raises(ValueError, match=r"3-vectors.*\(1, 2\)"):
        sy.evaluate_solution(psrc_gauss_sys1, solution, [[2.0, 0.0]])
    assert np.isfinite(sy.evaluate_solution(psrc_gauss_sys1, solution, cs.PROBE_POINTS)).all()


def test_solution_densities_vanish_off_their_parts(psrc_gauss_sys1):
    # psi lives on S_D triangles and phi at interior-S_N vertices; both are
    # nonzero somewhere there.
    solution = sy.solve_M12(psrc_gauss_sys1)
    surf = psrc_gauss_sys1.surfmesh
    on_d = surf.part_label == geo.PART_DIRICHLET
    inside_n = surf.vertex_class == geo.PART_NEUMANN
    assert np.all(solution.psi.values[~on_d] == 0.0) and np.any(solution.psi.values[on_d])
    assert np.all(solution.phi.values[~inside_n] == 0.0) and np.any(solution.phi.values[inside_n])


def _fresh_level1_system(level1, field):
    surf, vol = level1
    case = cs.point_source_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    system = sy.assemble_M12(vol, surf, field, f=case.f, extensions=ext)
    return system, case, ext


def test_evaluation_rows_are_kept_with_the_matrix(level1, gauss_field, monkeypatch):
    """A second evaluation at the same points, here through a with_data
    system sharing the matrix, runs no surface pass and no R: one P f pass
    and three row products, with the bits of the first."""
    system, case, ext = _fresh_level1_system(level1, gauss_field)
    solution = sy.solve_M12(system)
    first = sy.evaluate_solution(system, solution, cs.PROBE_POINTS)

    def no_rows(*args, **kwargs):
        raise AssertionError("the evaluation rows were built again")

    monkeypatch.setattr(lp, "_surface_rows", no_rows)
    monkeypatch.setattr(px, "_remainder_kernel", no_rows)
    assert np.array_equal(sy.evaluate_solution(system, solution, cs.PROBE_POINTS), first)
    swapped = system.with_data(case.f, ext)
    again = sy.evaluate_solution(swapped, sy.solve_M12(swapped), cs.PROBE_POINTS.copy())
    assert np.array_equal(again, first)


def test_evaluation_rows_are_rebuilt_for_new_points_matrices_and_fields(
        level1, gauss_field, monkeypatch):
    system, _, _ = _fresh_level1_system(level1, gauss_field)
    solution = sy.solve_M12(system)
    calls = []
    surface_rows = lp._surface_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return surface_rows(*args, **kwargs)

    monkeypatch.setattr(lp, "_surface_rows", counted)
    pts = cs.PROBE_POINTS
    first = sy.evaluate_solution(system, solution, pts)
    sy.evaluate_solution(system, solution, pts)
    assert len(calls) == 1
    sy.evaluate_solution(system, solution, pts[:2])
    assert len(calls) == 2
    writable = dataclasses.replace(system, matrix=np.array(system.matrix))
    for _ in range(2):
        assert np.array_equal(sy.evaluate_solution(writable, solution, pts), first)
    assert len(calls) == 4
    other = dataclasses.replace(system, field=co.gaussian_coefficient())
    for _ in range(2):
        assert np.array_equal(sy.evaluate_solution(other, solution, pts[:2]), first[:2])
    assert len(calls) == 5


def test_large_point_sets_are_evaluated_in_blocks_and_not_kept(level1, gauss_field,
                                                               monkeypatch):
    """Rows of more points than fit in the matrix's memory (91 at level 1)
    are built and applied a block at a time, and built again on every call."""
    system, _, _ = _fresh_level1_system(level1, gauss_field)
    solution = sy.solve_M12(system)
    rng = np.random.default_rng(12)
    d = rng.normal(size=(200, 3))
    pts = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(1.3, 3.5, size=(200, 1))
    parts = np.concatenate([sy.evaluate_solution(system, solution, pts[k:k + 50])
                            for k in range(0, 200, 50)])
    calls = []
    surface_rows = lp._surface_rows

    def counted(*args, **kwargs):
        calls.append(len(lp._volume_points(args[1])))
        return surface_rows(*args, **kwargs)

    monkeypatch.setattr(lp, "_surface_rows", counted)
    for _ in range(2):
        whole = sy.evaluate_solution(system, solution, pts)
        assert np.abs(whole - parts).max() <= 1e-14 * np.abs(parts).max()
    assert calls == [91, 91, 18] * 2


def test_blocks_of_an_evaluation_build_the_node_data_once(level1, gauss_field, monkeypatch):
    """The blocks of a large point set cut their volume target sets from
    one, so grad ln a and lap ln a (R) and w_q / a (P) at the nodes are
    evaluated once per call, not once per block."""
    system, _, _ = _fresh_level1_system(level1, gauss_field)
    solution = sy.solve_M12(system)
    d = np.random.default_rng(13).normal(size=(200, 3))
    pts = 2.0 * d / np.linalg.norm(d, axis=1, keepdims=True)
    built = []
    for name in ("_remainder_data", "_P_weights"):
        monkeypatch.setattr(px, name, lambda *args, _name=name, _build=getattr(px, name):
                            built.append(_name) or _build(*args))
    sy.evaluate_solution(system, solution, pts)
    assert sorted(built) == ["_P_weights", "_remainder_data"]


# --- the data-free half of P, kept with the matrix ----------------------------


def _system_targets(system):
    return np.concatenate([system.volmesh.centers, system.colloc.points])


def _count_near_sets(monkeypatch):
    """The target counts of the volume target sets (px._VolumeTargets, which
    keep a near set and the weights of P) made from now on; a volume pass
    that builds its own near sets is not counted."""
    built = []

    class Counted(px._VolumeTargets):
        def __init__(self, volmesh, field, targets):
            super().__init__(volmesh, field, targets)
            built.append(len(self.points))

    monkeypatch.setattr(px, "_VolumeTargets", Counted)
    return built


@pytest.mark.parametrize("coefficient", ["gaussian", "constant"])
def test_each_target_set_is_classified_and_measured_once(level1, coefficient, monkeypatch):
    """Assembly with a source takes its R rows and P f from one near set of
    its n targets, the cell centres and the collocation points; a first
    evaluation at m points takes its R rows and the data-free half of P
    there from one near set of those m.  A constant coefficient has no R."""
    surf, vol = level1
    field = co.coefficient_by_name(coefficient)
    case = cs.point_source_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    source = lambda x: np.exp(-(x * x).sum(axis=-1))
    measured = []
    near_set = lp._near_set

    def counted(volmesh, targets):
        measured.append(len(lp._volume_points(targets)))
        return near_set(volmesh, targets)

    monkeypatch.setattr(lp, "_near_set", counted)
    system = sy.assemble_M12(vol, surf, field, f=source, extensions=ext)
    n = len(_system_targets(system))
    assert measured == [n]
    sy.evaluate_solution(system, sy.solve_M12(system), cs.PROBE_POINTS)
    assert measured == [n, len(cs.PROBE_POINTS)]


def test_evaluation_builds_the_near_set_only_when_R_or_P_f_needs_it(level1, monkeypatch):
    """A constant coefficient without a source has no volume work at its
    evaluation points.  A system with a source that shares the matrix then
    builds the near set there once, and its values carry the bits of
    px.op_P."""
    surf, vol = level1
    field = co.constant_coefficient()
    case = cs.constant_one_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    system = sy.assemble_M12(vol, surf, field, extensions=ext)
    solution = sy.solve_M12(system)
    pts = cs.PROBE_POINTS
    source = lambda x: np.exp(-(x * x).sum(axis=-1))
    pf = px.op_P(vol, field, source, pts)
    measured = []
    near_set = lp._near_set

    def counted(volmesh, targets):
        measured.append(len(lp._volume_points(targets)))
        return near_set(volmesh, targets)

    monkeypatch.setattr(lp, "_near_set", counted)
    without = sy.evaluate_solution(system, solution, pts)
    assert measured == []
    sourced = system.with_data(source, ext)
    n = len(_system_targets(system))
    assert measured == [n]
    for _ in range(2):
        assert np.array_equal(sy.evaluate_solution(sourced, solution, pts), without + pf)
    assert measured == [n, len(pts)]


@pytest.mark.parametrize("level,base", [(1, "psrc_gauss_sys1"), (2, "gauss_sys2")])
@pytest.mark.parametrize("coefficient", ["gaussian", "inclusion"])
def test_kept_P_has_the_bits_of_op_P(level, base, coefficient, request):
    """P f of every with_data right-hand side, and at kept evaluation
    points, equals px.op_P bit for bit, for a callable source and cell
    values.  The system is a copy on a matrix of its own, with the field
    swapped in: P does not depend on the matrix's entries."""
    system = request.getfixturevalue(base)
    field = co.coefficient_by_name(coefficient)
    matrix = np.array(system.matrix)
    matrix.flags.writeable = False
    system = dataclasses.replace(system, matrix=matrix, field=field)
    surf, vol = system.surfmesh, system.volmesh
    case = cs.point_source_case(field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    targets = _system_targets(system)
    cells = lp.DomainDensity(np.linspace(-1.0, 2.0, vol.n_cells))
    for f in (case.f, case.f, cells):
        swapped = system.with_data(f, ext)
        assert np.array_equal(swapped.rhs,
                              sy._data_rhs(system, ext, px.op_P(vol, field, f, targets)))
    solution = sy.solve_M12(swapped)
    first = sy.evaluate_solution(swapped, solution, cs.PROBE_POINTS)
    _, volume = system._cache.part("points", cs.PROBE_POINTS, (surf, vol, field),
                                   lambda: pytest.fail("the probe points' part was not kept"))
    for f in (case.f, cells):
        assert np.array_equal(volume.P(f), px.op_P(vol, field, f, cs.PROBE_POINTS))
    assert np.array_equal(sy.evaluate_solution(swapped, solution, cs.PROBE_POINTS), first)


def test_kept_P_neither_classifies_nor_measures_again(level1, gauss_field, monkeypatch):
    """After the first with_data with a source, and the first evaluation at
    a point set, further right-hand sides and evaluations there classify no
    target-cell pair, measure no near node and evaluate no R, with the bits
    of the first."""
    system, case, ext = _fresh_level1_system(level1, gauss_field)
    swapped = system.with_data(case.f, ext)
    solution = sy.solve_M12(swapped)
    first = sy.evaluate_solution(swapped, solution, cs.PROBE_POINTS)

    def again(*args, **kwargs):
        raise AssertionError("data-free volume geometry was computed again")

    # _near_set is the one place that classifies (_near_cells) and measures.
    for name in ("_near_cells", "_near_set"):
        monkeypatch.setattr(lp, name, again)
    monkeypatch.setattr(px, "_remainder_kernel", again)
    for _ in range(2):
        next_rhs = system.with_data(case.f, ext)
        assert np.array_equal(next_rhs.rhs, swapped.rhs)
        values = sy.evaluate_solution(next_rhs, sy.solve_M12(next_rhs), cs.PROBE_POINTS.copy())
        assert np.array_equal(values, first)


def test_kept_P_is_rebuilt_for_another_field_mesh_or_point_set(level1, gauss_field,
                                                               monkeypatch):
    """The system's own targets keep one near set at a time, keyed on the
    volume mesh and field objects as well as the points; a point set keeps
    its own with its evaluation rows."""
    system, case, ext = _fresh_level1_system(level1, gauss_field)
    built = _count_near_sets(monkeypatch)
    n = len(_system_targets(system))
    _, other_vol = cs.level_meshes(1)
    others = [dataclasses.replace(system, field=co.gaussian_coefficient()),
              dataclasses.replace(system, volmesh=other_vol), system]
    for _ in range(2):
        system.with_data(case.f, ext)
    assert built == [n]
    for other in others:
        for _ in range(2):
            rhs = other.with_data(case.f, ext).rhs
            want = px.op_P(other.volmesh, other.field, case.f, _system_targets(other))
            assert np.array_equal(rhs, sy._data_rhs(other, ext, want))
    assert built == [n] * 4
    solution = sy.solve_M12(system)
    pts = cs.PROBE_POINTS
    for points in (pts, pts, pts[:2], pts[:2]):
        sy.evaluate_solution(system, solution, points)
    assert built == [n] * 4 + [len(pts), 2]
    system.with_data(case.f, ext)
    assert built == [n] * 4 + [len(pts), 2]


def test_nothing_is_kept_for_a_writable_matrix(level1, gauss_field, monkeypatch):
    system, case, ext = _fresh_level1_system(level1, gauss_field)
    writable = dataclasses.replace(system, matrix=np.array(system.matrix))
    built = _count_near_sets(monkeypatch)
    for _ in range(2):
        assert np.array_equal(writable.with_data(case.f, ext).rhs, system.rhs)
    solution = sy.solve_M12(writable)
    for _ in range(2):
        sy.evaluate_solution(writable, solution, cs.PROBE_POINTS)
    n = len(_system_targets(system))
    assert built == [n, n, len(cs.PROBE_POINTS), len(cs.PROBE_POINTS)]
    assert writable._cache._parts == {}


def test_evaluation_rows_match_the_value_operators(psrc_gauss_sys1):
    system = psrc_gauss_sys1
    surf, vol, field = system.surfmesh, system.volmesh, system.field
    solution = sy.solve_M12(system)
    pts = np.concatenate([cs.PROBE_POINTS, [[0.0, 1.2, 0.3], [3.9, 0.0, 0.2]]])
    got = sy.evaluate_solution(system, solution, pts)
    conormal = lp.BoundaryDensity(lp.SPACE_TRIANGLE, solution.recovered_conormal)
    trace = lp.BoundaryDensity(lp.SPACE_VERTEX, solution.recovered_trace)
    v, w = px.op_V(surf, field, conormal, pts), px.op_W(surf, field, trace, pts)
    want = v - w - px.op_R(vol, field, solution.u, pts) + px.op_P(vol, field, system.f, pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("system", ["psrc_gauss_sys1", "psrc_a1_sys1"])
def test_remainder_blocks_of_the_matrix_are_op_R_matrix(system, request):
    # The domain block is the identity plus R at the centres, the boundary
    # rows' u block R at the collocation points, bit for bit.
    system = request.getfixturevalue(system)
    vol, field, n_c = system.volmesh, system.field, system.n_cells
    domain = px.op_R_matrix(vol, field, vol.centers)
    diagonal = np.arange(n_c)
    domain[diagonal, diagonal] += 1.0
    assert np.array_equal(system.matrix[:n_c, :n_c], domain)
    assert np.array_equal(system.matrix[n_c:, :n_c],
                          px.op_R_matrix(vol, field, system.colloc.points))


def test_recovery_errors_decrease_under_refinement(psrc_a1_sys1, psrc_a1_sys2,
                                                   unit_field):
    exact = gr.point_source_field()
    reports = []
    for system in (psrc_a1_sys1, psrc_a1_sys2):
        solution = sy.solve_M12(system)
        reports.append(sy.equivalence_residuals(
            solution, exact, unit_field, system.surfmesh, system.volmesh))
    coarse, fine = reports
    assert fine.trace_rel < coarse.trace_rel
    assert fine.conormal_rel < coarse.conormal_rel
    assert fine.interior_rel < coarse.interior_rel
    assert fine.trace_rel < 0.010
    assert fine.conormal_rel < 0.11
    assert fine.interior_rel < 0.012


def test_equivalence_report_serializes(psrc_a1_sys2, unit_field):
    solution = sy.solve_M12(psrc_a1_sys2)
    report = sy.equivalence_residuals(solution, gr.point_source_field(),
                                      unit_field, psrc_a1_sys2.surfmesh,
                                      psrc_a1_sys2.volmesh)
    payload = report.to_dict()
    assert set(payload) >= {"trace_rel", "conormal_rel", "interior_rel"}
    json.dumps(payload)


def test_constant_solution_recovered(gauss_sys2, gauss_field):
    """A constant field with zero flux and unit trace is recovered within 2%
    once the term at infinity is restored.

    Every row of the system is the third Green identity (or its trace) at a
    collocation point, and for a field tending to u_inf that identity holds
    with u_inf on the right.  The right-hand side built from the data alone
    drops it, and solving that system returns the decaying solution of the
    same data instead of the constant.  Level 2 is used because level 1
    misses 2% for the point source too (interior error 7.5e-2 there).
    """
    system = gauss_sys2
    case = cs.constant_one_case(gauss_field)
    ext = sy.build_extensions(system.surfmesh, case.dirichlet, case.neumann)
    swapped = system.with_data(None, ext)
    u_inf = 1.0
    # each row reads (M x - b) = u_inf for the exact unknowns of u == 1
    restored = dataclasses.replace(swapped, rhs=swapped.rhs + u_inf)
    solution = sy.solve_M12(restored)
    assert np.max(np.abs(solution.u.values - u_inf)) <= 0.02


def test_laplace_reference_matches_zeroed_remainder(psrc_a1_sys1):
    system = psrc_a1_sys1
    n_c = system.n_cells
    stripped = np.array(system.matrix)
    stripped[:n_c, :n_c] = np.eye(n_c)
    stripped[n_c:, :n_c] = 0.0
    ref = sy.solve_M12(dataclasses.replace(system, matrix=stripped))
    sol = sy.solve_M12(system)
    assert np.max(np.abs(ref.u.values - sol.u.values)) < 1e-8


# --- weighted norms ---------------------------------------------------------


def test_weighted_norm_of_unit_matches_shell_integral(level2):
    _, vol = level2
    ones = np.ones(vol.n_cells)
    value = sy.weighted_norm(ones, vol)
    exact = np.sqrt(FOUR_PI * (3.0 - np.arctan(4.0) + np.arctan(1.0)))
    assert abs(value - exact) / exact < 1e-6


def test_weighted_norm_weights_each_radial_layer_by_its_shell_integral(level2):
    # The weight 1 / (1 + |x|^2) is applied where each cell lies: the norm
    # of one radial layer's indicator is the closed-form integral over it.
    _, vol = level2
    b = vol.radial_breaks
    for k in range(len(b) - 1):
        layer = (vol.radial_index == k).astype(float)
        lo, hi = b[k], b[k + 1]
        exact = np.sqrt(FOUR_PI * ((hi - np.arctan(hi)) - (lo - np.arctan(lo))))
        assert abs(sy.weighted_norm(layer, vol) - exact) / exact < 1e-6


def test_weighted_norm_validates_input(level1):
    _, vol = level1
    with pytest.raises(ValueError, match="cell"):
        sy.weighted_norm(np.ones(3), vol)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False))
def test_weighted_norm_is_homogeneous(scale):
    vol = geo.build_shell_mesh(4.0, n_radial=2, angular_level=0)
    rng = np.random.default_rng(7)
    values = rng.standard_normal(vol.n_cells)
    base = sy.weighted_norm(values, vol)
    assert sy.weighted_norm(scale * values, vol) == pytest.approx(
        abs(scale) * base, rel=1e-12, abs=1e-12)


def test_vertex_eval_matrix_rejects_free_points(level1):
    surf, _ = level1
    free = lp.Collocation.free(np.array([[0.0, 0.0, 2.0]]))
    with pytest.raises(ValueError, match="free"):
        sy.vertex_eval_matrix(surf, free)


def test_partition_rule_lookup_names_unknown_rule():
    with pytest.raises(ValueError, match="banana"):
        cs.partition_rule("banana")
