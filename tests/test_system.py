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
    return sy.assemble_M12(vol, surf, unit_field, f=case.f, extensions=ext,
                           workers=2)


@pytest.fixture(scope="module")
def psrc_a1_sol1(psrc_a1_sys1):
    return sy.solve_M12(psrc_a1_sys1)


@pytest.fixture(scope="module")
def psrc_gauss_sys1(level1, gauss_field):
    surf, vol = level1
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    return sy.assemble_M12(vol, surf, gauss_field, f=case.f, extensions=ext,
                           workers=2)


@pytest.fixture(scope="module")
def gauss_sys2(level2, gauss_field):
    surf, vol = level2
    return sy.assemble_M12(vol, surf, gauss_field, workers=2)


@pytest.fixture(scope="module")
def psrc_a1_sys2(level2, unit_field):
    surf, vol = level2
    case = cs.point_source_case(unit_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    return sy.assemble_M12(vol, surf, unit_field, f=case.f, extensions=ext,
                           workers=2)


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


def test_f0_far_cell_matches_fine_quadrature(gauss_sys2, gauss_field):
    surf, vol = gauss_sys2.surfmesh, gauss_sys2.volmesh
    case = cs.point_source_case(gauss_field)
    ext = sy.build_extensions(surf, case.dirichlet, case.neumann)
    rhs = gauss_sys2.with_data(case.f, ext).rhs
    idx = int(np.argmax(np.linalg.norm(vol.centers, axis=1)))
    target = vol.centers[idx]
    assert np.linalg.norm(target) > 3.5

    vol_fine = geo.build_shell_mesh(1.0, 4.0, n_radial=12, angular_level=2,
                                    radial_order=3, triangle_order=3)
    cfg_fine = lp.QuadConfig(far_order=6, near_order=6, levels=3)
    fine = (px.op_P(vol_fine, gauss_field, case.f, target)
            + px.op_V(surf, gauss_field, ext.psi0, target, cfg=cfg_fine)
            - px.op_W(surf, gauss_field, ext.phi0, target, cfg=cfg_fine))
    assert abs(rhs[idx] - fine[0]) / abs(fine[0]) < 0.02


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
    jump = sy.jump_coefficients(surf, colloc)
    cells = (px.op_V(surf, field, ext.psi0, vol.centers)
             - px.op_W(surf, field, ext.phi0, vol.centers))
    bdry = (px.dv_V(surf, field, ext.psi0, colloc)
            - (px.dv_W(surf, field, ext.phi0, colloc) - jump * phi0_at) - phi0_at)
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
        psi0=lp.BoundaryDensity(lp.SPACE_TRIANGLE, lp.SUPPORT_ALL, psi0))
    with pytest.raises(ValueError, match="vanish"):
        system.with_data(None, bad)


# --- assembly ---------------------------------------------------------------


@pytest.mark.parametrize("level,n,counts", [
    (1, 136, (80, 40, 16)),
    (2, 711, (480, 160, 71)),
])
def test_system_square_with_expected_layout(level, n, counts, gauss_field):
    surf, vol = cs.level_meshes(level)
    system = sy.assemble_M12(vol, surf, gauss_field, workers=2)
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
    dens = lp.BoundaryDensity(lp.SPACE_VERTEX, lp.SUPPORT_ALL, indicator)
    coef = sy.jump_coefficients(surf, system.colloc)
    direct = (px.dv_W(surf, gauss_field, dens, system.colloc)
              + (1.0 - coef) * (sy.vertex_eval_matrix(surf, system.colloc) @ indicator))
    assert np.max(np.abs(applied - direct)) < 1e-10


def test_jump_coefficient_is_half_at_centroids(level1):
    surf, _ = level1
    colloc = lp.Collocation.centroids(surf, np.arange(surf.n_triangles))
    coef = sy.jump_coefficients(surf, colloc)
    assert np.max(np.abs(coef - 0.5)) < 1e-4


def test_jump_coefficient_approaches_half_at_vertices():
    worst = []
    for level in (1, 2):
        surf = geo.partition_boundary(geo.build_icosphere(level))
        colloc = lp.Collocation.vertices(surf, np.arange(surf.n_vertices))
        coef = sy.jump_coefficients(surf, colloc, workers=2)
        assert np.all(coef > 0.25) and np.all(coef < 0.5)
        worst.append(np.max(np.abs(coef - 0.5)))
    assert worst[1] < worst[0]


def test_boundary_W_block_transient_memory(level2, gauss_field):
    """The surface engine keeps its temporaries per block of targets: one
    level-2 boundary W block peaks near 4.2 MB over its 0.3 MB result, where
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
    V(1/a), W_lap and V(dn ln a), at level 2: it peaks near 5.3 MB over
    its 1.2 MB of results."""
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
    """Exact point-triangle distances run once per target block that has
    pairs the centroid bound cannot decide, whatever the number of terms:
    15 blocks of cell centres and 14 of boundary points at level 2."""
    surf, vol = level2
    calls = []
    distance = quad.point_triangle_distance

    def counted(*args):
        calls.append(1)
        return distance(*args)

    monkeypatch.setattr(quad, "point_triangle_distance", counted)
    sy.assemble_M12(vol, surf, gauss_field)
    assert len(calls) == 29


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
    big_vol = geo.build_shell_mesh(1.0, 4.0, n_radial=4, angular_level=3)
    with pytest.raises(px.ResourceLimitError):
        sy.assemble_M12(big_vol, surf, gauss_field)
    big_surf = geo.partition_boundary(geo.build_icosphere(4))
    with pytest.raises(px.ResourceLimitError):
        sy.assemble_M12(vol, big_surf, gauss_field)


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
                              extensions=ext, workers=2)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("with_data ran surface quadrature")

    for name in ("single_layer", "double_layer", "single_layer_matrix",
                 "double_layer_matrix", "_surface_rows"):
        monkeypatch.setattr(lp, name, no_quadrature)
    swapped = system.with_data(case.f, ext, workers=2)
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
    system = sy.assemble_M12(vol, surf, gauss_field, workers=2)
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
    values = sy.evaluate_solution(psrc_a1_sys1, psrc_a1_sol1, cs.PROBE_POINTS,
                                  workers=2)
    assert np.max(np.abs(values - exact) / np.abs(exact)) < 0.05


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
    swapped = system.with_data(None, ext, workers=2)
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
    value = sy.weighted_norm(ones, vol, order=sy.ORDER_WEIGHTED)
    exact = np.sqrt(FOUR_PI * (3.0 - np.arctan(4.0) + np.arctan(1.0)))
    assert abs(value - exact) / exact < 1e-6


def test_seminorm_of_constant_vanishes(level1):
    _, vol = level1
    assert sy.weighted_norm(np.ones(vol.n_cells), vol, order=sy.ORDER_SEMI) == 0.0


def test_weighted_norm_validates_input(level1):
    _, vol = level1
    with pytest.raises(ValueError, match="cell"):
        sy.weighted_norm(np.ones(3), vol)
    with pytest.raises(ValueError, match="order"):
        sy.weighted_norm(np.ones(vol.n_cells), vol, order="2-weighted")


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=-100.0, max_value=100.0,
                       allow_nan=False, allow_infinity=False))
def test_weighted_norm_is_homogeneous(scale):
    vol = geo.build_shell_mesh(1.0, 4.0, n_radial=2, angular_level=0)
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
