"""Green-identity verifiers on the exterior of the unit sphere.

The harmonic reference field is the point source u = 1/(4 pi |x|); with the
stored inward normals its conormal trace on the sphere is +1/(4 pi).  The
constant field fails the decay hypotheses of the exterior identities: the
flux guard must reject it in the second identity, and in the third identity
and its trace form the sphere at infinity leaves its limit u_inf behind, so
those residuals are compared against u_inf rather than zero.
"""

import logging

import numpy as np
import pytest

from bdie import coefficients as co
from bdie import geometry as geo
from bdie import greens as gr
from bdie import laplace as lp
from bdie import parametrix as px

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def unit_field():
    return co.constant_coefficient()


@pytest.fixture(scope="module")
def gauss_field():
    return co.gaussian_coefficient()


@pytest.fixture(scope="module")
def sphere3():
    return geo.build_icosphere(3)


@pytest.fixture(scope="module")
def shell14():
    return geo.build_shell_mesh(outer_radius=4.0, n_radial=8, angular_level=2)


@pytest.fixture(scope="module")
def shell_small():
    return geo.build_shell_mesh(outer_radius=4.0, n_radial=4, angular_level=1)


@pytest.fixture(scope="module")
def source():
    return gr.point_source_field()


def _scaled(afield, c):
    return gr.AnalyticField(lambda p: c * afield.u(p),
                            lambda p: c * afield.grad_u(p),
                            lambda p: c * afield.laplacian_u(p),
                            name=f"{afield.name}*{c}")


def _newton_bump_field():
    # radial C1 bump supported on 1.5 <= r <= 2.5 and its exact Newton
    # potential: F(r) = -(A(r)/r + B(r)) with polynomial antiderivatives
    P = np.polynomial.Polynomial
    s = P([0.0, 1.0])
    f_poly = 16.0 * ((s - 1.5) * (2.5 - s)) ** 2
    p2i = (f_poly * s**2).integ()
    p1i = (f_poly * s).integ()

    def u(p):
        r = np.linalg.norm(np.atleast_2d(p), axis=1)
        rc = np.clip(r, 1.5, 2.5)
        return -((p2i(rc) - p2i(1.5)) / r + (p1i(2.5) - p1i(rc)))

    def grad(p):
        p = np.atleast_2d(p)
        r = np.linalg.norm(p, axis=1)
        rc = np.clip(r, 1.5, 2.5)
        return ((p2i(rc) - p2i(1.5)) / r**3)[:, None] * p

    def lap(p):
        r = np.linalg.norm(np.atleast_2d(p), axis=1)
        return np.where((r >= 1.5) & (r <= 2.5), f_poly(r), 0.0)

    return gr.AnalyticField(u, grad, lap, name="newton_bump"), lap


def _single_layer_of_one_field():
    def u(p):
        return 1.0 / np.linalg.norm(np.atleast_2d(p), axis=1)

    def grad(p):
        p = np.atleast_2d(p)
        r = np.linalg.norm(p, axis=1, keepdims=True)
        return -p / r**3

    def lap(p):
        return np.zeros(np.atleast_2d(p).shape[0])

    return gr.AnalyticField(u, grad, lap, name="single_layer_of_one")


# --- analytic fields ----------------------------------------------------------

def test_analytic_fields_match_finite_differences(source):
    pts = [[1.5, 0.2, -0.3], [0.0, 0.0, 2.0], [-1.1, 0.9, 0.4]]
    for afield in (source, gr.point_source_field(center=(0.0, 0.0, 0.5)),
                   gr.constant_field(3.0)):
        errs = gr.finite_difference_check(afield, pts)
        assert errs["grad"] < 1e-6
        assert errs["laplacian"] < 1e-6


def test_conormal_trace_point_source(unit_field, sphere3, source):
    verts = sphere3.vertices
    vals = gr.conormal_trace(unit_field, source, verts, -verts)
    assert vals == pytest.approx(np.full(len(verts), 1.0 / FOUR_PI), rel=1e-12)
    cent = gr.conormal_trace(unit_field, source, sphere3.centroids,
                             sphere3.normals)
    assert np.abs(cent - 1.0 / FOUR_PI).max() < 0.01 / FOUR_PI


def test_conormal_trace_constant_field_zero(unit_field, sphere3):
    vals = gr.conormal_trace(unit_field, gr.constant_field(4.0),
                             sphere3.centroids, sphere3.normals)
    assert np.array_equal(vals, np.zeros(sphere3.n_triangles))


def test_conormal_trace_linear_in_coefficient(sphere3, source):
    one = gr.conormal_trace(co.constant_coefficient(), source,
                            sphere3.centroids, sphere3.normals)
    two = gr.conormal_trace(co.constant_coefficient(2.0), source,
                            sphere3.centroids, sphere3.normals)
    assert np.array_equal(two, 2.0 * one)


def test_residual_report_scale_relation():
    rep = gr.ResidualReport(np.array([0.5, -2.0]), scale=4.0, level=2)
    assert rep.max_abs == 2.0
    assert rep.rel_to_scale == 0.5
    empty = gr.ResidualReport(np.zeros(3), scale=0.0)
    assert empty.rel_to_scale == 0.0
    d = rep.to_dict()
    assert d["level"] == 2 and d["max_abs"] == 2.0 and len(d["residuals"]) == 2


# --- second identity ----------------------------------------------------------

def test_second_green_antisymmetry(gauss_field, sphere3, shell14, source):
    rep = gr.second_green_residual(gauss_field, source, source, sphere3, shell14)
    assert rep.residuals[0] == 0.0
    assert rep.details["volume_side"] == 0.0
    assert rep.details["boundary_side"] == 0.0


def test_second_green_gaussian_source_pair(gauss_field, sphere3, shell14, source):
    other = gr.point_source_field(center=(0.0, 0.0, 0.5))
    rep = gr.second_green_residual(gauss_field, source, other, sphere3, shell14)
    assert rep.rel_to_scale < 3e-2


def test_second_green_harmonic_sides_vanish(unit_field, sphere3, shell14, source):
    other = gr.point_source_field(center=(0.0, 0.0, 0.5))
    rep = gr.second_green_residual(unit_field, source, other, sphere3, shell14)
    assert rep.details["volume_side"] == 0.0
    assert abs(rep.details["boundary_side"]) < 1e-4


def test_second_green_rejects_nondecaying_field(gauss_field, sphere3, shell14,
                                                source):
    with pytest.raises(gr.TruncationError):
        gr.second_green_residual(gauss_field, gr.constant_field(1.0), source,
                                 sphere3, shell14)


# --- third identity -----------------------------------------------------------

INTERIOR_POINTS = np.array([[0.0, 0.0, 1.5], [2.0, 0.0, 0.0],
                            [0.0, -2.5, 0.5], [1.3, 1.3, 1.3]])


def test_third_green_harmonic_unit_coefficient(unit_field, sphere3, shell14,
                                               source):
    rep = gr.third_green_residual(unit_field, source, sphere3, shell14,
                                  INTERIOR_POINTS)
    assert rep.rel_to_scale < 3e-2


def test_third_green_scales_linearly(gauss_field, sphere3, shell14, source):
    rep = gr.third_green_residual(gauss_field, source, sphere3, shell14,
                                  INTERIOR_POINTS)
    rep10 = gr.third_green_residual(gauss_field, _scaled(source, 10.0), sphere3,
                                    shell14, INTERIOR_POINTS)
    err = np.abs(rep10.residuals - 10.0 * rep.residuals).max()
    assert err <= 1e-12 * np.abs(10.0 * rep.residuals).max()


def test_third_green_excludes_points_near_surface(unit_field, sphere3,
                                                  shell_small, source, caplog):
    pts = np.vstack([INTERIOR_POINTS, [0.0, 0.0, 1.05]])
    with caplog.at_level(logging.INFO, logger="bdie.greens"):
        rep = gr.third_green_residual(unit_field, source, sphere3, shell_small,
                                      pts)
    assert rep.residuals.size == 4
    assert any("excluding" in r.getMessage() for r in caplog.records)


def test_third_green_refuses_a_set_with_every_point_excluded(unit_field, sphere3,
                                                            shell_small, source):
    # A residual over no point would read rel 0 and pass any gate.
    with pytest.raises(ValueError, match="excluded"):
        gr.third_green_residual(unit_field, source, sphere3, shell_small,
                                [[0.0, 0.0, 1.01]])


def test_third_green_constant_field(gauss_field, sphere3, shell14):
    """For u == 1 the residual is the term at infinity, u_inf = 1.

    Green's second identity on 1 < |x| < rho leaves the outer-sphere term
    -u_inf oint (dn P_lap - P_lap dn ln a); the first integral is 1 for
    every rho > |y| and the second vanishes as rho sup |grad ln a| -> 0.
    With the gaussian a this holds only if R1 cancels the dn ln a part of
    W1, so the check exercises the remainder, not just the double layer.
    """
    u_inf = 1.0
    rep = gr.third_green_residual(gauss_field, gr.constant_field(u_inf),
                                  sphere3, shell14, INTERIOR_POINTS)
    # u + Ru - V(Tu) + W(gamma u) - P(Au) = u_inf for a field tending to u_inf
    assert np.abs(rep.residuals - u_inf).max() / rep.scale < 5e-2


# --- trace identity -----------------------------------------------------------

def test_trace_identity_harmonic_unit_coefficient(unit_field, sphere3, shell14,
                                                  source):
    rep = gr.trace_identity_residual(unit_field, source, sphere3, shell14)
    assert rep.rel_to_scale < 5e-2


def test_trace_identity_scales_linearly(unit_field, sphere3, shell_small,
                                        source):
    rep = gr.trace_identity_residual(unit_field, source, sphere3, shell_small)
    rep10 = gr.trace_identity_residual(unit_field, _scaled(source, 10.0),
                                       sphere3, shell_small)
    err = np.abs(rep10.residuals - 10.0 * rep.residuals).max()
    assert err <= 1e-12 * np.abs(10.0 * rep.residuals).max()


def test_trace_identity_constant_field(unit_field, sphere3, shell_small):
    """The trace form of the third identity also leaves u_inf = 1 for u == 1.

    With a == 1, R and P vanish and Tu = 0, so the residual is
    (1/2) + calW(1): the direct value of the double layer of the unit
    density is 1/2, and the sum is the term at infinity, 1.
    """
    u_inf = 1.0
    rep = gr.trace_identity_residual(unit_field, gr.constant_field(u_inf),
                                     sphere3, shell_small)
    # (1/2) gamma u + calW(gamma u) = 1/2 + 1/2 = u_inf
    assert np.abs(rep.residuals - u_inf).max() / rep.scale < 3e-2


def test_surface_values_in_blocks_have_the_bits_of_one_call(gauss_field, shell_small,
                                                            source, monkeypatch):
    # Value functions build and apply their rows a block of targets at a
    # time; with the smallest blocks (one surface-engine chunk each) every
    # value has the bits of a call that holds all the rows.  Chunks of 18
    # targets in far blocks of 3, so that a call crosses both.
    monkeypatch.setattr(lp, "FAR_BLOCK_PAIRS", 3 * 320 * 6)
    sphere2 = geo.build_icosphere(2)
    rng = np.random.default_rng(41)
    d = rng.normal(size=(40, 3))
    free = d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(1.2, 3.0, size=(40, 1))
    colloc = lp.Collocation.concat([lp.Collocation.centroids(sphere2, np.arange(0, 320, 7)),
                                    lp.Collocation.vertices(sphere2, np.arange(0, 162, 5))])
    tc = lp.BoundaryDensity(lp.SPACE_TRIANGLE, rng.normal(size=320))
    vl = lp.BoundaryDensity(lp.SPACE_VERTEX, rng.normal(size=162))
    calls = []
    surface_rows = lp._surface_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return surface_rows(*args, **kwargs)

    monkeypatch.setattr(lp, "_surface_rows", counted)
    values = {}
    for entries in (1 << 40, 1):
        monkeypatch.setattr(lp, "VALUE_BLOCK_ENTRIES", entries)
        calls.clear()
        values[entries] = [op(targets) for targets in (free, colloc) for op in (
            lambda t: lp.single_layer(sphere2, tc, t),
            lambda t: lp.double_layer(sphere2, vl, t),
            lambda t: px.op_V(sphere2, gauss_field, tc, t),
            lambda t: px.op_W(sphere2, gauss_field, vl, t))]
        values[entries] += [
            gr.third_green_residual(gauss_field, source, sphere2, shell_small, free).residuals,
            gr.trace_identity_residual(gauss_field, source, sphere2, shell_small).residuals]
        values[entries, "calls"] = len(calls)
    assert values[1, "calls"] > 4 * values[1 << 40, "calls"]
    for blocked, whole in zip(values[1], values[1 << 40]):
        assert np.array_equal(blocked, whole)


@pytest.mark.parametrize("residual", ["third", "trace", "conormal"])
def test_each_green_residual_classifies_and_measures_its_targets_once(
        gauss_field, shell_small, source, residual, monkeypatch):
    # R u and P(Au) of a residual share the near set of its targets: the
    # interior points, the centroids, or the 2m points of the offset
    # stencil at the m centroids.  A separate R pass and P pass would
    # classify and measure every target twice.
    sphere2 = geo.build_icosphere(2)
    measured = []
    near_set = lp._near_set

    def counted(volmesh, targets):
        measured.append(len(lp._volume_points(targets)))
        return near_set(volmesh, targets)

    monkeypatch.setattr(lp, "_near_set", counted)
    run, m = {
        "third": (lambda: gr.third_green_residual(
            gauss_field, source, sphere2, shell_small, INTERIOR_POINTS), len(INTERIOR_POINTS)),
        "trace": (lambda: gr.trace_identity_residual(
            gauss_field, source, sphere2, shell_small), sphere2.n_triangles),
        "conormal": (lambda: gr.conormal_identity_residual_offset(
            gauss_field, source, sphere2, shell_small, 0.05), 2 * sphere2.n_triangles),
    }[residual]
    run()
    assert sum(measured) == m


# --- conormal identity (offset diagnostic) ------------------------------------

def test_conormal_identity_offsets(unit_field, sphere3, shell_small, source):
    rep10 = gr.conormal_identity_residual_offset(unit_field, source, sphere3,
                                                 shell_small, 0.1)
    rep05 = gr.conormal_identity_residual_offset(unit_field, source, sphere3,
                                                 shell_small, 0.05)
    assert rep05.rel_to_scale < 0.10
    assert rep05.rel_to_scale < rep10.rel_to_scale


def test_conormal_identity_zero_field(unit_field, sphere3, shell_small):
    rep = gr.conormal_identity_residual_offset(
        unit_field, gr.constant_field(0.0), sphere3, shell_small, 0.05)
    assert rep.max_abs == 0.0
    with pytest.raises(ValueError):
        gr.conormal_identity_residual_offset(
            unit_field, gr.constant_field(0.0), sphere3, shell_small, 0.0)


# --- single-layer injectivity ---------------------------------------------------

def test_injectivity_positive_and_stable(unit_field):
    sigmas = [gr.single_layer_injectivity(geo.build_icosphere(lvl), unit_field)
              for lvl in (1, 2, 3)]
    assert all(s > 0 for s in sigmas)
    assert max(sigmas) / min(sigmas) < 4.0


def test_injectivity_scales_with_coefficient(unit_field):
    mesh = geo.build_icosphere(2)
    one = gr.single_layer_injectivity(mesh, unit_field)
    two = gr.single_layer_injectivity(mesh, co.constant_coefficient(2.0))
    assert two == pytest.approx(0.5 * one, rel=1e-12)


# --- representation splitting ---------------------------------------------------

def test_representation_recovers_single_layer_density(unit_field, sphere3,
                                                      shell14):
    f_star, psi_star = gr.representation_C(sphere3, shell14, unit_field,
                                           _single_layer_of_one_field())
    assert np.array_equal(f_star.values, np.zeros(shell14.n_cells))
    assert np.abs(psi_star.values - 1.0).max() < 5e-2


def test_representation_recovers_volume_density(unit_field, sphere3, shell14):
    bump, lap = _newton_bump_field()
    f_star, psi_star = gr.representation_C(sphere3, shell14, unit_field, bump)
    assert np.array_equal(f_star.values, lap(shell14.centers))
    scale = np.abs(bump.u(sphere3.centroids)).max()
    assert np.abs(psi_star.values).max() < 0.05 * scale


@pytest.mark.parametrize("coeff", ["constant", "gaussian"])
def test_representation_reconstruction(sphere3, shell14, coeff):
    field = (co.constant_coefficient() if coeff == "constant"
             else co.gaussian_coefficient())
    bump, _ = _newton_bump_field()
    f_star, psi_star = gr.representation_C(sphere3, shell14, field, bump)
    pts = np.array([[0.0, 0.0, 1.5], [2.0, 0.0, 0.0], [3.2, 0.0, 0.0]])
    recon = (px.op_P(shell14, field, f_star, pts)
             + px.op_V(sphere3, field, psi_star, pts))
    rel = np.abs(recon - bump.u(pts)).max() / np.abs(bump.u(pts)).max()
    assert rel < 5e-2