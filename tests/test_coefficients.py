"""Coefficient catalog, derived log-derivatives, and admissibility audits."""

import numpy as np
import pytest

from bdie import cases
from bdie import coefficients as co
from bdie import parametrix as px


def test_weight_value():
    assert co.weight(np.array([1.0, 2.0, 2.0])) == pytest.approx(np.sqrt(10.0))
    assert co.weight(np.zeros(3)) == 1.0


def test_weight_batched():
    pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 4.0]])
    assert np.allclose(co.weight(pts), [1.0, np.sqrt(26.0)])


class TestGaussian:
    field = co.gaussian_coefficient()

    def test_value(self):
        assert self.field.eval_a(np.zeros(3)) == pytest.approx(2.0)
        x = np.array([1.0, 0.0, 0.0])
        assert self.field.eval_a(x) == pytest.approx(1.0 + np.exp(-1.0))

    def test_grad_ln_a(self):
        x = np.array([1.0, 0.0, 0.0])
        expect = -2.0 * np.exp(-1.0) / (1.0 + np.exp(-1.0))
        g = self.field.eval_grad_ln_a(x)
        assert g[0] == pytest.approx(expect, rel=1e-12)
        assert g[1] == 0.0 and g[2] == 0.0

    def test_laplacian_ln_a_at_origin(self):
        # lap a / a - |grad a|^2 / a^2 = -6/2 - 0
        assert self.field.eval_laplacian_ln_a(np.zeros(3)) == pytest.approx(-3.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=3)
        h = 1e-5
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (self.field.eval_a(x + e) - self.field.eval_a(x - e)) / (2 * h)
            assert abs(self.field.grad_a(x)[i] - fd) < 1e-6

    def test_report_passes_all(self):
        rep = co.validate_conditions(self.field)
        assert rep.passes_cond0 and rep.passes_cond1 and rep.passes_cond3
        assert rep.passes_decay
        assert rep.sup_weighted_grad > 0

    def test_report_serializes(self):
        d = co.validate_conditions(self.field).to_dict()
        assert d["name"] == self.field.name
        assert isinstance(d["tail_samples"], list)


def test_sinusoidal_fails_growth_condition():
    rep = co.validate_conditions(co.sinusoidal_coefficient())
    assert rep.passes_cond0
    assert not rep.passes_cond1
    assert not rep.passes_decay


def test_constant_passes_trivially():
    rep = co.validate_conditions(co.constant_coefficient(2.0))
    assert rep.passes_cond0 and rep.passes_cond1 and rep.passes_cond3
    assert rep.passes_decay
    assert rep.sup_weighted_grad == 0.0
    assert rep.sup_weighted_laplacian == 0.0


def test_is_constant_probe():
    assert co.constant_coefficient(3.0).is_constant
    assert not co.gaussian_coefficient().is_constant


def test_compact_inclusion_is_not_constant():
    """An inclusion that misses every fixed probe point is still variable:
    constancy is declared, not sampled, so its remainder block is kept."""
    field = co.coefficient_by_name("inclusion")
    rng = np.random.default_rng(3)
    pts = np.array([0.0, 0.0, -2.0]) + 0.5 * rng.uniform(-1.0, 1.0, size=(20, 3))
    h = 1e-4
    eye = h * np.eye(3)
    fd_grad = np.stack([(field.eval_a(pts + e) - field.eval_a(pts - e)) / (2 * h)
                        for e in eye], axis=1)
    fd_lap = sum(field.eval_a(pts + e) - 2 * field.eval_a(pts) + field.eval_a(pts - e)
                 for e in eye) / h**2
    assert np.abs(fd_grad - field.grad_a(pts)).max() < 1e-6
    assert np.abs(fd_lap - field.laplacian_a(pts)).max() < 1e-4
    assert np.abs(field.grad_a(pts)).max() > 0.1

    assert not field.is_constant
    _, vol = cases.level_meshes(1)
    block = px.op_R_matrix(vol, field, vol.centers)
    assert np.abs(block).max() > 0.0


def test_bounds_must_be_ordered():
    with pytest.raises(ValueError):
        co.CoefficientField(
            a=lambda x: np.ones(np.shape(x)[:-1]),
            grad_a=lambda x: np.zeros(np.shape(x)),
            laplacian_a=lambda x: np.zeros(np.shape(x)[:-1]),
            c_lower=2.0,
            c_upper=1.0,
            name="bad",
        )


def test_catalog_lookup():
    assert co.coefficient_by_name("gaussian").name.startswith("gaussian")
    assert co.coefficient_by_name("constant", value=2.0).eval_a(np.zeros(3)) == 2.0
    with pytest.raises(KeyError):
        co.coefficient_by_name("nope")


def test_fibonacci_sphere_is_deterministic_and_unit():
    a = co.fibonacci_sphere(64)
    b = co.fibonacci_sphere(64)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_gaussian_tail_is_negligible():
    rep = co.validate_conditions(co.gaussian_coefficient())
    assert rep.tail_samples[-1][1] < 1e-12


# --- every catalog coefficient ------------------------------------------------

def _sample_points():
    # Points around the origin, on and off the unit sphere, and in and
    # around the inclusion's ball (centre (0, 0, -2), radius 0.8).
    rng = np.random.default_rng(17)
    return np.concatenate([1.5 * rng.normal(size=(40, 3)),
                           np.array([0.0, 0.0, -2.0]) + 0.6 * rng.uniform(-1, 1, size=(40, 3))])


def _central_differences(fn, points, h):
    """Gradient (n, 3) and Laplacian (n,) of fn by central differences."""
    eye = h * np.eye(3)
    grad = np.stack([(fn(points + e) - fn(points - e)) / (2 * h) for e in eye], axis=1)
    lap = sum(fn(points + e) - 2 * fn(points) + fn(points - e) for e in eye) / h**2
    return grad, lap


@pytest.mark.parametrize("name", co.coefficient_names())
def test_catalog_derivatives_match_finite_differences(name):
    field = co.coefficient_by_name(name)
    pts = _sample_points()
    grad, lap = _central_differences(field.eval_a, pts, 1e-4)
    assert np.abs(grad - field.grad_a(pts)).max() <= 1e-6
    assert np.abs(lap - field.laplacian_a(pts)).max() <= 1e-4


@pytest.mark.parametrize("name", co.coefficient_names())
def test_catalog_log_derivatives_match_finite_differences(name):
    # grad ln a and lap ln a, which the parametrix and its remainder use.
    field = co.coefficient_by_name(name)
    pts = _sample_points()
    grad, lap = _central_differences(lambda x: np.log(field.eval_a(x)), pts, 1e-4)
    assert np.abs(grad - field.eval_grad_ln_a(pts)).max() <= 1e-6
    assert np.abs(lap - field.eval_laplacian_ln_a(pts)).max() <= 1e-4


@pytest.mark.parametrize("name", co.coefficient_names())
def test_catalog_coefficient_keeps_its_claimed_bounds(name):
    field = co.coefficient_by_name(name)
    sphere = co.fibonacci_sphere(64)
    pts = np.concatenate([_sample_points()] + [r * sphere for r in co.RADII])
    a = field.eval_a(pts)
    assert np.all((field.c_lower < a) & (a < field.c_upper))


@pytest.mark.parametrize("name", co.coefficient_names())
def test_catalog_coefficient_evaluates_batches_pointwise(name):
    # The engines evaluate a on (cells, nodes, 3) tables: a batch gives the
    # values, gradients and Laplacians of its points one at a time.
    field = co.coefficient_by_name(name)
    pts = _sample_points()
    batch = pts.reshape(8, 10, 3)
    for fn, shape in ((field.eval_a, (8, 10)), (field.grad_a, (8, 10, 3)),
                      (field.laplacian_a, (8, 10))):
        got = np.asarray(fn(batch))
        assert got.shape == shape
        one_by_one = np.array([fn(p) for p in pts]).reshape(shape)
        assert np.array_equal(got, one_by_one)
