"""Trapezoid quadrature distances on rectangular windows."""

import os
import subprocess
import sys

import numpy as np
import pytest

import stochtaylor
from stochtaylor import (
    DomainError,
    GridSpec,
    integrated_sq_distance,
    l1_distance,
    shift_window_above,
    trapezoid_weights,
)


class TestGridSpec:
    def test_points_are_lexicographic(self):
        grid = GridSpec(lower=(0.0, 10.0), upper=(1.0, 12.0), points_per_dim=3)
        pts = grid.points()
        assert pts.shape == (9, 2)
        assert pts[0] == pytest.approx([0.0, 10.0])
        assert pts[1] == pytest.approx([0.0, 11.0])
        assert pts[-1] == pytest.approx([1.0, 12.0])

    def test_steps(self):
        grid = GridSpec(lower=(0.0,), upper=(2.0,), points_per_dim=5)
        assert grid.steps() == pytest.approx([0.5])

    def test_rejects_degenerate_window(self):
        with pytest.raises(DomainError):
            GridSpec(lower=(1.0,), upper=(1.0,), points_per_dim=10)
        with pytest.raises(DomainError):
            GridSpec(lower=(2.0,), upper=(1.0,), points_per_dim=10)

    def test_rejects_non_finite_bounds(self):
        for lower, upper in (((np.nan,), (1.0,)), ((0.0,), (np.inf,)), ((-np.inf,), (1.0,))):
            with pytest.raises(DomainError):
                GridSpec(lower=lower, upper=upper, points_per_dim=3)

    def test_rejects_boolean_bounds(self):
        for lower, upper in (((True,), (2.0,)), ((0.0,), (np.bool_(True),))):
            with pytest.raises(DomainError):
                GridSpec(lower=lower, upper=upper, points_per_dim=3)

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=1)

    def test_rejects_boolean_and_float_point_counts(self):
        for points in (True, 5.5):
            with pytest.raises(DomainError):
                GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=points)


class TestTrapezoidWeights:
    def test_weights_sum_to_window_volume(self):
        grid = GridSpec(lower=(0.0, 1.0), upper=(2.0, 4.0), points_per_dim=7)
        assert trapezoid_weights(grid).sum() == pytest.approx(2.0 * 3.0, rel=1e-12)

    def test_edge_points_carry_half_weight(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=5)
        w = trapezoid_weights(grid)
        assert w[0] == pytest.approx(w[1] / 2.0)
        assert w[-1] == pytest.approx(w[1] / 2.0)


class TestIntegratedSqDistance:
    def test_identical_inputs_give_zero(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=11)
        values = np.sin(grid.points()[:, 0])
        assert integrated_sq_distance(values, values, grid) == 0.0

    def test_constant_difference(self):
        grid = GridSpec(lower=(0.0,), upper=(3.0,), points_per_dim=50)
        f = np.zeros(50)
        g = np.full(50, 2.0)
        assert integrated_sq_distance(f, g, grid) == pytest.approx(4.0 * 3.0, rel=1e-12)

    def test_linear_difference_against_analytic_integral(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=1001)
        x = grid.points()[:, 0]
        assert integrated_sq_distance(x, np.zeros_like(x), grid) == pytest.approx(
            1.0 / 3.0, abs=1e-5
        )

    def test_two_dimensional_constant(self):
        grid = GridSpec(lower=(0.0, 0.0), upper=(1.0, 2.0), points_per_dim=21)
        n = grid.points().shape[0]
        got = integrated_sq_distance(np.full(n, 1.5), np.zeros(n), grid)
        assert got == pytest.approx(1.5**2 * 2.0, rel=1e-12)

    def test_symmetry(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=64)
        x = grid.points()[:, 0]
        f, g = np.sin(x), np.cos(x)
        assert integrated_sq_distance(f, g, grid) == integrated_sq_distance(g, f, grid)

    def test_quadratic_scaling(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=101)
        x = grid.points()[:, 0]
        base = integrated_sq_distance(x, np.zeros_like(x), grid)
        for c in (-2.0, 0.5):
            got = integrated_sq_distance(c * x, np.zeros_like(x), grid)
            assert got == pytest.approx(c**2 * base, rel=1e-12)

    def test_refinement_quarters_the_error(self):
        # trapezoid error is O(h^2): doubling the point count shrinks the
        # defect against the analytic value by about 4x
        errors = []
        for n in (65, 129, 257):
            grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=n)
            x = grid.points()[:, 0]
            got = integrated_sq_distance(x, np.zeros_like(x), grid)
            errors.append(abs(got - 1.0 / 3.0))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_rejects_size_mismatch_and_non_finite(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=10)
        with pytest.raises(DomainError):
            integrated_sq_distance(np.zeros(9), np.zeros(10), grid)
        bad = np.zeros(10)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            integrated_sq_distance(bad, np.zeros(10), grid)


class TestL1Distance:
    def test_identical_inputs_give_zero(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=11)
        values = np.cos(grid.points()[:, 0])
        assert l1_distance(values, values, grid) == 0.0

    def test_constant_difference(self):
        grid = GridSpec(lower=(0.0,), upper=(5.0,), points_per_dim=40)
        f = np.zeros(40)
        g = np.full(40, -1.5)
        assert l1_distance(f, g, grid) == pytest.approx(1.5 * 5.0, rel=1e-12)

    def test_tent_difference_against_analytic_integral(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=1001)
        x = grid.points()[:, 0]
        assert l1_distance(x, np.full_like(x, 0.5), grid) == pytest.approx(0.25, abs=1e-4)

    def test_absolute_scaling(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=101)
        x = grid.points()[:, 0]
        base = l1_distance(x, np.zeros_like(x), grid)
        for c in (-2.0, 0.5):
            got = l1_distance(c * x, np.zeros_like(x), grid)
            assert got == pytest.approx(abs(c) * base, rel=1e-12)

    def test_symmetry(self):
        grid = GridSpec(lower=(0.0,), upper=(2.0,), points_per_dim=33)
        x = grid.points()[:, 0]
        assert l1_distance(x, x**2, grid) == l1_distance(x**2, x, grid)


def test_distances_do_not_depend_on_the_blas_thread_count():
    # A d=2 evaluation grid of 200 x 200 points, the size of the exp2d and
    # polyexp2d reports: long enough that OpenBLAS splits a dot product
    # across threads. Each thread count runs in a fresh interpreter, as
    # OpenBLAS reads it at import.
    src = os.path.dirname(os.path.dirname(os.path.abspath(stochtaylor.__file__)))
    code = (
        "import numpy as np\n"
        "from stochtaylor import GridSpec, integrated_sq_distance, l1_distance\n"
        "grid = GridSpec((0.0, 0.0), (1.2, 1.2), 200)\n"
        "x = grid.points()\n"
        "f = np.exp(x[:, 0] * x[:, 1])\n"
        "g = f + 0.01 * np.sin(37.0 * x[:, 0] + 11.0 * x[:, 1])\n"
        "print(integrated_sq_distance(g, f, grid).hex(), l1_distance(g, f, grid).hex())\n"
    )
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestShiftWindowAbove:
    def test_moves_lower_edge_one_step_inward(self):
        grid = GridSpec(lower=(0.0,), upper=(7.0,), points_per_dim=1000)
        shifted = shift_window_above(grid, (0.0,))
        step = grid.steps()[0]
        assert shifted.lower == pytest.approx([step])
        assert shifted.upper == grid.upper

    def test_leaves_clear_windows_alone(self):
        grid = GridSpec(lower=(1.0,), upper=(4.0,), points_per_dim=100)
        assert shift_window_above(grid, (0.0,)) == grid

    def test_shifts_only_affected_coordinates(self):
        grid = GridSpec(lower=(0.0, 1.0), upper=(1.2, 2.0), points_per_dim=200)
        shifted = shift_window_above(grid, (0.0, -5.0))
        assert shifted.lower[0] > 0.0
        assert shifted.lower[1] == 1.0

    def test_rejects_origin_above_window(self):
        grid = GridSpec(lower=(0.0,), upper=(1.0,), points_per_dim=3)
        with pytest.raises(DomainError):
            shift_window_above(grid, (0.9,))
