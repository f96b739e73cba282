"""Point-process sampling, realization sums, Monte Carlo means, envelopes."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import stochtaylor.simulate as simulate
from stochtaylor import (
    ComponentParams,
    DomainError,
    Envelope,
    GeneralIntensity,
    NotSampleableError,
    PointPattern,
    RngStream,
    envelope,
    envelope_to_csv,
    evaluate,
    is_sampleable,
    mc_mean,
    mc_values,
    sample_pattern,
    ste_realization,
)
from stochtaylor.model import _stack_components

from conftest import random_intensity, random_model


def degenerate_intensity(lam: float, mu_a: float = 1.0, mu_n: float = 1.0) -> GeneralIntensity:
    comp = ComponentParams(mu_a, 0.0, (mu_n,), (0.0,), (0.0,))
    return GeneralIntensity(lam=lam, weights=(1.0,), components=(comp,), d=1, x0=(0.0,))


class TestRngStream:
    def test_same_seed_same_draws(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 0).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, 0).generator().standard_normal(8)
        b = RngStream(42, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_offsets_stream_id(self):
        assert RngStream(7, 3).child(2) == RngStream(7, 5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            RngStream(True, 0)


class TestIsSampleable:
    def test_single_moderate_correlation(self):
        assert is_sampleable(ComponentParams(0.0, 1.0, (1.0,), (1.0,), (0.9,)))

    def test_two_large_correlations_rejected(self):
        comp = ComponentParams(0.0, 1.0, (1.0, 1.0), (1.0, 1.0), (0.8, 0.7))
        assert not is_sampleable(comp)
        # eigenvalue oracle on the assembled (d+1)x(d+1) correlation-structure
        # covariance: off-diagonal rho couples a with each n_r
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.8
        cov[0, 2] = cov[2, 0] = 0.7
        assert np.linalg.eigvalsh(cov).min() < 0.0

    def test_two_moderate_correlations_accepted(self):
        comp = ComponentParams(0.0, 1.0, (1.0, 1.0), (1.0, 1.0), (0.6, 0.6))
        assert is_sampleable(comp)
        cov = np.eye(3)
        cov[0, 1] = cov[1, 0] = 0.6
        cov[0, 2] = cov[2, 0] = 0.6
        assert np.linalg.eigvalsh(cov).min() >= -1e-12

    def test_unit_correlation_boundary_is_sampleable(self):
        assert is_sampleable(ComponentParams(0.0, 1.0, (1.0,), (1.0,), (1.0,)))


class TestSamplePattern:
    def test_poisson_mean_count(self):
        g = random_intensity(31, 1, 5)
        g = GeneralIntensity(lam=5.0, weights=g.weights, components=g.components, d=1, x0=g.x0)
        counts = [sample_pattern(g, RngStream(32, i)).count for i in range(10_000)]
        assert abs(np.mean(counts) - 5.0) <= 3.0 * math.sqrt(5.0 / 10_000)

    def test_poisson_count_variance(self):
        g = degenerate_intensity(5.0)
        counts = np.array([sample_pattern(g, RngStream(33, i)).count for i in range(10_000)])
        var = counts.var(ddof=1)
        # Var(Poisson) = lam; sample variance has stderr ~ lam*sqrt(2/n)
        assert abs(var - 5.0) <= 5.0 * 5.0 * math.sqrt(2.0 / 10_000)

    def test_empty_pattern_mass(self):
        g = degenerate_intensity(1.5)
        empty = np.array(
            [sample_pattern(g, RngStream(34, i)).count == 0 for i in range(20_000)]
        )
        p = math.exp(-1.5)
        se = math.sqrt(p * (1 - p) / empty.size)
        assert abs(empty.mean() - p) <= 3.0 * se

    def test_coefficient_mean_matches_mixture(self):
        comp = ComponentParams(2.0, 0.7, (1.0,), (0.3,), (0.2,))
        g = GeneralIntensity(lam=5.0, weights=(1.0,), components=(comp,), d=1, x0=(0.0,))
        coeffs = np.concatenate(
            [sample_pattern(g, RngStream(35, i)).a for i in range(10_000)]
        )
        se = 0.7 / math.sqrt(coeffs.size)
        assert abs(coeffs.mean() - 2.0) <= 3.0 * se

    def test_component_assignment_follows_weights(self):
        comps = (
            ComponentParams(-5.0, 0.0, (0.0,), (0.0,), (0.0,)),
            ComponentParams(5.0, 0.0, (0.0,), (0.0,), (0.0,)),
        )
        g = GeneralIntensity(lam=4.0, weights=(0.25, 0.75), components=comps, d=1, x0=(0.0,))
        coeffs = np.concatenate(
            [sample_pattern(g, RngStream(36, i)).a for i in range(5_000)]
        )
        frac_hi = (coeffs > 0).mean()
        se = math.sqrt(0.25 * 0.75 / coeffs.size)
        assert abs(frac_hi - 0.75) <= 4.0 * se

    def test_deterministic_for_fixed_stream(self):
        g = random_intensity(37, 2, 3)
        p1 = sample_pattern(g, RngStream(42, 0))
        p2 = sample_pattern(g, RngStream(42, 0))
        assert np.array_equal(p1.events, p2.events)

    def test_rejects_unsampleable_model(self):
        comp = ComponentParams(0.0, 1.0, (1.0, 1.0), (1.0, 1.0), (0.8, 0.7))
        g = GeneralIntensity(lam=1.0, weights=(1.0,), components=(comp,), d=2, x0=(0.0, 0.0))
        with pytest.raises(NotSampleableError):
            sample_pattern(g, RngStream(0, 0))


def reference_draw_block(g, gen, size):
    """The event draw that the guide and component tables replaced, kept as the
    reference: one searchsorted over the cumulative weights per chunk, and one
    (M, d)[idx] gather per moment. Returns the counts and the list of chunks."""
    mu_a, sigma_a, mu_n, sigma_n, rho = _stack_components(g.components)
    tail = np.sqrt(np.maximum(0.0, 1.0 - (rho**2).sum(axis=1)))
    cum_w = np.cumsum(np.asarray(g.weights, dtype=float))
    counts = gen.poisson(g.lam, size)
    chunks = []
    total = int(counts.sum())
    for start in range(0, total, simulate._CHUNK):
        v = min(simulate._CHUNK, total - start)
        if g.m > 1:
            idx = np.searchsorted(cum_w, gen.random(v), side="right")
            np.clip(idx, 0, g.m - 1, out=idx)
        else:
            idx = np.zeros(v, dtype=np.intp)
        z = gen.standard_normal((v, g.d + 1))
        n = mu_n[idx] + sigma_n[idx] * z[:, 1:]
        resid = (rho[idx] * z[:, 1:]).sum(axis=1) + tail[idx] * z[:, 0]
        chunks.append((mu_a[idx] + sigma_a[idx] * resid, n))
    return counts, chunks


class ZeroNormals:
    """A generator whose normals are zeros with the signs of the real draws."""

    def __init__(self, gen):
        self.gen = gen
        self.poisson, self.random = gen.poisson, gen.random

    def standard_normal(self, shape):
        return np.copysign(0.0, self.gen.standard_normal(shape))


class TestDrawBlock:
    @staticmethod
    def assert_same_draws(g, rng, size=1024, zero_normals=False):
        wrap = ZeroNormals if zero_normals else (lambda gen: gen)
        gen_got, gen_want = rng.generator(), rng.generator()
        counts, chunks = simulate._draw_block(
            g, simulate._component_arrays(g), wrap(gen_got), size
        )
        want_counts, want_chunks = reference_draw_block(g, wrap(gen_want), size)
        assert counts.tobytes() == want_counts.tobytes()
        got_chunks = list(chunks)
        assert len(got_chunks) == len(want_chunks) > 0
        for (a, n), (want_a, want_n) in zip(got_chunks, want_chunks):
            assert a.shape == want_a.shape and n.shape == want_n.shape
            assert a.tobytes() == want_a.tobytes()
            assert n.tobytes() == want_n.tobytes()
        # Both drew the same number of variates from their streams.
        assert gen_got.random() == gen_want.random()

    # d >= 8 puts the rho term on numpy's pairwise sum; M = 3 and random
    # weights put weight boundaries inside guide bins.
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("m", [1, 3, 8])
    @pytest.mark.parametrize("weights", ["uniform", "random"])
    def test_chunks_are_the_reference_arithmetic_bit_for_bit(self, d, m, weights):
        seed = 100 + 10 * d + m
        g = random_model(seed, d, m) if weights == "uniform" else random_intensity(seed, d, m)
        self.assert_same_draws(g, RngStream(seed, 1))

    def test_chunks_that_split_realizations(self, monkeypatch):
        monkeypatch.setattr(simulate, "_CHUNK", 7)
        for d, m in ((1, 3), (2, 8), (9, 1)):
            self.assert_same_draws(random_intensity(120 + d, d, m), RngStream(d, 2), size=40)

    @pytest.mark.parametrize("d", [1, 2])
    def test_signed_zero_terms(self, d):
        # With zero normals and mu_a = -0.0, a coefficient keeps the sign that
        # the reference's sum of the rho terms gives its zero residual.
        comp = ComponentParams(-0.0, 0.5, (1.0,) * d, (0.2,) * d, (0.6,) + (0.0,) * (d - 1))
        g = GeneralIntensity(3.0, (0.5, 0.5), (comp, comp), d, (0.0,) * d)
        self.assert_same_draws(g, RngStream(7, d), size=64, zero_normals=True)


class TestSteRealization:
    def test_empty_pattern_is_zero(self):
        pattern = PointPattern(events=np.empty((0, 2)), d=1)
        assert ste_realization(pattern, (3.0,), (0.0,)) == 0.0

    def test_two_event_arithmetic(self):
        pattern = PointPattern(events=np.array([[2.0, 1.0], [-1.0, 0.0]]), d=1)
        assert ste_realization(pattern, (3.0,), (0.0,)) == 5.0

    def test_bivariate_event_arithmetic(self):
        pattern = PointPattern(events=np.array([[1.5, 0.5, 2.0]]), d=2)
        assert ste_realization(pattern, (4.0, 2.0), (0.0, 0.0)) == 12.0

    def test_rejects_point_at_origin(self):
        pattern = PointPattern(events=np.array([[1.0, 1.0]]), d=1)
        with pytest.raises(DomainError):
            ste_realization(pattern, (0.0,), (0.0,))

    def test_rejects_origin_shorter_than_pattern(self):
        pattern = PointPattern(events=np.array([[1.5, 0.5, 2.0]]), d=2)
        with pytest.raises(DomainError):
            ste_realization(pattern, (4.0, 2.0), (0.0,))

    def test_rejects_origin_longer_than_pattern(self):
        pattern = PointPattern(events=np.array([[1.5, 0.5, 2.0]]), d=2)
        with pytest.raises(DomainError):
            ste_realization(pattern, (4.0, 2.0), (0.0, 0.0, 0.0))

    def test_pattern_rejects_boolean_dimension(self):
        with pytest.raises(DomainError):
            PointPattern(events=np.empty((0, 2)), d=True)


class TestMcValues:
    def test_shape_and_determinism(self):
        g = random_intensity(38, 1, 2)
        grid = np.linspace(0.5, 2.0, 7)[:, None]
        v1 = mc_values(g, grid, 50, RngStream(39, 0))
        v2 = mc_values(g, grid, 50, RngStream(39, 0))
        assert v1.shape == (50, 7)
        assert np.array_equal(v1, v2)

    # Block, chunk and tile sizes and the grid size from which blocks are
    # summed by event-count groups: the shipped ones, small ones that put
    # block, chunk and tile boundaries inside a few hundred realizations, and
    # a tile narrower than the grid, each through both reductions (a grid
    # size of 1 groups every grid, _NEVER none).
    _NEVER = 1 << 62
    SIZES = [
        None,
        (16, 7, 12, _NEVER),
        (5, 64, 30, _NEVER),
        (simulate._BLOCK, simulate._CHUNK, simulate._TILE, 1),
        (16, 7, 12, 1),
        (5, 64, 30, 1),
        (16, 7, 2, _NEVER),
        (16, 7, 2, 1),
    ]

    @staticmethod
    def with_sizes(monkeypatch, sizes):
        if sizes is not None:
            for name, value in zip(("_BLOCK", "_CHUNK", "_TILE", "_GROUP_POINTS"), sizes):
                monkeypatch.setattr(simulate, name, value)

    @pytest.mark.parametrize("sizes", SIZES)
    def test_rows_are_the_block_draws(self, monkeypatch, sizes):
        # Row i is realization i of the block draw of stream rng.child(b),
        # evaluated by the reference ste_realization.
        self.with_sizes(monkeypatch, sizes)
        g = random_intensity(40, 2, 3)
        grid = np.array([[0.8, 1.3], [1.6, 0.7], [1.1, 2.2]])
        n_real, rng = 300, RngStream(41, 0)
        values = mc_values(g, grid, n_real, rng)
        assert values.shape == (n_real, 3)
        arrays = simulate._component_arrays(g)
        for b, lo in enumerate(range(0, n_real, simulate._BLOCK)):
            size = min(simulate._BLOCK, n_real - lo)
            gen = rng.child(b).generator()
            counts, chunks = simulate._draw_block(g, arrays, gen, size)
            events = np.concatenate([np.column_stack([a, n]) for a, n in chunks])
            ends = np.cumsum(counts)
            for i in range(size):
                pattern = PointPattern(events=events[ends[i] - counts[i] : ends[i]], d=2)
                for j, x in enumerate(grid):
                    want = ste_realization(pattern, x, g.x0)
                    assert values[lo + i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_one_realization_is_sample_pattern(self):
        for seed, d, m in ((42, 1, 1), (43, 2, 3), (44, 3, 2)):
            g = random_intensity(seed, d, m)
            grid = np.asarray(g.x0) + np.array([[0.7] * d, [1.9] * d])
            rng = RngStream(seed, 5)
            pattern = sample_pattern(g, rng)
            values = mc_values(g, grid, 1, rng)
            for j, x in enumerate(grid):
                want = ste_realization(pattern, x, g.x0)
                assert values[0, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("sizes", SIZES)
    def test_empty_rows_are_exactly_zero(self, monkeypatch, sizes):
        # Every event of this intensity adds x (a = 1, n = 1; exactly 2.0 at
        # x = 2), so a row is x times its Poisson count. The counts come
        # first in each block's stream, and many are 0.
        self.with_sizes(monkeypatch, sizes)
        g = degenerate_intensity(0.8)
        n_real, rng = 2_500, RngStream(45, 3)
        values = mc_values(g, np.array([[2.0], [0.5]]), n_real, rng)
        block = simulate._BLOCK
        counts = np.concatenate(
            [
                rng.child(b).generator().poisson(0.8, min(block, n_real - lo))
                for b, lo in enumerate(range(0, n_real, block))
            ]
        )
        assert (counts == 0).sum() > 500
        assert np.array_equal(values[:, 0], 2.0 * counts)
        assert np.array_equal(values[counts == 0], np.zeros(((counts == 0).sum(), 2)))

    def test_memory_is_bounded_at_large_rate(self, monkeypatch):
        # 4 realizations of about 2e6 events each: the draws, tiles and
        # groups are chunked, so the traced peak of either reduction stays
        # far below the 64 MB that a single event array of 8e6 doubles would
        # take.
        g = degenerate_intensity(2e6)
        grid = np.array([[0.5], [1.5], [2.0]])
        counts = RngStream(46, 0).generator().poisson(2e6, 4)
        for group_points in (self._NEVER, 1):
            monkeypatch.setattr(simulate, "_GROUP_POINTS", group_points)
            tracemalloc.start()
            try:
                values = mc_values(g, grid, 4, RngStream(46, 0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20
            assert values == pytest.approx(counts[:, None] * grid[:, 0], rel=1e-9)

    def test_pieces_are_added_in_event_order(self, monkeypatch):
        # One realization of five events on a one-point grid at x - x0 = 1,
        # where each term is its coefficient. Tiles of two elements cut it
        # into pieces [1e16, 0], [-1e16, 0] and [1]; in event order the row is
        # (1e16 - 1e16) + 1 = 1.0, while the pieces in reverse, or the short
        # piece first, give (1 - 1e16) + 1e16 = 0.0.
        a = np.array([1e16, 0.0, -1e16, 0.0, 1.0])

        def draw_block(g, arrays, gen, size):
            return np.array([a.size]), iter([(a, np.zeros((a.size, 1)))])

        monkeypatch.setattr(simulate, "_draw_block", draw_block)
        monkeypatch.setattr(simulate, "_TILE", 2)
        for group_points in (self._NEVER, 1):
            monkeypatch.setattr(simulate, "_GROUP_POINTS", group_points)
            values = mc_values(degenerate_intensity(1.0), [[1.0]], 1, RngStream(0, 0))
            assert values[0, 0] == 1.0

    def test_rejects_bad_inputs(self):
        g = random_intensity(42, 1, 2)
        with pytest.raises(DomainError):
            mc_values(g, np.empty((0, 1)), 10, RngStream(0, 0))
        with pytest.raises(DomainError):
            mc_values(g, np.ones((3, 2)), 10, RngStream(0, 0))
        with pytest.raises(DomainError):
            mc_values(g, np.ones((3, 1)), 0, RngStream(0, 0))

    def test_rejects_boolean_count(self):
        g = random_intensity(42, 1, 2)
        for n_real in (True, 2.5):
            with pytest.raises(DomainError):
                mc_values(g, np.ones((3, 1)), n_real, RngStream(0, 0))


class TestExpTerms:
    @pytest.mark.parametrize("n_points", [1, 2, 31, 32, 200])
    @pytest.mark.parametrize("rows", [1, 7, 327, 2048])
    def test_d1_is_exp_of_the_broadcast_product(self, n_points, rows):
        # At d = 1 the exponents are one BLAS outer product. The buffer starts
        # as NaNs and infinities, which a dgemm that read it (beta != 0) would
        # carry into the terms. Powers of either sign and zero, and products
        # that overflow, are all exp of np.multiply's products bit for bit.
        gen = RngStream(n_points, rows).generator()
        n = gen.normal(0.5, 2.0, (rows, 1))
        n[::5], n[1::5], n[3::11] = 0.0, -0.0, 1e308
        log_delta = np.log(gen.uniform(0.05, 3.0, (n_points, 1)))
        log_delta[0] = 0.0
        out = np.full((rows, n_points), np.nan)
        out[::2] = np.inf
        with np.errstate(over="ignore"):
            want = np.exp(np.multiply(n, log_delta.T))
            got = simulate._exp_terms(n, log_delta, out)
        assert got is out
        assert got.tobytes() == want.tobytes()

    def test_d1_values_do_not_depend_on_the_blas_thread_count(self):
        # mc_values at d = 1 on the tile path (1 and 31 points) and the
        # grouped path (32 and 200 points). Each thread count runs in a fresh
        # interpreter, as OpenBLAS reads it at import.
        src = os.path.dirname(os.path.dirname(os.path.abspath(simulate.__file__)))
        code = (
            "import hashlib\n"
            "import numpy as np\n"
            "from stochtaylor import ComponentParams, GeneralIntensity, RngStream, mc_values\n"
            "comps = (ComponentParams(0.8, 0.4, (1.3,), (0.3,), (0.5,)),\n"
            "         ComponentParams(-0.5, 0.2, (-0.4,), (0.6,), (-0.2,)))\n"
            "g = GeneralIntensity(6.5, (0.3, 0.7), comps, 1, (0.1,))\n"
            "for n_points in (1, 31, 32, 200):\n"
            "    grid = np.linspace(0.2, 2.6, n_points)[:, None]\n"
            "    values = mc_values(g, grid, 1500, RngStream(8, n_points))\n"
            "    print(n_points, hashlib.sha256(values.tobytes()).hexdigest())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            outputs.append(proc.stdout)
        assert outputs[0].count("\n") == 4
        assert outputs[0] == outputs[1]


class TestMcMean:
    def test_degenerate_poisson_mean(self):
        g = degenerate_intensity(1.0)
        mean, stderr = mc_mean(g, (2.0,), 10**5, RngStream(43, 0))
        assert stderr > 0.0
        assert abs(mean - 2.0) <= 3.0 * stderr

    def test_unit_offset_mean(self):
        g = random_intensity(44, 1, 3)
        mean, stderr = mc_mean(g, (1.0,), 10**5, RngStream(450, 0))
        want = g.lam * sum(w * c.mu_a for w, c in zip(g.weights, g.components))
        assert abs(mean - want) <= 3.0 * stderr

    def test_matches_closed_form(self):
        g = random_intensity(46, 2, 2)
        x = (1.1, 0.9)
        mean, stderr = mc_mean(g, x, 10**5, RngStream(47, 0))
        assert abs(mean - evaluate(g, x)) <= 3.0 * stderr

    @pytest.mark.parametrize("n_real", [2, 3, 9, 1000, 5000])
    def test_is_numpy_mean_and_std_of_the_values(self, n_real):
        # Bit for bit, though mc_mean forms the deviations in place.
        g = random_intensity(48, 1, 3)
        values = mc_values(g, [(1.3,)], n_real, RngStream(49, n_real))[:, 0]
        want = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_real)))
        assert mc_mean(g, (1.3,), n_real, RngStream(49, n_real)) == want

    def test_requires_at_least_two_realizations(self):
        g = degenerate_intensity(1.0)
        with pytest.raises(DomainError):
            mc_mean(g, (2.0,), 1, RngStream(0, 0))

    def test_rejects_boolean_and_float_counts(self):
        g = degenerate_intensity(1.0)
        for n_real in (True, 2.5):
            with pytest.raises(DomainError):
                mc_mean(g, (2.0,), n_real, RngStream(0, 0))


class TestModelAsIntensity:
    def test_model_draws_match_its_general_intensity(self):
        model = random_model(60, 2, 3)
        g = GeneralIntensity.from_model(model)
        grid = np.array([[1.2, 0.9], [1.7, 1.4]])
        assert np.array_equal(
            sample_pattern(model, RngStream(61, 0)).events,
            sample_pattern(g, RngStream(61, 0)).events,
        )
        assert np.array_equal(
            mc_values(model, grid, 200, RngStream(62, 0)),
            mc_values(g, grid, 200, RngStream(62, 0)),
        )
        env_model = envelope(model, grid, 200, 0.1, RngStream(63, 0))
        env_g = envelope(g, grid, 200, 0.1, RngStream(63, 0))
        for name in ("lower", "mean", "upper"):
            assert np.array_equal(getattr(env_model, name), getattr(env_g, name))


class TestEnvelope:
    def grid(self):
        return np.linspace(0.5, 2.5, 21)[:, None]

    def test_alpha_near_one_collapses_to_median(self):
        g = random_intensity(48, 1, 2)
        narrow = envelope(g, self.grid(), 2_000, 0.999, RngStream(49, 0))
        wide = envelope(g, self.grid(), 2_000, 0.05, RngStream(49, 0))
        med = np.quantile(
            mc_values(g, self.grid(), 2_000, RngStream(49, 0)),
            0.5,
            axis=0,
            method="inverted_cdf",
        )
        assert np.all(narrow.lower <= med)
        assert np.all(med <= narrow.upper)
        # band of adjacent order statistics: negligible next to the 95% band
        assert np.all(narrow.upper - narrow.lower <= 0.05 * (wide.upper - wide.lower))

    def test_band_edges_are_per_point_quantiles_of_the_realizations(self):
        g = random_intensity(48, 1, 2)
        env = envelope(g, self.grid(), 2_000, 0.1, RngStream(49, 0))
        values = mc_values(g, self.grid(), 2_000, RngStream(49, 0))
        for edge, prob in ((env.lower, 0.05), (env.upper, 0.95)):
            want = np.quantile(values, prob, axis=0, method="inverted_cdf")
            assert np.array_equal(edge, want)

    def test_width_shrinks_with_rate(self):
        # Coefficients scaled by 1/lam keep the mean curve fixed, so the
        # realization sum concentrates and the band narrows as lam grows.
        lo = degenerate_intensity(1e2, mu_a=1e-2)
        hi = degenerate_intensity(1e4, mu_a=1e-4)
        env_lo = envelope(lo, self.grid(), 2_000, 0.05, RngStream(50, 0))
        env_hi = envelope(hi, self.grid(), 2_000, 0.05, RngStream(50, 0))
        assert np.all(env_hi.upper - env_hi.lower < env_lo.upper - env_lo.lower)

    def test_deterministic(self):
        g = random_intensity(51, 1, 2)
        e1 = envelope(g, self.grid(), 1_000, 0.05, RngStream(52, 0))
        e2 = envelope(g, self.grid(), 1_000, 0.05, RngStream(52, 0))
        assert np.array_equal(e1.lower, e2.lower)
        assert np.array_equal(e1.upper, e2.upper)
        assert np.array_equal(e1.mean, e2.mean)

    def test_band_ordering_and_mean_column(self):
        g = random_intensity(53, 1, 3)
        env = envelope(g, self.grid(), 1_000, 0.05, RngStream(54, 0))
        assert np.all(env.lower <= env.upper)
        values = mc_values(g, self.grid(), 1_000, RngStream(54, 0))
        assert env.mean == pytest.approx(values.mean(axis=0), rel=1e-12)

    def test_alpha_monotonicity(self):
        g = random_intensity(55, 1, 2)
        prev = None
        for alpha in (0.01, 0.05, 0.2, 0.5):
            env = envelope(g, self.grid(), 1_000, alpha, RngStream(56, 0))
            if prev is not None:
                # larger alpha gives a narrower band, nested inside the wider one
                assert np.all(env.lower >= prev.lower)
                assert np.all(env.upper <= prev.upper)
            prev = env

    def test_csv_format(self):
        g = random_intensity(57, 2, 2)
        grid = np.array([[0.5, 0.5], [1.0, 1.5]])
        env = envelope(g, grid, 200, 0.05, RngStream(58, 0))
        lines = envelope_to_csv(env).strip().split("\n")
        assert lines[0] == "x_1,x_2,lower,mean,upper"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        assert float(first[2]) == env.lower[0]

    def test_rejects_bad_alpha(self):
        g = degenerate_intensity(1.0)
        with pytest.raises(DomainError):
            envelope(g, self.grid(), 100, 0.0, RngStream(0, 0))
        with pytest.raises(DomainError):
            envelope(g, self.grid(), 100, 1.0, RngStream(0, 0))

    @pytest.mark.parametrize("sizes", TestMcValues.SIZES)
    def test_band_and_mean_are_the_matrix_reductions(self, monkeypatch, sizes):
        # Many blocks, and tails longer than a block at alpha = 0.5, on a
        # rate that leaves about half of the rows exactly 0.0.
        TestMcValues.with_sizes(monkeypatch, sizes)
        g = degenerate_intensity(0.7, mu_a=-1.0)
        grid = np.array([[0.5], [1.0], [2.0]])
        for n_real, alpha in ((300, 0.5), (300, 0.02), (2_100, 0.1)):
            env = envelope(g, grid, n_real, alpha, RngStream(64, 1))
            values = mc_values(g, grid, n_real, RngStream(64, 1))
            probs = [alpha / 2.0, 1.0 - alpha / 2.0]
            lower, upper = np.quantile(values, probs, axis=0, method="inverted_cdf")
            assert np.array_equal(env.lower, lower)
            assert np.array_equal(env.upper, upper)
            assert np.array_equal(env.mean, values.mean(axis=0))

    def test_tails_longer_than_several_blocks(self, monkeypatch):
        # Blocks of 8: a tail of k values takes max(k, 8) more before it is
        # partitioned, so at k = 16 (alpha 0.2 at 160) each partition follows
        # two whole blocks, and at k of about 100 (alpha 0.5 at 403) about 12
        # blocks, the last one short.
        monkeypatch.setattr(simulate, "_BLOCK", 8)
        g = degenerate_intensity(0.7, mu_a=-1.0)
        grid = np.array([[0.5], [2.0]])
        for n_real, alpha in ((160, 0.2), (403, 0.5), (403, 0.05)):
            env = envelope(g, grid, n_real, alpha, RngStream(67, 1))
            values = mc_values(g, grid, n_real, RngStream(67, 1))
            probs = [alpha / 2.0, 1.0 - alpha / 2.0]
            lower, upper = np.quantile(values, probs, axis=0, method="inverted_cdf")
            assert np.array_equal(env.lower, lower)
            assert np.array_equal(env.upper, upper)
            assert np.array_equal(env.mean, values.mean(axis=0))

    def test_memory_does_not_grow_with_the_matrix(self):
        # 2e4 realizations on 500 points: the (n_real, n_points) matrix
        # alone is 76 MiB. The band keeps about alpha/2 * n_real values per
        # point and tail, plus one block.
        g = random_intensity(65, 1, 2)
        grid = np.linspace(0.5, 2.5, 500)[:, None]
        tracemalloc.start()
        try:
            env = envelope(g, grid, 20_000, 0.05, RngStream(66, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 20_000 * 500 * 8
        assert np.all(env.lower <= env.upper)

    # Bad inputs: the arguments that differ from a valid call, and the error
    # and message each raises.
    UNSAMPLEABLE = GeneralIntensity(
        lam=1.0,
        weights=(1.0,),
        components=(ComponentParams(0.0, 1.0, (1.0, 1.0), (1.0, 1.0), (0.8, 0.7)),),
        d=2,
        x0=(0.0, 0.0),
    )
    BAD_INPUTS = {
        "alpha 0": ({"alpha": 0.0}, DomainError, "alpha must lie in (0, 1), got 0.0"),
        "alpha 1": ({"alpha": 1.0}, DomainError, "alpha must lie in (0, 1), got 1.0"),
        "alpha nan": ({"alpha": math.nan}, DomainError, "alpha must be finite, got nan"),
        "alpha bool": ({"alpha": True}, DomainError, "alpha must be a real number, got True"),
        "empty grid": (
            {"grid": np.empty((0, 1))}, DomainError, "grid must contain at least one point"
        ),
        "grid width": (
            {"grid": np.ones((3, 2))}, DomainError, "points must be (N, 1), got shape (3, 2)"
        ),
        "grid at origin": (
            {"grid": [[1.0], [0.0]]},
            DomainError,
            "row 1: point [0.0] must be finite and lie strictly above the origin [0.0]",
        ),
        "n_real 0": ({"n_real": 0}, DomainError, "n_real must be a positive integer, got 0"),
        "n_real bool": (
            {"n_real": True}, DomainError, "n_real must be a positive integer, got True"
        ),
        "n_real float": (
            {"n_real": 2.5}, DomainError, "n_real must be a positive integer, got 2.5"
        ),
        "unsampleable": (
            {"g": UNSAMPLEABLE, "grid": [[1.0, 1.0]]},
            NotSampleableError,
            "component 0 is not sampleable: sum of squared correlations 1.13 exceeds 1 "
            "(covariance not positive semidefinite)",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_raises_before_any_buffer(self, monkeypatch, case):
        # A million realizations would need tails of about 2 MiB and index
        # arrays of 16 MiB; a bad input must raise before any of them, and
        # before a realization is drawn.
        bad, error, message = self.BAD_INPUTS[case]
        args = dict(g=degenerate_intensity(1.0), grid=self.grid(), n_real=10**6, alpha=0.05)
        args.update(bad)

        def no_draws(*_):
            raise AssertionError("drew realizations before rejecting the input")

        monkeypatch.setattr(simulate, "mc_values", no_draws)
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                envelope(**args, rng=RngStream(0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(info.value) is error
        assert str(info.value) == message
        assert peak < 2**20

    def test_envelope_type_rejects_boolean_count(self):
        one = np.array([1.0])
        with pytest.raises(DomainError):
            Envelope(
                grid=np.array([[1.0]]), lower=one, upper=one, mean=one, alpha=0.05, n_real=True
            )

    def test_envelope_type_validates_band(self):
        grid = np.array([[1.0]])
        with pytest.raises(DomainError):
            Envelope(
                grid=grid,
                lower=np.array([2.0]),
                upper=np.array([1.0]),
                mean=np.array([1.5]),
                alpha=0.05,
                n_real=10,
            )
