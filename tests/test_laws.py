import math

import numpy as np
import pytest
from scipy.integrate import quad

from fluidq.laws import (
    DensityRequiredError,
    capped_linear_rate,
    constant_rate,
    make_arrivals,
    make_deterministic,
    make_exponential,
    make_lognormal,
    make_uniform,
    table_rate,
)

from oracles import rate_on_array, service_cdf, service_pdf

LAWS = {
    "exponential": make_exponential(1.0),
    "lognormal": make_lognormal(0.0, 0.5),
    "uniform": make_uniform(0.0, 2.0),
    "deterministic": make_deterministic(0.5),
}


def ks_statistic(law, sample):
    """sup_x |ecdf(x) - (1 - tail(x))|, evaluated with one-sided limits at the
    distinct sample values so laws with atoms compare cleanly."""
    xs = np.sort(sample)
    n = xs.size
    values = np.unique(xs)
    ecdf_right = np.searchsorted(xs, values, side="right") / n
    ecdf_left = np.searchsorted(xs, values, side="left") / n
    cdf_right = 1.0 - np.asarray(law.tail(values), dtype=float)
    cdf_left = 1.0 - np.asarray(law.tail_geq(values), dtype=float)
    return max(
        float(np.max(np.abs(ecdf_right - cdf_right))),
        float(np.max(np.abs(ecdf_left - cdf_left))),
    )


class TestServiceLaws:
    def test_exponential_tail_at_zero(self):
        assert make_exponential(1.0).tail(0.0) == 1.0

    def test_exponential_density_at_zero(self):
        assert make_exponential(1.0).pdf(0.0) == 1.0

    def test_exponential_median(self):
        assert make_exponential(2.0).tail(math.log(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_midpoint(self):
        assert make_uniform(0.0, 2.0).tail(1.0) == 0.5

    def test_lognormal_median(self):
        # the median of a lognormal is e^mu
        assert make_lognormal(0.0, 1.0).tail(1.0) == pytest.approx(0.5, abs=1e-12)
        assert make_lognormal(0.7, 0.4).tail(math.exp(0.7)) == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            make_exponential(0.0)

    def test_deterministic_refused_where_density_needed(self):
        with pytest.raises(DensityRequiredError, match="density required"):
            make_deterministic(0.5).require_lipschitz_density()

    def test_uniform_density_not_lipschitz(self):
        with pytest.raises(DensityRequiredError):
            make_uniform(0.0, 2.0).require_lipschitz_density()

    @pytest.mark.parametrize("name", ["exponential", "lognormal"])
    def test_lipschitz_densities_accepted(self, name):
        LAWS[name].require_lipschitz_density()

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_tail_complements_cdf(self, name):
        law = LAWS[name]
        x = np.linspace(0.0, 6.0, 301)
        assert np.max(np.abs(law.tail(x) + service_cdf(law, x) - 1.0)) == 0.0

    @pytest.mark.parametrize("name", ["exponential", "lognormal", "uniform"])
    def test_cdf_integrates_density(self, name):
        law = LAWS[name]
        breaks = [v for v in law.params.values() if 0 < v < 10]
        for x in np.linspace(0.25, 6.0, 12):
            val, _ = quad(lambda u: float(law.pdf(u)), 0.0, x,
                          points=[b for b in breaks if b < x], limit=200)
            assert abs(1.0 - law.tail(x) - val) < 1e-6

    @pytest.mark.parametrize("name", ["exponential", "lognormal"])
    def test_density_lipschitz_constant_holds(self, name):
        law = LAWS[name]
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, 8, 4000)
        ys = xs + rng.uniform(-0.05, 0.05, xs.size)
        ys = np.clip(ys, 0.0, None)
        lhs = np.abs(law.pdf(xs) - law.pdf(ys))
        assert np.all(lhs <= law.density_lipschitz * np.abs(xs - ys) + 1e-12)

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_density_bound_holds(self, name):
        law = LAWS[name]
        if law.pdf is None:
            return
        xs = np.linspace(0.0, 10.0, 5001)
        assert np.max(law.pdf(xs)) <= law.density_bound + 1e-12

    @pytest.mark.parametrize("name", sorted(LAWS))
    def test_kolmogorov_smirnov(self, name):
        law = LAWS[name]
        rng = np.random.default_rng(2024)
        sample = law.sample(rng, 100_000)
        assert np.all(sample > 0)
        assert ks_statistic(law, sample) < 0.01

    def test_sample_mean(self):
        rng = np.random.default_rng(6)
        for law in LAWS.values():
            mean = law.sample(rng, 200_000).mean()
            assert mean == pytest.approx(law.mean, rel=0.01)

    def test_point_mass_tails(self):
        law = make_deterministic(0.5)
        assert float(law.tail_geq(0.5)) == 1.0
        assert float(law.tail(0.5)) == 0.0
        assert float(law.tail_geq(0.51)) == 0.0


class TestArrivalLaws:
    @pytest.mark.parametrize("kind", ["exponential", "deterministic", "uniform"])
    def test_gap_mean_within_one_percent(self, kind):
        law = make_arrivals(kind, 0.8)
        rng = np.random.default_rng(123)
        gaps = law.sample_gaps(rng, 1_000_000)
        assert np.all(gaps > 0)
        assert gaps.mean() == pytest.approx(1.25, rel=0.01)

    def test_zero_rate_has_no_gaps(self):
        law = make_arrivals("exponential", 0.0)
        with pytest.raises(ValueError):
            law.sample_gaps(np.random.default_rng(0), 1)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals("exponential", -0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals("weibull", 1.0)


def same_floats(got, want) -> bool:
    """Equal bit for bit, as the same type and shape: signs of zero and
    NaNs included."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes())


class TestTailAndPdf:
    """``tail``, ``pdf`` and ``tail_and_pdf`` give the floats of the plain
    reference formulas in ``oracles``, 1 - cdf and the density, whether the
    law fuses the two passes (lognormal) or not."""

    @pytest.mark.parametrize("law", [
        make_exponential(1.0), make_exponential(50.0), make_lognormal(0.0, 0.5),
        make_lognormal(-1.3, 2.1), make_lognormal(2.0, 0.05), make_uniform(0.5, 2.0),
        make_deterministic(0.5),
    ], ids=["exponential", "exponential_fast", "lognormal", "lognormal_wide", "lognormal_narrow",
            "uniform", "deterministic"])
    def test_bit_equal_to_tail_and_pdf(self, law):
        rng = np.random.default_rng(11)
        special = [-3.0, -1e-300, -0.0, 0.0, 1e-300, 1e-12, 1.0, 1e3, 1e300, np.inf, np.nan]
        x = np.concatenate([special, rng.uniform(-1.0, 12.0, 1000 - len(special))])
        grid = x.reshape(40, 25)
        for arg in (x, grid, grid.T, grid[::3, 1:], -2.0, 0.0, 1e-300, 0.7, 1e300):
            assert same_floats(law.tail(arg), 1.0 - service_cdf(law, arg)), arg
            if law.pdf is None:
                continue
            assert same_floats(law.pdf(arg), service_pdf(law, arg)), arg
            tail, pdf = law.tail_and_pdf(arg)
            assert same_floats(tail, law.tail(arg)), arg
            assert same_floats(pdf, law.pdf(arg)), arg

    def test_fused_pass_keeps_the_callers_errstate(self):
        # only the elements at x <= 0 are excused: an overflow at x > 0
        # raises as it does in pdf, and the tail alone never overflows
        law = make_lognormal(0.0, 10.0)
        x = np.array([0.0, -1.0, 1e308])  # x * sigma overflows in the density
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                law.pdf(x)
            with pytest.raises(FloatingPointError):
                law.tail_and_pdf(x)
            tail, pdf = law.tail_and_pdf(x[:2])
            assert law.tail(x).tolist() == [1.0, 1.0, 0.0]
        assert tail.tolist() == [1.0, 1.0] and pdf.tolist() == [0.0, 0.0]


class TestRateFunctions:
    @pytest.mark.parametrize("k", [
        constant_rate(1.5), capped_linear_rate(0.5, 1.0, 2.0), capped_linear_rate(0, 2, 3),
        table_rate([-1.0, 1.0, 3.0], [0.5, 2.0, 1.0]),
    ], ids=["constant", "capped_linear", "capped_linear_int_params", "table"])
    def test_float_path_matches_array_path(self, k):
        # below, at and above the cap (1.5 and 7.0 for capped_linear), at
        # the knots, negative counts, both zeros, inf and NaN
        xs = [-2.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 3.0, 7.0, 1e300, math.inf, math.nan]
        for x in xs + [np.float64(x) for x in xs]:
            got = k(x)
            assert type(got) is float
            assert same_floats(np.float64(got), rate_on_array(k, np.array([x]))[0]), x
        assert math.isnan(k(math.nan)) == (k.kind != "constant")  # NaN propagates
        grid = np.concatenate([xs, np.linspace(-1.0, 8.0, 5001 - len(xs))]).reshape(3, -1)
        for arg in (grid, grid.T, grid[:, ::7], grid[0]):
            assert same_floats(k(arg), rate_on_array(k, arg))

    def test_constant(self):
        k = constant_rate(1.5)
        assert float(k(0.0)) == 1.5
        assert float(k(100.0)) == 1.5
        assert k.bound == 1.5

    def test_capped_linear(self):
        k = capped_linear_rate(0.5, 1.0, 2.0)
        assert float(k(0.0)) == 0.5
        assert float(k(1.0)) == 1.5
        assert float(k(10.0)) == 2.0
        assert k.bound == 2.0

    def test_table_interpolates_and_extends(self):
        k = table_rate([0.0, 1.0, 3.0], [1.0, 2.0, 2.0])
        assert float(k(0.5)) == 1.5
        assert float(k(7.0)) == 2.0
        assert k.bound == 2.0

    @pytest.mark.parametrize("k,floor", [
        (constant_rate(1.5), 1.5),
        (constant_rate(0.0), 0.0),
        (capped_linear_rate(0.5, 1.0, 2.0), 0.5),
        (capped_linear_rate(3.0, 1.0, 2.0), 2.0),  # capped below its base
        (table_rate([0.0, 1.0, 3.0], [1.0, 0.25, 2.0]), 0.25),
        (table_rate([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]), 0.0),  # a zero knot
        (table_rate([-1.0, 1.0, 2.0], [0.0, 2.0, 3.0]), 1.0),  # knot left of 0
    ], ids=["constant", "constant_zero", "capped_linear", "capped", "table",
            "table_zero_knot", "table_negative_knot"])
    def test_floor_is_infimum_over_nonnegative_counts(self, k, floor):
        assert k.floor == floor
        xs = np.concatenate([np.linspace(0.0, 5.0, 5001), [1e6]])
        assert float(np.min(k(xs))) == floor

    def test_bounds_hold_on_samples(self):
        rng = np.random.default_rng(9)
        # each rate with its Lipschitz constant: the steepest slope
        for k, lip in ((constant_rate(1.0), 0.0), (capped_linear_rate(0.5, 1.0, 2.0), 1.0),
                       (table_rate([0, 1, 2], [1, 0.5, 1.5]), 1.0)):
            xs = rng.uniform(0, 10, 2000)
            ys = np.clip(xs + rng.uniform(-0.1, 0.1, xs.size), 0, None)
            vx, vy = k(xs), k(ys)
            assert np.all(vx >= 0) and np.all(vx <= k.bound + 1e-12)
            assert np.all(np.abs(vx - vy) <= lip * np.abs(xs - ys) + 1e-12)
