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

LAWS = {
    "exponential": make_exponential(1.0),
    "lognormal": make_lognormal(0.0, 0.5),
    "uniform": make_uniform(0.0, 2.0),
    "deterministic": make_deterministic(0.5),
}


def ks_statistic(law, sample):
    """sup_x |ecdf(x) - cdf(x)|, evaluated with one-sided limits at the
    distinct sample values so laws with atoms compare cleanly."""
    xs = np.sort(sample)
    n = xs.size
    values = np.unique(xs)
    ecdf_right = np.searchsorted(xs, values, side="right") / n
    ecdf_left = np.searchsorted(xs, values, side="left") / n
    cdf_right = np.asarray(law.cdf(values), dtype=float)
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
        assert make_exponential(2.0).cdf(math.log(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_midpoint(self):
        assert make_uniform(0.0, 2.0).cdf(1.0) == 0.5

    def test_lognormal_median(self):
        # the median of a lognormal is e^mu
        assert make_lognormal(0.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-12)
        assert make_lognormal(0.7, 0.4).cdf(math.exp(0.7)) == pytest.approx(0.5, abs=1e-12)

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
        assert np.max(np.abs(law.tail(x) + law.cdf(x) - 1.0)) == 0.0

    @pytest.mark.parametrize("name", ["exponential", "lognormal", "uniform"])
    def test_cdf_integrates_density(self, name):
        law = LAWS[name]
        breaks = [v for v in law.params.values() if 0 < v < 10]
        for x in np.linspace(0.25, 6.0, 12):
            val, _ = quad(lambda u: float(law.pdf(u)), 0.0, x,
                          points=[b for b in breaks if b < x], limit=200)
            assert abs(law.cdf(x) - val) < 1e-6

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
        assert float(law.tail_gt(0.5)) == 0.0
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


class TestRateFunctions:
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
