import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erfc

from fluidq.cli import atomic_to_text
from fluidq.measures import AtomicMeasure, TailFunction, _cumulative, _excess_at_most, prohorov

import oracles
from oracles import (brute_prohorov, prohorov_reference, shift_tail,
                     subset_excess_reference, tail)


def m(*pairs) -> AtomicMeasure:
    if not pairs:
        return AtomicMeasure()
    loc, wgt = zip(*pairs)
    return AtomicMeasure(loc, wgt)


def tail_from_atomic(measure: AtomicMeasure, grid) -> TailFunction:
    # evaluate tail() itself so both representations agree bit-exactly
    g = np.asarray(grid, dtype=float)
    return TailFunction(g, np.array([tail(measure, x) for x in g]))


def mass_below(measure: AtomicMeasure, x: float) -> float:
    """Mass of [0, x), i.e. atoms with location strictly less than x."""
    idx = np.searchsorted(measure.locations, x, side="left")
    return float(measure.weights[:idx].sum())


def mass_at_most(measure: AtomicMeasure, x: float) -> float:
    """Mass of [0, x]."""
    idx = np.searchsorted(measure.locations, x, side="right")
    return float(measure.weights[:idx].sum())


def tail_function_agrees(tf: TailFunction, measure: AtomicMeasure) -> bool:
    """Exact agreement of the two representations on the tail grid."""
    sampled = tail_from_atomic(measure, tf.grid)
    return bool(np.all(sampled.values == tf.values))


def _comma_pairs(text: str):
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            x, v = line.split(",")
            yield float(x), float(v)


def atomic_from_text(text: str) -> AtomicMeasure:
    return m(*_comma_pairs(text))


class TestAtomicMeasure:
    def test_atoms_sorted_and_merged(self):
        a = AtomicMeasure([2.0, 1.0, 2.0], [1.0, 3.0, 0.5])
        assert list(a.locations) == [1.0, 2.0]
        assert list(a.weights) == [3.0, 1.5]

    @pytest.mark.parametrize("locations, weights, merged_loc, merged_wgt", [
        ([2.0, 1.0, 3.0], [1.0, 3.0, 0.5], [1.0, 2.0, 3.0], [3.0, 1.0, 0.5]),    # no tie
        ([2.0, 1.0, 2.0], [1.0, 3.0, 0.5], [1.0, 2.0], [3.0, 1.5]),              # one tie
        ([0.0, -0.0, 0.1, 0.0], [0.1, 0.2, 0.7, 0.3], [0.0, 0.1], [0.1 + 0.2 + 0.3, 0.7]),
        ([0.5] * 4, [0.1, 0.2, 0.3, 0.4], [0.5], [((0.1 + 0.2) + 0.3) + 0.4]),  # summed in order
        ([1.0], [2.0], [1.0], [2.0]),
        ([], [], [], []),
    ])
    def test_ties_merged_in_index_order(self, locations, weights, merged_loc, merged_wgt):
        a = AtomicMeasure(np.array(locations), np.array(weights))
        assert a.locations.tolist() == merged_loc and a.weights.tolist() == merged_wgt
        for arr in (a.locations, a.weights):
            assert arr.dtype == np.float64 and arr.ndim == 1
            assert not arr.flags.writeable and arr.flags.owndata

    def test_input_arrays_not_aliased(self):
        loc, wgt = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        a = AtomicMeasure(loc, wgt)
        loc[0] = wgt[0] = 9.0
        assert a.locations.tolist() == [1.0, 2.0] and a.weights.tolist() == [0.5, 0.5]
        assert loc.flags.writeable

    def test_zero_weights_dropped(self):
        a = AtomicMeasure([1.0, 2.0], [0.0, 1.0])
        assert len(a) == 1

    def test_negative_location_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([-0.1], [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([0.1], [-1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("where", ["location", "weight"])
    def test_non_finite_rejected(self, bad, where):
        values = [bad, 1.0]
        loc, wgt = (values, [1.0, 1.0]) if where == "location" else ([1.0, 2.0], values)
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure(loc, wgt)

    def test_one_sided_mass_queries(self):
        a = m((1.0, 1.0), (2.0, 3.0))
        assert mass_below(a, 1.0) == 0.0
        assert mass_at_most(a, 1.0) == 1.0
        assert mass_below(a, 2.5) == 4.0
        assert tail(a, x=1.5) + mass_below(a, 1.5) == a.total_mass


class TestTail:
    def test_empty(self):
        assert tail(AtomicMeasure(), 0.0) == 0.0

    def test_atom_above(self):
        assert tail(m((1.0, 1.0), (2.0, 1.0)), 1.5) == 1.0

    def test_closed_set_includes_atom_at_x(self):
        assert tail(m((1.0, 1.0), (2.0, 1.0)), 1.0) == 2.0

    def test_tail_at_zero_is_total_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(0, 8)
            a = AtomicMeasure(rng.uniform(0, 5, k), rng.uniform(0.1, 2, k))
            assert tail(a, 0.0) == pytest.approx(a.total_mass, abs=1e-12)


class TestShiftTail:
    def test_translation(self):
        assert shift_tail(m((2.0, 1.0)), 0.5) == m((1.5, 1.0))

    def test_mass_reaching_zero_dropped(self):
        assert shift_tail(m((2.0, 1.0)), 2.0) == AtomicMeasure()

    def test_partial_expiry(self):
        assert shift_tail(m((1.0, 2.0), (3.0, 1.0)), 1.5) == m((1.5, 1.0))

    def test_semigroup(self):
        # (l - s) - t and l - (s + t) differ by rounding, so compare atoms
        # within 1e-12 rather than bit-exactly
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = rng.integers(0, 8)
            a = AtomicMeasure(rng.uniform(0, 5, k), rng.uniform(0.1, 2, k))
            s, t = rng.uniform(0, 2, 2)
            once = shift_tail(a, s + t)
            twice = shift_tail(shift_tail(a, s), t)
            assert len(once) == len(twice)
            assert np.allclose(once.locations, twice.locations, atol=1e-12, rtol=0)
            assert np.array_equal(once.weights, twice.weights)


class TestProhorov:
    def test_identity(self):
        a = m((1.0, 1.0), (2.0, 1.0))
        assert prohorov(a, a) == 0.0

    def test_point_mass_shift(self):
        d = prohorov(m((0.0, 1.0)), m((0.3, 1.0)))
        assert d == pytest.approx(0.3, abs=2e-9)

    def test_mass_mismatch_at_same_point(self):
        d = prohorov(m((0.0, 1.0)), m((0.0, 2.0)))
        assert d == pytest.approx(1.0, abs=2e-9)

    def test_point_mass_pair_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, b = rng.uniform(0, 3, 2)
            d = prohorov(m((a, 1.0)), m((b, 1.0)))
            assert d == pytest.approx(min(abs(a - b), 1.0), abs=2e-9)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            k1, k2 = rng.integers(0, 6, 2)
            m1 = AtomicMeasure(rng.uniform(0, 3, k1), rng.uniform(0.1, 2, k1))
            m2 = AtomicMeasure(rng.uniform(0, 3, k2), rng.uniform(0.1, 2, k2))
            assert prohorov(m1, m2) == pytest.approx(brute_prohorov(m1, m2), abs=3e-9)

    def test_boundary_cases_match_oracle(self):
        # atoms whose enlargements just touch, unequal masses, clusters
        cases = [
            (m((0.0, 1.0), (0.6, 1.0)), m((0.3, 2.0))),
            (m((0.0, 1.0), (0.4, 1.0), (0.8, 1.0)), m((0.2, 1.0), (0.6, 1.0))),
            (m((1.0, 0.5)), m((1.0, 0.5), (1.0001, 0.5))),
            (m((0.0, 3.0)), AtomicMeasure()),
            (m((0.5, 1.0), (0.5 + 1e-12, 1.0)), m((0.5, 2.0))),
        ]
        for m1, m2 in cases:
            assert prohorov(m1, m2) == pytest.approx(brute_prohorov(m1, m2), abs=3e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            k1, k2 = rng.integers(0, 9, 2)
            m1 = AtomicMeasure(rng.uniform(0, 4, k1), rng.uniform(0.1, 1.5, k1))
            m2 = AtomicMeasure(rng.uniform(0, 4, k2), rng.uniform(0.1, 1.5, k2))
            assert prohorov(m1, m2) == prohorov(m2, m1)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            ms = []
            for _ in range(3):
                k = rng.integers(0, 7)
                ms.append(AtomicMeasure(rng.uniform(0, 3, k), rng.uniform(0.1, 2, k)))
            d01 = prohorov(ms[0], ms[1])
            d12 = prohorov(ms[1], ms[2])
            d02 = prohorov(ms[0], ms[2])
            assert d02 <= d01 + d12 + 2e-9

    def test_zero_iff_equal(self):
        a = m((1.0, 1.0), (2.0, 0.5))
        b = m((1.0, 1.0), (2.0, 0.5000001))
        assert prohorov(a, b) > 0.0
        assert prohorov(a, m((2.0, 0.5), (1.0, 1.0))) == 0.0


@st.composite
def measure_pairs(draw):
    """Two atomic measures on a shared lattice, and an eps that is the
    lattice step or half of it (atoms 2*eps apart, a lattice point midway),
    a gap between two atoms, an atom weight (an excess of exactly eps) or
    any float up to the larger mass."""
    step = draw(st.sampled_from([0.1, 0.125, 0.25, 0.3]))
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                       st.floats(0.01, 2.0, allow_nan=False))

    def measure():
        k = draw(st.integers(0, 7))
        sites = draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))
        weights = draw(st.lists(weight, min_size=k, max_size=k))
        return AtomicMeasure([step * i for i in sites], weights)

    a, b = measure(), measure()
    locs = np.concatenate([a.locations, b.locations]).tolist()
    gaps = sorted({abs(x - y) for x in locs for y in locs} - {0.0})
    masses = np.concatenate([a.weights, b.weights]).tolist()
    eps = draw(st.one_of(
        st.sampled_from([0.5 * step, step]),
        st.sampled_from(gaps or [step]),
        st.sampled_from(masses or [0.5]),
        st.floats(1e-6, max(a.total_mass, b.total_mass, 1e-6) + 0.1),
    ))
    return a, b, eps


@st.composite
def run_pairs(draw):
    """A lattice measure ``b``, an eps that is a multiple of half the step
    or any float, and a measure ``a`` with long runs of atoms that cover
    the same atoms of ``b``, in one of three shapes: ``dense`` puts many
    atoms strictly between a lattice point and the next half step, where
    no cover breakpoint b_loc +- eps falls for the step multiples;
    ``edges`` puts atoms exactly on b_loc +- eps; ``spread`` adds atoms
    2*eps or more apart to the right of every b atom's enlargement, a run
    whose cover is empty."""
    step = draw(st.sampled_from([0.1, 0.125, 0.25, 0.3]))
    weight = st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                       st.floats(0.01, 2.0, allow_nan=False))

    def with_weights(locations):
        weights = draw(st.lists(weight, min_size=len(locations), max_size=len(locations)))
        return AtomicMeasure(locations, weights)

    k = draw(st.integers(0, 7))
    b = with_weights([step * i for i in draw(st.lists(st.integers(0, 8), min_size=k, max_size=k))])
    eps = draw(st.one_of(st.sampled_from([0.5 * step, step, 1.5 * step]),
                         st.floats(1e-3, 1.0)))
    shape = draw(st.sampled_from(["dense", "edges", "spread"]))
    if shape == "dense":
        site = draw(st.integers(0, 8))
        offsets = draw(st.lists(st.floats(0.01, 0.49), min_size=2, max_size=12))
        a = with_weights([step * (site + u) for u in offsets])
    elif shape == "edges":
        centres = b.locations.tolist() or [step * draw(st.integers(0, 8))]
        picks = draw(st.lists(st.tuples(st.sampled_from(centres), st.sampled_from([-1.0, 1.0])),
                              min_size=1, max_size=8))
        a = with_weights([c + sign * eps for c, sign in picks if c + sign * eps >= 0.0])
    else:
        far = (float(b.locations[-1]) if len(b) else 0.0) + eps * draw(
            st.sampled_from([1.0, 1.5, 3.0]))
        spacing = draw(st.lists(st.sampled_from([2.0, 2.5, 4.0]), min_size=1, max_size=10))
        near = draw(st.lists(st.integers(0, 8), max_size=4))
        a = with_weights([step * i for i in near]
                         + (far + eps * np.cumsum([0.0] + spacing)).tolist())
    return a, b, eps


class TestShortCircuit:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(measure_pairs())
    @example((m((0.0, 0.5)), AtomicMeasure(), 0.5))
    @example((m((0.0, 1.0), (0.5, 1.0)), m((0.25, 1.0)), 0.25))
    @example((m((0.2, 1.0), (0.4, 0.5)), m((0.2, 0.5), (0.4, 1.0)), 0.2))
    # a b-atom midway between two a-atoms 2*eps apart lies in neither
    # open enlargement
    @example((m((0.0, 0.2), (0.5, 0.2)), m((0.25, 1.0)), 0.25))
    # many a-atoms between two cover breakpoints: all six see only b's 0.5
    @example((m((0.3125, 0.1), (0.34375, 0.1), (0.375, 0.1), (0.40625, 0.1),
                (0.4375, 0.1), (0.46875, 0.1)), m((0.0, 0.25), (0.5, 0.25)), 0.25))
    # a-atoms exactly on b_loc +- eps: the open enlargements miss those b-atoms
    @example((m((0.25, 0.5), (0.75, 0.5), (1.25, 0.5)), m((0.5, 0.5), (1.0, 0.5)), 0.25))
    # a run 2*eps apart right of b's enlargement: its cover is empty
    @example((m((0.25, 0.25), (1.25, 0.125), (1.75, 0.125), (2.25, 0.125)),
              m((0.25, 0.5)), 0.25))
    def test_matches_full_dynamic_program(self, case):
        a, b, eps = case
        assert _excess_at_most(a, b, eps, _cumulative(b)) == (subset_excess_reference(a, b, eps) <= eps)
        assert _excess_at_most(b, a, eps, _cumulative(a)) == (subset_excess_reference(b, a, eps) <= eps)
        assert prohorov(a, b) == prohorov_reference(a, b)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(run_pairs())
    def test_runs_match_full_dynamic_program(self, case):
        a, b, eps = case
        assert _excess_at_most(a, b, eps, _cumulative(b)) == (subset_excess_reference(a, b, eps) <= eps)
        assert _excess_at_most(b, a, eps, _cumulative(a)) == (subset_excess_reference(b, a, eps) <= eps)
        assert prohorov(a, b) == prohorov_reference(a, b)

    def test_workload_shape_matches_reference(self, monkeypatch):
        # compare's shape: a 5000-atom lognormal(0, 0.5) sample of mass 1/n
        # against 200 cell-midpoint atoms of a 0.05 grid on [0, 10) carrying
        # the lognormal cell masses, the last cell taking the mass beyond 10
        sample = np.random.default_rng(2012).lognormal(0.0, 0.5, 5000)
        a = AtomicMeasure(sample, np.full(sample.size, 1.0 / sample.size))
        edges = 0.05 * np.arange(201)
        cdf = np.concatenate(([0.0], 0.5 * erfc(-np.log(edges[1:]) / (0.5 * np.sqrt(2.0)))))
        mass = np.diff(cdf)
        mass[-1] += 1.0 - cdf[-1]
        b = AtomicMeasure(0.5 * (edges[:-1] + edges[1:]), mass)
        visited = []

        def recording(x, y, eps):
            visited.append(eps)
            return subset_excess_reference(x, y, eps)

        monkeypatch.setattr(oracles, "subset_excess_reference", recording)
        assert prohorov(a, b) == oracles.prohorov_reference(a, b)
        assert len(set(visited)) > 20
        for eps in set(visited):
            assert _excess_at_most(a, b, eps, _cumulative(b)) == (subset_excess_reference(a, b, eps) <= eps)
            assert _excess_at_most(b, a, eps, _cumulative(a)) == (subset_excess_reference(b, a, eps) <= eps)

    def test_fine_tolerance_ends(self):
        d = prohorov(m((0.0, 1.0)), m((0.3, 1.0)), tol=1e-20)
        assert d == pytest.approx(0.3, abs=1e-15)
        assert d >= 0.3

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            prohorov(m((0.0, 1.0)), m((0.3, 1.0)), tol=tol)


class TestTailFunction:
    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            TailFunction([1.0, 2.0], [1.0, 0.0])

    def test_values_must_decrease(self):
        with pytest.raises(ValueError):
            TailFunction([0.0, 1.0], [0.5, 0.8])

    def test_interpolation_brackets(self):
        tf = TailFunction([0.0, 1.0, 2.0], [1.0, 0.4, 0.0])
        assert tf(0.5) == pytest.approx(0.7)
        assert tf(1.5) == pytest.approx(0.2)
        assert tf(5.0) == 0.0  # constant beyond the grid

    def test_agrees_with_atomic_on_grid(self):
        rng = np.random.default_rng(17)
        grid = np.arange(0.0, 5.01, 0.25)
        for _ in range(20):
            k = rng.integers(0, 12)
            a = AtomicMeasure(rng.uniform(0, 6, k), rng.uniform(0.1, 2, k))
            tf = tail_from_atomic(a, grid)
            assert tail_function_agrees(tf, a)
            for x in grid:
                assert tf(x) == tail(a, x)

    def test_inverse_round_trip(self):
        tf = TailFunction([0.0, 1.0, 3.0], [1.0, 0.5, 0.0])
        for level in (0.9, 0.5, 0.25, 0.01):
            x = float(tf.inverse(level))
            assert tf(x) == pytest.approx(level, abs=1e-12)


class TestSerialization:
    def test_atomic_round_trip(self):
        a = m((0.125, 1.5), (2.75, 0.3))
        assert atomic_from_text(atomic_to_text(a)) == a

    def test_empty_atomic(self):
        assert atomic_from_text(atomic_to_text(AtomicMeasure())) == AtomicMeasure()
