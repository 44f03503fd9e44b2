import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fluidq.cli import atomic_to_text
from fluidq.measures import AtomicMeasure, TailFunction, _excess_at_most, prohorov

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

    def test_zero_weights_dropped(self):
        a = AtomicMeasure([1.0, 2.0], [0.0, 1.0])
        assert len(a) == 1

    def test_negative_location_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([-0.1], [1.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            AtomicMeasure([0.1], [-1.0])

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


class TestShortCircuit:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(measure_pairs())
    @example((m((0.0, 0.5)), AtomicMeasure(), 0.5))
    @example((m((0.0, 1.0), (0.5, 1.0)), m((0.25, 1.0)), 0.25))
    @example((m((0.2, 1.0), (0.4, 0.5)), m((0.2, 0.5), (0.4, 1.0)), 0.2))
    # a b-atom midway between two a-atoms 2*eps apart lies in neither
    # open enlargement
    @example((m((0.0, 0.2), (0.5, 0.2)), m((0.25, 1.0)), 0.25))
    def test_matches_full_dynamic_program(self, case):
        a, b, eps = case
        assert _excess_at_most(a, b, eps) == (subset_excess_reference(a, b, eps) <= eps)
        assert _excess_at_most(b, a, eps) == (subset_excess_reference(b, a, eps) <= eps)
        assert prohorov(a, b) == prohorov_reference(a, b)

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
