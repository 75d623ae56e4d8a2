import random
from fractions import Fraction as Q

import pytest
from math import floor

from hypothesis import example, given, settings
from hypothesis import strategies as st

from timegolog.temporal import (
    CanonicalWord,
    ClockConstraint,
    Interval,
    canonical_value_map,
    canonical_word,
    compare,
    eval_constraint,
    mono_dom_leq,
    powerset_leq,
    region_equivalent,
    region_delay_count,
    region_delays,
    region_increment,
    region_index,
    reset,
    scale_lcm,
    scaled_canonical_word,
    scaled_region_delays,
    time_successors,
)


def advance(valuation, d):
    """Valuation with every clock increased by exactly d (d >= 0)."""
    if d < 0:
        raise ValueError("time increments must be non-negative")
    return {name: value + d for name, value in valuation.items()}


def cs(*pairs):
    return frozenset((n, Q(v)) for n, v in pairs)


class TestEvalConstraint:
    def test_two_clock_example(self):
        nu = {"x1": Q(5, 2), "x2": Q(36, 5)}
        g = ClockConstraint((("x1", "<", 3), ("x2", ">=", 5)))
        assert eval_constraint(nu, g)

    def test_empty_conjunction_is_true(self):
        assert eval_constraint({}, ClockConstraint())
        assert eval_constraint({"x": Q(7)}, ClockConstraint())

    def test_equality_atom_fails(self):
        nu = {"x1": Q(5, 2), "x2": Q(36, 5)}
        g = ClockConstraint((("x1", "=", 3), ("x2", ">=", 5)))
        assert not eval_constraint(nu, g)

    def test_unknown_clock_rejected(self):
        with pytest.raises(KeyError):
            eval_constraint({"x": Q(0)}, ClockConstraint((("y", "<", 1),)))


class TestAdvanceReset:
    def test_zero_advance(self):
        assert advance({"x": Q(0)}, Q(0)) == {"x": Q(0)}

    def test_exact_addition(self):
        assert advance({"x": Q(1, 2)}, Q(1, 4)) == {"x": Q(3, 4)}

    def test_table_row(self):
        nu = {"c_b": Q(0), "c_phi": Q(1, 2)}
        assert advance(nu, Q(1, 4)) == {"c_b": Q(1, 4), "c_phi": Q(3, 4)}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            advance({"x": Q(0)}, Q(-1))

    def test_reset(self):
        assert reset({"x": Q(5)}, {"x"}) == {"x": Q(0)}
        assert reset({"x": Q(5)}, set()) == {"x": Q(5)}
        assert reset({"x": Q(5), "y": Q(2)}, {"y"}) == {"x": Q(5), "y": Q(0)}

    def test_reset_undeclared(self):
        with pytest.raises(KeyError):
            reset({"x": Q(1)}, {"z"})


class TestRegionEquivalence:
    def test_single_clock(self):
        assert region_equivalent(cs(("c", "1/2")), cs(("c", "4/5")), 3)
        assert not region_equivalent(cs(("c", 1)), cs(("c", "11/10")), 3)

    def test_triples(self):
        a = cs(("c1", "1/2"), ("c2", "1/5"), ("c3", 2))
        b = cs(("c1", "4/5"), ("c2", "3/10"), ("c3", 2))
        c = cs(("c1", "1/2"), ("c2", "3/5"), ("c3", 2))
        assert region_equivalent(a, b, 3)
        assert not region_equivalent(a, c, 3)

    def test_top_values_collapse(self):
        a = cs(("c1", "1/10"), ("c2", 4), ("c3", "11/5"))
        b = cs(("c1", "2/5"), ("c2", 5), ("c3", "13/5"))
        assert region_equivalent(a, b, 3)

    def test_mismatched_names_rejected(self):
        with pytest.raises(ValueError):
            region_equivalent(cs(("a", 1)), cs(("b", 1)), 2)


class TestRegionIncrement:
    def test_integer_member_halves_gap(self):
        assert region_increment(cs(("c_b", 0), ("c_phi", "1/2")), 2) == Q(1, 4)

    def test_fractional_only(self):
        assert region_increment(cs(("c_b", 0), ("c_phi", "3/4")), 2) == Q(1, 8)

    def test_all_above_maximal(self):
        assert region_increment(cs(("a", 3), ("b", "7/2")), 2) == 0
        assert region_increment(frozenset(), 2) == 0


class TestTimeSuccessors:
    def test_first_table(self):
        succ = time_successors(cs(("c_b", 0), ("c_phi", "1/2")), 2)
        accs = [a for a, _ in succ]
        assert accs == [
            Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1),
            Q(5, 4), Q(3, 2), Q(7, 4), Q(2), Q(5, 2),
        ]
        # spot-check valuations against the worked rows
        by_acc = dict(succ)
        assert by_acc[Q(1, 4)] == cs(("c_b", "1/4"), ("c_phi", "3/4"))
        assert by_acc[Q(2)] == cs(("c_b", 2), ("c_phi", "5/2"))
        last = succ[-1][1]
        assert all(v > 2 for _, v in last)

    def test_second_table_alternating_increments(self):
        succ = time_successors(cs(("c_b", 0), ("c_phi", "3/4")), 2)
        accs = [a for a, _ in succ]
        assert accs == [
            Q(0), Q(1, 8), Q(1, 4), Q(5, 8), Q(1),
            Q(9, 8), Q(5, 4), Q(13, 8), Q(2), Q(5, 2),
        ]
        steps = [b - a for a, b in zip(accs, accs[1:])]
        assert steps == [
            Q(1, 8), Q(1, 8), Q(3, 8), Q(3, 8),
            Q(1, 8), Q(1, 8), Q(3, 8), Q(3, 8), Q(1, 2),
        ]

    def test_all_top_is_fixed_point(self):
        c = cs(("a", 3))
        assert time_successors(c, 2) == [(Q(0), c)]

    def test_length_bound(self):
        c = cs(("a", "1/3"), ("b", "5/7"), ("c", 1))
        succ = time_successors(c, 3)
        assert len(succ) <= 3 * (2 * 3 + 2) + 1


class TestCanonicalWord:
    def test_same_fraction_same_letter(self):
        w = canonical_word(cs(("c1", "1/2"), ("c2", "3/2")), 3)
        assert w.letters == (frozenset({("c1", 1), ("c2", 3)}),)

    def test_ordered_by_fraction(self):
        w = canonical_word(cs(("c1", "1/2"), ("c3", "3/5"), ("c2", "3/2")), 3)
        assert w.letters == (
            frozenset({("c1", 1), ("c2", 3)}),
            frozenset({("c3", 1)}),
        )

    def test_top_and_integers_share_first_letter(self):
        c = cs(("c1", 0), ("c2", "1/2"), ("c3", "13/5"), ("x", "1/2"), ("x", 2))
        w = canonical_word(c, 2)
        assert w.letters == (
            frozenset({("c1", 0), ("x", 4), ("c3", 5)}),
            frozenset({("c2", 1), ("x", 1)}),
        )

    def test_duplicate_names_allowed(self):
        c = cs(("x", "1/2"), ("x", "3/2"))
        w = canonical_word(c, 2)
        assert w.letters == (frozenset({("x", 1), ("x", 3)}),)
        assert len(w.letters[0]) == 2


def word(*letters):
    return CanonicalWord(tuple(frozenset(l) for l in letters))


class TestMonotoneDomination:
    A, B, C, D, E = (("a", 0),), (("b", 0),), (("c", 0),), (("d", 0),), (("e", 0),)

    def test_subsequence_embeds(self):
        assert mono_dom_leq(word(self.A, self.C, self.D), word(self.A, self.B, self.C, self.D))

    def test_no_injection_into_shorter(self):
        assert not mono_dom_leq(word(self.E, self.E), word(self.E))
        assert mono_dom_leq(word(self.E), word(self.E, self.E))

    def test_order_matters(self):
        assert not mono_dom_leq(word(self.A, self.B), word(self.B, self.A))

    def test_empty_embeds_into_anything(self):
        assert mono_dom_leq(word(), word(self.A))
        assert mono_dom_leq(word(), word())

    def test_letterwise_containment(self):
        small = word([("q2", 3)])
        big = word([("q2", 3), ("phi3", 3)])
        assert mono_dom_leq(small, big)
        assert not mono_dom_leq(big, small)


class TestPowersetOrder:
    def test_reflexive_on_equal_sets(self):
        xs = [1, 2, 3]
        assert powerset_leq(xs, xs, lambda a, b: a <= b)

    def test_bottom_dominates(self):
        assert powerset_leq([0], [5, 7, 9], lambda a, b: a <= b)

    def test_empty_left_fails_on_nonempty_right(self):
        assert not powerset_leq([], [1], lambda a, b: a <= b)
        assert powerset_leq([], [], lambda a, b: a <= b)


def test_scale_lcm():
    assert scale_lcm([Q(1, 2), Q(2, 3), Q(5)]) == 6
    assert scale_lcm([]) == 1


# --- property tests ----------------------------------------------------------

fractions_st = st.builds(
    Q, st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=4)
)
clock_sets = st.lists(
    st.tuples(st.sampled_from("abc"), fractions_st), min_size=0, max_size=4
).map(frozenset)


@given(clock_sets, st.integers(min_value=1, max_value=3))
def test_region_equivalence_is_reflexive(c, k):
    if c:
        assert region_equivalent(c, c, k)


@given(clock_sets, st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=80)
def test_region_equivalence_is_symmetric_and_transitive(c, k, data):
    if not c:
        return
    # region-equivalent variants: shift all fractional parts inside their gaps
    def variant(seed_frac):
        succ = time_successors(c, k)
        if len(succ) < 2:
            return c
        gap = (succ[1][0] - succ[0][0]) * seed_frac
        return frozenset((n, v + gap) for n, v in c)

    a = variant(data.draw(st.sampled_from([Q(0), Q(1, 5), Q(1, 3)])))
    b = variant(data.draw(st.sampled_from([Q(0), Q(1, 5), Q(1, 3)])))
    if region_equivalent(c, a, k):
        assert region_equivalent(a, c, k)
    if region_equivalent(c, a, k) and region_equivalent(a, b, k):
        assert region_equivalent(c, b, k)


@given(
    st.lists(st.sets(st.integers(min_value=0, max_value=5)), max_size=4),
    st.lists(st.sets(st.integers(min_value=0, max_value=5)), max_size=4),
    st.lists(st.sets(st.integers(min_value=0, max_value=5)), max_size=4),
)
@settings(max_examples=60)
def test_powerset_order_is_quasi_order(xs, ys, zs):
    leq = lambda a, b: a <= b
    assert powerset_leq(xs, xs, leq)
    if powerset_leq(xs, ys, leq) and powerset_leq(ys, zs, leq):
        assert powerset_leq(xs, zs, leq)


@given(clock_sets, st.integers(min_value=1, max_value=3), st.data())
def test_advance_within_increment_gap_stays_in_region(c, k, data):
    succ = time_successors(c, k)
    if len(succ) < 2:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(succ) - 2))
    lo, hi = succ[i][0], succ[i + 1][0]
    # two interior points of the same gap land in region-equivalent valuations
    d1 = lo + (hi - lo) / 3
    d2 = lo + (hi - lo) / 2
    v1 = frozenset((n, v + d1) for n, v in c)
    v2 = frozenset((n, v + d2) for n, v in c)
    assert region_equivalent(v1, v2, k)


@given(clock_sets, st.integers(min_value=1, max_value=3))
def test_time_successors_terminate_above_k(c, k):
    succ = time_successors(c, k)
    assert all(v > k for _, v in succ[-1][1])
    accs = [a for a, _ in succ]
    assert accs == sorted(set(accs))
    assert len(succ) <= max(len(c), 1) * (2 * k + 2) + 1


@given(clock_sets, clock_sets, clock_sets, st.integers(min_value=1, max_value=2))
@settings(max_examples=60)
def test_mono_dom_is_quasi_order(c1, c2, c3, k):
    w1, w2, w3 = (canonical_word(c, k) for c in (c1, c2, c3))
    assert mono_dom_leq(w1, w1)
    if mono_dom_leq(w1, w2) and mono_dom_leq(w2, w3):
        assert mono_dom_leq(w1, w3)


@given(clock_sets, st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=60)
def test_constraint_satisfaction_is_region_invariant(c, k, data):
    # pick one value per name so both sides are proper valuations
    named = {}
    for n, v in sorted(c):
        named[n] = v
    if not named:
        return
    succ = time_successors(frozenset(named.items()), k)
    i = data.draw(st.integers(min_value=0, max_value=len(succ) - 1))
    base = dict(succ[i][1])
    if i + 1 < len(succ):
        gap = succ[i + 1][0] - succ[i][0]
        shifted = {n: v + gap / 3 for n, v in base.items()}
    else:
        shifted = {n: v + 1 for n, v in base.items()}
    if not region_equivalent(frozenset(base.items()), frozenset(shifted.items()), k):
        return
    name = data.draw(st.sampled_from(sorted(named)))
    rel = data.draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
    const = data.draw(st.integers(min_value=0, max_value=k))
    g = ClockConstraint(((name, rel, const),))
    assert eval_constraint(base, g) == eval_constraint(shifted, g)


# --- integer region kernels against plain-Fraction references ---------------

kernel_values = st.lists(
    st.builds(
        Q, st.integers(min_value=0, max_value=40), st.sampled_from([1, 2, 3, 4, 6, 8, 12])
    ),
    max_size=6,
)


def stepwise_region_delays(values, k):
    """Accumulate `region_increment` one step at a time until every value
    exceeds k; duplicate values are kept under distinct names."""
    current = [(f"x{i}", v) for i, v in enumerate(values)]
    acc = Q(0)
    out = [acc]
    while any(v <= k for _, v in current):
        step = region_increment(current, k)
        acc += step
        current = [(n, v + step) for n, v in current]
        out.append(acc)
    return out


@given(kernel_values, st.integers(min_value=1, max_value=3))
@example([], 2)
@example([Q(3), Q(7, 2)], 2)  # every value above k
@example([Q(0), Q(0), Q(1, 2)], 2)  # duplicates, an integer point
@example([Q(2), Q(1, 3)], 2)  # a value exactly at k
@example([Q(5, 3), Q(1, 4), Q(11, 4), Q(1)], 2)
def test_region_delays_equal_stepwise_increments(values, k):
    assert region_delays(values, k) == stepwise_region_delays(values, k)
    unit = scale_lcm(values)
    scaled = [int(v * unit) for v in values]
    assert region_delay_count(scaled, unit, k) == len(scaled_region_delays(scaled, unit, k))
    assert region_delay_count(scaled, unit, k) == len(region_delays(values, k))


@given(clock_sets, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_scaled_canonical_word_equals_fraction_word(c, k, refine):
    unit = scale_lcm(v for _, v in c) * refine
    scaled = {(n, int(v * unit)) for n, v in c}
    assert scaled_canonical_word(scaled, unit, k) == canonical_word(c, k)


def fraction_value_map(values, k):
    """Region representatives computed with Fraction arithmetic throughout."""
    values = sorted(set(values))
    fracts = sorted({Q(0) if v > k else v - floor(v) for v in values})
    if not fracts:
        return {}
    if fracts[0] == 0:
        rep = {f: Q(i, len(fracts)) for i, f in enumerate(fracts)}
    else:
        rep = {f: Q(i + 1, len(fracts) + 1) for i, f in enumerate(fracts)}
    return {v: Q(k + 1) if v > k else floor(v) + rep[v - floor(v)] for v in values}


@given(kernel_values, st.integers(min_value=1, max_value=3))
@example([], 2)
@example([Q(3), Q(7, 2)], 2)
@example([Q(0), Q(0), Q(1, 2), Q(5, 2)], 2)
def test_canonical_value_map_equals_fraction_reference(values, k):
    got = canonical_value_map(values, k)
    want = fraction_value_map(values, k)
    assert got == want
    assert all(
        type(got[v]) is Q and got[v].denominator == want[v].denominator for v in want
    )


# --- the interval algebra, point by point -------------------------------------

def grid(top, step):
    return [Q(i, step) for i in range(int(top * step) + 1)]


def random_interval(rng):
    """A nonempty interval with endpoints in halves up to 4, any of the
    four open/closed combinations when it is wider than a point; the
    unbounded ones ask for either form of the right end."""
    lo = Q(rng.randint(0, 6), 2)
    flags = rng.random() < 0.5, rng.random() < 0.5
    if rng.random() < 0.25:
        return Interval(lo, None, *flags)
    width = Q(rng.randint(0, 4), 2)
    if width == 0:
        return Interval.point(lo)
    return Interval(lo, lo + width, *flags)


def test_interval_algebra_pointwise():
    """Every endpoint is a multiple of 1/2 and every witness set a
    multiple of 1/4, so a grid of eighths finds a point in each nonempty
    set the operations describe."""
    rng = random.Random(2005)
    points, witnesses = grid(9, 4), grid(13, 8)
    for _ in range(150):
        a, b = random_interval(rng), random_interval(rng)
        for iv in (a, b):
            assert iv.hi is not None or not iv.hi_open
            for x in points:
                passes = all(compare(x, rel, k) for rel, k in iv.bounds())
                assert passes == iv.contains(x), (iv, x)

        both = a.intersect(b)
        inside = [x for x in points if a.contains(x) and b.contains(x)]
        assert (both is None) == (not inside), (a, b)
        if both is not None:
            assert inside == [x for x in points if both.contains(x)], (a, b)

        shifted = a.shift(b)
        for t in points:
            want = any(a.contains(s) and b.contains(t - s) for s in witnesses if s <= t)
            assert shifted.contains(t) == want, (a, b, t)

        back = a.back_shift(b)
        reached = [s for s in points if any(a.contains(t) and b.contains(t - s) for t in witnesses)]
        assert (back is None) == (not reached), (a, b)
        if back is not None:
            assert reached == [s for s in points if back.contains(s)], (a, b)

        for iv in (a, b, both, shifted, back):
            if iv is None:
                continue
            t = iv.earliest()
            assert type(t) in (int, Q) and iv.contains(t), iv
            assert iv.lo_open or t == iv.lo, iv
