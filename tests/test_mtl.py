import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timegolog.mtl import (
    FALSE,
    TRUE,
    And,
    Atom,
    DualUntil,
    Interval,
    Not,
    Or,
    TimedWord,
    Until,
    atoms_of,
    closure,
    finally_,
    formula_from_json,
    formula_to_json,
    globally,
    is_pnf,
    max_constant,
    satisfies,
    subformulas,
    to_pnf,
    word,
)

from oracles import recursive_satisfies

p, q = Atom("p"), Atom("q")
CAM, GRASP = Atom("camOn"), Atom("grasping")

# bad behavior: grasping within one time unit while the camera is off
PHI_BAD = Until(TRUE, And((Not(CAM), GRASP)), Interval(0, 1))


class TestInterval:
    def test_membership(self):
        assert Interval(0, 2).contains(Q(2))
        assert not Interval(0, 2, hi_open=True).contains(Q(2))
        assert Interval(1, None).contains(Q(1000))
        assert not Interval(1, None, lo_open=True).contains(Q(1))
        assert Interval(0, 2).contains(Q(3, 2))

    def test_malformed(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_json_roundtrip(self):
        iv = Interval(1, 4, lo_open=True)
        assert Interval.from_json(iv.to_json()) == iv


class TestPnf:
    def test_double_negation(self):
        assert to_pnf(Not(Not(p))) == p

    def test_negated_until_dualizes(self):
        got = to_pnf(Not(Until(p, q, Interval(0, 2))))
        assert got == DualUntil(Not(p), Not(q), Interval(0, 2))

    def test_negated_and(self):
        assert to_pnf(Not(And((p, Not(q))))) == Or((Not(p), q))

    def test_result_is_pnf(self):
        phi = Not(Or((Until(Not(Not(p)), q), Not(DualUntil(p, q)))))
        assert is_pnf(to_pnf(phi))


class TestClosure:
    def test_single_until(self):
        assert closure(PHI_BAD) == frozenset({PHI_BAD})

    def test_three_untils(self):
        phi3 = Until(TRUE, GRASP, Interval(0, 2))
        phi1 = Until(TRUE, And((Not(CAM), GRASP)))
        phi2 = Until(TRUE, And((Not(CAM), phi3)))
        assert closure(Or((phi1, phi2))) == frozenset({phi1, phi2, phi3})

    def test_atom_has_empty_closure(self):
        assert closure(p) == frozenset()


class TestMaxConstant:
    def test_examples(self):
        assert max_constant(PHI_BAD) == 1
        assert max_constant(p) == 0
        phi = Or((finally_(p, Interval(0, 2)), finally_(q, Interval(3, None))))
        assert max_constant(phi) == 3


class TestSatisfies:
    def test_until_with_j_one(self):
        rho = word((set(), 0), ({"grasping"}, "1/2"))
        assert satisfies(rho, 0, PHI_BAD)

    def test_true_everywhere(self):
        rho = word((set(), 0))
        assert satisfies(rho, 0, TRUE)
        assert not satisfies(rho, 0, FALSE)

    def test_strict_until_needs_future_position(self):
        rho = word(({"p"}, 0))
        assert not satisfies(rho, 0, finally_(p))

    def test_interval_bound_excludes_late_witness(self):
        rho = word((set(), 0), ({"grasping"}, 2))
        assert not satisfies(rho, 0, PHI_BAD)
        assert satisfies(rho, 0, Until(TRUE, GRASP, Interval(0, 2)))

    def test_lhs_must_hold_between(self):
        phi = Until(p, q)
        good = word(({"p"}, 0), ({"p"}, 1), ({"q"}, 2))
        bad = word(({"p"}, 0), (set(), 1), ({"q"}, 2))
        assert satisfies(good, 0, phi)
        assert not satisfies(bad, 0, phi)

    def test_globally(self):
        rho = word(({"p"}, 0), ({"p"}, 1), ({"p"}, 2))
        assert satisfies(rho, 0, globally(p))
        rho2 = word(({"p"}, 0), (set(), 1), ({"p"}, 2))
        assert not satisfies(rho2, 0, globally(p))

    def test_first_index_not_observed_by_strict_operators(self):
        # the state at the evaluation point itself is invisible to U
        rho = word(({"grasping"}, 0), ({"camOn"}, 1))
        assert not satisfies(rho, 0, finally_(GRASP))

    def test_out_of_range_position(self):
        with pytest.raises(IndexError):
            satisfies(word((set(), 0)), 1, p)


class TestTimedWord:
    def test_monotone_times_enforced(self):
        with pytest.raises(ValueError):
            word((set(), 1), (set(), 0))

    def test_json_roundtrip(self):
        rho = word((set(), 0), ({"grasping"}, "1/2"))
        assert TimedWord.from_json(rho.to_json()) == rho


class TestFormulaJson:
    def test_roundtrip(self):
        phi = Or((PHI_BAD, DualUntil(p, Not(q), Interval(1, None, lo_open=True))))
        assert formula_from_json(formula_to_json(phi)) == phi

    def test_finally_shorthand(self):
        obj = {"finally": {"arg": {"atom": "p"}, "interval": {"lo": 0, "hi": 2}}}
        assert formula_from_json(obj) == finally_(p, Interval(0, 2))

    def test_spec_example_shape(self):
        obj = {
            "until": {
                "lhs": {"atom": "p"},
                "rhs": {"atom": "q"},
                "interval": {"lo": 0, "hi": 2, "loOpen": False, "hiOpen": False},
            }
        }
        assert formula_from_json(obj) == Until(p, q, Interval(0, 2))


# --- random formulas and words ------------------------------------------------

ATOMS = ["p", "q", "r"]


def formulas(depth=3):
    leaf = st.one_of(
        st.sampled_from([Atom(a) for a in ATOMS]),
        st.just(TRUE),
        st.just(FALSE),
    )
    intervals = st.builds(
        lambda lo, width, lo_open, hi_open: Interval(
            lo, None if width is None else lo + width, lo_open, width is None or hi_open
        ),
        st.integers(min_value=0, max_value=2),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.booleans(),
        st.booleans(),
    )

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(lambda a, b: And((a, b)), children, children),
            st.builds(lambda a, b: Or((a, b)), children, children),
            st.builds(Until, children, children, intervals),
            st.builds(DualUntil, children, children, intervals),
        )

    return st.recursive(leaf, extend, max_leaves=8)


def words():
    deltas = st.lists(
        st.builds(Q, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4)),
        min_size=0,
        max_size=5,
    )
    symsets = st.lists(st.sets(st.sampled_from(ATOMS)), min_size=6, max_size=6)

    def build(ds, ss):
        times = [Q(0)]
        for d in ds:
            times.append(times[-1] + d)
        entries = tuple((frozenset(s), t) for s, t in zip(ss, times))
        return TimedWord(entries)

    return st.builds(build, deltas, symsets)


@given(words(), formulas())
@settings(max_examples=200, deadline=None)
def test_pnf_preserves_semantics(rho, phi):
    assert satisfies(rho, 0, to_pnf(phi)) == satisfies(rho, 0, phi)


@given(words(), formulas(), formulas())
@settings(max_examples=150, deadline=None)
def test_until_duality(rho, a, b):
    iv = Interval(0, 2)
    lhs = satisfies(rho, 0, Not(Until(a, b, iv)))
    rhs = satisfies(rho, 0, DualUntil(Not(a), Not(b), iv))
    assert lhs == rhs


@given(words(), formulas(), st.data())
@settings(max_examples=150, deadline=None)
def test_truth_ignores_earlier_entries(rho, phi, data):
    if len(rho) < 2:
        return
    i = data.draw(st.integers(min_value=1, max_value=len(rho) - 1))
    mutated = list(rho.entries)
    scrambled = data.draw(st.sets(st.sampled_from(ATOMS)))
    mutated[i - 1] = (frozenset(scrambled), mutated[i - 1][1])
    rho2 = TimedWord(tuple(mutated))
    assert satisfies(rho, i, phi) == satisfies(rho2, i, phi)


def random_interval(rng: random.Random) -> Interval:
    """Ends with denominators 1 to 3, each end open or closed, one interval
    in five unbounded."""
    lo = Q(rng.randint(0, 4), rng.randint(1, 3))
    lo_open = rng.random() < 0.5
    if rng.random() < 0.2:
        return Interval(lo, None, lo_open)
    return Interval(lo, lo + Q(rng.randint(0, 4), rng.randint(1, 3)), lo_open, rng.random() < 0.5)


def random_shared_formula(rng: random.Random, size: int):
    """A formula built by drawing operands from every formula built so far,
    so subformulas are shared; most connectives are Until and DualUntil."""
    pool = [Atom(a) for a in ATOMS] + [TRUE, FALSE]
    for _ in range(size):
        a, b = rng.choice(pool), rng.choice(pool[-3:])
        pool.append(rng.choice([
            lambda: Not(a), lambda: And((a, b)), lambda: Or((b, a)),
            lambda: Until(a, b, random_interval(rng)), lambda: Until(b, a, random_interval(rng)),
            lambda: DualUntil(a, b, random_interval(rng)),
            lambda: DualUntil(b, a, random_interval(rng)),
        ])())
    return pool[-1]


def random_word(rng: random.Random) -> TimedWord:
    """1 to 10 entries; a third of the steps take no time, the others a
    Fraction with denominator 1 to 3."""
    t, entries = Q(0), []
    for _ in range(rng.randint(1, 10)):
        entries.append((frozenset(a for a in ATOMS if rng.random() < 0.4), t))
        if rng.random() >= 1 / 3:
            t += Q(rng.randint(1, 4), rng.randint(1, 3))
    return TimedWord(tuple(entries))


def test_bottom_up_evaluator_matches_the_recursive_reference():
    rng = random.Random(2024)
    for case in range(2000):
        rho, phi = random_word(rng), random_shared_formula(rng, rng.randint(1, 7))
        for i in range(len(rho)):
            assert satisfies(rho, i, phi) == recursive_satisfies(rho, i, phi), (case, i, rho, phi)


def test_subformulas_yields_children_first_and_each_once():
    shared = Until(p, q, Interval(0, 1))
    phi = Or((DualUntil(shared, Not(shared)), And((shared, p))))
    order = list(subformulas(phi))
    assert len(order) == len(set(order)) == 7 and order[-1] == phi
    for k, f in enumerate(order):
        if isinstance(f, (Until, DualUntil)):
            children = (f.lhs, f.rhs)
        elif isinstance(f, Not):
            children = (f.arg,)
        else:
            children = getattr(f, "args", ())
        assert all(order.index(c) < k for c in children)
