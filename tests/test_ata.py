from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from timegolog import mtl
from timegolog.ata import (
    INITIAL,
    LAnd,
    LClock,
    LLoc,
    LOr,
    LReset,
    LTRUE,
    accepts,
    ata_from_mtl,
    dnf,
    eta_table,
    make_ata,
    minimal,
    minimal_models,
    symbol_step,
    time_step,
    to_dot,
)
from timegolog.mtl import And, Atom, DualUntil, Interval, Not, Or, TRUE, Until, to_pnf, word
from timegolog.parsing import parse_mtl

from oracles import reference_symbol_step
from test_mtl import formulas, words

CAM, GRASP = Atom("camOn"), Atom("grasping")
PHI_BAD = Until(TRUE, And((Not(CAM), GRASP)), Interval(0, 1))


def bounded_response_ata():
    """For every a-event there is a b-event exactly one time unit later."""
    eta = {
        ("l0", frozenset({"a"})): LAnd((LLoc("l0"), LReset(LLoc("l1")))),
        ("l0", frozenset({"b"})): LLoc("l0"),
        ("l0", frozenset()): LLoc("l0"),
        ("l0", frozenset({"a", "b"})): LAnd((LLoc("l0"), LReset(LLoc("l1")))),
        ("l1", frozenset({"a"})): LLoc("l1"),
        ("l1", frozenset({"b"})): LOr((LClock("=", 1), LLoc("l1"))),
        ("l1", frozenset()): LLoc("l1"),
        ("l1", frozenset({"a", "b"})): LOr((LClock("=", 1), LLoc("l1"))),
    }
    return make_ata(
        locations={"l0", "l1"},
        initial="l0",
        accepting={"l0"},
        eta=eta,
        atom_universe={"a", "b"},
        max_constant=1,
    )


class TestMinimalModels:
    def test_conjunction_with_reset(self):
        phi1 = LAnd((LLoc("l0"), LReset(LLoc("l1"))))
        got = minimal_models(phi1, Q(1, 2))
        assert got == frozenset({frozenset({("l0", Q(1, 2)), ("l1", Q(0))})})

    def test_satisfied_clock_clause_gives_empty_model(self):
        # at v=1 the clock clause yields the empty model, which subsumes the
        # singleton {(l1,1)}: the empty set is the unique minimal model
        phi2 = LOr((LClock("=", 1), LLoc("l1")))
        got = minimal_models(phi2, Q(1))
        assert got == frozenset({frozenset()})

    def test_unsatisfied_clock_clause_drops_out(self):
        phi2 = LOr((LClock("=", 1), LLoc("l1")))
        got = minimal_models(phi2, Q(1, 2))
        assert got == frozenset({frozenset({("l1", Q(1, 2))})})

    def test_reset_distributes(self):
        phi = LReset(LAnd((LLoc("a"), LOr((LLoc("b"), LClock("<", 1))))))
        clauses = set(dnf(phi))
        assert frozenset({("reset", "a")}) in clauses


class TestSteps:
    def test_time_step(self):
        assert time_step(frozenset(), Q(1)) == frozenset()
        assert time_step(frozenset({("l", Q(0))}), Q(1)) == frozenset({("l", Q(1))})
        g = frozenset({("l", Q(1, 2)), ("m", Q(1))})
        assert time_step(g, Q(1, 4)) == frozenset({("l", Q(3, 4)), ("m", Q(5, 4))})

    def test_symbol_step_empty_config(self):
        a = bounded_response_ata()
        assert symbol_step(frozenset(), frozenset({"a"}), a) == frozenset({frozenset()})

    def test_symbol_step_universal_branch(self):
        a = bounded_response_ata()
        g = frozenset({("l0", Q(0))})
        got = symbol_step(g, frozenset({"a"}), a)
        assert got == frozenset({frozenset({("l0", Q(0)), ("l1", Q(0))})})

    def test_symbol_step_existential_branch(self):
        # within the bound the obligation can be discharged; the empty model
        # subsumes the keep-waiting alternative
        phi = ata_from_mtl(mtl.to_pnf(PHI_BAD))
        g = frozenset({(PHI_BAD, Q(1, 2))})
        got = symbol_step(g, frozenset({"grasping"}), phi)
        assert got == frozenset({frozenset()})
        # past the bound only the waiting alternative remains
        g2 = frozenset({(PHI_BAD, Q(3, 2))})
        got2 = symbol_step(g2, frozenset({"grasping"}), phi)
        assert got2 == frozenset({frozenset({(PHI_BAD, Q(3, 2))})})

    def test_time_step_additive(self):
        g = frozenset({("l", Q(1, 3))})
        assert time_step(time_step(g, Q(1, 2)), Q(1, 6)) == time_step(g, Q(2, 3))


class TestConstruction:
    def test_phi_bad_locations_and_table(self):
        a = ata_from_mtl(PHI_BAD)
        assert a.locations == frozenset({INITIAL, PHI_BAD})
        assert a.accepting == frozenset()
        # reading {grasping}: discharge within the bound or keep waiting
        clauses = set(dnf(a.eta(PHI_BAD, frozenset({"grasping"}))))
        assert frozenset({("clock", "<=", 1)}) in clauses
        assert frozenset({("loc", PHI_BAD)}) in clauses
        # any symbol not matching the target keeps the obligation
        for syms in [frozenset(), frozenset({"camOn"}), frozenset({"camOn", "grasping"})]:
            assert set(dnf(a.eta(PHI_BAD, syms))) == {frozenset({("loc", PHI_BAD)})}
        # the initial location defers to the obligation, ignoring the symbol
        for syms in [frozenset(), frozenset({"grasping"})]:
            assert set(dnf(a.eta(INITIAL, syms))) == {frozenset({("reset", PHI_BAD)})}

    def test_camera_spec_automaton(self):
        phi3 = Until(TRUE, GRASP, Interval(0, 2))
        phi1 = Until(TRUE, And((Not(CAM), GRASP)))
        phi2 = Until(TRUE, And((Not(CAM), phi3)))
        a = ata_from_mtl(mtl.Or((phi1, phi2)))
        assert len(a.locations) == 4
        assert a.accepting == frozenset()
        got = set(dnf(a.eta(phi2, frozenset())))
        assert got == {frozenset({("loc", phi2)}), frozenset({("reset", phi3)})}
        got3 = set(dnf(a.eta(phi3, frozenset({"grasping"}))))
        assert frozenset({("clock", "<=", 2)}) in got3
        assert frozenset({("loc", phi3)}) in got3
        # camOn blocks the phi2 -> phi3 hand-off
        got2 = set(dnf(a.eta(phi2, frozenset({"camOn"}))))
        assert got2 == {frozenset({("loc", phi2)})}

    def test_dual_until_is_accepting(self):
        phi = DualUntil(Atom("p"), Atom("q"), Interval(0, 2))
        a = ata_from_mtl(phi)
        assert phi in a.accepting

    def test_rejects_non_pnf(self):
        import pytest

        with pytest.raises(ValueError):
            ata_from_mtl(Not(PHI_BAD))


class TestAcceptance:
    def test_bounded_response_positive(self):
        a = bounded_response_ata()
        assert accepts(a, word(({"a"}, 0), ({"b"}, 1)))

    def test_bounded_response_wrong_delay(self):
        a = bounded_response_ata()
        assert not accepts(a, word(({"a"}, 0), ({"b"}, "1/2")))

    def test_empty_word_accepted_from_accepting_initial(self):
        a = bounded_response_ata()
        assert accepts(a, word())

    def test_agreement_with_oracle_on_phi_bad(self):
        a = ata_from_mtl(PHI_BAD)
        rho = word((set(), 0), ({"grasping"}, "1/2"))
        assert accepts(a, rho) == mtl.satisfies(rho, 0, PHI_BAD) is True
        rho2 = word((set(), 0), ({"grasping"}, 2))
        assert accepts(a, rho2) == mtl.satisfies(rho2, 0, PHI_BAD) is False


class TestDumps:
    def test_eta_table_lists_all_symbols(self):
        a = ata_from_mtl(PHI_BAD)
        table = eta_table(a)
        assert len(table["transitions"]) == 2 * 4
        assert table["initial"] == "l0"

    def test_dot_renders(self):
        a = ata_from_mtl(PHI_BAD)
        dot = to_dot(a)
        assert dot.startswith("digraph")
        assert "doublecircle" in dot  # the accept sink


@given(words(), formulas())
@settings(max_examples=120, deadline=None)
def test_language_equivalence_sample(rho, phi):
    phi = mtl.to_pnf(phi)
    assert accepts(ata_from_mtl(phi), rho) == mtl.satisfies(rho, 0, phi)


@given(formulas(), st.sets(st.sampled_from(["p", "q", "r"])), st.data())
@settings(max_examples=100, deadline=None)
def test_symbol_step_emits_only_minimal_configurations(phi, symbols, data):
    phi = mtl.to_pnf(phi)
    a = ata_from_mtl(phi)
    locs = sorted(a.locations, key=str)
    g = frozenset(
        (loc, Q(data.draw(st.integers(min_value=0, max_value=8)), 4))
        for loc in data.draw(st.sets(st.sampled_from(locs), max_size=3))
    )
    out = symbol_step(g, frozenset(symbols) & a.atom_universe, a)
    for m in out:
        assert not any(other < m for other in out)


@given(st.lists(st.frozensets(st.integers(0, 4), max_size=4), max_size=12))
def test_minimal_keeps_the_minimal_sets_in_first_seen_order(sets):
    expected = [
        s for i, s in enumerate(sets)
        if s not in sets[:i] and not any(o < s for o in sets)
    ]
    assert minimal(sets) == expected


@given(formulas(), st.sampled_from([1, 2, 6]), st.data())
@settings(max_examples=150, deadline=None)
def test_symbol_step_matches_the_per_formula_reference(phi, unit, data):
    # several steps on one automaton, so later steps read its filled table
    a = ata_from_mtl(mtl.to_pnf(phi))
    locs = sorted(a.locations, key=str)
    for _ in range(4):
        symbol = frozenset(data.draw(st.sets(st.sampled_from(["p", "q", "r"])))) & a.atom_universe
        g = frozenset(
            (loc, data.draw(st.integers(min_value=0, max_value=4 * unit)))
            for loc in data.draw(st.sets(st.sampled_from(locs), max_size=3))
        )
        assert symbol_step(g, symbol, a, unit) == reference_symbol_step(g, symbol, a, unit)


def test_automata_with_shared_locations_keep_their_own_tables():
    """Both automata have the initial location and the until member, over
    the same atoms; their initial transitions differ, and each reads its
    own."""
    shared = Until(TRUE, GRASP, Interval(0, 1))
    first = ata_from_mtl(shared)
    second = ata_from_mtl(to_pnf(And((shared, Not(GRASP)))))
    assert shared in first.locations and shared in second.locations
    assert first.atom_universe == second.atom_universe
    start, symbol = frozenset({(INITIAL, 0)}), frozenset({"grasping"})
    for _ in range(2):
        for a, expected in ((first, {frozenset({(shared, 0)})}), (second, set())):
            assert symbol_step(start, symbol, a) == frozenset(expected)
            assert reference_symbol_step(start, symbol, a) == frozenset(expected)


@given(words(), formulas(), st.data())
@settings(max_examples=80, deadline=None)
def test_acceptance_is_downward_closed(rho, phi, data):
    # if a configuration set can reach acceptance over a word suffix, any
    # subset (fewer obligations) can as well
    phi = mtl.to_pnf(phi)
    a = ata_from_mtl(phi)

    def frontier_accepts(configs, entries, now):
        frontier = set(configs)
        for symbols, t in entries:
            advanced = {time_step(g, t - now) for g in frontier}
            now = t
            frontier = set()
            for g in advanced:
                frontier |= symbol_step(g, symbols & a.atom_universe, a)
            if not frontier:
                return False
        return any(a.is_accepting(g) for g in frontier)

    if len(rho) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(rho) - 1))
    prefix, suffix = rho.entries[:cut], rho.entries[cut:]
    now = prefix[-1][1]
    frontier = {a.initial_configuration()}
    t_prev = mtl.TimedWord(prefix).time(0) * 0
    for symbols, t in prefix:
        advanced = {time_step(g, t - t_prev) for g in frontier}
        t_prev = t
        frontier = set()
        for g in advanced:
            frontier |= symbol_step(g, symbols & a.atom_universe, a)
    for g in frontier:
        if not g:
            continue
        subset = frozenset(sorted(g, key=str)[:-1])
        if frontier_accepts({g}, suffix, now):
            assert frontier_accepts({subset}, suffix, now)


def test_unbounded_interval_has_one_form():
    """The reader's [0,inf) is the default interval, so an automaton for a
    formula written both ways has one closure member for it."""
    f, g = parse_mtl("(until a b [0,inf))"), parse_mtl("(until a b)")
    assert f == g
    assert Interval(0, None, hi_open=True) == Interval.from_json({"hiOpen": True}) == Interval()
    assert len(ata_from_mtl(to_pnf(Or((f, g)))).locations) == 2
