import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

from timegolog import mtl
from timegolog.mtl import Atom, Interval, TRUE
from timegolog.parsing import load_ta
from timegolog.plantrans import (
    Abs,
    Activation,
    Chain,
    ConstraintSet,
    Plan,
    PlanConstraintError,
    Rel,
    _matcher_formula,
    build_encoding,
    constraint_formulas,
    constraints_from_json,
    encode_plan,
    get_activations,
    match_action,
    transform_plan,
    validate_transformed,
)
from timegolog.synthesis import trace_to_word  # noqa: F401  (not used here)
from timegolog.temporal import ClockConstraint, scale_lcm
from timegolog.timed_automata import Switch, make_ta, run_to_timed_word, ta_to_json, zone_reach

from fixtures import camera_platform_ta
from oracles import region_language
from test_acceptance import fifty_action_instance

GOTO_PLAN = Plan((
    "start(goto(l1))", "end(goto(l1))", "start(pick(o1))", "end(pick(o1))",
))

TRANSPORT_CONSTRAINTS = ConstraintSet(
    rel=(
        Rel(1, 2, Interval(30, 45)),
        Rel(3, 4, Interval(15, 20)),
        Rel(2, 3, Interval(0, 0)),
    ),
    chain=(
        Chain(
            stages=((Atom("camOff"), Interval(0, None)), (TRUE, Interval(0, 4))),
            alpha1="start:goto*",
            alpha2="end:goto*",
        ),
        Chain(
            stages=((Atom("camOn"), Interval(0, None)),),
            alpha1="start:pick*",
            alpha2="end:pick*",
        ),
    ),
)

HANDWRITTEN_WITNESS = (
    ("start(goto(l1))", Q(0)),
    ("start(bootCamera)", Q(26)),
    ("end(goto(l1))", Q(30)),
    ("end(bootCamera)", Q(30)),
    ("start(pick(o1))", Q(30)),
    ("end(pick(o1))", Q(45)),
)


class TestMatchers:
    def test_kind_prefixed_glob(self):
        assert match_action("start:goto*", "start(goto(l1))")
        assert not match_action("start:goto*", "end(goto(l1))")
        assert not match_action("start:goto*", "start(pick(o1))")

    def test_exact_and_glob(self):
        assert match_action("start(goto(l1))", "start(goto(l1))")
        assert match_action("*pick*", "end(pick(o1))")
        assert not match_action("foo", "bar")


def test_matched_names_agree_with_the_matcher_formula():
    # the validator tests a word entry against a chain matcher by set
    # intersection; the formula the oracle checks must say the same
    rng = random.Random(1717)
    names = ["start(goto(l1))", "end(goto(l1))", "start(pick(o1))", "end(pick(o1))",
             "goto", "start(step1)", "start(step12)", "end(step1)"]
    patterns = ["start:goto*", "end:*", "*pick*", "goto", "start:step1*", "start(step1)", "x*", "*"]
    outcomes = Counter()
    for _ in range(400):
        plan = Plan(tuple(rng.choices(names, k=rng.randint(1, 10))))
        pattern = rng.choice(patterns)
        matched = plan.matching(pattern)
        assert matched == {a for a in plan.actions if match_action(pattern, a)}
        symbols = frozenset(rng.sample(names + ["PlanOrder(1)", "camOn"], rng.randint(0, 4)))
        word = mtl.TimedWord(((symbols, Q(0)),))
        holds = mtl.satisfies(word, 0, _matcher_formula(plan, pattern))
        assert holds == (not symbols.isdisjoint(matched)), (plan, pattern, symbols)
        outcomes[holds] += 1
    assert min(outcomes[True], outcomes[False]) > 50


class TestEncodePlan:
    def test_shape_of_transport_encoding(self):
        ta = encode_plan(GOTO_PLAN, TRANSPORT_CONSTRAINTS)
        assert len(ta.locations) == 5
        assert ta.finals == frozenset({"l4"})
        second = ta.switches[1]
        assert second.label == "end(goto(l1))"
        assert ("x_1_2", ">=", 30) in second.guard.atoms
        assert ("x_1_2", "<=", 45) in second.guard.atoms
        first = ta.switches[0]
        assert "x_1_2" in first.resets

    def test_single_action_no_constraints(self):
        ta = encode_plan(Plan(("a1",)), ConstraintSet())
        assert len(ta.locations) == 2
        assert ta.switches[0].guard == ClockConstraint()
        assert ta.clocks == ()

    def test_relative_window_checked_by_direct_evaluation(self):
        plan = Plan(("a1", "a2"))
        cs = ConstraintSet(rel=(Rel(1, 2, Interval(30, 45)),))
        ta = encode_plan(plan, cs)

        def accepted(t1, t2):
            goal = make_ta(ta.locations, ta.initial, ta.finals, ta.clocks,
                           ta.invariants, ta.switches)
            # direct guard evaluation along the unique switch path
            val = {c: Q(0) for c in ta.clocks}
            now = Q(0)
            for sw, t in zip(ta.switches, (t1, t2)):
                adv = {c: v + (t - now) for c, v in val.items()}
                from timegolog.temporal import eval_constraint

                if not eval_constraint(adv, sw.guard):
                    return False
                val = {c: (Q(0) if c in sw.resets else v) for c, v in adv.items()}
                now = t
            return True

        assert accepted(Q(10), Q(50))  # 40 in [30,45]
        assert not accepted(Q(10), Q(60))  # 50 outside

    # window shapes the clock sharing must get right: overlapping, nested,
    # adjacent (one ends where the next starts) and sharing a start
    WINDOW_SHAPES = (
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
        ((1, 2), (2, 3), (3, 4)),
        ((1, 2), (1, 3)),
        ((1, 2), (1, 4), (2, 3)),
    )

    def test_language_matches_oracle_semantics(self):
        rng = random.Random(5)
        cases = [(4, shape) for shape in self.WINDOW_SHAPES]
        for _ in range(35):
            n = rng.randint(1, 4)
            pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
            k = rng.randint(0, min(3, len(pairs))) if rng.random() < 0.8 else 0
            cases.append((n, tuple(rng.sample(pairs, k))))
        for n, shape in cases:
            plan = Plan(tuple(f"a{i}" for i in range(1, n + 1)))
            rels = []
            for i, j in shape:
                lo = rng.randint(0, 3)
                rels.append(Rel(i, j, Interval(lo, lo + rng.randint(0, 2))))
            abss = []
            if rng.random() < 0.5:
                i = rng.randint(1, n)
                lo = rng.randint(0, 2)
                abss.append(Abs(i, Interval(lo, lo + rng.randint(0, 2))))
            cs = ConstraintSet(abs=tuple(abss), rel=tuple(rels))
            ta = encode_plan(plan, cs)
            rel_clocks = [c for c in ta.clocks if c != "x_abs"]
            assert len(set(ta.clocks)) == len(ta.clocks), ta.clocks
            assert len(rel_clocks) == max_live_window_starts(n, rels), (shape, ta.clocks)
            words = region_language(ta, max_actions=n)
            formulas = constraint_formulas(plan, cs)
            for word in words:
                if len(word) != n:
                    continue
                w = plan_order_word(word)
                assert all(mtl.satisfies(w, 0, phi) for phi in formulas), (plan, cs, word)
            assert (zone_reach(ta) is not None) == brute_force_realizable(plan, cs), (plan, cs)


def max_live_window_starts(n: int, rels) -> int:
    """Most window starts whose windows are still open at one plan position
    (a start is open from its position until its last window's end)."""
    end: dict = {}
    for c in rels:
        end[c.i] = max(end.get(c.i, c.j), c.j)
    return max(
        (sum(1 for i, e in end.items() if i <= p < e) for p in range(1, n + 1)),
        default=0,
    )


def plan_order_word(word):
    return mtl.TimedWord(tuple([(frozenset(), Q(0))] + [
        (frozenset({label, f"PlanOrder({k + 1})"}), t) for k, (label, t) in enumerate(word)
    ]))


def brute_force_realizable(plan: Plan, cs: ConstraintSet) -> bool:
    """Some non-decreasing integer timestamps satisfy every constraint
    formula.  With closed integer windows the earliest solution, if any, is
    integral and bounded by the sum of the lower ends."""
    horizon = sum(c.interval.lo for c in cs.abs + cs.rel)
    formulas = constraint_formulas(plan, cs)
    for times in itertools.combinations_with_replacement(range(horizon + 1), len(plan)):
        w = plan_order_word(tuple(zip(plan.actions, map(Q, times))))
        if all(mtl.satisfies(w, 0, phi) for phi in formulas):
            return True
    return False


class TestActivations:
    def test_transport_chain_activation(self):
        chain = TRANSPORT_CONSTRAINTS.chain[0]
        assert get_activations(chain, GOTO_PLAN) == frozenset({Activation(1, 2)})

    def test_no_match_no_activation(self):
        chain = Chain(((TRUE, Interval(0, None)),), "start:fly*", "end:fly*")
        assert get_activations(chain, GOTO_PLAN) == frozenset()

    def test_two_disjoint_pairs(self):
        plan = Plan((
            "start(goto(a))", "end(goto(a))", "x1", "x2",
            "start(goto(b))", "mid", "end(goto(b))", "x3",
        ))
        chain = Chain(((TRUE, Interval(0, None)),), "start:goto*", "end:goto*")
        assert get_activations(chain, plan) == frozenset(
            {Activation(1, 2), Activation(5, 7)}
        )

    def test_scope_ends_at_first_close(self):
        plan = Plan(("start(goto(a))", "end(goto(a))", "end(goto(a))"))
        chain = Chain(((TRUE, Interval(0, None)),), "start:goto*", "end:goto*")
        assert get_activations(chain, plan) == frozenset({Activation(1, 2)})


class TestEnforceChain:
    def test_stage_structure(self):
        enc = build_encoding(GOTO_PLAN, camera_platform_ta(), TRANSPORT_CONSTRAINTS)
        # the goto window keeps camOff-only in stage 1 and everything in 2;
        # the pick window keeps only camOn
        tags = {loc[1] for loc in enc.locations if isinstance(loc, tuple) and len(loc) == 2
                and isinstance(loc[1], tuple) and loc[1][0] == "stage"}
        assert {t[2] for t in tags if t[1] == "x_chain0"} == {1, 2}
        assert {t[2] for t in tags if t[1] == "x_chain1"} == {1}

    def test_trivial_chain_keeps_everything(self):
        cs = ConstraintSet(chain=(
            Chain(((TRUE, Interval(0, None)),), "start:goto*", "end:goto*"),
        ))
        enc = build_encoding(GOTO_PLAN, camera_platform_ta(), cs)
        trace = transform_plan(GOTO_PLAN, camera_platform_ta(), cs)
        assert trace is not None

    def test_unmatchable_stage_reports_unsatisfiable(self):
        cs = ConstraintSet(chain=(
            Chain(((Atom("noSuchLocation"), Interval(0, None)),),
                  "start:goto*", "end:goto*"),
        ))
        with pytest.raises(PlanConstraintError, match="unsatisfiable"):
            build_encoding(GOTO_PLAN, camera_platform_ta(), cs)


DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

# The witnesses the search returns, pinned so that any change to its order
# (which successors it explores first, which zones it keeps) shows up here.
TRANSPORT_DEMO_WITNESS = (
    ("start(goto(l1))", 0), ("start(bootCamera)", 26), ("end(goto(l1))", 30),
    ("end(bootCamera)", 30), ("start(pick(o1))", 30), ("end(pick(o1))", 45),
)
FIFTY_ACTION_WITNESS = (
    ("start(step0)", 0), ("end(step0)", 1), ("start(step1)", 1), ("warmup", 1),
    ("end(step1)", 2), ("start(step2)", 2), ("end(step2)", 3), ("engage", 3),
    ("start(step3)", 3), ("end(step3)", 4), ("start(step4)", 4), ("end(step4)", 5),
    ("start(step5)", 5), ("end(step5)", 6), ("start(step6)", 6), ("end(step6)", 7),
    ("start(step7)", 7), ("end(step7)", 8), ("start(step8)", 8), ("end(step8)", 9),
    ("start(step9)", 9), ("end(step9)", 10), ("cooldown", 10), ("rest", 11),
    ("start(step10)", 11), ("end(step10)", 12), ("start(step11)", 12),
    ("end(step11)", 13), ("start(step12)", 13), ("end(step12)", 14),
    ("start(step13)", 14), ("end(step13)", 15), ("start(step14)", 15),
    ("end(step14)", 16), ("start(step15)", 16), ("end(step15)", 17),
    ("start(step16)", 17), ("end(step16)", 18), ("start(step17)", 18),
    ("end(step17)", 19), ("start(step18)", 19), ("end(step18)", 20),
    ("start(step19)", 20), ("warmup", 20), ("end(step19)", 21), ("start(step20)", 21),
    ("end(step20)", 22), ("start(step21)", 22), ("end(step21)", 23),
    ("start(step22)", 23), ("end(step22)", 24), ("start(step23)", 24),
    ("end(step23)", 25), ("start(step24)", 25), ("end(step24)", 26),
)


def test_search_returns_the_pinned_witnesses():
    plan = Plan(tuple(json.loads((DEMO_DATA / "transport_plan.json").read_text())["actions"]))
    platform = load_ta(json.loads((DEMO_DATA / "camera_platform.json").read_text()))
    constraints = constraints_from_json(
        json.loads((DEMO_DATA / "transport_constraints.json").read_text()))
    assert transform_plan(plan, platform, constraints) == TRANSPORT_DEMO_WITNESS
    assert transform_plan(*fifty_action_instance()) == FIFTY_ACTION_WITNESS


def test_rational_platform_trace_is_pinned():
    # engage and rest wait 3/2 instead of 1: the zones run on the product
    # scaled by 2, and rest, 3/2 after cooldown, delays the rest by 1/2
    plan, platform, constraints = fifty_action_instance()
    slow = platform.scaled(Q(3, 2))
    trace = transform_plan(plan, slow, constraints)
    assert trace == tuple((a, t if t < 11 else t + Q(1, 2)) for a, t in FIFTY_ACTION_WITNESS)
    assert validate_transformed(trace, plan, slow, constraints)


# Three chains over the goto plan whose activations (1,2), (1,4) and (2,4)
# overlap, so locations carry two nested stage tags.
OVERLAPPING_CHAINS = ConstraintSet(
    rel=(Rel(1, 2, Interval(30, 45)), Rel(3, 4, Interval(15, 20))),
    chain=(
        Chain(((Atom("camOff"), Interval(0, None)), (TRUE, Interval(0, 4))),
              "start:goto*", "end:goto*"),
        Chain(((mtl.Or((Atom("camOff"), Atom("booting"))), Interval(0, None)),
               (Atom("camOn"), Interval(0, None))), "start:goto*", "end:pick*"),
        Chain(((TRUE, Interval(0, None)),), "end:goto*", "end:pick*"),
    ),
)
OVERLAPPING_LOCATIONS = [
    "l0|camOff", "l0|booting", "l0|camOn", "l4|camOff", "l4|booting", "l4|camOn",
    "l1|camOff|stage|x_chain0|1|stage|x_chain1|1",
    "l1|camOff|stage|x_chain0|2|stage|x_chain1|1",
    "l1|booting|stage|x_chain0|2|stage|x_chain1|1",
    "l1|camOn|stage|x_chain0|2|stage|x_chain1|2",
    "l2|camOff|stage|x_chain1|1|stage|x_chain2|1",
    "l2|booting|stage|x_chain1|1|stage|x_chain2|1",
    "l3|camOff|stage|x_chain1|1|stage|x_chain2|1",
    "l3|booting|stage|x_chain1|1|stage|x_chain2|1",
    "l2|camOn|stage|x_chain1|2|stage|x_chain2|1",
    "l3|camOn|stage|x_chain1|2|stage|x_chain2|1",
]
OVERLAPPING_WITNESS = (
    ("start(goto(l1))", 0), ("start(bootCamera)", 26), ("end(goto(l1))", 30),
    ("start(pick(o1))", 30), ("end(bootCamera)", 30), ("end(pick(o1))", 45),
)


def test_overlapping_chains_nest_stage_tags_in_a_pinned_order():
    enc = ta_to_json(build_encoding(GOTO_PLAN, camera_platform_ta(), OVERLAPPING_CHAINS))
    assert enc["locations"] == OVERLAPPING_LOCATIONS
    assert len(enc["switches"]) == 38
    assert enc["clocks"] == ["x_1_2", "x_cam", "x_chain0", "x_chain1", "x_chain2"]
    trace = transform_plan(GOTO_PLAN, camera_platform_ta(), OVERLAPPING_CHAINS)
    assert trace == OVERLAPPING_WITNESS
    assert validate_transformed(trace, GOTO_PLAN, camera_platform_ta(), OVERLAPPING_CHAINS)


def test_platform_locations_named_like_plan_locations():
    # the stage predicate reads the platform component of ("l1", "l0"),
    # which is "l0", even though "l1" is a platform location too
    platform = make_ta(("l0", "l1"), "l0", ("l0", "l1"), (),
                       switches=[Switch("l0", "go", ClockConstraint(), frozenset(), "l1")])
    plan = Plan(("a", "b"))
    cs = ConstraintSet(chain=(Chain(((Atom("l1"), Interval(0, None)),), "a", "b"),))
    enc = ta_to_json(build_encoding(plan, platform, cs))
    assert [l for l in enc["locations"] if "stage" in l] == ["l1|l1|stage|x_chain0|1"]
    trace = transform_plan(plan, platform, cs)
    assert trace == (("go", 0), ("a", 0), ("b", 0))
    assert validate_transformed(trace, plan, platform, cs)


def test_windows_open_at_both_ends_give_exact_midpoint_delays():
    # each window is open at both ends, so extraction picks its midpoint:
    # delays 1/2, 3/2 and 5/2
    hub = make_ta(("hub",), "hub", ("hub",), ())
    plan = Plan(("a1", "a2", "a3"))
    cs = ConstraintSet(
        abs=(Abs(1, Interval(0, 1, True, True)),),
        rel=(Rel(1, 2, Interval(1, 2, True, True)), Rel(2, 3, Interval(2, 3, True, True))),
    )
    trace = transform_plan(plan, hub, cs)
    assert trace == (("a1", Q(1, 2)), ("a2", Q(2)), ("a3", Q(9, 2)))
    assert all(type(t) is Q for _, t in trace)
    assert validate_transformed(trace, plan, hub, cs)


class TestTransform:
    def test_transport_example_end_to_end(self):
        trace = transform_plan(GOTO_PLAN, camera_platform_ta(), TRANSPORT_CONSTRAINTS)
        assert trace is not None
        assert validate_transformed(trace, GOTO_PLAN, camera_platform_ta(),
                                    TRANSPORT_CONSTRAINTS)

    def test_handwritten_witness_validates(self):
        assert validate_transformed(HANDWRITTEN_WITNESS, GOTO_PLAN,
                                    camera_platform_ta(), TRANSPORT_CONSTRAINTS)

    def test_shifted_witness_fails_relative_window(self):
        bad = tuple(
            (a, Q(60) if (a, t) == ("end(pick(o1))", Q(45)) else t)
            for a, t in HANDWRITTEN_WITNESS
        )
        assert not validate_transformed(bad, GOTO_PLAN, camera_platform_ta(),
                                        TRANSPORT_CONSTRAINTS)

    def test_conflicting_windows_unrealizable(self):
        # the camera needs >= 4 to boot but must be on immediately: the boot
        # must happen inside the goto stage-2 window of <= 1
        cs = ConstraintSet(
            rel=(Rel(1, 2, Interval(0, 0)),),
            chain=(
                Chain(
                    stages=((Atom("camOff"), Interval(0, None)), (TRUE, Interval(0, 1))),
                    alpha1="start:goto*",
                    alpha2="end:goto*",
                ),
                Chain(
                    stages=((Atom("camOn"), Interval(0, None)),),
                    alpha1="start:pick*",
                    alpha2="end:pick*",
                ),
                Chain(
                    stages=((Atom("camOff"), Interval(0, None)),),
                    alpha1="start:goto*",
                    alpha2="start:pick*",
                ),
            ),
        )
        assert transform_plan(GOTO_PLAN, camera_platform_ta(), cs) is None

    def test_empty_constraints_realize_at_zero(self):
        trace = transform_plan(GOTO_PLAN, camera_platform_ta(), ConstraintSet())
        assert trace is not None
        assert [a for a, _ in trace] == list(GOTO_PLAN.actions)
        assert all(t == 0 for _, t in trace)
        assert validate_transformed(trace, GOTO_PLAN, camera_platform_ta(), ConstraintSet())

    def test_empty_plan_trivial(self):
        assert validate_transformed((), Plan(()), camera_platform_ta(), ConstraintSet())

    def test_long_plan_validates_under_default_recursion_limit(self):
        plan = Plan(tuple(f"a{i}" for i in range(1, 1501)))
        assert len(plan) > sys.getrecursionlimit()
        hub = make_ta(("hub",), "hub", ("hub",), ())
        cs = ConstraintSet(rel=(Rel(1, 2, Interval(1, 2)), Rel(1499, 1500, Interval(2, 3))))
        trace = transform_plan(plan, hub, cs)
        assert trace is not None and len(trace) == 1500
        assert validate_transformed(trace, plan, hub, cs)
        late = trace[:-1] + (("a1500", trace[-1][1] + 5),)
        assert not validate_transformed(late, plan, hub, cs)

    def test_label_collision_rejected(self):
        plan = Plan(("start(bootCamera)",))
        with pytest.raises(ValueError, match="collide"):
            transform_plan(plan, camera_platform_ta(), ConstraintSet())

    def test_monotone_language_shrinks(self):
        # nested windows over the same clock set keep the region grids equal,
        # so the representative languages are directly comparable
        loose = ConstraintSet(rel=(Rel(1, 2, Interval(0, 4)),))
        tight = ConstraintSet(rel=(Rel(1, 2, Interval(3, 4)),))
        plan = Plan(("a1", "a2"))
        single = make_ta(("s",), "s", ("s",), ())
        words_loose = region_language(build_encoding(plan, single, loose), 2)
        words_tight = region_language(build_encoding(plan, single, tight), 2)
        assert words_tight < words_loose


def random_rational_problem(rng: random.Random):
    """A plan of one to three actions, a platform of two or three locations
    over clocks u and v whose constants are halves, thirds and quarters, and
    absolute, relative and chain constraints with natural endpoints."""
    locations = ("p0", "p1", "p2")[: rng.randint(2, 3)]

    def guard(n):
        return ClockConstraint(tuple(
            (rng.choice("uv"), rng.choice(("<", "<=", "=", ">=", ">")),
             Q(rng.randint(0, 12), rng.choice((1, 2, 3, 4))))
            for _ in range(n)
        ))

    switches = [
        Switch(rng.choice(locations), f"m{k}", guard(rng.randint(0, 2)),
               frozenset(c for c in "uv" if rng.random() < 0.4), rng.choice(locations))
        for k in range(rng.randint(1, 4))
    ]
    invariants = {l: guard(1) for l in locations[1:] if rng.random() < 0.3}
    platform = make_ta(locations, "p0", locations, ("u", "v"), invariants, switches)

    def interval():
        lo = rng.randint(0, 3)
        return Interval(lo, None if rng.random() < 0.3 else lo + rng.randint(0, 3),
                        rng.random() < 0.2, rng.random() < 0.2)

    n = rng.randint(1, 3)
    plan = Plan(tuple(f"a{i}" for i in range(1, n + 1)))
    abs_cs = tuple(Abs(rng.randint(1, n), interval()) for _ in range(rng.randint(0, 1)))
    rel_cs = tuple(Rel(1, n, interval()) for _ in range(rng.randint(0, 1) if n > 1 else 0))
    chains = ()
    if n > 1 and rng.random() < 0.5:
        betas = (TRUE, Atom("p0"), Atom("p1"), mtl.Not(Atom("p0")))
        stages = tuple((rng.choice(betas), interval()) for _ in range(rng.randint(1, 2)))
        chains = (Chain(stages, "a1", f"a{n}"),)
    return plan, platform, ConstraintSet(abs_cs, rel_cs, chains)


def scaled_constraints(cs: ConstraintSet, factor: int) -> ConstraintSet:
    return ConstraintSet(
        tuple(Abs(c.i, c.interval.scaled(factor)) for c in cs.abs),
        tuple(Rel(c.i, c.j, c.interval.scaled(factor)) for c in cs.rel),
        tuple(Chain(tuple((b, iv.scaled(factor)) for b, iv in c.stages), c.alpha1, c.alpha2)
              for c in cs.chain),
    )


def test_transform_scales_in_one_place():
    """transform_plan answers in the units of its inputs: on a platform with
    rational constants and on the same problem multiplied by s it finds the
    same trace, up to dividing the times by s.  For s dividing the lcm of
    the platform's denominators both runs search the same natural-constant
    automaton, so the traces agree exactly; for other s the zones are
    multiples of each other, the verdicts agree and the scaled trace, divided
    by s, is valid on the inputs."""
    rng = random.Random(20241018)
    realized = rational = 0
    for _ in range(60):
        plan, platform, cs = random_rational_problem(rng)
        lcm = scale_lcm(platform.constants())
        rational += lcm > 1
        trace = transform_plan(plan, platform, cs)
        if trace is not None:
            realized += 1
            assert validate_transformed(trace, plan, platform, cs), (plan, platform, cs)
        for s in [d for d in range(1, lcm + 1) if lcm % d == 0] + [2 * lcm]:
            got = transform_plan(plan, platform.scaled(s), scaled_constraints(cs, s))
            assert (got is None) == (trace is None), (s, plan, platform, cs)
            if got is None:
                continue
            unscaled = tuple((action, t / s) for action, t in got)
            if lcm % s == 0:
                assert unscaled == trace, (s, plan, platform, cs)
            else:
                assert validate_transformed(unscaled, plan, platform, cs), (s, plan, platform, cs)
    assert 20 < realized < 60 and rational > 40  # both verdicts, mostly rational platforms


class TestSilentCrossingReconstruction:
    """Chains whose stage switches leave no observable action: validation
    must reconstruct the silent observation points and their times."""

    HUB = make_ta(("hub",), "hub", ("hub",), ())
    PLAN = Plan(("start(go)", "end(go)"))

    def chain(self):
        return Chain(
            stages=(
                (Atom("hub"), Interval(1, 2)),
                (Atom("hub"), Interval(0, 0)),
                (Atom("hub"), Interval(1, 2)),
            ),
            alpha1="start:go*",
            alpha2="end:go*",
        )

    def test_two_crossings_share_one_piece(self):
        cs = ConstraintSet(chain=(self.chain(),))
        good = (("start(go)", Q(0)), ("end(go)", Q(3)))
        assert validate_transformed(good, self.PLAN, self.HUB, cs)
        too_short = (("start(go)", Q(0)), ("end(go)", Q(1)))
        assert not validate_transformed(too_short, self.PLAN, self.HUB, cs)
        too_long = (("start(go)", Q(0)), ("end(go)", Q(5)))
        assert not validate_transformed(too_long, self.PLAN, self.HUB, cs)

    def test_transform_finds_and_validates(self):
        cs = ConstraintSet(chain=(self.chain(),))
        trace = transform_plan(self.PLAN, self.HUB, cs)
        assert trace is not None
        assert validate_transformed(trace, self.PLAN, self.HUB, cs)

    def test_multi_action_context_with_silent_crossing(self):
        # the chain spans two plan actions; the camera boots silently only
        # via a real platform action, the stage hand-off is an ε move
        plan = Plan(("start(go)", "mid(go)", "end(go)"))
        cs = ConstraintSet(chain=(
            Chain(
                stages=((Atom("camOff"), Interval(0, None)), (TRUE, Interval(0, 4))),
                alpha1="start:go*",
                alpha2="end:go*",
            ),
        ))
        trace = transform_plan(plan, camera_platform_ta(), cs)
        assert trace is not None
        assert validate_transformed(trace, plan, camera_platform_ta(), cs)


def constraints_to_json(cs: ConstraintSet) -> dict:
    """The JSON shape `constraints_from_json` reads."""
    def beta_text(phi) -> str:
        if isinstance(phi, Atom):
            return phi.name
        if isinstance(phi, mtl.Not):
            return f"(not {beta_text(phi.arg)})"
        if isinstance(phi, mtl.And):
            return "true" if not phi.args else "(and " + " ".join(map(beta_text, phi.args)) + ")"
        if isinstance(phi, mtl.Or):
            return "false" if not phi.args else "(or " + " ".join(map(beta_text, phi.args)) + ")"
        raise ValueError(f"not a location predicate: {phi!r}")

    return {
        "abs": [{"i": c.i, "interval": c.interval.to_json()} for c in cs.abs],
        "rel": [{"i": c.i, "j": c.j, "interval": c.interval.to_json()} for c in cs.rel],
        "chain": [
            {
                "stages": [
                    {"beta": beta_text(beta), "interval": iv.to_json()}
                    for beta, iv in c.stages
                ],
                "alpha1": c.alpha1,
                "alpha2": c.alpha2,
            }
            for c in cs.chain
        ],
    }


class TestJson:
    def test_roundtrip(self):
        obj = constraints_to_json(TRANSPORT_CONSTRAINTS)
        again = constraints_from_json(obj)
        assert again == TRANSPORT_CONSTRAINTS

    def test_documented_shape(self):
        obj = {
            "abs": [{"i": 1, "interval": {"lo": 0, "hi": 30}}],
            "rel": [{"i": 1, "j": 2, "interval": {"lo": 15, "hi": 20}}],
            "chain": [{
                "stages": [{"beta": "(or camOff checking)", "interval": {"lo": 0, "hi": None}}],
                "alpha1": "start:goto*",
                "alpha2": "end:goto*",
            }],
        }
        cs = constraints_from_json(obj)
        assert cs.abs[0].i == 1
        assert cs.chain[0].stages[0][0] == mtl.Or((Atom("camOff"), Atom("checking")))
