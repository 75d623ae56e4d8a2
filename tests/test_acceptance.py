"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction as Q

import pytest

from timegolog import golog, mtl
from timegolog.ata import ata_from_mtl, accepts
from timegolog.golog import (
    ActionDecl,
    Bat,
    PAct,
    PStar,
    SAtom,
    SClock,
    SEq,
    SNot,
    SOr,
    SAnd,
    SQuant,
    Const,
    Var,
    holds,
    make_state,
    regress,
    seq,
    world_after,
)
from timegolog.mtl import And, Atom, DualUntil, Interval, Not, Or, TRUE, Until, TimedWord
from timegolog.plantrans import (
    Chain,
    ConstraintSet,
    Plan,
    Rel,
    build_encoding,
    transform_plan,
    validate_transformed,
)
from timegolog.synthesis import (
    build_graph,
    build_problem,
    check_for_controller,
    extract_controller,
    simulate_controller,
    trace_to_word,
    verify,
)
from timegolog.temporal import (
    CanonicalWord,
    canonical_word,
    mono_dom_leq,
    time_successors,
)
from timegolog.timed_automata import (
    Switch,
    make_ta,
    run_to_timed_word,
    zone_reach,
)
from timegolog.temporal import ClockConstraint

from fixtures import build_camera_bat, camera_platform_ta, camera_program, camera_spec
from oracles import enumerate_completed_traces, region_reachable
from test_synthesis import tiny_bat


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- 1: specification automaton vs semantics oracle -------------------------------

ATOMS = ("p", "q", "r")


def random_formula(rng: random.Random, depth: int) -> mtl.MtlFormula:
    if depth == 0:
        return rng.choice([Atom(rng.choice(ATOMS)), TRUE, mtl.FALSE])
    kind = rng.choice(["atom", "not", "and", "or", "until", "dual"])
    if kind == "atom":
        return random_formula(rng, 0)
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    if kind in ("and", "or"):
        cls = And if kind == "and" else Or
        return cls((random_formula(rng, depth - 1), random_formula(rng, depth - 1)))
    lo = rng.randint(0, 3)
    hi = rng.choice([None, lo, min(lo + rng.randint(0, 3), 3)])
    if hi is not None and hi < lo:
        hi = lo
    iv = Interval(lo, hi, rng.random() < 0.3, rng.random() < 0.3 or hi is None)
    cls = Until if kind == "until" else DualUntil
    return cls(random_formula(rng, depth - 1), random_formula(rng, depth - 1), iv)


def random_word(rng: random.Random) -> TimedWord:
    length = rng.randint(1, 6)
    t = Q(0)
    entries = [(frozenset(a for a in ATOMS if rng.random() < 0.4), Q(0))]
    for _ in range(length - 1):
        t += Q(rng.randint(0, 8), rng.choice([1, 2, 3, 4]))
        entries.append((frozenset(a for a in ATOMS if rng.random() < 0.4), t))
    return TimedWord(tuple(entries))


def test_criterion_1_mtl_ata_equivalence():
    rng = random.Random(20260809)
    start = time.time()
    disagreements = 0
    for _ in range(1000):
        phi = mtl.to_pnf(random_formula(rng, rng.randint(1, 3)))
        rho = random_word(rng)
        if accepts(ata_from_mtl(phi), rho) != mtl.satisfies(rho, 0, phi):
            disagreements += 1
    elapsed = time.time() - start
    report(
        "criterion 1: automaton/semantics equivalence on 1000 random pairs",
        disagreements == 0 and elapsed < 30,
        f"{disagreements} disagreements, {elapsed:.1f}s",
    )


# --- 2: region increment tables ---------------------------------------------------

def test_criterion_2_region_increment_tables():
    first = time_successors(frozenset({("c_b", Q(0)), ("c_phi", Q(1, 2))}), 2)
    expected_first = [Q(0), Q(1, 4), Q(1, 2), Q(3, 4), Q(1),
                      Q(5, 4), Q(3, 2), Q(7, 4), Q(2), Q(5, 2)]
    second = time_successors(frozenset({("c_b", Q(0)), ("c_phi", Q(3, 4))}), 2)
    expected_second = [Q(0), Q(1, 8), Q(1, 4), Q(5, 8), Q(1),
                       Q(9, 8), Q(5, 4), Q(13, 8), Q(2), Q(5, 2)]
    ok = [a for a, _ in first] == expected_first and [a for a, _ in second] == expected_second
    steps = [b - a for a, b in zip(expected_second, expected_second[1:])]
    ok = ok and steps[:4] == [Q(1, 8), Q(1, 8), Q(3, 8), Q(3, 8)]
    # the table rows' valuations
    ok = ok and dict(first)[Q(1, 4)] == frozenset({("c_b", Q(1, 4)), ("c_phi", Q(3, 4))})
    ok = ok and dict(second)[Q(5, 8)] == frozenset({("c_b", Q(5, 8)), ("c_phi", Q(11, 8))})
    report("criterion 2: region increment tables reproduce bit-exactly", ok)


# --- 3: abstraction function and orders --------------------------------------------

def test_criterion_3_canonical_words_and_orders():
    ok = True
    w1 = canonical_word({("c1", Q(1, 2)), ("c2", Q(3, 2))}, 3)
    ok &= w1.letters == (frozenset({("c1", 1), ("c2", 3)}),)
    w2 = canonical_word({("c1", Q(1, 2)), ("c3", Q(3, 5)), ("c2", Q(3, 2))}, 3)
    ok &= w2.letters == (frozenset({("c1", 1), ("c2", 3)}), frozenset({("c3", 1)}))
    w3 = canonical_word(
        {("c1", Q(0)), ("c2", Q(1, 2)), ("c3", Q(3, 5)), ("x", Q(1, 2)), ("x", Q(2))}, 2
    )
    ok &= w3.letters == (
        frozenset({("c1", 0), ("x", 4)}),
        frozenset({("c2", 1), ("x", 1)}),
        frozenset({("c3", 1)}),
    )
    w4 = canonical_word(
        {("c1", Q(0)), ("c2", Q(1, 2)), ("c3", Q(13, 5)), ("x", Q(1, 2)), ("x", Q(2))}, 2
    )
    ok &= w4.letters == (
        frozenset({("c1", 0), ("x", 4), ("c3", 5)}),
        frozenset({("c2", 1), ("x", 1)}),
    )

    def letters(*names):
        return CanonicalWord(tuple(frozenset({(n, 0)}) for n in names))

    ok &= mono_dom_leq(letters("a", "c", "d"), letters("a", "b", "c", "d"))
    ok &= not mono_dom_leq(letters("e", "e"), letters("e"))
    report("criterion 3: abstraction function and monotone domination examples", ok)


# --- 4: camera synthesis positive ---------------------------------------------------

def test_criterion_4_camera_synthesis_positive():
    start = time.time()
    bat = build_camera_bat()
    controllable = lambda a: a.startswith("start(")
    result, graph, problem = check_for_controller(
        bat, camera_program(), camera_spec(2), controllable
    )
    ok = result is True
    controller = extract_controller(problem, graph, controllable)
    sim = simulate_controller(controller, trials=500, seed=2026)
    elapsed = time.time() - start
    # the full exploration keeps its size; the controller comes from the
    # smaller graph that the search labelled on the fly
    full = build_graph(build_problem(bat, camera_program(), camera_spec(2)))
    ok = ok and sim.ok and sim.completed > 0
    ok = ok and len(full.nodes) == 432 and len(graph.nodes) < len(full.nodes)
    report(
        "criterion 4: camera scenario controller exists and simulates clean",
        ok and elapsed < 60,
        f"{len(graph.nodes)} of {len(full.nodes)} nodes searched, "
        f"{sim.completed}/{sim.trials} completed, "
        f"{len(sim.violations)} violations, {elapsed:.1f}s",
    )


# --- 5: synthesis negative -----------------------------------------------------------

def test_criterion_5_synthesis_negative():
    bat = tiny_bat(1)
    spec = mtl.finally_(Atom("p0"))
    program = PAct("set_p0")
    result, _, _ = check_for_controller(bat, program, spec, lambda a: True)
    verdict = verify(bat, program, spec)
    confirmed = (
        not verdict.safe
        and mtl.satisfies(trace_to_word(bat, verdict.counterexample), 0, spec)
    )
    report(
        "criterion 5: forced violation yields no controller and a confirmed counterexample",
        result is False and confirmed,
    )


# --- 6: verification vs brute force --------------------------------------------------

def verification_corpus():
    """Programs with at most 3 actions over a 2-atom, 2-clock theory."""
    bat = tiny_bat(2, clocked=True)
    # second clock reset by the p1 toggles
    bat.clocks = ("c0", "c1")
    for name, decl in list(bat.actions.items()):
        resets = set(decl.resets)
        if name.endswith("p1") and name.startswith("set"):
            resets = {"c1"}
        bat.actions[name] = ActionDecl(decl.poss, decl.guard, frozenset(resets))
    bat.sorts["clock"] = ("c0", "c1")
    bat.initial = make_state((), {}, {"c0": 0, "c1": 0})

    a, b, c, d = PAct("set_p0"), PAct("set_p1"), PAct("clear_p0"), PAct("clear_p1")
    programs = [
        a,
        seq(a, b),
        seq(a, c),
        golog.PBranch(a, b),
        golog.PPar(a, b),
        seq(a, golog.PBranch(b, c)),
        seq(golog.PPar(a, b), d),
        golog.PBranch(seq(a, b), seq(b, c)),
    ]
    rng = random.Random(77)
    specs = []
    for _ in range(6):
        lo = rng.randint(0, 2)
        hi = rng.choice([None, lo, min(lo + 1, 2), 2])
        if hi is not None and hi < lo:
            hi = lo
        iv = Interval(lo, hi)
        specs.append(rng.choice([
            mtl.finally_(Atom("p0"), iv),
            mtl.finally_(And((Atom("p0"), Atom("p1"))), iv),
            Until(Atom("p0"), Atom("p1"), iv),
            mtl.finally_(And((Not(Atom("p0")), mtl.finally_(Atom("p1"), iv)))),
            Not(mtl.finally_(Atom("p1"), iv)),
            mtl.globally(Or((Atom("p0"), Not(Atom("p1")))), iv),
        ]))
    return bat, programs, specs


def test_criterion_6_verification_brute_force_equivalence():
    bat, programs, specs = verification_corpus()
    disagreements = 0
    checked = 0
    for program in programs:
        for spec in specs:
            verdict = verify(bat, program, spec)
            k = build_problem(bat, program, spec).k
            traces = enumerate_completed_traces(bat, program, k, max_actions=3)
            oracle_unsafe = any(
                mtl.satisfies(trace_to_word(bat, tr), 0, spec) for tr in traces
            )
            checked += 1
            if verdict.safe != (not oracle_unsafe):
                disagreements += 1
    report(
        "criterion 6: verification equals brute-force enumeration",
        disagreements == 0,
        f"{checked} instances, {disagreements} disagreements",
    )


# --- 7: plan transformation -----------------------------------------------------------

def transport_instance():
    plan = Plan((
        "start(goto(l1))", "end(goto(l1))", "start(pick(o1))", "end(pick(o1))",
    ))
    constraints = ConstraintSet(
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
    return plan, camera_platform_ta(), constraints


def test_criterion_7a_transport_example():
    start = time.time()
    plan, platform, constraints = transport_instance()
    trace = transform_plan(plan, platform, constraints)
    ok = trace is not None and validate_transformed(trace, plan, platform, constraints)
    witness = (
        ("start(goto(l1))", Q(0)),
        ("start(bootCamera)", Q(26)),
        ("end(goto(l1))", Q(30)),
        ("end(bootCamera)", Q(30)),
        ("start(pick(o1))", Q(30)),
        ("end(pick(o1))", Q(45)),
    )
    ok = ok and validate_transformed(witness, plan, platform, constraints)
    elapsed = time.time() - start
    report(
        "criterion 7a: transport example realizes and validates, witness validates",
        ok and elapsed < 5,
        f"{elapsed:.1f}s",
    )


def fifty_action_instance():
    platform = make_ta(
        locations=("idle", "warm", "ready", "used", "cool"),
        initial="idle",
        finals=("idle", "warm", "ready", "used", "cool"),
        clocks=("y",),
        invariants={},
        switches=[
            Switch("idle", "warmup", ClockConstraint(), frozenset({"y"}), "warm"),
            Switch("warm", "engage", ClockConstraint((("y", ">=", 1),)), frozenset(), "ready"),
            Switch("ready", "use", ClockConstraint(), frozenset({"y"}), "used"),
            Switch("used", "release", ClockConstraint(), frozenset(), "ready"),
            Switch("ready", "cooldown", ClockConstraint(), frozenset({"y"}), "cool"),
            Switch("cool", "rest", ClockConstraint((("y", ">=", 1),)), frozenset(), "idle"),
        ],
    )
    actions = []
    for i in range(25):
        actions += [f"start(step{i})", f"end(step{i})"]
    plan = Plan(tuple(actions))
    constraints = ConstraintSet(
        rel=tuple(Rel(2 * i + 1, 2 * i + 2, Interval(1, 3)) for i in range(25)),
        chain=(
            Chain(stages=((Atom("ready"), Interval(0, None)),),
                  alpha1="start:step3*", alpha2="end:step3*"),
            Chain(stages=((Atom("idle"), Interval(0, None)), (TRUE, Interval(0, 2))),
                  alpha1="start:step1*", alpha2="end:step1*"),
        ),
    )
    return plan, platform, constraints


def test_criterion_7b_fifty_action_plan():
    plan, platform, constraints = fifty_action_instance()
    start = time.time()
    enc1 = build_encoding(plan, platform, constraints)
    trace = transform_plan(plan, platform, constraints)
    elapsed = time.time() - start
    enc2 = build_encoding(plan, platform, constraints)
    stable = len(enc1.locations) == len(enc2.locations)
    ok = trace is not None and stable and elapsed < 60
    ok = ok and validate_transformed(trace, plan, platform, constraints)
    report(
        "criterion 7b: 50-action plan transforms within budget",
        ok,
        f"product locations={len(enc1.locations)} (stable={stable}), {elapsed:.1f}s",
    )


# --- 8: zone engine vs region oracle ---------------------------------------------------

def random_ta(rng: random.Random):
    locations = [f"l{i}" for i in range(rng.randint(1, 4))]
    clocks = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    switches = []
    for _ in range(rng.randint(0, 6)):
        guard = []
        for c in clocks:
            if rng.random() < 0.4:
                guard.append((c, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 3)))
        resets = frozenset(c for c in clocks if rng.random() < 0.3)
        switches.append(Switch(
            rng.choice(locations), rng.choice("abc"),
            ClockConstraint(tuple(guard)), resets, rng.choice(locations),
        ))
    invariants = {}
    for l in locations:
        if rng.random() < 0.3:
            invariants[l] = ClockConstraint(((rng.choice(clocks), "<=", rng.randint(1, 3)),))
    finals = [l for l in locations if rng.random() < 0.4]
    return make_ta(locations, locations[0], finals, clocks, invariants, switches)


def test_criterion_8_zone_engine_soundness():
    rng = random.Random(808)
    failures = 0
    witnesses = 0
    for _ in range(200):
        ta = random_ta(rng)
        run = zone_reach(ta)
        if (run is not None) != region_reachable(ta):
            failures += 1
            continue
        if run is not None:
            witnesses += 1
            try:
                run.replay_valuations(ta)
            except AssertionError:
                failures += 1
    report(
        "criterion 8: zone reachability matches the region oracle and replays",
        failures == 0 and witnesses > 40,
        f"200 automata, {witnesses} witnesses, {failures} failures",
    )


# --- 9: regression correctness ----------------------------------------------------------

def random_static_formula(rng: random.Random, bat: Bat):
    leaves = [
        SAtom("camOn"),
        SAtom("grasping"),
        SAtom("holding", (Const("o1"),)),
        SEq(golog.App("robotAt", ()), Const("m2")),
        SQuant("exists", "o", "Object", SAtom("holding", (Var("o"),))),
        SQuant("exists", "t", "Task", SAtom("performing", (Var("t"),))),
        SClock(Const("c_boot"), rng.choice(["<", "<=", "=", ">=", ">"]), Q(rng.randint(0, 3))),
        SClock(Const("c_grasp"), rng.choice(["<", ">"]), Q(rng.randint(0, 2), rng.choice([1, 2]))),
    ]

    def build(depth):
        if depth == 0:
            return rng.choice(leaves)
        op = rng.choice(["and", "or", "not"])
        if op == "not":
            return SNot(build(depth - 1))
        cls = SAnd if op == "and" else SOr
        return cls((build(depth - 1), build(depth - 1)))

    return build(rng.randint(1, 2))


def test_criterion_9_regression_correctness():
    bat = build_camera_bat()
    rng = random.Random(909)
    actions = sorted(bat.actions)
    disagreements = 0
    for _ in range(1000):
        t = Q(0)
        trace = []
        for _ in range(rng.randint(0, 4)):
            t += Q(rng.randint(0, 6), rng.choice([1, 2, 3, 4]))
            trace.append((rng.choice(actions), t))
        trace = tuple(trace)
        alpha = random_static_formula(rng, bat)
        forward = holds(bat, world_after(bat, trace), alpha)
        backward = holds(bat, bat.initial, regress(bat, trace, alpha))
        if forward != backward:
            disagreements += 1
    report(
        "criterion 9: regression agrees with progression on 1000 traces",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


# --- 10: termination without budget ------------------------------------------------------

def test_criterion_10_termination_without_budget():
    cases = []
    bat, programs, specs = verification_corpus()
    for program in programs[:4]:
        cases.append((bat, program, specs[0]))
    loop_bat = tiny_bat(1, clocked=True)
    loop = seq(PStar(seq(PAct("set_p0"), PAct("clear_p0"))), PAct("set_p0"))
    cases.append((loop_bat, loop, mtl.finally_(
        And((Not(Atom("p0")), mtl.finally_(Atom("p0"), Interval(0, 2))))
    )))
    cases.append((loop_bat, PStar(PAct("set_p0")), mtl.finally_(Atom("p0"), Interval(1, 2))))
    camera = build_camera_bat()
    cases.append((camera, camera_program(), camera_spec(2)))
    # looped variant: the camera may boot and stop repeatedly instead of
    # once; only the quasi-order's domination stop keeps this graph finite
    boot_loop = PStar(seq(
        PAct("start(bootCamera)"), PAct("end(bootCamera)"),
        PAct("start(stopCamera)"), PAct("end(stopCamera)"),
    ))
    high = seq(
        PAct("start(drive(m1,m2))"), PAct("end(drive(m1,m2))"),
        PAct("start(grasp(m2,o1))"), PAct("end(grasp(m2,o1))"),
    )
    cases.append((camera, golog.PPar(high, boot_loop), camera_spec(1)))
    total_nodes = 0
    dominated = 0
    for case_bat, program, spec in cases:
        problem = build_problem(case_bat, program, spec)
        graph = build_graph(problem, budget=None)
        total_nodes += len(graph.nodes)
        dominated += sum(1 for n in graph.nodes if n.status == "successful")
    report(
        "criterion 10: graph construction terminates on the corpus without budgets",
        total_nodes == 4909 and dominated == 112,
        f"{len(cases)} cases, {total_nodes} nodes, {dominated} dominated leaves",
    )
