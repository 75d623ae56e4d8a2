import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timegolog import golog, mtl, synthesis
from timegolog.golog import (
    ActionDecl,
    Bat,
    Const,
    NIL,
    PAct,
    PBranch,
    PPar,
    PSeq,
    PStar,
    PTest,
    SClock,
    SAtom,
    SsaRel,
    STRUE,
    Var,
    branch,
    make_state,
    seq,
)
from timegolog.mtl import Atom, And, Interval, Not, TRUE, Until, finally_
from timegolog.synthesis import (
    DetState,
    Member,
    Node,
    ResourceError,
    build_graph,
    build_problem,
    canonicalize,
    check_for_controller,
    det_leq,
    det_moves,
    det_successors,
    det_successors_exact,
    exact_initial_state,
    extract_controller,
    initial_det_state,
    is_bad,
    label_graph,
    member_words,
    move_alive,
    move_target,
    replay_path,
    path_to,
    reduced,
    simulate_controller,
    trace_to_word,
    verify,
)

from timegolog.parsing import load_bat, load_program, parse_mtl
from timegolog.temporal import canonical_word

from fixtures import (
    DATA,
    build_camera_bat,
    camera_program,
    camera_spec,
    set_test_clear,
    toggle_bat_json,
)
from oracles import eager_successors, enumerate_completed_traces, is_execution


def tiny_bat(n_atoms=2, clocked=False):
    """Theory with toggle actions set_p/clear_p per nullary atom."""
    atoms = [f"p{i}" for i in range(n_atoms)]
    actions = {}
    ssa = {}
    clocks = ("c0",) if clocked else ()
    for a in atoms:
        for op in ("set", "clear"):
            actions[f"{op}_{a}"] = ActionDecl(resets=frozenset(clocks) if op == "set" else frozenset())
    for a in atoms:
        ssa[a] = SsaRel((), golog.SOr((
            golog.SEq(Var(golog.ACTION_VAR), golog.Const(f"set_{a}")),
            golog.SAnd((
                SAtom(a),
                golog.SNot(golog.SEq(Var(golog.ACTION_VAR), golog.Const(f"clear_{a}"))),
            )),
        )))
    return Bat(
        sorts={},
        clocks=clocks,
        rel_fluents={a: () for a in atoms},
        fun_fluents={},
        actions=actions,
        ssa_rel=ssa,
        ssa_fun={},
        initial=make_state((), {}, {c: 0 for c in clocks}),
    )


ALL_CTL = lambda a: True
ALL_ENV = lambda a: False


class TestInitialState:
    def test_unsatisfied_until_waits(self):
        bat = tiny_bat(1)
        phi = Until(TRUE, Atom("p0"))
        problem = build_problem(bat, PAct("set_p0"), phi)
        c0 = initial_det_state(problem)
        assert len(c0.members) == 1
        (member,) = c0.members
        assert member.config == frozenset({(phi, Q(0))})

    def test_empty_atom_universe(self):
        bat = tiny_bat(1)
        phi = Until(TRUE, And(()))  # finally true
        problem = build_problem(bat, NIL, phi)
        c0 = initial_det_state(problem)
        assert problem.symbol(bat.initial) == frozenset()
        assert len(c0.members) >= 1

    def test_camera_spec_initial_alternatives(self):
        bat = build_camera_bat()
        problem = build_problem(bat, camera_program(), camera_spec())
        c0 = initial_det_state(problem)
        # the disjunctive spec seeds one obligation per disjunct
        configs = {m.config for m in c0.members}
        assert len(configs) == 2
        assert all(len(g) == 1 and next(iter(g))[1] == 0 for g in configs)


class TestDetSuccessors:
    def test_nil_program_has_no_successors(self):
        bat = tiny_bat(1)
        problem = build_problem(bat, NIL, finally_(Atom("p0")))
        assert det_successors(problem, initial_det_state(problem)) == []

    def test_deterministic_order(self):
        bat = tiny_bat(2)
        prog = branch(PAct("set_p0"), PAct("set_p1"))
        problem = build_problem(bat, prog, finally_(Atom("p0")))
        succ = det_successors(problem, initial_det_state(problem))
        keys = [k for k, _ in succ]
        assert keys == sorted(keys, key=lambda k: (k[1], k[0]))

    def test_one_successor_per_timed_action(self):
        bat = tiny_bat(1, clocked=True)
        prog = seq(PAct("set_p0"), PAct("clear_p0"))
        problem = build_problem(bat, prog, finally_(Atom("p0"), Interval(0, 1)))
        succ = det_successors(problem, initial_det_state(problem))
        keys = [k for k, _ in succ]
        assert len(keys) == len(set(keys))


def leq(problem, c1, c2) -> bool:
    """`det_leq` on two states, as nodes carrying their member words."""
    return det_leq(
        Node(0, c1, words=member_words(problem, c1, {})),
        Node(1, c2, words=member_words(problem, c2, {})),
    )


def one_member_state(member, unit=1):
    return DetState(frozenset(), (), (), frozenset({member}), unit)


class TestOrders:
    def test_reflexive(self):
        bat = build_camera_bat()
        problem = build_problem(bat, camera_program(), camera_spec())
        c0 = initial_det_state(problem)
        assert leq(problem, c0, c0)

    def test_empty_config_dominates(self):
        # a member without obligations is below one with an extra obligation
        bat = tiny_bat(1)
        phi3 = Until(TRUE, Atom("p0"), Interval(0, 2))
        problem = build_problem(bat, NIL, phi3)
        small = one_member_state(Member(NIL, frozenset()), 5)
        big = one_member_state(Member(NIL, frozenset({(phi3, 9)})), 5)  # 9/5
        assert leq(problem, small, big)
        assert not leq(problem, big, small)

    def test_different_programs_incomparable(self):
        bat = tiny_bat(1)
        problem = build_problem(bat, NIL, finally_(Atom("p0")))
        s1 = one_member_state(Member(NIL, frozenset()))
        s2 = one_member_state(Member(PAct("set_p0"), frozenset()))
        assert not leq(problem, s1, s2)

    def test_det_leq_needs_equal_fluents(self):
        bat = tiny_bat(1)
        problem = build_problem(bat, PAct("set_p0"), finally_(Atom("p0")))
        c0 = initial_det_state(problem)
        succ = det_successors(problem, c0)
        assert succ
        _, c1 = succ[0]
        assert not leq(problem, c0, c1)


class TestVerify:
    def test_nil_is_safe(self):
        bat = tiny_bat(1)
        verdict = verify(bat, NIL, finally_(Atom("p0")))
        assert verdict.safe

    def test_single_action_unsafe_with_validated_counterexample(self):
        bat = tiny_bat(1)
        spec = finally_(Atom("p0"))
        verdict = verify(bat, PAct("set_p0"), spec)
        assert not verdict.safe
        word = trace_to_word(bat, verdict.counterexample)
        assert mtl.satisfies(word, 0, spec)

    def test_interval_bound_makes_safe(self):
        # the single action can only fire at representative times; the spec
        # requires the atom strictly after 3 which the program never survives
        bat = tiny_bat(1, clocked=True)
        spec = finally_(Atom("p0"), Interval(0, 3))
        guard = golog.SClock(golog.Const("c0"), ">", 3)
        decl = bat.actions["set_p0"]
        bat.actions["set_p0"] = ActionDecl(decl.poss, guard, decl.resets)
        verdict = verify(bat, PAct("set_p0"), spec)
        assert verdict.safe

    def test_budget_raises(self):
        bat = build_camera_bat()
        with pytest.raises(ResourceError):
            verify(bat, camera_program(), camera_spec(), budget=3)


SET_THEN_CLEAR = "(finally (and p0 (finally (not p0))))"


class TestClockedProgramTests:
    """Program tests that compare a clock with a constant above every guard
    constant: the constant counts in the maximal constant and in the scale,
    so the tests are decided exactly."""

    @pytest.mark.parametrize("const", ["3", "3/2"])
    def test_test_above_the_guards_is_unsafe(self, const):
        bat = load_bat(toggle_bat_json())
        prog = load_program(set_test_clear(f"(> c0 {const})"), bat)
        spec = parse_mtl(SET_THEN_CLEAR)
        verdict = verify(bat, prog, spec)
        assert not verdict.safe
        trace = verdict.counterexample
        assert is_execution(bat, prog, trace)
        assert mtl.satisfies(trace_to_word(bat, trace), 0, spec)
        assert trace[-1][1] > Q(const)  # in the units of the inputs

    def test_scale_and_maximal_constant(self):
        bat = load_bat(toggle_bat_json())
        prog = load_program(set_test_clear("(> c0 3/2)"), bat)
        problem = build_problem(bat, prog, parse_mtl("(finally p0 [0,1])"))
        # guard 1, test 3/2 and spec bound 1, all doubled
        assert problem.scale == 2
        assert problem.k == 3
        assert problem.bat.actions["clear_p0"].guard == golog.SClock(
            golog.Const("c0"), ">=", Q(2)
        )

    def test_verdicts_match_brute_force(self):
        k = 3  # the largest constant of the guard, the tests and the specs
        bat = load_bat(toggle_bat_json())
        tests = ["(> c0 3)", "(< c0 2)", "(= c0 2)", "(>= c0 3)",
                 "(and (> c0 2) (< c0 3))", "(not (<= c0 2))"]
        specs = [parse_mtl(text) for text in (
            SET_THEN_CLEAR,
            "(finally (and p0 (finally (not p0) [0,2])))",
            "(finally (and p0 (finally (not p0) (2,3))))",
            "(finally (not p0) [3,3])",
        )]
        programs = []
        for test in tests:
            programs.append(set_test_clear(test))
            programs.append({"seq": [{"act": "set_p0"}, {"act": "clear_p0"}, {"test": test}]})
            programs.append({"seq": [{"test": test}, {"act": "set_p0"}, {"act": "clear_p0"}]})
        checked = 0
        for obj in programs:
            prog = load_program(obj, bat)
            traces = enumerate_completed_traces(bat, prog, k, max_actions=3)
            for spec in specs:
                verdict = verify(bat, prog, spec)
                oracle_unsafe = any(
                    mtl.satisfies(trace_to_word(bat, tr), 0, spec) for tr in traces
                )
                assert verdict.safe == (not oracle_unsafe), (obj, str(spec))
                if not verdict.safe:
                    assert is_execution(bat, prog, verdict.counterexample)
                checked += 1
        assert checked == 72


class TestGame:
    def test_trivial_top_for_empty_program(self):
        bat = tiny_bat(1)
        result, graph, problem = check_for_controller(
            bat, NIL, finally_(Atom("p0")), ALL_CTL
        )
        assert result is True

    def test_forced_violation_is_bottom(self):
        bat = tiny_bat(1)
        # the only completing execution satisfies the spec
        result, graph, problem = check_for_controller(
            bat, PAct("set_p0"), finally_(Atom("p0")), ALL_CTL
        )
        assert result is False

    def test_controller_picks_safe_branch(self):
        bat = tiny_bat(2)
        prog = branch(PAct("set_p0"), PAct("set_p1"))
        spec = finally_(Atom("p0"))
        result, graph, problem = check_for_controller(bat, prog, spec, ALL_CTL)
        assert result is True
        ctrl = extract_controller(problem, graph, ALL_CTL)
        actions = {e.action for e in ctrl.edges}
        assert "set_p1" in actions and "set_p0" not in actions

    def test_env_choice_cannot_be_steered(self):
        bat = tiny_bat(2)
        prog = branch(PAct("set_p0"), PAct("set_p1"))
        spec = finally_(Atom("p0"))
        result, _, _ = check_for_controller(bat, prog, spec, ALL_ENV)
        assert result is False

    def test_immediate_violation_is_bottom_even_with_loop(self):
        bat = tiny_bat(1)
        prog = seq(PStar(seq(PAct("set_p0"), PAct("clear_p0"))), PAct("set_p0"))
        result, graph, problem = check_for_controller(
            bat, prog, finally_(Atom("p0")), ALL_CTL
        )
        assert result is False  # every completion ends with the atom set

    def test_star_loop_terminates_without_budget(self):
        # obligations accumulate across iterations; only the quasi-order
        # (or exact state repetition) can close the paths
        bat = tiny_bat(1, clocked=True)
        prog = seq(PStar(seq(PAct("set_p0"), PAct("clear_p0"))), PAct("set_p0"))
        spec = finally_(And((Not(Atom("p0")), finally_(Atom("p0"), Interval(0, 2)))))
        result, graph, problem = check_for_controller(bat, prog, spec, ALL_CTL)
        # waiting out the two-unit window before each set avoids the spec
        assert result is True
        assert any(n.status == "successful" for n in graph.nodes)

    def test_dual_until_spec_timing_verification(self):
        # undesired: the atom is never refuted inside the window [1,2]; the
        # compiled automaton's only location is accepting, and refuting the
        # obligation kills every automaton run
        bat = tiny_bat(1, clocked=True)
        spec = mtl.globally(Atom("p0"), Interval(1, 2))
        prog = PAct("clear_p0")
        verdict = verify(bat, prog, spec)
        assert not verdict.safe
        word = trace_to_word(bat, verdict.counterexample)
        assert mtl.satisfies(word, 0, spec)
        # the quotient omits transitions on which every automaton run dies,
        # so the game cannot select the refuting move even though it is the
        # (only) winning one: the documented conservative verdict is no-controller
        result, graph, problem = check_for_controller(bat, prog, spec, ALL_CTL)
        assert result is False
        assert all(n.status == "bad" for n in graph.nodes if n.nid != graph.root)


class TestReplay:
    def test_counterexample_times_are_exact(self):
        bat = tiny_bat(1, clocked=True)
        spec = finally_(Atom("p0"), Interval(2, 3))
        prog = seq(PAct("clear_p0"), PAct("set_p0"))
        verdict = verify(bat, prog, spec)
        assert not verdict.safe
        word = trace_to_word(bat, verdict.counterexample)
        assert mtl.satisfies(word, 0, spec)
        times = [t for _, t in verdict.counterexample]
        assert all(t.denominator >= 1 for t in times)

    def test_path_replay_matches_graph(self):
        bat = tiny_bat(2)
        prog = seq(PAct("set_p0"), PAct("set_p1"))
        problem = build_problem(bat, prog, finally_(Atom("p1")))
        graph = build_graph(problem)
        leafs = [n for n in graph.nodes if n.status in ("bad", "dead")]
        for leaf in leafs:
            trace = replay_path(problem, path_to(graph, leaf.nid))
            assert len(trace) == len(path_to(graph, leaf.nid))


class TestDownwardProperties:
    def test_downward_compatibility_spot_check(self):
        bat = tiny_bat(2, clocked=True)
        prog = seq(PAct("set_p0"), branch(PAct("set_p1"), PAct("clear_p0")))
        problem = build_problem(bat, prog, finally_(Atom("p1"), Interval(0, 2)))
        graph = build_graph(problem)
        states = [n.state for n in graph.nodes]
        pairs = 0
        for c1 in states:
            for c2 in states:
                if c1 is c2 or not leq(problem, c1, c2):
                    continue
                pairs += 1
                for key, c2_succ in det_successors(problem, c2):
                    matched = any(
                        leq(problem, c1_succ, c2_succ)
                        for _, c1_succ in det_successors(problem, c1)
                    )
                    assert matched, (c1, c2, key)
        assert pairs > 0

    def test_badness_downward_closed(self):
        bat = tiny_bat(1)
        phi = finally_(Atom("p0"))
        problem = build_problem(bat, PAct("set_p0"), phi)
        graph = build_graph(problem)
        states = [n.state for n in graph.nodes]
        for c1 in states:
            for c2 in states:
                if leq(problem, c1, c2) and is_bad(problem, c2):
                    assert is_bad(problem, c1)


def random_program(rng, actions, depth=2):
    if depth == 0 or rng.random() < 0.3:
        return PAct(rng.choice(actions))
    kind = rng.choice(["seq", "branch", "par"])
    a = random_program(rng, actions, depth - 1)
    b = random_program(rng, actions, depth - 1)
    if kind == "seq":
        return golog.PSeq(a, b)
    if kind == "branch":
        return golog.PBranch(a, b)
    return golog.PPar(a, b)


def random_spec(rng, atoms):
    def f(depth):
        if depth == 0:
            return rng.choice([Atom(rng.choice(atoms)), TRUE])
        kind = rng.choice(["until", "and", "or", "not", "finally"])
        if kind == "until":
            lo = rng.randrange(0, 2)
            hi = rng.choice([None, lo, lo + 1, lo + 2])
            return Until(f(depth - 1), f(depth - 1), Interval(lo, hi))
        if kind == "and":
            return And((f(depth - 1), f(depth - 1)))
        if kind == "or":
            return mtl.Or((f(depth - 1), f(depth - 1)))
        if kind == "not":
            return Not(f(depth - 1))
        return finally_(f(depth - 1), Interval(0, rng.randrange(1, 3)))

    return f(2)


def test_verify_agrees_with_brute_force_on_small_corpus():
    rng = random.Random(42)
    bat = tiny_bat(2, clocked=True)
    atoms = ["p0", "p1"]
    actions = sorted(bat.actions)
    disagreements = 0
    for _ in range(40):
        prog = random_program(rng, actions, depth=1)
        spec = random_spec(rng, atoms)
        verdict = verify(bat, prog, spec)
        k = build_problem(bat, prog, spec).k
        traces = enumerate_completed_traces(bat, prog, k, max_actions=3)
        oracle_unsafe = any(
            mtl.satisfies(trace_to_word(bat, tr), 0, spec) for tr in traces
        )
        if verdict.safe == oracle_unsafe:
            disagreements += 1
    assert disagreements == 0


# --- verify's covering against the full exploration -------------------------------


def toggle_bat(n_atoms):
    """A toggle theory shaped like the benchmark's: set_pi makes pi true and
    resets its own clock ci; clear_p0 needs c0 >= 1 and clear_p1 c1 < 2."""
    bat = tiny_bat(n_atoms, clocked=True)
    bat.clocks = tuple(f"c{i}" for i in range(n_atoms))
    bat.sorts["clock"] = bat.clocks
    guards = [SClock(Const("c0"), ">=", Q(1)), SClock(Const("c1"), "<", Q(2))]
    for i in range(n_atoms):
        bat.actions[f"set_p{i}"] = ActionDecl(resets=frozenset({f"c{i}"}))
        bat.actions[f"clear_p{i}"] = ActionDecl(guard=guards[i])
    bat.initial = make_state((), {}, {c: 0 for c in bat.clocks})
    return bat


def corpus_spec(rng, atoms):
    """One of criterion 6's six specification shapes over the theory's
    atoms, with a random interval and constants up to 3."""
    a, b = Atom(rng.choice(atoms)), Atom(rng.choice(atoms))
    lo = rng.randint(0, 2)
    iv = Interval(lo, rng.choice([None, lo, lo + 1, 3]))
    return rng.choice([
        finally_(a, iv),
        finally_(And((a, b)), iv),
        Until(a, b, iv),
        finally_(And((Not(a), finally_(b, iv)))),
        Not(finally_(b, iv)),
        mtl.globally(mtl.Or((a, Not(b))), iv),
    ])


def corpus_program(rng, actions, looped):
    """A seq/par/branch composition of 1 to 4 actions; `looped` puts one of
    the leaves, or a sequence of two, under a star."""
    leaves = [PAct(a) for a in actions]
    parts = [rng.choice(leaves) for _ in range(rng.randint(1, 4))]
    if looped:
        i = rng.randrange(len(parts))
        body = parts[i] if rng.random() < 0.5 else PSeq(parts[i], rng.choice(leaves))
        parts[i] = PStar(body)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        parts[i:i + 2] = [rng.choice([PSeq, PSeq, PPar, PBranch])(parts[i], parts[i + 1])]
    return parts[0]


def test_covering_verify_agrees_with_the_full_exploration():
    """Seeded sweep of 240 instances on the one- and two-atom toggle
    theories, a third with a loop: `verify`, whose search closes a node
    against any finished node below it, answers as the fully explored graph
    does, and every counterexample it gives is a completed execution that
    satisfies the specification."""
    rng = random.Random(23)
    bats = [toggle_bat(1), toggle_bat(2)]
    seen = Counter()
    for case in range(240):
        bat = bats[case % 2]
        atoms = sorted(bat.rel_fluents)
        prog = corpus_program(rng, sorted(bat.actions), looped=case % 3 == 0)
        spec = corpus_spec(rng, atoms)
        problem = build_problem(bat, prog, spec)
        try:
            full = build_graph(problem, budget=600)
        except ResourceError:
            seen["no reference"] += 1
            continue
        verdict = verify(bat, prog, spec)
        assert verdict.safe == (not full.bad_nodes()), (case, str(prog), str(spec))
        seen["covered"] += build_graph(problem, stop_on_bad=True).covered > 0
        if verdict.safe:
            seen["safe"] += 1
            continue
        trace = verdict.counterexample
        assert is_execution(bat, prog, trace), (case, trace)
        assert mtl.satisfies(trace_to_word(bat, trace), 0, spec), (case, trace)
        seen["unsafe"] += 1
    assert seen["no reference"] <= 24, seen
    assert seen["safe"] >= 40 and seen["unsafe"] >= 40 and seen["covered"] >= 5, seen


# the program loops on start(bootCamera) and never grasps: the robot starts at
# m1 and nothing drives it to m2, so no execution completes
BOOT_CAMERA_LOOP = {"seq": [{"star": {"act": "start(bootCamera)"}},
                            {"act": "start(grasp(m2,o1))"}]}


def test_boot_camera_loop_closes_by_covering():
    """The bootCamera loop against camera_spec(2), which the ancestor check
    alone closes only after 9,267 nodes, verifies safe within a budget of
    400; enumeration up to four actions finds no violating completed trace."""
    bat = load_bat(json.loads((DATA / "camera_bat.json").read_text()))
    prog = load_program(BOOT_CAMERA_LOOP, bat)
    spec = camera_spec(2)
    verdict = verify(bat, prog, spec, budget=400)
    assert (verdict.safe, verdict.nodes) == (True, 161)
    k = build_problem(bat, prog, spec).k
    traces = enumerate_completed_traces(bat, prog, k, max_actions=4)
    assert not any(mtl.satisfies(trace_to_word(bat, tr), 0, spec) for tr in traces)


class TestSimulation:
    def test_safe_branch_controller_simulates_clean(self):
        bat = tiny_bat(2)
        prog = branch(PAct("set_p0"), PAct("set_p1"))
        spec = finally_(Atom("p0"))
        result, graph, problem = check_for_controller(bat, prog, spec, ALL_CTL)
        ctrl = extract_controller(problem, graph, ALL_CTL)
        report = simulate_controller(ctrl, trials=50, seed=3)
        assert report.ok
        assert report.completed == 50


# --- on-the-fly labelling against the full graph ----------------------------------


def minimal_choices(problem, state, keys, controllable):
    """The minimal valid controller choices over the enabled timed actions:
    all environment actions, or one controller action with every environment
    action at its increment or an earlier one; the empty choice at a final
    state without environment actions."""
    env = {key for key in keys if not controllable(key[0])}
    choices = [frozenset(env)] if env else []
    if not env and all(problem.is_final(state.world(), m.prog) for m in state.members):
        choices.append(frozenset())
    choices += [
        frozenset({(action, idx)} | {e for e in env if e[1] <= idx})
        for action, idx in keys if controllable(action)
    ]
    return choices


CAMERA_TASKS = ("drive(m1,m2)", "grasp(m2,o1)", "bootCamera", "stopCamera")


def random_game(rng, looped):
    """A small program with clocked guards (and, on the tiny theory, clocked
    tests), a specification and a random controllable set, on the tiny
    toggle theory or the camera theory; `looped` puts a star in it."""
    if rng.random() < 0.5:
        bat = guarded_bat()
        leaves = [PAct(a) for a in sorted(bat.actions)] + [
            PTest(SClock(Const("c0"), rel, Q(1))) for rel in ("<", ">=")
        ]
        specs = SMALL_SPECS
    else:
        bat = build_camera_bat()
        leaves = [
            seq(PAct(f"start({task})"), PAct(f"end({task})")) for task in CAMERA_TASKS
        ] + [PAct(f"start({task})") for task in CAMERA_TASKS]
        specs = [camera_spec(1), camera_spec(2), finally_(Atom("grasping"))]

    def program(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        kind = rng.choice([PSeq, PBranch, PPar])
        return kind(program(depth - 1), program(depth - 1))

    prog = program(2)
    if looped:
        prog = rng.choice([PSeq, PPar])(PStar(rng.choice(leaves)), prog)
    actions = sorted(bat.actions)
    owned = set(rng.sample(actions, rng.randrange(len(actions) + 1)))
    return bat, prog, rng.choice(specs), lambda a: a in owned


def test_on_the_fly_search_agrees_with_the_full_graph():
    """Seeded sweep of small games: the graph searched with on-the-fly
    labelling decides as the fully explored one, every label committed
    during the search is witnessed by built children, and the controller
    extracted from the searched graph simulates clean (on looped programs,
    whenever the full graph's controller does)."""
    rng = random.Random(2005)
    seen = Counter()
    for case in range(60):
        looped = case % 3 == 0
        bat, prog, spec, ctl = random_game(rng, looped)
        problem = build_problem(bat, prog, spec)
        try:
            full = build_graph(problem, budget=500)
        except ResourceError:
            # some looped games take thousands of nodes to explore fully, so
            # they have no reference here
            seen["too large"] += 1
            continue
        expected = label_graph(problem, full, ctl)
        result, graph, problem = check_for_controller(bat, prog, spec, ctl)
        assert result == expected, (case, str(prog), str(spec))

        searched = build_graph(problem, controllable=ctl)
        assert len(searched.nodes) == len(graph.nodes)
        for node in searched.nodes:
            if node.status != "inner":
                continue
            keys = [key for key, _ in det_successors(problem, node.state, node.delays)]
            edges = dict(node.edges)
            if node.label is None:
                assert list(edges) == keys, (case, node.nid)
                continue
            labels = [
                [searched.node(edges[key]).label if key in edges else None for key in choice]
                for choice in minimal_choices(problem, node.state, keys, ctl)
            ]
            if node.label:
                assert any(all(l is True for l in ls) for ls in labels), (case, node.nid)
            else:
                assert all(any(l is False for l in ls) for ls in labels), (case, node.nid)
            seen["committed"] += 1

        if not result:
            seen["no controller"] += 1
            continue
        report = simulate_controller(extract_controller(problem, graph, ctl), trials=10, seed=case)
        if not looped:
            assert report.ok, (case, str(prog), report.condition_failures[:2])
            seen["loop-free controller"] += 1
        else:
            reference = simulate_controller(
                extract_controller(problem, full, ctl), trials=10, seed=case
            )
            assert report.ok or not reference.ok, (case, str(prog))
            seen["looped controller, reference clean"] += reference.ok
        seen["fewer nodes"] += len(graph.nodes) < len(full.nodes)
    assert seen["committed"] and seen["no controller"] >= 5, seen
    assert seen["loop-free controller"] >= 10 and seen["fewer nodes"] >= 10, seen
    assert seen["looped controller, reference clean"] >= 5, seen


def test_dominated_leaves_are_labelled_like_their_dominator():
    """Seeded sweep of small games: after `label_graph`, every dominated
    leaf carries its dominating ancestor's label, losing ones included."""
    rng = random.Random(2005)
    losing = 0
    for case in range(30):
        bat, prog, spec, ctl = random_game(rng, case % 3 == 0)
        problem = build_problem(bat, prog, spec)
        try:
            graph = build_graph(problem, budget=500)
        except ResourceError:
            continue
        label_graph(problem, graph, ctl)
        for node in graph.nodes:
            if node.status == "successful":
                assert node.label is graph.node(node.dominator).label, (case, node.nid)
                losing += node.label is False
    assert losing, "no dominated leaf lost"


@pytest.fixture(scope="module")
def camera_game():
    controllable = lambda a: a.startswith("start(")
    result, graph, problem = check_for_controller(
        build_camera_bat(), camera_program(), camera_spec(1), controllable
    )
    assert result is True
    return problem, graph, controllable


LOOPED_CAMERA_PROGRAM = {"par": [
    {"act": "start(grasp(m2,o1))"},
    {"star": {"seq": [
        {"act": "start(bootCamera)"}, {"act": "end(bootCamera)"},
        {"act": "start(stopCamera)"}, {"act": "end(stopCamera)"},
    ]}},
]}


@pytest.fixture(scope="module")
def looped_camera_controller():
    """The looped camera program's controller for camera_spec(1); its
    simulation fails the controller conditions (see ROADMAP item 1)."""
    controllable = lambda a: a.startswith("start(")
    bat = load_bat(json.loads((DATA / "camera_bat.json").read_text()))
    result, graph, problem = check_for_controller(
        bat, load_program(LOOPED_CAMERA_PROGRAM, bat), camera_spec(1), controllable
    )
    assert result is True
    return extract_controller(problem, graph, controllable)


def report_digest(report) -> str:
    return hashlib.sha256(repr(report).encode()).hexdigest()[:16]


class TestSimulationReportsPinned:
    """Whole simulation reports at fixed seeds: the completed count, the
    violating traces and the condition failure messages, in order (through a
    digest of the report's repr)."""

    @pytest.mark.parametrize("seed, completed, digest", [
        (0, 42, "919b1ca0b52cbd06"),
        (1, 46, "7fae5eee5b204d66"),
        (7, 49, "3a2444f96fae5880"),
    ])
    def test_camera_game(self, camera_game, seed, completed, digest):
        report = simulate_controller(extract_controller(*camera_game), trials=60, seed=seed)
        assert (report.completed, report.violations, report.condition_failures) == (completed, (), ())
        assert report_digest(report) == digest

    @pytest.mark.parametrize("seed, violations, digest", [
        (0, 30, "187dba2d490b63a3"),
        (1, 37, "83bf51cc6dc6d382"),
        (7, 37, "958c55ec97ec0f82"),
    ])
    def test_camera_game_against_a_stricter_oracle(self, camera_game, seed, violations, digest):
        """The oracle checks "grasping before time 2", which some completed
        plays of the camera controller satisfy: those are reported as
        violations, in play order."""
        stricter = dataclasses.replace(camera_game[0], spec=parse_mtl("(finally grasping [0,2))"))
        controller = dataclasses.replace(extract_controller(*camera_game), problem=stricter)
        report = simulate_controller(controller, trials=60, seed=seed)
        assert len(report.violations) == violations and not report.condition_failures
        assert all(dict(trace)["start(grasp(m2,o1))"] < 2 for trace in report.violations)
        assert report_digest(report) == digest

    @pytest.mark.parametrize("seed, failures, digest", [
        (0, 178, "b2800d929fc92034"),
        (1, 166, "8e2cda043bfa524d"),
        (7, 162, "9f4e903b427eeec6"),
    ])
    def test_looped_camera_controller(self, looped_camera_controller, seed, failures, digest):
        report = simulate_controller(looped_camera_controller, trials=40, seed=seed)
        assert (report.completed, report.violations) == (0, ())
        assert len(report.condition_failures) == failures
        assert report.condition_failures[0] == (
            "trial 0: selected ('start(bootCamera)', 6) not enabled at node 18"
        )
        assert report_digest(report) == digest


class TestRegionDelaysOncePerState:
    """Each state's region delays are computed once: extraction reads the
    ones the search kept on the node, and a simulation step computes them
    once for both the successors and the elapsed time."""

    def test_extraction_reuses_search_delays(self, camera_game, monkeypatch):
        expected = extract_controller(*camera_game)

        def forbidden(values, unit, k):
            raise AssertionError("delays recomputed during extraction")

        monkeypatch.setattr(synthesis, "scaled_region_delays", forbidden)
        assert extract_controller(*camera_game).edges == expected.edges

    def test_simulation_computes_delays_once_per_step(self, camera_game, monkeypatch):
        controller = extract_controller(*camera_game)
        calls = {"delays": 0, "moves": 0}
        delays, moves = synthesis.scaled_region_delays, synthesis.det_moves

        def counted_delays(values, unit, k):
            calls["delays"] += 1
            return delays(values, unit, k)

        def counted_moves(*args, **kwargs):
            calls["moves"] += 1
            return moves(*args, **kwargs)

        monkeypatch.setattr(synthesis, "scaled_region_delays", counted_delays)
        monkeypatch.setattr(synthesis, "det_moves", counted_moves)
        report = simulate_controller(controller, trials=5, seed=1)
        assert report.ok
        assert calls["delays"] == calls["moves"] > 0

    def test_simulation_shares_exact_work_across_trials(self, camera_game, monkeypatch):
        """Over 500 trials each exact state is expanded at most twice and
        each distinct completed trace is checked by the oracle once."""
        states, traces = [], []
        moves, to_word = synthesis.det_moves, synthesis.trace_to_word

        def counted_moves(problem, state, delays=None):
            states.append(state)
            return moves(problem, state, delays)

        def counted_to_word(bat, trace, atom_filter=None):
            traces.append(trace)
            return to_word(bat, trace, atom_filter)

        monkeypatch.setattr(synthesis, "det_moves", counted_moves)
        monkeypatch.setattr(synthesis, "trace_to_word", counted_to_word)
        report = simulate_controller(extract_controller(*camera_game), trials=500, seed=0)
        assert report.ok and report.completed > 300
        assert max(Counter(states).values()) <= 2
        assert len(traces) == len(set(traces)) > 1

    def test_edges_from_matches_a_scan(self, camera_game):
        controller = extract_controller(*camera_game)
        for location in controller.locations:
            assert controller.edges_from(location) == [
                e for e in controller.edges if e.source == location
            ]


# --- the lazy integer successor function against the eager Fraction one ------


def guarded_bat():
    """Two toggled atoms and one clock c0, reset by the set actions; the
    clear actions carry clock guards."""
    bat = tiny_bat(2, clocked=True)
    bat.actions["clear_p0"] = ActionDecl(guard=SClock(Const("c0"), ">=", Q(1)))
    bat.actions["clear_p1"] = ActionDecl(guard=SClock(Const("c0"), "<", Q(2)))
    return bat


clock_tests = st.builds(
    lambda rel, const: PTest(SClock(Const("c0"), rel, const)),
    st.sampled_from(["<", "<=", "=", ">=", ">"]),
    st.sampled_from([Q(1), Q(3, 2), Q(2)]),
)
small_programs = st.recursive(
    st.one_of(st.sampled_from(["set_p0", "clear_p0", "set_p1", "clear_p1"]).map(PAct),
              clock_tests),
    lambda inner: st.one_of(
        st.builds(PSeq, inner, inner),
        st.builds(PBranch, inner, inner),
        st.builds(PPar, inner, inner),
        st.builds(PStar, inner),
    ),
    max_leaves=5,
)
SMALL_SPECS = [
    finally_(Atom("p0")),
    finally_(Atom("p1"), Interval(0, 1)),
    finally_(And((Atom("p0"), finally_(Not(Atom("p0")), Interval(1, 2))))),
    Until(Not(Atom("p1")), Atom("p0"), Interval(1, 3, lo_open=True)),
    mtl.globally(Atom("p0"), Interval(1, 2)),
]
small_specs = st.sampled_from(SMALL_SPECS)


def in_fractions(successors):
    return [
        (key, (s.fluents, s.funcs, tuple((c, Q(v, s.unit)) for c, v in s.clocks),
               frozenset((m.prog, frozenset((loc, Q(v, s.unit)) for loc, v in m.config))
                         for m in s.members)))
        for key, s in successors
    ]


@given(small_programs, small_specs, st.lists(st.integers(min_value=0), max_size=3))
@settings(max_examples=60, deadline=None)
def test_successors_match_the_eager_fraction_reference(prog, spec, choices):
    """Along a random path, the exact state and its canonical representative
    have the successors of the reference that advances every member at every
    increment; loops and clock-reading program tests included."""
    problem = build_problem(guarded_bat(), prog, spec)
    state = exact_initial_state(problem)
    for choice in [*choices, None]:
        for s in (state, canonicalize(problem, state)):
            assert in_fractions(det_successors_exact(problem, s)) == eager_successors(problem, s)
        successors = det_successors_exact(problem, state)
        if choice is None or not successors:
            break
        state = reduced(problem, successors[choice % len(successors)][1])


# --- work done once per state ---------------------------------------------------


@pytest.fixture
def camera_problem():
    return build_problem(build_camera_bat(), camera_program(), camera_spec(1))


class TestStateWorkOnce:
    def test_member_words_computed_once_and_equal_to_canonical_word(
        self, camera_problem, monkeypatch
    ):
        problem = camera_problem
        calls = []
        word = synthesis.scaled_canonical_word

        def counted(entries, unit, k):
            calls.append(unit)
            return word(entries, unit, k)

        monkeypatch.setattr(synthesis, "scaled_canonical_word", counted)
        graph = build_graph(problem)
        assert len(graph.nodes) == 453
        with_words = [n for n in graph.nodes if n.words is not None]
        assert all(n.words is not None for n in graph.nodes if n.status == "inner")
        assert len(calls) == sum(len(n.state.members) for n in with_words)
        name = problem.ata.name_of
        for node in with_words:
            state = node.state
            clocks = {(c, Q(v, state.unit)) for c, v in state.clocks}
            expected = {}
            for m in state.members:
                pooled = clocks | {(name(loc), Q(v, state.unit)) for loc, v in m.config}
                expected.setdefault(m.prog, set()).add(canonical_word(pooled, problem.k))
            assert {prog: set(words) for prog, words in node.words.items()} == expected

    def test_members_advanced_only_where_one_of_their_actions_is_enabled(
        self, camera_problem, monkeypatch
    ):
        """A configuration is advanced only at a delay where one of its
        member's actions is enabled, and at most once per configuration and
        delay over the whole search (so at most once per configuration,
        delay and unit): the states of one problem share its member steps."""
        problem = camera_problem
        needed = set()  # (state, configuration, delay) with an enabled action
        calls = []
        current = []
        successors, step = synthesis.det_successors_exact, synthesis.time_step

        def recording_successors(problem, state, delays=None):
            current[:] = [state]
            for delay in synthesis.increments(problem, state):
                world = state.world().advanced(Q(delay, 2 * state.unit))
                for m in state.members:
                    if golog.enabled_steps(problem.bat, world, m.prog):
                        needed.add((state, m.config, delay))
            return successors(problem, state, delays)

        def recording_step(config, delay, scale):
            calls.append((current[0], config, delay))
            return step(config, delay, scale)

        monkeypatch.setattr(synthesis, "det_successors_exact", recording_successors)
        monkeypatch.setattr(synthesis, "time_step", recording_step)
        graph = build_graph(problem)
        assert len(graph.nodes) == 453
        assert all(call in needed for call in calls)
        per_key = Counter((config, delay) for _, config, delay in calls)
        assert max(per_key.values()) == 1
        # most (state, increment) pairs enable no action of a member, and
        # most of those that do repeat a step taken at another state
        pairs = sum(
            len(synthesis.increments(problem, n.state)) * len(n.state.members)
            for n in graph.nodes if n.status in ("inner", "dead")
        )
        assert 0 < len(calls) < len(needed) < pairs


def assert_steps_match_a_fresh_problem(inputs, problem, states):
    """`det_successors_exact` on a problem whose memos earlier states have
    filled gives, at every state, what a newly built problem gives."""
    for state in states:
        fresh = build_problem(*inputs)
        assert det_successors_exact(problem, state) == det_successors_exact(fresh, state)


def game_sweep():
    """(inputs, problem, searched graph) for the games of
    `test_on_the_fly_search_agrees_with_the_full_graph`."""
    rng = random.Random(2005)
    for case in range(60):
        bat, prog, spec, _ = random_game(rng, case % 3 == 0)
        problem = build_problem(bat, prog, spec)
        try:
            graph = build_graph(problem, budget=500)
        except ResourceError:
            continue
        yield (bat, prog, spec), problem, graph


class TestMemberStepMemo:
    def test_camera_full_graph(self):
        inputs = (build_camera_bat(), camera_program(), camera_spec(1))
        problem = build_problem(*inputs)
        graph = build_graph(problem)
        assert len(graph.nodes) == 453
        assert_steps_match_a_fresh_problem(inputs, problem, [n.state for n in graph.nodes])

    def test_game_sweep(self):
        checked = 0
        for inputs, problem, graph in game_sweep():
            assert_steps_match_a_fresh_problem(inputs, problem, [n.state for n in graph.nodes])
            checked += len(graph.nodes)
        assert checked > 1000

    def test_one_configuration_over_two_units(self):
        """The same integers over units 1 and 2 are the times 1 and 1/2:
        setting p0 then meets the obligation p0 within [0, 1) at the second
        time only."""
        inputs = (tiny_bat(1), PAct("set_p0"), finally_(Atom("p0"), Interval(0, 1, hi_open=True)))
        problem = build_problem(*inputs)
        (member,) = exact_initial_state(problem).members
        config = frozenset((loc, 1) for loc, _ in member.config)
        states = [
            DetState(frozenset(), (), (), frozenset({problem.member(member.prog, config)}), unit)
            for unit in (1, 2)
        ]
        assert_steps_match_a_fresh_problem(inputs, problem, states)
        at_one, at_half = (det_successors_exact(problem, s)[0][1] for s in states)
        assert [m.config for m in at_one.members] == [frozenset({(loc, 2) for loc, _ in config})]
        assert [m.config for m in at_half.members] == [frozenset()]


class TestLazyMoves:
    def test_live_moves_are_the_moves_with_a_target(self):
        dead = 0
        for _, problem, graph in game_sweep():
            for node in graph.nodes:
                for _, move in det_moves(problem, node.state):
                    target = move_target(problem, move)
                    assert move_alive(problem, move) == (target is not None)
                    dead += target is None
        assert dead > 0

    def test_simulation_adds_no_member_and_no_time_step(self, looped_camera_controller):
        """The looped controller's simulation expands many states once; they
        leave nothing in the problem's memos, which it still reads."""
        problem = looped_camera_controller.problem

        def sizes():
            return sum(map(len, problem._members.values())), len(problem._advanced)

        before = sizes()
        report = simulate_controller(looped_camera_controller, trials=40, seed=0)
        assert report.condition_failures and sizes() == before and problem.memoize
