import random
from fractions import Fraction as Q

import pytest

from timegolog import golog
from timegolog.golog import (
    App,
    Const,
    InputError,
    ModelError,
    NIL,
    PAct,
    PBranch,
    PPar,
    PSeq,
    PStar,
    PTest,
    SAnd,
    SAtom,
    SClock,
    SEq,
    SFALSE,
    SNot,
    SOr,
    SQuant,
    STRUE,
    Var,
    bat_from_ta,
    enabled_steps,
    holds,
    is_final,
    label_trace,
    normalize,
    program_steps,
    progress,
    regress,
    seq,
    world_after,
)
from timegolog.parsing import load_bat, load_program, parse_static, program_to_json
from timegolog.temporal import ClockConstraint
from timegolog.timed_automata import Switch, make_ta

from fixtures import (
    BOOT,
    build_camera_bat,
    camera_program,
    drive,
    end,
    grasp,
    load_camera_bat_json,
    start,
)

def reachable_programs(bat, p, limit=10000) -> frozenset:
    """Syntactically reachable residual programs under any action choice,
    bounded exploration with normalization (the set is finite)."""
    seen = {normalize(p)}
    frontier = [normalize(p)]
    while frontier:
        cur = frontier.pop()
        for _, rest in program_steps(bat, bat.initial, cur):
            if rest not in seen:
                if len(seen) >= limit:
                    raise InputError("program space exceeds exploration limit")
                seen.add(rest)
                frontier.append(rest)
    return frozenset(seen)


S_DRIVE = str(start(drive("m1", "m2")))
E_DRIVE = str(end(drive("m1", "m2")))
S_GRASP = str(start(grasp("m2", "o1")))
E_GRASP = str(end(grasp("m2", "o1")))
S_BOOT = str(start(BOOT))
E_BOOT = str(end(BOOT))


@pytest.fixture(scope="module")
def bat():
    return build_camera_bat()


class TestHolds:
    def test_initial_robot_location(self, bat):
        assert holds(bat, bat.initial, parse_static("(= robotAt m1)", bat))
        assert not holds(bat, bat.initial, parse_static("(= robotAt m2)", bat))

    def test_no_object_held(self, bat):
        assert not holds(bat, bat.initial, parse_static("(exists o (holding o))", bat))

    def test_trivial(self, bat):
        assert holds(bat, bat.initial, STRUE)
        assert not holds(bat, bat.initial, SFALSE)

    def test_clock_atom(self, bat):
        assert holds(bat, bat.initial, parse_static("(= c_boot 0)", bat))
        advanced = bat.initial.advanced(Q(1, 2))
        assert holds(bat, advanced, parse_static("(= c_boot 1/2)", bat))

    def test_undeclared_symbol_rejected(self, bat):
        with pytest.raises(InputError):
            holds(bat, bat.initial, SAtom("noSuchFluent", ()))


class TestProgress:
    def test_start_drive(self, bat):
        got = progress(bat, bat.initial, S_DRIVE)
        assert got.fun_map["robotAt"] == golog.NONE_VALUE
        assert f"performing(drive(m1,m2))" in got.fluents
        assert got.clock_map["c_drive_m2"] == 0

    def test_start_drive_resets_only_its_clock(self, bat):
        state = bat.initial.advanced(Q(3, 4))
        got = progress(bat, state, S_DRIVE)
        assert got.clock_map["c_drive_m2"] == 0
        assert got.clock_map["c_boot"] == Q(3, 4)

    def test_end_boot_turns_camera_on(self, bat):
        state = progress(bat, bat.initial, S_BOOT)
        state = progress(bat, state.advanced(1), E_BOOT)
        assert holds(bat, state, SAtom("camOn"))

    def test_frame_keeps_unrelated_fluents(self, bat):
        got = progress(bat, bat.initial, S_BOOT)
        assert "objAt(o1,m2)" in got.fluents
        assert got.fun_map["robotAt"] == "m1"

    def test_end_drive_sets_destination(self, bat):
        state = progress(bat, bat.initial, S_DRIVE)
        state = progress(bat, state.advanced(1), E_DRIVE)
        assert state.fun_map["robotAt"] == "m2"


class TestRegression:
    def test_empty_trace_clock(self, bat):
        phi = parse_static("(< c_boot 5)", bat)
        assert regress(bat, (), phi) == STRUE
        phi2 = parse_static("(> c_boot 0)", bat)
        assert regress(bat, (), phi2) == SFALSE

    def test_time_shift(self, bat):
        # after idling to time 2, c < 5 becomes c < 3, true initially
        trace = ((S_BOOT, Q(2)),)
        phi = parse_static("(< c_grasp 5)", bat)
        got = regress(bat, trace, phi)
        assert holds(bat, bat.initial, got)

    def test_fluent_regression_matches_progression(self, bat):
        trace = ((S_DRIVE, Q(0)), (E_DRIVE, Q(1)))
        phi = parse_static("(= robotAt m2)", bat)
        regressed = regress(bat, trace, phi)
        assert holds(bat, bat.initial, regressed)
        assert holds(bat, world_after(bat, trace), phi)

    def test_clock_reset_in_trace(self, bat):
        # boot at t=1 resets c_boot; at evaluation time c_boot reads 0
        trace = ((S_BOOT, Q(1)),)
        phi = parse_static("(= c_boot 0)", bat)
        assert holds(bat, bat.initial, regress(bat, trace, phi))
        phi2 = parse_static("(= c_grasp 1)", bat)
        assert holds(bat, bat.initial, regress(bat, trace, phi2))

    def test_agreement_on_random_traces(self, bat):
        import random

        rng = random.Random(7)
        actions = sorted(bat.actions)
        formulas = [
            parse_static(text, bat)
            for text in [
                "(= robotAt m2)", "camOn", "grasping",
                "(exists o (holding o))", "(performing bootCamera)",
                "(and (<= c_boot 2) (or camOn (not grasping)))",
                "(> c_drive_m2 1/2)",
            ]
        ]
        for _ in range(60):
            t = Q(0)
            trace = []
            for _ in range(rng.randrange(4)):
                t += Q(rng.randrange(0, 8), rng.choice([1, 2, 4]))
                trace.append((rng.choice(actions), t))
            trace = tuple(trace)
            forward = world_after(bat, trace)
            for phi in formulas:
                assert holds(bat, forward, phi) == holds(bat, bat.initial, regress(bat, trace, phi))


class TestCarryRegression:
    """Carrying theory: driving moves held objects, so a location query
    after a drive reduces to holding-or-already-there initially."""

    def build(self):
        from timegolog.golog import ActionDecl, Bat, SsaRel, make_state

        A = Var(golog.ACTION_VAR)
        drive_hk = App("drive", (Const("hallway"), Const("kitchen")))
        ssa_obj = SsaRel(("o", "l"), SOr((
            SAnd((
                SQuant("exists", "l2", "Room",
                       SEq(A, App("drive", (Var("l2"), Var("l"))))),
                SAtom("holding", (Var("o"),)),
            )),
            SAnd((
                SAtom("objAt", (Var("o"), Var("l"))),
                SOr((
                    SNot(SAtom("holding", (Var("o"),))),
                    SNot(SQuant("exists", "l1", "Room",
                                SQuant("exists", "l2", "Room",
                                       SEq(A, App("drive", (Var("l1"), Var("l2")))))))
                )),
            )),
        )))
        ssa_hold = SsaRel(("o",), SAtom("holding", (Var("o"),)))
        return Bat(
            sorts={"Room": ("hallway", "kitchen"), "Thing": ("cup",)},
            clocks=(),
            rel_fluents={"objAt": ("Thing", "Room"), "holding": ("Thing",)},
            fun_fluents={},
            actions={str(drive_hk): ActionDecl()},
            ssa_rel={"objAt": ssa_obj, "holding": ssa_hold},
            ssa_fun={},
            initial=make_state((), {}, {}),
        ), str(drive_hk)

    def test_regressed_query_reduces_to_initial_disjunction(self):
        from timegolog.golog import make_state
        from itertools import product as iproduct

        bat, drive = self.build()
        query = SAtom("objAt", (Const("cup"), Const("kitchen")))
        regressed = regress(bat, ((drive, Q(1)),), query)
        expected = SOr((SAtom("holding", (Const("cup"),)), query))
        # semantically equal over every complete initial state
        atoms = ["objAt(cup,hallway)", "objAt(cup,kitchen)", "holding(cup)"]
        for bits in iproduct([False, True], repeat=3):
            state = make_state(
                {a for a, b in zip(atoms, bits) if b}, {}, {}
            )
            assert holds(bat, state, regressed) == holds(bat, state, expected)


class TestEmbeddingRoundTrip:
    """Label traces of the embedded theory coincide with the automaton's
    language, checked at region-representative times in both directions."""

    def two_location_ta(self):
        from timegolog.temporal import ClockConstraint

        return make_ta(
            locations=("off", "on"),
            initial="off",
            finals=("off",),
            clocks=("x",),
            invariants={},
            switches=[
                Switch("off", "a", ClockConstraint(), frozenset({"x"}), "on"),
                Switch("on", "b", ClockConstraint((("x", "=", 1),)), frozenset(), "off"),
            ],
        )

    def test_label_languages_agree(self):
        from oracles import enumerate_completed_traces, region_language

        ta = self.two_location_ta()
        emb = bat_from_ta(ta)
        k = max(1, ta.max_constant())
        traces = enumerate_completed_traces(emb.bat, emb.program, k, max_actions=4)
        interpreter_words = {label_trace(tr, emb.switch_labels) for tr in traces}
        automaton_words = {w for w in region_language(ta, max_actions=4)}
        untimed_i = {tuple(a for a, _ in w) for w in interpreter_words}
        untimed_a = {tuple(a for a, _ in w) for w in automaton_words}
        assert untimed_i == untimed_a
        # interpreter traces replay on the automaton with their exact times
        from timegolog.temporal import eval_constraint

        by_label = {}
        for sw in ta.switches:
            by_label.setdefault(sw.label, []).append(sw)
        for word in interpreter_words:
            loc, val, now = ta.initial, {c: Q(0) for c in ta.clocks}, Q(0)
            for label, t in word:
                advanced = {c: v + (t - now) for c, v in val.items()}
                matching = [
                    sw for sw in by_label[label]
                    if sw.src == loc and eval_constraint(advanced, sw.guard)
                ]
                assert matching, (word, label, t)
                sw = matching[0]
                val = {c: (Q(0) if c in sw.resets else v) for c, v in advanced.items()}
                loc, now = sw.dst, t
            assert loc in ta.finals

    def test_automaton_words_replay_in_interpreter(self):
        from oracles import region_language

        ta = self.two_location_ta()
        emb = bat_from_ta(ta)
        label_to_switch_actions = {}
        for action, label in emb.switch_labels.items():
            label_to_switch_actions.setdefault(label, []).append(action)
        for word in region_language(ta, max_actions=3):
            state, prog, now = emb.bat.initial, emb.program, Q(0)
            for label, t in word:
                advanced = state.advanced(t - now)
                steps = {
                    a: rest for a, rest in enabled_steps(emb.bat, advanced, prog)
                    if a in label_to_switch_actions[label]
                }
                assert steps, (word, label, t)
                action, prog = sorted(steps.items())[0]
                state, now = progress(emb.bat, advanced, action), t
            assert is_final(emb.bat, state, prog)


class TestPrograms:
    def test_final_rules(self, bat):
        state = bat.initial
        assert is_final(bat, state, PTest(STRUE))
        assert not is_final(bat, state, PAct(S_BOOT))
        assert is_final(bat, state, PStar(PAct(S_BOOT)))
        assert not is_final(bat, state, PSeq(PStar(PAct(S_BOOT)), PTest(SFALSE)))
        assert is_final(bat, state, PBranch(PAct(S_BOOT), NIL))

    def test_while_loop_macro_not_final_when_condition_holds(self, bat):
        # while !camOn do boot done, at a state where camOn is false
        body = seq(PAct(S_BOOT), PAct(E_BOOT))
        loop = PSeq(PStar(PSeq(PTest(SNot(SAtom("camOn"))), body)),
                    PTest(SAtom("camOn")))
        assert not is_final(bat, bat.initial, loop)

    def test_steps_of_parallel(self, bat):
        prog = camera_program()
        got = {a for a, _ in program_steps(bat, bat.initial, prog)}
        assert got == {S_DRIVE, S_BOOT}

    def test_enabled_steps_initial(self, bat):
        got = {a for a, _ in enabled_steps(bat, bat.initial, camera_program())}
        assert got == {S_DRIVE, S_BOOT}

    def test_enabled_steps_guard_blocks_early_end(self, bat):
        state = progress(bat, bat.initial, S_DRIVE)
        rest = seq(PAct(E_DRIVE), PAct(S_GRASP), PAct(E_GRASP))
        # clock at 1/2: the drive may not end yet
        early = state.advanced(Q(1, 2))
        assert {a for a, _ in enabled_steps(bat, early, rest)} == set()
        late = state.advanced(Q(3, 2))
        assert {a for a, _ in enabled_steps(bat, late, rest)} == {E_DRIVE}

    def test_nil_program_has_no_steps(self, bat):
        assert enabled_steps(bat, bat.initial, NIL) == frozenset()

    def test_normalization(self):
        a = PAct("x")
        assert normalize(PSeq(NIL, a)) == a
        assert normalize(PSeq(a, NIL)) == a
        assert normalize(PPar(NIL, a)) == a
        assert normalize(PBranch(a, a)) == a
        assert normalize(PStar(NIL)) == NIL

    def test_normalization_preserves_behavior(self, bat):
        state = bat.initial
        progs = [
            PSeq(NIL, camera_program()),
            PPar(camera_program(), NIL),
            PBranch(PAct(S_BOOT), PAct(S_BOOT)),
            PSeq(PStar(NIL), PAct(S_BOOT)),
        ]
        for p in progs:
            n = normalize(p)
            assert is_final(bat, state, p) == is_final(bat, state, n)
            assert {a for a, _ in program_steps(bat, state, p)} == {
                a for a, _ in program_steps(bat, state, n)
            }

    def test_reachable_program_space_is_finite(self, bat):
        loop = PStar(seq(PAct(S_BOOT), PAct(E_BOOT), PAct(str(start(Const("stopCamera")))),
                         PAct(str(end(Const("stopCamera"))))))
        space = reachable_programs(bat, PPar(loop, camera_program()))
        assert 0 < len(space) < 200


class TestModelErrors:
    def test_functional_ssa_must_be_unique(self):
        from timegolog.golog import ActionDecl, Bat, FunFluent, SsaFun, make_state

        bad = Bat(
            sorts={"V": ("v1", "v2")},
            clocks=(),
            rel_fluents={},
            fun_fluents={"f": FunFluent((), "V")},
            actions={"act": ActionDecl()},
            ssa_rel={},
            ssa_fun={"f": SsaFun((), "y", STRUE)},  # every value qualifies
            initial=make_state((), {"f": "v1"}, {}),
        )
        for _ in range(2):  # the error is raised again, never memoized
            with pytest.raises(ModelError):
                progress(bad, bad.initial, "act")

    def test_incomplete_initial_rejected(self):
        from timegolog.golog import ActionDecl, Bat, FunFluent, SsaFun, make_state

        with pytest.raises(InputError, match="incomplete"):
            Bat(
                sorts={"V": ("v1",)},
                clocks=(),
                rel_fluents={},
                fun_fluents={"f": FunFluent((), "V")},
                actions={"act": ActionDecl()},
                ssa_rel={},
                ssa_fun={"f": SsaFun((), "y", SEq(Var("y"), Const("v1")))},
                initial=make_state((), {}, {}),
            )


class TestProgressionMemo:
    """`progress` computes the fluents once per theory, fluent state and
    action; clocks and resets come from each call."""

    def test_memo_matches_a_fresh_theory_along_random_traces(self, bat):
        rng = random.Random(0)
        for _ in range(20):
            state = bat.initial
            for _ in range(8):
                possible = sorted(
                    a for a, decl in bat.actions.items() if holds(bat, state, decl.poss)
                )
                if not possible:
                    break
                action = rng.choice(possible)
                advanced = state.advanced(Q(rng.randrange(5), rng.choice((1, 2, 3))))
                state = progress(bat, advanced, action)
                assert state == progress(build_camera_bat(), advanced, action)

    def test_equal_fluents_keep_their_own_clocks(self, bat):
        action = str(start(Const("bootCamera")))
        assert "c_boot" in bat.actions[action].resets
        early = bat.initial.advanced(Q(1, 2))
        late = bat.initial.advanced(Q(3))
        after_early, after_late = progress(bat, early, action), progress(bat, late, action)
        assert (after_early.fluents, after_early.funcs) == (after_late.fluents, after_late.funcs)
        assert after_early.clock_map == {
            c: Q(0) if c == "c_boot" else Q(1, 2) for c in bat.clocks
        }
        assert after_late.clock_map == {c: Q(0) if c == "c_boot" else Q(3) for c in bat.clocks}

    def test_theories_over_the_same_fluents_do_not_share_entries(self):
        from timegolog.golog import ActionDecl, Bat, SsaRel, make_state

        def theory(rhs):
            return Bat(
                sorts={}, clocks=("c",), rel_fluents={"p": ()}, fun_fluents={},
                actions={"act": ActionDecl(resets=frozenset({"c"}))},
                ssa_rel={"p": SsaRel((), rhs)}, ssa_fun={},
                initial=make_state((), {}, {"c": 0}),
            )

        keep, toggle = theory(SAtom("p", ())), theory(SNot(SAtom("p", ())))
        for _ in range(2):
            assert progress(keep, keep.initial, "act").fluents == frozenset()
            assert progress(toggle, toggle.initial, "act").fluents == {"p"}


class TestJsonLoader:
    def test_loaded_bat_behaves_like_fixture(self, bat):
        loaded = load_bat(load_camera_bat_json())
        assert set(loaded.actions) == set(bat.actions)
        assert loaded.initial == bat.initial
        # progression agreement along a scenario
        trace = [
            (S_DRIVE, Q(0)), (S_BOOT, Q(1, 2)), (E_BOOT, Q(3, 2)),
            (E_DRIVE, Q(2)), (S_GRASP, Q(2)), (E_GRASP, Q(4)),
        ]
        s1, s2 = bat.initial, loaded.initial
        now = Q(0)
        for action, t in trace:
            s1 = progress(bat, s1.advanced(t - now), action)
            s2 = progress(loaded, s2.advanced(t - now), action)
            now = t
            assert s1 == s2
        assert holds(bat, s1, SAtom("holding", (Const("o1"),)))

    def test_program_json_roundtrip(self, bat):
        prog = camera_program()
        assert load_program(program_to_json(prog), bat) == prog


class TestTaEmbedding:
    def test_camera_platform_embedding(self):
        from fixtures import camera_platform_ta

        emb = bat_from_ta(camera_platform_ta())
        assert emb.bat.initial.fun_map["loc"] == "camOff"
        # the boot switch is enabled only from camOff
        steps = enabled_steps(emb.bat, emb.bat.initial, emb.program)
        labels = {emb.switch_labels[a] for a, _ in steps}
        assert labels == {"start(bootCamera)"}
        # after booting, the end switch needs its guard
        state = progress(emb.bat, emb.bat.initial, "sw0")
        assert state.fun_map["loc"] == "booting"
        assert enabled_steps(emb.bat, state.advanced(1), emb.program) == frozenset()
        late = state.advanced(5)
        labels = {emb.switch_labels[a] for a, _ in enabled_steps(emb.bat, late, emb.program)}
        assert labels == {"end(bootCamera)"}

    def test_single_location_no_switch(self):
        ta = make_ta(("only",), "only", ("only",), ())
        emb = bat_from_ta(ta)
        assert emb.program == PTest(SEq(App("loc", ()), Const("only")))
        assert is_final(emb.bat, emb.bat.initial, emb.program)

    def test_reset_into_invariant_rejected(self):
        ta = make_ta(
            ("a", "b"), "a", ("b",), ("x",),
            invariants={"b": ClockConstraint((("x", ">=", 1),))},
            switches=[Switch("a", "go", ClockConstraint(), frozenset({"x"}), "b")],
        )
        with pytest.raises(InputError):
            bat_from_ta(ta)

    def test_label_trace(self):
        labels = {"sw0": "go"}
        assert label_trace((), labels) == ()
        assert label_trace((("sw0", Q(1)),), labels) == (("go", Q(1)),)
        assert label_trace((("other", Q(2)),), labels) == (("other", Q(2)),)


def test_fluent_values_are_time_invariant(bat=None):
    # traces with the same action sequence at different legal times agree on
    # every fluent; only clock values differ
    bat = build_camera_bat()
    actions = (S_DRIVE, S_BOOT, E_BOOT, E_DRIVE)
    z1 = tuple(zip(actions, (Q(0), Q(1, 2), Q(3, 2), Q(2))))
    z2 = tuple(zip(actions, (Q(1, 4), Q(1), Q(2), Q(9, 4))))
    s1, s2 = world_after(bat, z1), world_after(bat, z2)
    assert s1.fluents == s2.fluents
    assert s1.funcs == s2.funcs
    assert s1.clocks != s2.clocks
