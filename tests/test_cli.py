import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from timegolog import mtl, plantrans, synthesis, timed_automata
from timegolog.cli import main, parse_formula_text
from timegolog.golog import InputError
from timegolog.mtl import Atom, And, Interval, Not, TRUE, Until, finally_
from timegolog.parsing import load_bat, load_program, parse_mtl
from timegolog.timed_automata import ta_to_json

from fixtures import (
    camera_platform_ta,
    load_camera_bat_json,
    set_test_clear,
    toggle_bat_json,
)
from oracles import is_execution

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

CAMERA_SPEC_TEXT = (
    "(or (finally (and (not camOn) grasping))"
    "    (finally (and (not camOn) (finally grasping [0,2]))))"
)

CAMERA_PROGRAM = {
    "par": [
        {"seq": [
            {"act": "start(drive(m1,m2))"}, {"act": "end(drive(m1,m2))"},
            {"act": "start(grasp(m2,o1))"}, {"act": "end(grasp(m2,o1))"},
        ]},
        {"seq": [{"act": "start(bootCamera)"}, {"act": "end(bootCamera)"}]},
    ]
}

TRANSPORT_PLAN = {"actions": [
    "start(goto(l1))", "end(goto(l1))", "start(pick(o1))", "end(pick(o1))",
]}

TRANSPORT_CONSTRAINTS = {
    "rel": [
        {"i": 1, "j": 2, "interval": {"lo": 30, "hi": 45}},
        {"i": 3, "j": 4, "interval": {"lo": 15, "hi": 20}},
        {"i": 2, "j": 3, "interval": {"lo": 0, "hi": 0}},
    ],
    "chain": [
        {
            "stages": [
                {"beta": "camOff", "interval": {"lo": 0, "hi": None}},
                {"beta": "true", "interval": {"lo": 0, "hi": 4}},
            ],
            "alpha1": "start:goto*",
            "alpha2": "end:goto*",
        },
        {
            "stages": [{"beta": "camOn", "interval": {"lo": 0, "hi": None}}],
            "alpha1": "start:pick*",
            "alpha2": "end:pick*",
        },
    ],
}


@pytest.fixture
def camera_files(tmp_path):
    bat = tmp_path / "bat.json"
    bat.write_text((DATA / "camera_bat.json").read_text())
    prog = tmp_path / "program.json"
    prog.write_text(json.dumps(CAMERA_PROGRAM))
    return {"bat": str(bat), "program": str(prog)}


@pytest.fixture
def transform_files(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(TRANSPORT_PLAN))
    platform = tmp_path / "platform.json"
    platform.write_text(json.dumps(ta_to_json(camera_platform_ta())))
    constraints = tmp_path / "constraints.json"
    constraints.write_text(json.dumps(TRANSPORT_CONSTRAINTS))
    return {"plan": str(plan), "platform": str(platform), "constraints": str(constraints)}


class TestParseFormulaText:
    def test_until_with_interval(self):
        got = parse_formula_text("(until (atom p) (atom q) [0,2])")
        assert got == Until(Atom("p"), Atom("q"), Interval(0, 2))

    def test_bare_atoms_inside_connectives(self):
        got = parse_formula_text("(finally (and (not camOn) grasping))")
        assert got == finally_(And((Not(Atom("camOn")), Atom("grasping"))))

    def test_sort_check_against_theory(self):
        bat = load_bat(load_camera_bat_json())
        parse_formula_text("(finally grasping)", bat)
        with pytest.raises(InputError):
            parse_formula_text("(atom undeclared)", bat)
        # ground atoms with arguments use the application form
        got = parse_formula_text("(finally (holding o1))", bat)
        assert got == finally_(Atom("holding(o1)"))
        with pytest.raises(InputError):
            parse_formula_text("(finally (holding o2))", bat)


class TestMtlCheck:
    def test_positive_and_negative(self, tmp_path, capsys):
        word = tmp_path / "word.json"
        word.write_text(json.dumps([
            {"t": "0", "symbols": []},
            {"t": "1/2", "symbols": ["grasping"]},
        ]))
        assert main(["mtl-check", "--spec", "(finally grasping)", "--word", str(word)]) == 0
        assert main(["mtl-check", "--spec", "(finally camOn)", "--word", str(word)]) == 1

    def test_missing_file_is_usage_error(self):
        assert main(["mtl-check", "--spec", "(finally p)", "--word", "/nonexistent.json"]) == 2

    def test_long_word_is_checked_in_linear_time(self, tmp_path, capsys):
        # p only at the end: a scan ahead from every position, as a recursive
        # evaluator does, is quadratic in the length, tens of seconds at this size
        entries = [{"t": t, "symbols": []} for t in range(3999)]
        word = tmp_path / "word.json"
        word.write_text(json.dumps(entries + [{"t": 3999, "symbols": ["p"]}]))
        start = perf_counter()
        assert main(["mtl-check", "--spec", "(globally (or p (finally p)))",
                     "--word", str(word)]) == 0
        assert perf_counter() - start < 5

    def test_parse_error(self, tmp_path):
        word = tmp_path / "word.json"
        word.write_text(json.dumps([{"t": "0", "symbols": []}]))
        assert main(["mtl-check", "--spec", "(until p", "--word", str(word)]) == 2

    @pytest.mark.parametrize("word_obj", [
        [1], {"a": 1}, [{"symbols": []}], [{"t": "1/0", "symbols": []}],
        [{"t": 1.5, "symbols": []}], [{"t": True, "symbols": []}],
        [{"t": 1, "symbols": "ab"}], [{"t": 1, "symbols": [2]}], [],
    ])
    def test_malformed_word_is_usage_error(self, tmp_path, capsys, word_obj):
        word = tmp_path / "word.json"
        word.write_text(json.dumps(word_obj))
        assert main(["mtl-check", "--spec", "(finally p)", "--word", str(word)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestAtaDump:
    def test_dump_and_dot(self, tmp_path, capsys):
        dot = tmp_path / "a.dot"
        code = main(["ata-dump", "--spec", "(until true grasping [0,1])", "--dot", str(dot)])
        assert code == 0
        table = json.loads(capsys.readouterr().out)
        assert table["initial"] == "l0"
        assert len(table["transitions"]) == 2 * 2  # 2 locations x {∅, {grasping}}
        assert dot.read_text().startswith("digraph")


class TestVerify:
    def test_camera_program_unsafe_without_control(self, camera_files, capsys):
        code = main([
            "verify", "--bat", camera_files["bat"], "--program", camera_files["program"],
            "--spec", CAMERA_SPEC_TEXT,
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unsafe"
        assert payload["counterexample"]

    def test_safe_program(self, camera_files, capsys, tmp_path):
        prog = tmp_path / "nil.json"
        prog.write_text(json.dumps({"test": "true"}))
        code = main([
            "verify", "--bat", camera_files["bat"], "--program", str(prog),
            "--spec", CAMERA_SPEC_TEXT, "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "safe"


    def test_model_error_is_usage_error(self, tmp_path, capsys):
        # the functional fluent's axiom yields no value, so progression fails
        bat = tmp_path / "bat.json"
        bat.write_text(json.dumps({
            "sorts": {"Place": ["a", "b"]},
            "clocks": [],
            "fluents": [
                {"name": "p", "args": []},
                {"name": "at", "kind": "functional", "args": [], "range": "Place"},
            ],
            "actions": [{"name": "go"}],
            "ssa": [{"fluent": "p", "rhs": "false"}, {"fluent": "at", "rhs": "false"}],
            "initial": {"true": [], "funcs": {"at": "a"}},
        }))
        prog = tmp_path / "program.json"
        prog.write_text(json.dumps({"act": "go"}))
        code = main(["verify", "--bat", str(bat), "--program", str(prog),
                     "--spec", "(finally p)"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: successor state axiom for 'at'")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("const", ["3", "3/2"])
    def test_clocked_program_test_above_the_guards(self, tmp_path, capsys, const):
        spec = "(finally (and p0 (finally (not p0))))"
        bat_obj, prog_obj = toggle_bat_json(), set_test_clear(f"(> c0 {const})")
        (tmp_path / "bat.json").write_text(json.dumps(bat_obj))
        (tmp_path / "prog.json").write_text(json.dumps(prog_obj))
        code = main(["verify", "--bat", str(tmp_path / "bat.json"),
                     "--program", str(tmp_path / "prog.json"), "--spec", spec])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unsafe"
        trace = tuple((e["action"], Fraction(e["t"])) for e in payload["counterexample"])
        bat = load_bat(bat_obj)
        assert is_execution(bat, load_program(prog_obj, bat), trace)
        assert mtl.satisfies(synthesis.trace_to_word(bat, trace), 0, parse_mtl(spec))

    @pytest.mark.parametrize("command", ["verify", "synth"])
    def test_region_increments_count_against_the_budget(self, tmp_path, capsys, command):
        # the guard constant makes k = 100000, so the first node alone has
        # 200002 region increments; the budget stops the search before any
        # of them is enumerated
        bat_obj = toggle_bat_json("(>= c0 100000)")
        prog_obj = {"seq": [{"act": "set_p0"}, {"act": "clear_p0"}]}
        (tmp_path / "bat.json").write_text(json.dumps(bat_obj))
        (tmp_path / "prog.json").write_text(json.dumps(prog_obj))
        argv = [command, "--bat", str(tmp_path / "bat.json"),
                "--program", str(tmp_path / "prog.json"),
                "--spec", "(finally (and p0 (finally (not p0))))", "--budget", "50"]
        if command == "synth":
            argv += ["--controllable", "set*"]
        start = perf_counter()
        assert main(argv) == 2
        assert perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == "error: budget 50 exhausted (200002 region increments at one node)\n"

    @pytest.mark.parametrize("command", ["verify", "synth"])
    @pytest.mark.parametrize("bat_obj,prog_obj,spec_obj", [
        ([], {"act": "set_p0"}, None),
        ({"actions": [{"name": 3}]}, {"act": "set_p0"}, None),
        ({**toggle_bat_json(), "actions": [{"name": "()"}]}, {"act": "set_p0"}, None),
        (toggle_bat_json("(>= c0 1/0)"), {"act": "set_p0"}, None),
        (toggle_bat_json(), {"seq": [{"act": 3}]}, None),
        (toggle_bat_json(), {"seq": []}, None),
        (toggle_bat_json(), {"test": 3}, None),
        (toggle_bat_json(), {"act": "set_p0"}, {"and": 3}),
        (toggle_bat_json(), {"act": "set_p0"}, {"until": []}),
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, command,
                                            bat_obj, prog_obj, spec_obj):
        (tmp_path / "bat.json").write_text(json.dumps(bat_obj))
        (tmp_path / "prog.json").write_text(json.dumps(prog_obj))
        spec = "(finally p0)"
        if spec_obj is not None:
            spec = str(tmp_path / "spec.json")
            Path(spec).write_text(json.dumps(spec_obj))
        argv = [command, "--bat", str(tmp_path / "bat.json"),
                "--program", str(tmp_path / "prog.json"), "--spec", spec]
        if command == "synth":
            argv += ["--controllable", "set*"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSynth:
    def test_camera_controller_exists(self, camera_files, tmp_path, capsys):
        out = tmp_path / "ctrl.json"
        dot = tmp_path / "ctrl.dot"
        code = main([
            "synth", "--bat", camera_files["bat"], "--program", camera_files["program"],
            "--spec", CAMERA_SPEC_TEXT, "--controllable", "start(*",
            "--out", str(out), "--dot", str(dot), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "controller"
        emitted = json.loads(out.read_text())
        from timegolog.parsing import load_ta

        again = load_ta(emitted)
        assert ta_to_json(again) == emitted  # round-trip
        assert dot.read_text().startswith("digraph")

    def test_outputs_in_the_units_of_the_inputs(self, tmp_path, capsys):
        bat_obj = load_camera_bat_json()
        for action in bat_obj["actions"]:
            if action["name"] == "(end bootCamera)":
                action["guard"] = "(= c_boot 1/2)"
        (tmp_path / "bat.json").write_text(json.dumps(bat_obj))
        (tmp_path / "prog.json").write_text(json.dumps(CAMERA_PROGRAM))
        out, dot = tmp_path / "ctrl.json", tmp_path / "ctrl.dot"
        code = main([
            "synth", "--bat", str(tmp_path / "bat.json"),
            "--program", str(tmp_path / "prog.json"), "--spec", CAMERA_SPEC_TEXT,
            "--controllable", "start(*", "--out", str(out), "--dot", str(dot),
        ])
        assert code == 0
        bat = load_bat(bat_obj)
        controllable = lambda action: action.startswith("start(")
        result, graph, problem = synthesis.check_for_controller(
            bat, load_program(CAMERA_PROGRAM, bat),
            parse_formula_text(CAMERA_SPEC_TEXT, bat), controllable,
        )
        assert result and problem.scale == 2
        controller = synthesis.extract_controller(problem, graph, controllable)
        ta = controller.to_ta()
        assert json.loads(out.read_text()) == ta_to_json(ta)
        # the controller's edges keep the region guards of the scaled search;
        # its automaton divides their constants by the scale
        internal = []
        for e in controller.edges:
            node = graph.node(e.source)
            region = synthesis._region_guard(problem, node.state, node.delays[e.incr_index])
            assert e.guard == region
            internal.append((f"n{e.source}", e.action, f"n{e.target}", region.atoms))
        written = [
            (sw.src, sw.label, sw.dst, tuple(
                (clock, rel, const * problem.scale) for clock, rel, const in sw.guard.atoms
            ))
            for sw in ta.switches
        ]
        assert written == internal
        assert any(const == Fraction(1, 2) for sw in ta.switches for _, _, const in sw.guard.atoms)
        assert "c_boot = 1/2" in dot.read_text()

    def test_controller_automaton_built_only_when_written(self, camera_files, capsys,
                                                           monkeypatch):
        def forbidden(self):
            raise AssertionError("controller automaton built but not written")

        monkeypatch.setattr(synthesis.Controller, "to_ta", forbidden)
        code = main([
            "synth", "--bat", camera_files["bat"], "--program", camera_files["program"],
            "--spec", CAMERA_SPEC_TEXT, "--controllable", "start(*",
            "--simulate", "5", "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["edges"] > 0

    def test_controller_failing_simulation_leaves_no_file(self, camera_files, tmp_path,
                                                          capsys):
        # the looped camera program's controller fails its simulation (see
        # TestSimulationReportsPinned), so neither --out nor --dot is written
        prog = tmp_path / "looped.json"
        prog.write_text(json.dumps({"par": [
            {"act": "start(grasp(m2,o1))"},
            {"star": {"seq": [
                {"act": "start(bootCamera)"}, {"act": "end(bootCamera)"},
                {"act": "start(stopCamera)"}, {"act": "end(stopCamera)"},
            ]}},
        ]}))
        out, dot = tmp_path / "ctrl.json", tmp_path / "ctrl.dot"
        assert main([
            "synth", "--bat", camera_files["bat"], "--program", str(prog),
            "--spec", CAMERA_SPEC_TEXT.replace("[0,2]", "[0,1]"),
            "--controllable", "start(*", "--simulate", "5",
            "--out", str(out), "--dot", str(dot), "--json",
        ]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "controller-unsound"
        assert not out.exists() and not dot.exists()

    def test_impossible_spec_exits_one(self, camera_files, tmp_path, capsys):
        prog = tmp_path / "prog.json"
        prog.write_text(json.dumps({"seq": [
            {"act": "start(bootCamera)"}, {"act": "end(bootCamera)"},
        ]}))
        # booting always happens, so its occurrence cannot be avoided
        code = main([
            "synth", "--bat", camera_files["bat"], "--program", str(prog),
            "--spec", "(finally camOn)", "--controllable", "start(*",
        ])
        assert code == 1

    def test_debug_graph_dump(self, camera_files, tmp_path, capsys):
        debug = tmp_path / "graph.json"
        code = main([
            "synth", "--bat", camera_files["bat"], "--program", camera_files["program"],
            "--spec", CAMERA_SPEC_TEXT, "--controllable", "start(*",
            "--debug-graph", str(debug),
        ])
        assert code == 0
        dump = json.loads(debug.read_text())
        assert dump["nodes"][dump["root"]]["label"] is True
        word = dump["nodes"][0]["canonicalWord"]
        assert all(
            isinstance(entry[0], str) and isinstance(entry[1], int)
            for letter in word for entry in letter
        )

    def test_debug_graph_is_the_graph_behind_the_controller(self, camera_files, tmp_path,
                                                             capsys):
        debug = tmp_path / "graph.json"
        code = main([
            "synth", "--bat", camera_files["bat"], "--program", camera_files["program"],
            "--spec", CAMERA_SPEC_TEXT, "--controllable", "start(*",
            "--simulate", "5", "--json", "--debug-graph", str(debug),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        dump = json.loads(debug.read_text())
        assert payload["verdict"] == "controller"
        assert payload["nodes"] == len(dump["nodes"])
        assert dump["nodes"][dump["root"]]["label"] is True


class TestTransform:
    def test_transport_example(self, transform_files, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "transform", "--plan", transform_files["plan"],
            "--platform", transform_files["platform"],
            "--constraints", transform_files["constraints"],
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "trace"
        actions = [e["action"] for e in payload["trace"]]
        assert [a for a in actions if a.endswith("pick(o1))") or a.endswith("goto(l1))")] == \
            TRANSPORT_PLAN["actions"]
        assert json.loads(out.read_text()) == payload

    def test_unrealizable(self, transform_files, tmp_path, capsys):
        bad = dict(TRANSPORT_CONSTRAINTS)
        bad = json.loads(json.dumps(TRANSPORT_CONSTRAINTS))
        bad["rel"][0]["interval"] = {"lo": 0, "hi": 0}  # goto must end instantly
        constraints = tmp_path / "bad.json"
        constraints.write_text(json.dumps(bad))
        code = main([
            "transform", "--plan", transform_files["plan"],
            "--platform", transform_files["platform"],
            "--constraints", str(constraints),
        ])
        assert code == 1

    def test_rational_platform_constants_scale(self, transform_files, tmp_path, capsys):
        platform_obj = json.loads(Path(transform_files["platform"]).read_text())
        for sw in platform_obj["switches"]:
            if sw["label"] == "end(bootCamera)":
                sw["guard"] = "(and (>= x_cam 7/2) (<= x_cam 6))"
        platform = tmp_path / "scaled_platform.json"
        platform.write_text(json.dumps(platform_obj))
        dot = tmp_path / "enc.dot"
        code = main([
            "transform", "--plan", transform_files["plan"],
            "--platform", str(platform),
            "--constraints", transform_files["constraints"], "--dot", str(dot),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # reported times and drawn constants are in the inputs' units; scaled
        # by 2 internally, they would read doubled
        times = {e["action"]: e["t"] for e in payload["trace"]}
        assert times["end(goto(l1))"] == "30"
        assert (times["start(bootCamera)"], times["end(bootCamera)"]) == ("26", "30")
        boot = Fraction(times["end(bootCamera)"]) - Fraction(times["start(bootCamera)"])
        assert Fraction(7, 2) <= boot <= 6
        assert "x_cam >= 7/2 & x_cam <= 6" in dot.read_text()

    def run_transform(self, transform_files, **overrides):
        files = {**transform_files, **overrides}
        return main([
            "transform", "--plan", files["plan"],
            "--platform", files["platform"],
            "--constraints", files["constraints"],
        ])

    @pytest.mark.parametrize("plan_obj", [
        {}, [], {"actions": "ab"}, {"actions": ["a", ""]}, {"actions": [1]},
    ])
    def test_malformed_plan_is_usage_error(self, transform_files, tmp_path, capsys, plan_obj):
        plan = tmp_path / "bad_plan.json"
        plan.write_text(json.dumps(plan_obj))
        assert self.run_transform(transform_files, plan=str(plan)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plan JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("platform_obj", [
        [], {"locations": "camOn", "initial": "camOn"},
        {"locations": ["a"], "initial": "a", "switches": [{"src": "a", "dst": "a"}]},
    ])
    def test_malformed_platform_is_usage_error(self, transform_files, tmp_path, capsys,
                                               platform_obj):
        platform = tmp_path / "bad_platform.json"
        platform.write_text(json.dumps(platform_obj))
        assert self.run_transform(transform_files, platform=str(platform)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: timed automaton JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("constraints_obj", [
        [], {"rel": {}}, {"rel": [{"i": 1, "j": "2", "interval": {}}]},
        {"abs": [{"i": 1, "interval": {"lo": 1.5}}]}, {"chain": [{"stages": []}]},
    ])
    def test_malformed_constraints_are_usage_error(self, transform_files, tmp_path, capsys,
                                                   constraints_obj):
        constraints = tmp_path / "bad_constraints.json"
        constraints.write_text(json.dumps(constraints_obj))
        assert self.run_transform(transform_files, constraints=str(constraints)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_epsilon_label_on_a_real_switch_is_usage_error(self, transform_files, tmp_path,
                                                           capsys):
        # transformed traces drop ε steps, so an ε switch that changes the
        # platform state would yield a trace that fails validation
        platform_obj = json.loads(Path(transform_files["platform"]).read_text())
        platform_obj["switches"][0]["label"] = "ε"
        platform = tmp_path / "epsilon_platform.json"
        platform.write_text(json.dumps(platform_obj))
        assert self.run_transform(transform_files, platform=str(platform)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: platform switch") and err.count("\n") == 1

    @pytest.mark.parametrize("label", ["ε", "start(goto(l1))"])
    def test_rejected_platform_leaves_no_dot_file(self, transform_files, tmp_path, capsys,
                                                  label):
        # the platform is checked before the product is built for --dot: an
        # ε on a real switch, or a label that is also a plan action
        platform_obj = json.loads(Path(transform_files["platform"]).read_text())
        platform_obj["switches"][0]["label"] = label
        platform = tmp_path / "rejected_platform.json"
        platform.write_text(json.dumps(platform_obj))
        dot = tmp_path / "encoding.dot"
        assert main([
            "transform", "--plan", transform_files["plan"], "--platform", str(platform),
            "--constraints", transform_files["constraints"], "--dot", str(dot),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not dot.exists()

    @pytest.mark.parametrize("where", ["switch", "final", "invariant"])
    def test_undeclared_location_is_usage_error(self, transform_files, tmp_path, capsys,
                                                where):
        # checked where the automaton is read: the search would fail on an
        # undeclared switch end and silently ignore an undeclared final or
        # invariant
        platform_obj = json.loads(Path(transform_files["platform"]).read_text())
        if where == "switch":
            platform_obj["switches"][0]["dst"] = "q"
        elif where == "final":
            platform_obj["finals"].append("q")
        else:
            platform_obj["invariants"]["q"] = "(<= x_cam 1)"
        platform = tmp_path / "undeclared_platform.json"
        platform.write_text(json.dumps(platform_obj))
        assert self.run_transform(transform_files, platform=str(platform)) == 2
        err = capsys.readouterr().err
        assert err == ("error: switches, finals and invariants of the timed automaton "
                       "name undeclared locations: ['q']\n")

    def test_epsilon_plan_action_is_usage_error(self, transform_files, tmp_path, capsys):
        # transformed traces drop ε steps, so a plan action ε would yield a
        # trace that fails validation; the plan is rejected as it is read,
        # before the DOT file is written
        plan = tmp_path / "epsilon_plan.json"
        plan.write_text(json.dumps({"actions": ["start(goto(l1))", "ε"]}))
        dot = tmp_path / "encoding.dot"
        assert main([
            "transform", "--plan", str(plan),
            "--platform", transform_files["platform"],
            "--constraints", transform_files["constraints"], "--dot", str(dot),
        ]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the plan action ε is reserved for idle self-loops\n"
        assert not dot.exists()

    def test_zone_budget_is_usage_error(self, transform_files, capsys, monkeypatch):
        monkeypatch.setattr(plantrans, "zone_reach",
                            lambda ta: timed_automata.zone_reach(ta, budget=1))
        assert self.run_transform(transform_files) == 2
        err = capsys.readouterr().err
        assert err == "error: zone graph exceeded 1 nodes\n"

    def test_overflowing_constant_is_usage_error(self, transform_files, tmp_path, capsys):
        platform_obj = json.loads(Path(transform_files["platform"]).read_text())
        for sw in platform_obj["switches"]:
            if sw["label"] == "start(bootCamera)":
                sw["guard"] = f"(and (<= x_cam {2 ** 40}) (>= x_cam {2 ** 40 + 5}))"
        platform = tmp_path / "huge_platform.json"
        platform.write_text(json.dumps(platform_obj))
        assert self.run_transform(transform_files, platform=str(platform)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: clock constant") and err.count("\n") == 1


def test_identical_invocations_are_byte_identical(transform_files, capsys):
    argv = [
        "transform", "--plan", transform_files["plan"],
        "--platform", transform_files["platform"],
        "--constraints", transform_files["constraints"],
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_transform_dot_builds_the_product_once(transform_files, tmp_path, capsys, monkeypatch):
    argv = ["transform", "--plan", transform_files["plan"], "--platform",
            transform_files["platform"], "--constraints", transform_files["constraints"]]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    built = []
    build = plantrans.build_encoding

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(plantrans, "build_encoding", counted)
    dot = tmp_path / "enc.dot"
    assert main(argv + ["--dot", str(dot)]) == 0
    assert capsys.readouterr().out == plain
    assert len(built) == 1
    assert dot.read_text() == timed_automata.ta_to_dot(built[0])


def test_transform_dot_is_the_same_under_any_hash_seed(transform_files, tmp_path):
    # chain stages used to list their locations in set order, which follows
    # the string hash seed
    drawings = []
    for seed in ("1", "2"):
        dot = tmp_path / f"enc{seed}.dot"
        done = subprocess.run(
            [sys.executable, "-m", "timegolog.cli", "transform",
             "--plan", transform_files["plan"], "--platform", transform_files["platform"],
             "--constraints", transform_files["constraints"], "--dot", str(dot)],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        drawings.append(dot.read_bytes())
    assert drawings[0] == drawings[1]


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["synth", "--controllable", "start(*", "--simulate", "50"],
], ids=["verify", "synth"])
def test_search_payloads_are_the_same_under_any_hash_seed(argv):
    # the automaton steps and the search visit states in set order, which
    # follows the string hash seed; the payloads must not
    demo = Path(__file__).resolve().parent.parent / "demos" / "data"
    inputs = ["--bat", str(demo / "camera_bat.json"), "--program",
              str(demo / "camera_program.json"), "--spec", str(demo / "camera_spec.sexpr")]
    payloads = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "timegolog.cli", *argv[:1], *inputs, *argv[1:], "--json"],
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode in (0, 1), done.stderr[-2000:]
        payloads.append(done.stdout)
    assert json.loads(payloads[0])["verdict"] in ("unsafe", "controller")
    assert payloads[0] == payloads[1]


def test_deep_nesting_is_a_usage_error(camera_files, tmp_path, capsys):
    # past the recursion limit the loaders fail; that is an input error
    # (exit 2), not a traceback whose exit 1 reads as a negative verdict
    program = '{"act": "start(bootCamera)"}'
    for _ in range(1200):
        program = '{"seq": [' + program + "]}"
    (tmp_path / "deep.json").write_text(program)
    word = tmp_path / "word.json"
    word.write_text(json.dumps([{"t": 0, "symbols": []}]))
    for argv in (
        ["verify", "--bat", camera_files["bat"], "--program", str(tmp_path / "deep.json"),
         "--spec", "(finally camOn)"],
        ["mtl-check", "--spec", "(not " * 1200 + "p" + ")" * 1200, "--word", str(word)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_commands_import_without_numpy():
    code = ("import sys; import timegolog.cli, timegolog.synthesis, timegolog.plantrans; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
