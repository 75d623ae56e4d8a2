"""Command-line front end.

Subcommands: `verify` checks a program against a specification of undesired
behavior, `synth` decides and extracts a controller, `transform` realizes a
plan on a platform model, `mtl-check` evaluates a formula on a timed word,
and `ata-dump` prints the automaton compiled from a formula.  Exit codes:
0 for positive verdicts (safe / controller exists / trace found / word
satisfies), 1 for negative verdicts, 2 for usage or input errors.

Clock constants in guards, tests, invariants and initial clock values may
be rationals ("p/q"); interval endpoints in formulas and constraints are
naturals.  Every reported time and constant is in the units of the inputs:
each pipeline scales its own inputs to natural constants and scales its
results back, `synthesis.build_problem` for `verify` and `synth` and
`plantrans.transform_plan` for `transform`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fnmatch import fnmatchcase

from . import __version__, ata, mtl, plantrans, synthesis
from .golog import InputError, ModelError
from .parsing import ground_atom_checker, load_bat, load_program, load_ta, parse_mtl
from .sexpr import ParseError
from .temporal import ResourceError, format_fraction
from .timed_automata import ta_to_dot, ta_to_json


def parse_formula_text(text: str, bat=None):
    """Trace formula from an s-expression, atoms sort-checked against the
    theory when one is loaded."""
    checker = ground_atom_checker(bat) if bat is not None else None
    return parse_mtl(text, checker)


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def _formula_arg(text_or_path: str, bat=None):
    if text_or_path.lstrip().startswith("("):
        return parse_formula_text(text_or_path, bat)
    with open(text_or_path) as handle:
        body = handle.read().strip()
    if body.startswith("("):
        return parse_formula_text(body, bat)
    return mtl.formula_from_json(json.loads(body))


def _trace_json(trace):
    return [{"action": action, "t": format_fraction(t)} for action, t in trace]


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _controllable_predicate(spec: str):
    patterns = [p.strip() for p in spec.split(",") if p.strip()]
    answers: dict = {}  # the search asks about few distinct actions, many times

    def controllable(action: str) -> bool:
        answer = answers.get(action)
        if answer is None:
            answer = answers[action] = any(fnmatchcase(action, p) for p in patterns)
        return answer

    return controllable


def cmd_verify(args) -> int:
    bat = load_bat(_read_json(args.bat))
    program = load_program(_read_json(args.program), bat)
    spec = _formula_arg(args.spec, bat)
    verdict = synthesis.verify(bat, program, spec, budget=args.budget)
    if verdict.safe:
        _emit(args, {"verdict": "safe", "nodes": verdict.nodes},
              f"safe ({verdict.nodes} nodes explored)")
        return 0
    payload = {
        "verdict": "unsafe",
        "nodes": verdict.nodes,
        "counterexample": _trace_json(verdict.counterexample),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 1


def cmd_synth(args) -> int:
    bat = load_bat(_read_json(args.bat))
    program = load_program(_read_json(args.program), bat)
    spec = _formula_arg(args.spec, bat)
    controllable = _controllable_predicate(args.controllable)
    result, graph, problem = synthesis.check_for_controller(
        bat, program, spec, controllable, budget=args.budget,
    )
    info = {"controller": bool(result), "nodes": len(graph.nodes),
            "explored": graph.explored}
    if args.debug_graph:
        with open(args.debug_graph, "w") as handle:
            json.dump(synthesis.graph_debug_json(problem, graph), handle,
                      indent=2, sort_keys=True)
    if not result:
        _emit(args, {**info, "verdict": "no-controller"},
              f"no controller exists ({len(graph.nodes)} nodes)")
        return 1
    if args.out or args.dot or args.simulate:
        controller = synthesis.extract_controller(problem, graph, controllable)
        info["locations"] = len(controller.locations)
        info["edges"] = len(controller.edges)
        info["increment_ties"] = len(controller.tie_warnings)
        if args.simulate:
            report = synthesis.simulate_controller(
                controller, trials=args.simulate, seed=args.seed,
            )
            info["simulation"] = {
                "trials": report.trials,
                "completed": report.completed,
                "violations": len(report.violations),
                "condition_failures": len(report.condition_failures),
            }
            if not report.ok:
                _emit(args, {**info, "verdict": "controller-unsound"},
                      "controller failed simulation")
                return 1
        if args.out or args.dot:
            controller_ta = controller.to_ta()
            if args.out:
                with open(args.out, "w") as handle:
                    json.dump(ta_to_json(controller_ta), handle, indent=2, sort_keys=True)
            if args.dot:
                with open(args.dot, "w") as handle:
                    handle.write(ta_to_dot(controller_ta))
    _emit(args, {**info, "verdict": "controller"},
          f"controller exists ({len(graph.nodes)} nodes)")
    return 0


def cmd_transform(args) -> int:
    plan = plantrans.plan_from_json(_read_json(args.plan))
    platform = load_ta(_read_json(args.platform))
    constraints = plantrans.constraints_from_json(_read_json(args.constraints))
    encoding = None
    if args.dot:
        encoding = plantrans.build_encoding(plan, platform, constraints)
        with open(args.dot, "w") as handle:
            handle.write(ta_to_dot(encoding))
    trace = plantrans.transform_plan(plan, platform, constraints, encoding)
    if trace is None:
        _emit(args, {"verdict": "unrealizable"}, "plan not realizable under the constraints")
        return 1
    if not plantrans.validate_transformed(trace, plan, platform, constraints):
        _emit(args, {"verdict": "internal-error"},
              "internal error: transformed trace failed validation")
        return 2
    payload = {"verdict": "trace", "trace": _trace_json(trace)}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_mtl_check(args) -> int:
    spec = _formula_arg(args.spec)
    word = mtl.TimedWord.from_json(_read_json(args.word))
    if not word:
        raise ValueError("the timed word is empty")
    result = mtl.satisfies(word, 0, spec)
    _emit(args, {"satisfies": result}, "satisfies" if result else "does not satisfy")
    return 0 if result else 1


def cmd_ata_dump(args) -> int:
    spec = mtl.to_pnf(_formula_arg(args.spec))
    automaton = ata.ata_from_mtl(spec)
    table = ata.eta_table(automaton)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(ata.to_dot(automaton))
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


def _at_least(low: int):
    def count(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {text}")
        return int(text)
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timegolog",
        description="verify and synthesize controllers for timed agent "
                    "programs; transform plans onto platform models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="check a program against undesired behavior")
    p_verify.add_argument("--bat", required=True, help="theory JSON")
    p_verify.add_argument("--program", required=True, help="program JSON")
    p_verify.add_argument("--spec", required=True, help="formula (s-expression or file)")
    p_verify.add_argument("--budget", type=_at_least(1), default=None,
                          help="node budget; also bounds the region increments of one node")
    p_verify.add_argument("--json", action="store_true", help="machine-readable verdict")
    p_verify.set_defaults(func=cmd_verify)

    p_synth = sub.add_parser("synth", help="decide and extract a controller")
    p_synth.add_argument("--bat", required=True)
    p_synth.add_argument("--program", required=True)
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--controllable", required=True,
                         help="comma-separated action patterns, e.g. 'start(*'")
    p_synth.add_argument("--out", help="controller JSON output path")
    p_synth.add_argument("--dot", help="controller DOT output path")
    p_synth.add_argument("--budget", type=_at_least(1), default=None)
    p_synth.add_argument("--simulate", type=_at_least(0), default=0, metavar="TRIALS",
                         help="randomized controller simulation trials (0: none)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--debug-graph", metavar="PATH",
                         help="dump the searched graph, labelled during the search, "
                              "with canonical words; the controller comes from it")
    p_synth.add_argument("--json", action="store_true")
    p_synth.set_defaults(func=cmd_synth)

    p_trans = sub.add_parser("transform", help="realize a plan on a platform model")
    p_trans.add_argument("--plan", required=True, help='plan JSON: {"actions": [...]}')
    p_trans.add_argument("--platform", required=True, help="platform TA JSON")
    p_trans.add_argument("--constraints", required=True, help="constraints JSON")
    p_trans.add_argument("--out", help="trace JSON output path")
    p_trans.add_argument("--dot", help="encoded product DOT output path")
    p_trans.add_argument("--json", action="store_true")
    p_trans.set_defaults(func=cmd_transform)

    p_mtl = sub.add_parser("mtl-check", help="evaluate a formula on a timed word")
    p_mtl.add_argument("--spec", required=True)
    p_mtl.add_argument("--word", required=True, help="timed word JSON")
    p_mtl.add_argument("--json", action="store_true")
    p_mtl.set_defaults(func=cmd_mtl_check)

    p_dump = sub.add_parser("ata-dump", help="print the automaton of a formula")
    p_dump.add_argument("--spec", required=True)
    p_dump.add_argument("--dot", help="DOT output path")
    p_dump.set_defaults(func=cmd_ata_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ModelError, ParseError, ValueError, OSError, ResourceError,
            RecursionError) as err:  # RecursionError: inputs nested too deeply
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
