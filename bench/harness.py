"""Preparing, deciding and checking benchmark instances.

`prepare` writes an instance's generated inputs to disk and loads them with
the package's public loaders; `decide` runs one instance through the same
command functions the `timegolog` command line dispatches to; `check` is
the correctness gate, run outside the timed region, which compares every
verdict with an oracle that does not share code with the engine it checks.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Brute-force bounds for safe verdicts: completed traces of at most
# ORACLE_ACTIONS actions, at most ORACLE_NODES expanded prefixes.
ORACLE_ACTIONS = 4
ORACLE_NODES = 40

OK, FAIL, WRONG = "ok", "fail", "wrong"


@dataclass
class Prepared:
    """An instance with its command line and the objects the gate needs."""

    instance: dict
    argv: list
    loaded: dict = field(default_factory=dict)


@dataclass
class Outcome:
    exit_code: int | None
    payload: dict | None
    error: str | None

    def summary(self):
        """What must agree between repeated decisions of one instance."""
        if self.error is not None:
            return ("error", self.error.split(":")[0])
        return (self.exit_code, json.dumps(self.payload, sort_keys=True))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def prepare(tg, instances: list, workdir: Path) -> list:
    """Write every instance's input files and load them back through the
    public loaders (theories, programs, formulas, automata, constraints)."""
    from workloads import THEORIES

    workdir.mkdir(parents=True, exist_ok=True)
    parsing, plantrans = tg.parsing, tg.plantrans
    bats = {}
    out = []
    for inst in instances:
        stem = workdir / inst["id"]
        if inst["kind"] in ("verify", "synth"):
            theory = inst["theory"]
            if theory not in bats:
                theory_obj = THEORIES[theory]()
                path = _write(workdir / f"theory-{theory}.json", theory_obj)
                bats[theory] = (path, parsing.load_bat(theory_obj))
            bat_path, bat = bats[theory]
            program_path = _write(stem.with_suffix(".program.json"), inst["program"])
            loaded = {
                "bat": bat,
                "program": parsing.load_program(inst["program"], bat),
                "spec": parsing.parse_mtl(inst["spec"], parsing.ground_atom_checker(bat)),
            }
            argv = [inst["kind"], "--bat", bat_path, "--program", program_path,
                    "--spec", inst["spec"], "--json"]
            if inst["kind"] == "verify":
                argv += ["--budget", str(inst["budget"])]
            else:
                argv += ["--controllable", inst["controllable"],
                         "--simulate", str(inst["trials"]), "--seed", str(inst["sim_seed"])]
        else:
            loaded = {
                "plan": plantrans.Plan(tuple(inst["plan"]["actions"])),
                "platform": parsing.load_ta(inst["platform"]),
                "constraints": plantrans.constraints_from_json(inst["constraints"]),
            }
            argv = [
                "transform",
                "--plan", _write(stem.with_suffix(".plan.json"), inst["plan"]),
                "--platform", _write(stem.with_suffix(".platform.json"), inst["platform"]),
                "--constraints", _write(stem.with_suffix(".constraints.json"), inst["constraints"]),
                "--json",
            ]
        out.append(Prepared(inst, argv, loaded))
    return out


def decide(tg, prepared: Prepared) -> Outcome:
    """One command-line decision, in process; the command's own output is
    captured and parsed, its exceptions are the instance's failure."""
    args = tg.cli.build_parser().parse_args(prepared.argv)
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = args.func(args)
    except Exception as err:  # any escape is this instance's failure
        return Outcome(None, None, f"{type(err).__name__}: {err}"[:200])
    text = buffer.getvalue().strip()
    return Outcome(code, json.loads(text) if text.startswith("{") else None, None)


# --- the correctness gate ---------------------------------------------------------


def _trace_of(payload_trace) -> tuple:
    return tuple((step["action"], Fraction(step["t"])) for step in payload_trace)


def _enabled(tg, bat, state, prog):
    for action, rest in sorted(tg.golog.program_steps(bat, state, prog), key=str):
        decl = bat.actions[action]
        if tg.golog.holds(bat, state, decl.poss) and tg.golog.holds(bat, state, decl.guard):
            yield action, rest


def is_execution(tg, bat, program, trace) -> bool:
    """Whether the timed trace is a completed execution of the program."""
    frontier = {(bat.initial, program)}
    now = Fraction(0)
    for action, t in trace:
        if t < now:
            return False
        frontier = {
            (tg.golog.progress(bat, state.advanced(t - now), action), rest)
            for state, prog in frontier
            for act, rest in _enabled(tg, bat, state.advanced(t - now), prog)
            if act == action
        }
        now = t
    return any(tg.golog.is_final(bat, state, prog) for state, prog in frontier)


def find_violation(tg, bat, program, spec, k,
                   max_actions=ORACLE_ACTIONS, max_nodes=ORACLE_NODES):
    """Bounded brute force: a completed trace of at most `max_actions`
    actions, at region-representative times, that satisfies `spec`.

    Prefixes are expanded shortest first, at most `max_nodes` of them.
    Delays range over the region increments of the program clocks plus one
    age clock per past action, which separates every interval distinction a
    formula with constants up to k can make."""
    golog = tg.golog

    def violates(trace):
        return tg.mtl.satisfies(tg.synthesis.trace_to_word(bat, trace), 0, spec)

    if golog.is_final(bat, bat.initial, program) and violates(()):
        return ()
    queue = deque([(bat.initial, (Fraction(0),), program, Fraction(0), ())])
    expanded = 0
    while queue and expanded < max_nodes:
        state, ages, prog, now, trace = queue.popleft()
        expanded += 1
        pooled = frozenset(state.clocks) | frozenset(
            (f"age{i}", a) for i, a in enumerate(ages)
        )
        for delay, _ in tg.temporal.time_successors(pooled, k):
            advanced = state.advanced(delay)
            for action, rest in _enabled(tg, bat, advanced, prog):
                nstate = golog.progress(bat, advanced, action)
                ntrace = trace + ((action, now + delay),)
                if golog.is_final(bat, nstate, rest) and violates(ntrace):
                    return ntrace
                if len(ntrace) < max_actions:
                    queue.append((nstate, tuple(a + delay for a in ages) + (Fraction(0),),
                                  rest, now + delay, ntrace))
    return None


def check(tg, prepared: Prepared, outcome: Outcome) -> tuple:
    """(status, reason): OK for a correct self-checked verdict, FAIL for no
    verdict (exception, budget, failed self-check), WRONG for a verdict the
    oracle contradicts."""
    inst, loaded = prepared.instance, prepared.loaded
    if outcome.error is not None:
        return FAIL, outcome.error
    verdict = (outcome.payload or {}).get("verdict")
    if inst["kind"] == "verify":
        bat, program, spec = loaded["bat"], loaded["program"], loaded["spec"]
        if verdict == "unsafe":
            trace = _trace_of(outcome.payload["counterexample"])
            if not is_execution(tg, bat, program, trace):
                return WRONG, "counterexample is not an execution of the program"
            if not tg.mtl.satisfies(tg.synthesis.trace_to_word(bat, trace), 0, spec):
                return WRONG, "counterexample does not satisfy the specification"
            return OK, "unsafe, counterexample confirmed"
        if verdict == "safe":
            found = find_violation(tg, bat, program, spec, inst["k"])
            if found is not None:
                return WRONG, f"safe, but brute force found {found}"
            return OK, "safe, no bounded violation"
        return FAIL, f"no verdict (exit {outcome.exit_code})"
    if inst["kind"] == "synth":
        if verdict == "controller":
            sim = outcome.payload["simulation"]
            if sim["violations"] or sim["condition_failures"]:
                return WRONG, "controller reported despite failed simulation"
            return OK, f"controller, {sim['completed']}/{sim['trials']} plays completed"
        if verdict == "controller-unsound":
            sim = outcome.payload["simulation"]
            return FAIL, (f"controller failed simulation: {sim['violations']} violations, "
                          f"{sim['condition_failures']} condition failures")
        if verdict == "no-controller":
            return WRONG, "no controller, but the scenario has one"
        return FAIL, f"no verdict (exit {outcome.exit_code})"
    plan, platform, constraints = loaded["plan"], loaded["platform"], loaded["constraints"]
    if verdict == "trace":
        trace = _trace_of(outcome.payload["trace"])
        if inst["unrealizable"]:
            return WRONG, "trace for a plan unrealizable by construction"
        try:
            valid = tg.plantrans.validate_transformed(trace, plan, platform, constraints)
        except RecursionError:
            return FAIL, "RecursionError in validate_transformed"
        if not valid:
            return WRONG, "trace fails validate_transformed"
        return OK, "trace validated"
    if verdict == "unrealizable":
        if not inst["unrealizable"]:
            return WRONG, "unrealizable, but the plan is realizable by construction"
        return OK, "unrealizable, as planted"
    return FAIL, f"no verdict (exit {outcome.exit_code})"
