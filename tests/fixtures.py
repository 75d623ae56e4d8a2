"""Shared test fixtures: the camera robot theory and platform automata."""

import json
from pathlib import Path

from timegolog import golog, mtl
from timegolog.golog import (
    ActionDecl,
    App,
    Bat,
    Const,
    FunFluent,
    PAct,
    PPar,
    SAnd,
    SAtom,
    SClock,
    SEq,
    SNot,
    SOr,
    SQuant,
    SsaFun,
    SsaRel,
    STRUE,
    Var,
    make_state,
    seq,
)
from timegolog.mtl import And, Atom, Interval, Not, TRUE, Until
from timegolog.temporal import ClockConstraint
from timegolog.timed_automata import Switch, make_ta

DATA = Path(__file__).parent / "data"

A = Var(golog.ACTION_VAR)


def start(base):
    return App("start", (base,))


def end(base):
    return App("end", (base,))


def drive(src, dst):
    return App("drive", (Const(src), Const(dst)))


def grasp(loc, obj):
    return App("grasp", (Const(loc), Const(obj)))


BOOT = Const("bootCamera")
STOP = Const("stopCamera")


def build_camera_bat() -> Bat:
    """Robot with drive/grasp/bootCamera/stopCamera durative actions.

    Durations: drive in [1,2], grasp exactly 2, boot exactly 1, stop
    instantaneous.  One clock per durative task, reset by its start action.
    """
    locations = ("m1", "m2")
    objects = ("o1",)
    tasks = []
    task_clock = {}
    for src in locations:
        for dst in locations:
            if src != dst:
                t = drive(src, dst)
                tasks.append(t)
                task_clock[str(t)] = f"c_drive_{dst}"
    for loc in locations:
        t = grasp(loc, "o1")
        tasks.append(t)
        task_clock[str(t)] = "c_grasp"
    tasks += [BOOT, STOP]
    task_clock[str(BOOT)] = "c_boot"
    task_clock[str(STOP)] = "c_stop"
    clocks = tuple(sorted(set(task_clock.values())))

    def duration_guard(task) -> golog.Formula:
        clock = Const(task_clock[str(task)])
        name = task.fn if isinstance(task, App) else str(task)
        if name == "drive":
            return SAnd((SClock(clock, ">=", 1), SClock(clock, "<=", 2)))
        if name == "grasp":
            return SClock(clock, "=", 2)
        if str(task) == "bootCamera":
            return SClock(clock, "=", 1)
        return SClock(clock, "=", 0)

    def poss_start(task) -> golog.Formula:
        name = task.fn if isinstance(task, App) else str(task)
        if name == "drive":
            return SEq(App("robotAt", ()), task.args[0])
        if name == "grasp":
            return SAnd((
                SEq(App("robotAt", ()), task.args[0]),
                SAtom("objAt", (task.args[1], task.args[0])),
            ))
        if str(task) == "bootCamera":
            return SNot(SAtom("camOn"))
        return SAtom("camOn")

    actions = {}
    for task in tasks:
        actions[str(start(task))] = ActionDecl(
            poss=poss_start(task),
            guard=STRUE,
            resets=frozenset({task_clock[str(task)]}),
        )
        actions[str(end(task))] = ActionDecl(
            poss=SAtom("performing", (task,)),
            guard=duration_guard(task),
            resets=frozenset(),
        )

    sorts = {
        "Location": locations,
        "Object": objects,
        "Task": tuple(str(t) for t in tasks),
    }

    def eq_any(var, maker, combos):
        return SOr(tuple(SEq(A, Const(str(maker(*c)))) for c in combos))

    drive_pairs = [(s, d) for s in locations for d in locations if s != d]
    ssa_rel = {
        # robot grasps from the start action until the matching end action
        "grasping": SsaRel((), SOr((
            eq_any(A, lambda l: start(grasp(l, "o1")), [(l,) for l in locations]),
            SAnd((
                SAtom("grasping"),
                SNot(eq_any(A, lambda l: end(grasp(l, "o1")), [(l,) for l in locations])),
            )),
        ))),
        "camOn": SsaRel((), SOr((
            SEq(A, Const(str(end(BOOT)))),
            SAnd((SAtom("camOn"), SNot(SEq(A, Const(str(start(STOP))))))),
        ))),
        "holding": SsaRel(("o",), SOr((
            SQuant("exists", "l", "Location",
                   SEq(A, App("end", (App("grasp", (Var("l"), Var("o"))),)))),
            SAtom("holding", (Var("o"),)),
        ))),
        "objAt": SsaRel(("o", "l"), SAnd((
            SAtom("objAt", (Var("o"), Var("l"))),
            SNot(SEq(A, App("start", (App("grasp", (Var("l"), Var("o"))),)))),
        ))),
        "performing": SsaRel(("t",), SOr((
            SEq(A, App("start", (Var("t"),))),
            SAnd((
                SAtom("performing", (Var("t"),)),
                SNot(SEq(A, App("end", (Var("t"),)))),
            )),
        ))),
    }

    # robotAt has no value while driving: starting a drive sets it to none,
    # ending one sets the destination, anything else keeps it
    exists_end_drive_to_y = SQuant(
        "exists", "l", "Location",
        SEq(A, App("end", (App("drive", (Var("l"), Var("y"))),))),
    )

    def any_drive(op):
        return SQuant(
            "exists", "l", "Location",
            SQuant("exists", "l2", "Location",
                   SEq(A, App(op, (App("drive", (Var("l"), Var("l2"))),)))),
        )

    ssa_fun = {
        "robotAt": SsaFun((), "y", SOr((
            exists_end_drive_to_y,
            SAnd((SEq(Var("y"), Const(golog.NONE_VALUE)), any_drive("start"))),
            SAnd((
                SEq(App("robotAt", ()), Var("y")),
                SNot(any_drive("start")),
                SNot(any_drive("end")),
            )),
        ))),
    }

    initial = make_state(
        fluents={"objAt(o1,m2)"},
        funcs={"robotAt": "m1"},
        clocks={c: 0 for c in clocks},
    )

    return Bat(
        sorts=sorts,
        clocks=clocks,
        rel_fluents={
            "grasping": (),
            "camOn": (),
            "holding": ("Object",),
            "objAt": ("Object", "Location"),
            "performing": ("Task",),
        },
        fun_fluents={"robotAt": FunFluent((), "Location", allow_none=True)},
        actions=actions,
        ssa_rel=ssa_rel,
        ssa_fun=ssa_fun,
        initial=initial,
    )


def camera_program() -> golog.Program:
    """drive to m2 then grasp, in parallel with booting the camera."""
    high = seq(
        PAct(str(start(drive("m1", "m2")))),
        PAct(str(end(drive("m1", "m2")))),
        PAct(str(start(grasp("m2", "o1")))),
        PAct(str(end(grasp("m2", "o1")))),
    )
    maintenance = seq(PAct(str(start(BOOT))), PAct(str(end(BOOT))))
    return PPar(high, maintenance)


def camera_spec(k: int = 2) -> mtl.MtlFormula:
    """Bad behavior: grasping with the camera off, or grasping within k time
    units of a camera-off observation."""
    cam, gr = Atom("camOn"), Atom("grasping")
    phi1 = Until(TRUE, And((Not(cam), gr)))
    phi2 = Until(TRUE, And((Not(cam), Until(TRUE, gr, Interval(0, k)))))
    return mtl.Or((phi1, phi2))


def camera_platform_ta():
    """Platform model: booting takes between 4 and 6 seconds; turning the
    camera off is instantaneous."""
    return make_ta(
        locations=("camOff", "booting", "camOn"),
        initial="camOff",
        finals=("camOff", "booting", "camOn"),
        clocks=("x_cam",),
        invariants={},
        switches=[
            Switch("camOff", "start(bootCamera)", ClockConstraint(), frozenset({"x_cam"}), "booting"),
            Switch("booting", "end(bootCamera)",
                   ClockConstraint((("x_cam", ">=", 4), ("x_cam", "<=", 6))), frozenset(), "camOn"),
            Switch("camOn", "turnOff(camera)", ClockConstraint(), frozenset(), "camOff"),
        ],
    )


def load_camera_bat_json() -> dict:
    return json.loads((DATA / "camera_bat.json").read_text())


def toggle_bat_json(guard: str = "(>= c0 1)") -> dict:
    """One atom p0: set_p0 makes it true and resets c0, clear_p0 makes it
    false under the clock guard."""
    return {
        "sorts": {},
        "clocks": ["c0"],
        "fluents": [{"name": "p0", "args": []}],
        "actions": [
            {"name": "set_p0", "resets": ["c0"]},
            {"name": "clear_p0", "guard": guard},
        ],
        "ssa": [{"fluent": "p0", "rhs": "(or (= a set_p0) (and p0 (not (= a clear_p0))))"}],
        "initial": {"true": []},
    }


def set_test_clear(test: str) -> dict:
    """set_p0, then the test, then clear_p0."""
    return {"seq": [{"act": "set_p0"}, {"test": test}, {"act": "clear_p0"}]}
