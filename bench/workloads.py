"""Seeded instance generators for the benchmark workloads.

The instance contents are fixed by CORPUS_SEED, part of the workload
definition: the cost of these instances depends so strongly on their random
contents (window placement, simulation choices, program shapes) that freshly
drawn sets of this size differ in total cost by 15 to 77 percent (quartile
distance over median), which would swamp any change worth measuring.  The run seed fixes the order in
which the instances are decided.  The program under test only ever sees the
files written from these plain JSON-ready dictionaries.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CORPUS_SEED = 0

# --- theories -------------------------------------------------------------------


def camera_theory() -> dict:
    """The paper's camera robot (drive, grasp, bootCamera, stopCamera)."""
    return json.loads((DATA / "camera_bat.json").read_text())


def toggle_theory(n_atoms: int, guards: dict) -> dict:
    """Atoms p0..p{n-1}; set_pi makes pi true and resets clock ci, clear_pi
    makes it false under the optional clock guard `guards[i]`."""
    atoms = [f"p{i}" for i in range(n_atoms)]
    actions = []
    ssa = []
    for i, atom in enumerate(atoms):
        actions.append({"name": f"set_{atom}", "resets": [f"c{i}"]})
        clear = {"name": f"clear_{atom}"}
        if i in guards:
            clear["guard"] = guards[i]
        actions.append(clear)
        ssa.append({
            "fluent": atom,
            "rhs": f"(or (= a set_{atom}) (and {atom} (not (= a clear_{atom}))))",
        })
    return {
        "sorts": {},
        "clocks": [f"c{i}" for i in range(n_atoms)],
        "fluents": [{"name": a, "args": []} for a in atoms],
        "actions": actions,
        "ssa": ssa,
        "initial": {"true": []},
    }


THEORIES = {
    "camera": camera_theory,
    "toggle1": lambda: toggle_theory(1, {0: "(>= c0 1)"}),
    "toggle2": lambda: toggle_theory(2, {0: "(<= c0 2)", 1: "(>= c1 1)"}),
}

THEORY_CONSTANT = {"camera": 2, "toggle1": 1, "toggle2": 2}

CAMERA_TASKS = (
    "drive(m1,m2)", "drive(m2,m1)", "grasp(m2,o1)", "grasp(m1,o1)",
    "bootCamera", "stopCamera",
)
CAMERA_ATOMS = ("camOn", "grasping", "(holding o1)", "(objAt o1 m2)", "(performing bootCamera)")


def theory_atoms(theory: str) -> tuple:
    if theory == "camera":
        return CAMERA_ATOMS
    n = {"toggle1": 1, "toggle2": 2}[theory]
    return tuple(f"p{i}" for i in range(n))


def theory_leaves(theory: str) -> list:
    """Program building blocks: durative start;end pairs for the camera,
    single toggle actions otherwise."""
    if theory == "camera":
        return [
            {"seq": [{"act": f"start({t})"}, {"act": f"end({t})"}]}
            for t in CAMERA_TASKS
        ]
    return [
        {"act": f"{op}_{atom}"}
        for atom in theory_atoms(theory)
        for op in ("set", "clear")
    ]


# --- verify-corpus --------------------------------------------------------------

VERIFY_INSTANCES = 120
VERIFY_BUDGET = 200
SPEC_MAX_CONSTANT = 3


def _interval(rng: random.Random) -> tuple:
    lo = rng.randint(0, 2)
    hi = rng.choice([None, lo, min(lo + 1, SPEC_MAX_CONSTANT), SPEC_MAX_CONSTANT])
    text = f"[{lo},inf)" if hi is None else f"[{lo},{hi}]"
    return text, max(lo, hi or 0)


def random_spec(rng: random.Random, atoms: tuple) -> tuple:
    """A specification of undesired behavior from a small grammar; returns
    (s-expression, largest constant)."""
    a, b = rng.choice(atoms), rng.choice(atoms)
    iv, k = _interval(rng)
    template = rng.randrange(7)
    text = [
        f"(finally {a} {iv})",
        f"(finally (and {a} (finally {b} {iv})))",
        f"(until (not {a}) {b} {iv})",
        f"(finally (and (not {a}) {b}))",
        f"(globally (or {a} (not {b})) {iv})",
        f"(not (finally {a} {iv}))",
        f"(finally (and (not {a}) (finally {b} {iv})))",
    ][template]
    if template == 3:
        k = 0
    return text, k


def random_program(rng: random.Random, leaves: list, size: int, loop: bool) -> dict:
    """Random par/seq/branch composition of `size` leaves; with `loop`, one
    leaf is put under a star."""
    parts = [rng.choice(leaves) for _ in range(size)]
    if loop:
        i = rng.randrange(size)
        parts[i] = {"star": parts[i]}
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        op = rng.choice(("seq", "seq", "par", "branch"))
        parts[i:i + 2] = [{op: [parts[i], parts[i + 1]]}]
    return parts[0]


def verify_corpus() -> list:
    """Slot i fixes the theory (camera, toggle1, toggle2 in turn), the
    program size and whether the program loops; CORPUS_SEED draws the rest."""
    rng = random.Random(f"verify-corpus/{CORPUS_SEED}")
    theories = ("camera", "toggle1", "toggle2")
    out = []
    for i in range(VERIFY_INSTANCES):
        theory = theories[i % 3]
        size = 2 + (i // 3) % 2 if theory == "camera" else 2 + (i // 3) % 3
        loop = (i // 3) % 4 == 3
        program = random_program(rng, theory_leaves(theory), size, loop)
        spec, spec_k = random_spec(rng, theory_atoms(theory))
        out.append({
            "id": f"verify-{i:03d}",
            "kind": "verify",
            "theory": theory,
            "program": program,
            "spec": spec,
            "budget": VERIFY_BUDGET,
            "k": max(1, spec_k, THEORY_CONSTANT[theory]),
            "loop": loop,
        })
    return out


# --- synth-camera ---------------------------------------------------------------

CAMERA_PROGRAM = {"par": [
    {"seq": [
        {"act": "start(drive(m1,m2))"}, {"act": "end(drive(m1,m2))"},
        {"act": "start(grasp(m2,o1))"}, {"act": "end(grasp(m2,o1))"},
    ]},
    {"seq": [{"act": "start(bootCamera)"}, {"act": "end(bootCamera)"}]},
]}

LOOPED_CAMERA_PROGRAM = {"par": [
    {"act": "start(grasp(m2,o1))"},
    {"star": {"seq": [
        {"act": "start(bootCamera)"}, {"act": "end(bootCamera)"},
        {"act": "start(stopCamera)"}, {"act": "end(stopCamera)"},
    ]}},
]}

SYNTH_TRIALS = 10


def camera_spec(k: int) -> str:
    """Grasping with the camera off, or within k of a camera-off observation."""
    return ("(or (finally (and (not camOn) grasping)) "
            f"(finally (and (not camOn) (finally grasping [0,{k}]))))")


def synth_camera() -> list:
    """The demo program with k = 1, 2, 3 and the looped variant with k = 1."""
    rng = random.Random(f"synth-camera/{CORPUS_SEED}")
    cases = [(f"k{k}", CAMERA_PROGRAM, k) for k in (1, 2, 3)]
    cases.append(("loop-k1", LOOPED_CAMERA_PROGRAM, 1))
    return [
        {
            "id": f"synth-{name}",
            "kind": "synth",
            "theory": "camera",
            "program": program,
            "spec": camera_spec(k),
            "controllable": "start(*",
            "trials": SYNTH_TRIALS,
            "sim_seed": rng.randrange(1 << 16),
        }
        for name, program, k in cases
    ]


# --- plan transformation ----------------------------------------------------------

PLATFORM = {
    "locations": ["idle", "warm", "ready", "used", "cool"],
    "initial": "idle",
    "finals": ["idle", "warm", "ready", "used", "cool"],
    "clocks": ["y"],
    "invariants": {},
    "switches": [
        {"src": "idle", "label": "warmup", "guard": "true", "resets": ["y"], "dst": "warm"},
        {"src": "warm", "label": "engage", "guard": "(>= y 1)", "resets": [], "dst": "ready"},
        {"src": "ready", "label": "use", "guard": "true", "resets": ["y"], "dst": "used"},
        {"src": "used", "label": "release", "guard": "true", "resets": [], "dst": "ready"},
        {"src": "ready", "label": "cooldown", "guard": "true", "resets": ["y"], "dst": "cool"},
        {"src": "cool", "label": "rest", "guard": "(>= y 1)", "resets": [], "dst": "idle"},
    ],
}


def _steps_plan(steps: int) -> dict:
    actions = []
    for i in range(1, steps + 1):
        actions += [f"start(step{i})", f"end(step{i})"]
    return {"actions": actions}


def _window(rng: random.Random) -> dict:
    lo = rng.randint(1, 2)
    return {"lo": lo, "hi": rng.randint(max(lo, 2), 3)}


def _chains(ready_step: int) -> list:
    """Step 1 starts with the platform idle and may leave idle only in its
    last two time units; step `ready_step` runs with the platform ready.
    Both hold in some schedule of any plan: idle through step 1, warm up at
    its end, engage a unit later, and stay ready."""
    return [
        {"stages": [{"beta": "idle", "interval": {"lo": 0, "hi": None}},
                    {"beta": "true", "interval": {"lo": 0, "hi": 2}}],
         "alpha1": "start:step1", "alpha2": "end:step1"},
        {"stages": [{"beta": "ready", "interval": {"lo": 0, "hi": None}}],
         "alpha1": f"start:step{ready_step}", "alpha2": f"end:step{ready_step}"},
    ]


def _plant_contradiction(rng: random.Random, steps: int, windows: dict) -> dict:
    """A window from start(step a) to end(step b) shorter than the sum of
    the minimum durations of steps a..b: unrealizable by construction,
    because plan actions occur in order at non-decreasing times."""
    candidates = [s for s in range(2, steps) if s in windows and s + 1 in windows]
    a = rng.choice(candidates)
    b = a + 1
    least = windows[a]["lo"] + windows[b]["lo"]
    return {"i": 2 * a - 1, "j": 2 * b, "interval": {"lo": 0, "hi": least - 1}}


def transform_instance(rng, name, steps, window_steps, ready_step, unrealizable) -> dict:
    windows = {s: _window(rng) for s in window_steps}
    rel = [{"i": 2 * s - 1, "j": 2 * s, "interval": iv} for s, iv in sorted(windows.items())]
    if unrealizable:
        rel.append(_plant_contradiction(rng, steps, windows))
    return {
        "id": name,
        "kind": "transform",
        "plan": _steps_plan(steps),
        "platform": PLATFORM,
        "constraints": {"rel": rel, "chain": _chains(ready_step)},
        "unrealizable": unrealizable,
    }


DENSE_SHAPES = ((9, False), (10, False), (11, False), (11, True))


def transform_dense() -> list:
    """Every step has its own duration window, so the DBMs carry one clock
    per step plus the two chain clocks and the platform clock."""
    rng = random.Random(f"transform-dense/{CORPUS_SEED}")
    out = []
    for n, (steps, unrealizable) in enumerate(DENSE_SHAPES):
        ready_step = rng.randint(3, steps)
        out.append(transform_instance(
            rng, f"dense-{n}-{steps}steps", steps, range(1, steps + 1),
            ready_step, unrealizable,
        ))
    return out


LONG_ACTIONS = (500, 1000)


def transform_long() -> list:
    """Long plans with two duration windows (near the start and near the end)
    and the platform ready through the middle step: few clocks, thousands of
    product locations.  The placement is fixed because it moves the cost
    threefold (an early ready step is the expensive end)."""
    rng = random.Random(f"transform-long/{CORPUS_SEED}")
    out = []
    for n, actions in enumerate(LONG_ACTIONS):
        steps = actions // 2
        window_steps = (steps // 50, steps - steps // 50)
        out.append(transform_instance(
            rng, f"long-{n}-{actions}actions", steps, window_steps, steps // 2, False,
        ))
    return out


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "synth-camera": synth_camera,
    "transform-dense": transform_dense,
    "transform-long": transform_long,
}


def generate(workload: str, seed: int) -> list:
    """The workload's instances, in the order the run seed gives them."""
    instances = WORKLOADS[workload]()
    random.Random(f"order/{workload}/{seed}").shuffle(instances)
    return instances
