"""Fuzzing the `transform`, `verify`, `synth` and `mtl-check` commands with
random input files, well-formed and malformed: plans, constraints and
platforms, theories, programs and specs, or specs and timed words.  Whatever
it reads, a command ends with a verdict (exit 0 or 1) or a one-line error
(exit 2), never a traceback."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from timegolog import mtl
from timegolog.cli import main

ACTIONS = ("start(a)", "end(a)", "start(b)", "end(b)", "go")
LOCATIONS = ("p0", "p1", "p2")
CLOCKS = ("x", "y")
RELATIONS = ("<", "<=", "=", ">=", ">")

constants = st.sampled_from(["0", "1", "2", "3", "1/2", "5/2"])
atoms = st.builds(lambda rel, clock, c: f"({rel} {clock} {c})",
                  st.sampled_from(RELATIONS), st.sampled_from(CLOCKS), constants)
guards = st.one_of(
    st.just("true"), atoms,
    st.lists(atoms, min_size=2, max_size=3).map(lambda a: "(and " + " ".join(a) + ")"),
)
rarely = st.sampled_from([False] * 4 + [True])


@st.composite
def platforms(draw):
    locations = draw(st.lists(st.sampled_from(LOCATIONS), min_size=1, max_size=3, unique=True))
    location = st.sampled_from(locations)
    # now and then a platform's switch ends, finals and invariants may also
    # name undeclared locations
    named = st.sampled_from(LOCATIONS) if draw(rarely) else location
    switches = draw(st.lists(st.fixed_dictionaries({
        "src": named,
        "label": st.sampled_from(("on", "off")),
        "guard": guards,
        "resets": st.lists(st.sampled_from(CLOCKS), max_size=2, unique=True),
        "dst": named,
    }), max_size=4))
    # ε is reserved for idle self-loops, which the transformation adds itself
    switches += [{"src": l, "label": "ε", "dst": l}
                 for l in draw(st.lists(location, max_size=2, unique=True))]
    return {
        "locations": locations,
        "initial": draw(location),
        "finals": draw(st.lists(named, max_size=2, unique=True)),
        "clocks": list(CLOCKS),
        "invariants": draw(st.dictionaries(named, guards, max_size=2)),
        "switches": switches,
    }


intervals = st.builds(
    lambda lo, width, lo_open, hi_open: {
        "lo": lo, "hi": None if width is None else lo + width,
        "loOpen": lo_open, "hiOpen": hi_open,
    },
    st.integers(0, 4), st.none() | st.integers(0, 4), st.booleans(), st.booleans(),
)
betas = st.sampled_from(LOCATIONS + ("true", "(not p0)", "(or p1 p2)"))


@st.composite
def problems(draw):
    """A plan, a platform and constraints whose positions lie in the plan."""
    # now and then the plan may also use ε, the label reserved for idle self-loops
    names = ACTIONS + ("ε",) if draw(rarely) else ACTIONS
    actions = draw(st.lists(st.sampled_from(names), max_size=4))
    positions = st.integers(1, max(len(actions), 1))
    pairs = st.tuples(positions, positions).filter(lambda ij: ij[0] < ij[1])
    constraints = draw(st.fixed_dictionaries({
        "abs": st.lists(st.fixed_dictionaries({"i": positions, "interval": intervals}),
                        max_size=2 if actions else 0),
        "rel": st.lists(st.builds(lambda ij, iv: {"i": ij[0], "j": ij[1], "interval": iv},
                                  pairs, intervals), max_size=2 if len(actions) > 1 else 0),
        "chain": st.lists(st.fixed_dictionaries({
            "stages": st.lists(st.fixed_dictionaries({"beta": betas, "interval": intervals}),
                               min_size=1, max_size=2),
            "alpha1": st.sampled_from(("start:a*", "start:*", "go")),
            "alpha2": st.sampled_from(("end:a*", "end:*", "go")),
        }), max_size=1),
    }))
    return {"plan": {"actions": actions}, "platform": draw(platforms()),
            "constraints": constraints}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.sampled_from(LOCATIONS + ACTIONS + ("(<= x 1)", "[")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(
        ("actions", "locations", "initial", "switches", "rel", "chain", "interval")),
        inner, max_size=3),
    max_leaves=6,
)


def mutate(draw, doc):
    """The document with one value somewhere replaced or removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        return doc


def broken(draw, docs: dict) -> dict:
    """Text of the input files: all well-formed, or one of them broken by a
    mutation, replaced by arbitrary JSON, or not JSON at all."""
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    name = draw(st.sampled_from((None,) + tuple(docs)))
    how = draw(st.sampled_from(("mutate", "json", "text")))
    if name is None:
        pass
    elif how == "mutate":
        texts[name] = json.dumps(mutate(draw, docs[name]))
    elif how == "json":
        texts[name] = json.dumps(draw(json_values))
    else:
        texts[name] = draw(st.text(max_size=12))
    return texts


@st.composite
def inputs(draw):
    return broken(draw, draw(problems()))


def run(argv: list, texts: dict):
    """Run the command on the texts as files; it must end in a verdict or a
    one-line error."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = list(argv)
        for name, text in texts.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(text)
            argv += [f"--{name}", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@settings(max_examples=300)
@given(inputs())
@example({"plan": '{"actions": ["go", "ε"]}', "constraints": "{}",
          "platform": '{"locations": ["p0"], "initial": "p0", "finals": ["p0"]}'})
@example({"plan": '{"actions": ["go"]}', "constraints": "{}",
          "platform": '{"locations": ["p0"], "initial": "p0", "finals": ["p0"], '
                      '"switches": [{"src": "p0", "label": "on", "dst": "q"}]}'})
def test_transform_ends_in_a_verdict_or_a_one_line_error(texts):
    run(["transform"], texts)


# --- verify and synth: a toggle theory, a program over its actions, a spec ---------

clock_formulas = guards.map(lambda g: g.replace("x", "c0").replace("y", "c1"))


@st.composite
def theories(draw):
    """Atoms p0..p{n-1}; set_pi makes pi true and resets ci, clear_pi makes
    it false under a random clock guard."""
    atoms = [f"p{i}" for i in range(draw(st.integers(1, 2)))]
    actions, ssa = [], []
    for atom in atoms:
        actions += [{"name": f"set_{atom}", "resets": [f"c{atom[1]}"]},
                    {"name": f"clear_{atom}", "guard": draw(clock_formulas)}]
        ssa.append({"fluent": atom,
                    "rhs": f"(or (= a set_{atom}) (and {atom} (not (= a clear_{atom}))))"})
    return {
        "sorts": {}, "clocks": ["c0", "c1"],
        "fluents": [{"name": a, "args": []} for a in atoms],
        "actions": actions, "ssa": ssa,
        "initial": {"true": draw(st.lists(st.sampled_from(atoms), unique=True))},
    }


def programs(actions: list):
    leaves = st.sampled_from(actions).map(lambda a: {"act": a}) | st.builds(
        lambda f: {"test": f}, clock_formulas | st.sampled_from(("p0", "(not p0)")))
    return st.recursive(leaves, lambda inner: (
        st.builds(lambda kind, parts: {kind: parts},
                  st.sampled_from(("seq", "branch", "par")), st.lists(inner, min_size=1, max_size=3))
        | inner.map(lambda p: {"star": p})
    ), max_leaves=4)


def specs(atoms: list):
    atom = st.sampled_from(atoms).map(mtl.Atom)
    interval = st.builds(lambda lo, width: mtl.Interval(lo, None if width is None else lo + width),
                         st.integers(0, 2), st.none() | st.integers(0, 2))
    return st.recursive(atom | atom.map(mtl.Not), lambda inner: (
        st.builds(mtl.finally_, inner, interval) | st.builds(mtl.globally, inner, interval)
        | st.builds(mtl.Until, inner, inner, interval)
        | st.builds(lambda a, b: mtl.And((a, b)), inner, inner)
    ), max_leaves=3)


@st.composite
def verify_inputs(draw):
    bat = draw(theories())
    atoms = [f["name"] for f in bat["fluents"]]
    docs = {
        "bat": bat,
        "program": draw(programs([a["name"] for a in bat["actions"]])),
        "spec": mtl.formula_to_json(draw(specs(atoms))),
    }
    return broken(draw, docs)


@settings(max_examples=150)
@given(verify_inputs())
def test_verify_ends_in_a_verdict_or_a_one_line_error(texts):
    run(["verify", "--budget", "150"], texts)


@settings(max_examples=100)
@given(verify_inputs())
def test_synth_ends_in_a_verdict_or_a_one_line_error(texts):
    run(["synth", "--budget", "150", "--controllable", "set_*", "--simulate", "2"], texts)


# --- mtl-check: a spec and a timed word ---------------------------------------------


@st.composite
def mtl_inputs(draw):
    entries = draw(st.lists(st.fixed_dictionaries({
        "t": st.integers(0, 3) | st.sampled_from(("0", "1/2", "3/2", "2")),
        "symbols": st.lists(st.sampled_from(("p0", "p1")), unique=True),
    }), min_size=1, max_size=4))
    entries.sort(key=lambda e: Fraction(e["t"]))
    return broken(draw, {"spec": mtl.formula_to_json(draw(specs(["p0", "p1"]))),
                         "word": entries})


@settings(max_examples=200)
@given(mtl_inputs())
def test_mtl_check_ends_in_a_verdict_or_a_one_line_error(texts):
    run(["mtl-check"], texts)
