"""Text and JSON front ends: s-expression formulas, theories, programs,
timed automata, and plan constraints."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from . import golog, mtl
from .golog import (
    ActionDecl,
    App,
    Bat,
    Const,
    Formula,
    FunFluent,
    InputError,
    SAnd,
    SAtom,
    SClock,
    SEq,
    SFALSE,
    SNot,
    SOr,
    SQuant,
    SsaFun,
    SsaRel,
    STRUE,
    Var,
    make_state,
    render,
)
from .mtl import MtlFormula
from .sexpr import ParseError, parse
from .temporal import RELATIONS, ClockConstraint, Interval, as_fraction, exact, format_fraction
from .timed_automata import Switch, TimedAutomaton, make_ta


def _is_number(tok) -> bool:
    if not isinstance(tok, str):
        return False
    try:
        Fraction(tok)
        return True
    except (ValueError, ZeroDivisionError):
        return False


# --- terms and static formulas ------------------------------------------------


def _parse_term(expr, bat: Optional[Bat], scope: set):
    if isinstance(expr, str):
        if expr in scope:
            return Var(expr)
        if bat is not None and expr in bat.fun_fluents:
            return App(expr, ())
        return Const(expr)
    if isinstance(expr, list):
        if not expr or not isinstance(expr[0], str):
            raise InputError(f"malformed term {expr!r}")
        return App(expr[0], tuple(_parse_term(e, bat, scope) for e in expr[1:]))
    raise InputError(f"malformed term {expr!r}")


def _infer_sort(bat: Bat, var: str, body) -> Optional[str]:
    """Find the variable used as a declared fluent argument and take that
    argument's sort; used for un-annotated quantifiers."""
    if not isinstance(body, list) or not body:
        return None
    head = body[0]
    arg_sorts = None
    if isinstance(head, str):
        if head in bat.rel_fluents:
            arg_sorts = bat.rel_fluents[head]
        elif head in bat.fun_fluents:
            arg_sorts = bat.fun_fluents[head].arg_sorts
    if arg_sorts is not None:
        for pos, arg in enumerate(body[1:]):
            if arg == var and pos < len(arg_sorts):
                return arg_sorts[pos]
    for sub in body[1:]:
        found = _infer_sort(bat, var, sub)
        if found:
            return found
    return None


def parse_static(text_or_expr, bat: Optional[Bat], _scope: Optional[set] = None) -> Formula:
    """Static situation formula from an s-expression, sort-checked against
    the theory when one is given."""
    expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    scope = set(_scope or ())
    scope.add(golog.ACTION_VAR)

    def walk(e, scope):
        if isinstance(e, str):
            if e == "true":
                return STRUE
            if e == "false":
                return SFALSE
            if bat is not None and e in bat.rel_fluents:
                if bat.rel_fluents[e]:
                    raise InputError(f"fluent {e!r} needs arguments")
                return SAtom(e, ())
            if bat is None:
                return SAtom(e, ())
            raise InputError(f"unknown proposition {e!r}")
        if not isinstance(e, list) or not e:
            raise InputError(f"malformed formula {e!r}")
        head = e[0]
        if head == "and":
            return SAnd(tuple(walk(x, scope) for x in e[1:]))
        if head == "or":
            return SOr(tuple(walk(x, scope) for x in e[1:]))
        if head == "not":
            if len(e) != 2:
                raise InputError("not takes one argument")
            return SNot(walk(e[1], scope))
        if head in ("forall", "exists"):
            if len(e) != 3:
                raise InputError(f"{head} takes a variable and a body")
            binder = e[1]
            if isinstance(binder, list):
                if len(binder) != 2:
                    raise InputError(f"malformed binder {binder!r}")
                var, sort = binder
            else:
                var = binder
                if bat is None:
                    raise InputError("sort annotations are required without a theory")
                sort = _infer_sort(bat, var, e[2])
                if sort is None:
                    raise InputError(
                        f"cannot infer the sort of {var!r}; annotate it as ({var} Sort)"
                    )
            if bat is not None:
                bat.sort_members(sort)
            return SQuant(head, var, sort, walk(e[2], scope | {var}))
        if head in RELATIONS:
            if len(e) != 3:
                raise InputError(f"{head} takes two arguments")
            lhs, rhs = e[1], e[2]
            if _is_number(rhs):
                term = _parse_term(lhs, bat, scope)
                return SClock(term, head, as_fraction(rhs))
            if head == "=":
                return SEq(_parse_term(lhs, bat, scope), _parse_term(rhs, bat, scope))
            raise InputError(f"{head} compares a clock against a number")
        if isinstance(head, str) and bat is not None and head in bat.rel_fluents:
            args = tuple(_parse_term(x, bat, scope) for x in e[1:])
            if len(args) != len(bat.rel_fluents[head]):
                raise InputError(f"fluent {head!r} expects {len(bat.rel_fluents[head])} arguments")
            return SAtom(head, args)
        if isinstance(head, str) and bat is not None and head in bat.fun_fluents:
            raise InputError(f"functional fluent {head!r} must appear in an equality")
        if isinstance(head, str) and bat is None:
            return SAtom(head, tuple(_parse_term(x, None, scope) for x in e[1:]))
        raise InputError(f"unknown formula head {head!r}")

    return walk(expr, scope)


# --- MTL formulas -----------------------------------------------------------------


def parse_mtl(text_or_expr, atom_check: Optional[Callable[[str], None]] = None) -> MtlFormula:
    """Trace formula from an s-expression; `atom_check` may reject atoms
    (e.g. names that are not fluents of the loaded theory)."""
    expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr

    def atom(name: str) -> MtlFormula:
        if atom_check is not None:
            atom_check(name)
        return mtl.Atom(name)

    def interval_of(e, default=mtl.UNBOUNDED):
        return e if isinstance(e, Interval) else default

    def walk(e) -> MtlFormula:
        if isinstance(e, str):
            if e == "true":
                return mtl.TRUE
            if e == "false":
                return mtl.FALSE
            return atom(e)
        if isinstance(e, Interval):
            raise InputError("interval in formula position")
        if not isinstance(e, list) or not e:
            raise InputError(f"malformed formula {e!r}")
        head = e[0]
        if head == "atom":
            if len(e) != 2 or not isinstance(e[1], str):
                raise InputError("atom takes one name")
            return atom(e[1])
        if head == "and":
            return mtl.And(tuple(walk(x) for x in e[1:]))
        if head == "or":
            return mtl.Or(tuple(walk(x) for x in e[1:]))
        if head == "not":
            if len(e) != 2:
                raise InputError("not takes one argument")
            return mtl.Not(walk(e[1]))
        if head in ("until", "dualUntil", "dual-until", "release"):
            args = e[1:]
            if len(args) not in (2, 3):
                raise InputError(f"{head} takes two formulas and an optional interval")
            iv = interval_of(args[2]) if len(args) == 3 else mtl.UNBOUNDED
            cls = mtl.Until if head == "until" else mtl.DualUntil
            return cls(walk(args[0]), walk(args[1]), iv)
        if head in ("finally", "globally", "next"):
            args = e[1:]
            if len(args) not in (1, 2):
                raise InputError(f"{head} takes one formula and an optional interval")
            iv = interval_of(args[1]) if len(args) == 2 else mtl.UNBOUNDED
            ctor = {"finally": mtl.finally_, "globally": mtl.globally, "next": mtl.next_}[head]
            return ctor(walk(args[0]), iv)
        if isinstance(head, str) and all(isinstance(x, str) for x in e[1:]):
            # ground atom with arguments, e.g. (holding o1)
            return atom(render(head, e[1:]))
        raise InputError(f"unknown formula head {head!r}")

    return walk(expr)


def ground_atom_checker(bat: Bat) -> Callable[[str], None]:
    """Atom names must be ground relational atoms of the theory."""
    valid = {render(name, args) for name, args in bat.ground_rel_atoms()}

    def check(name: str):
        if name not in valid:
            raise InputError(f"atom {name!r} is not a ground relational atom of the theory")

    return check


# --- clock constraints (for automata guards) -----------------------------------------


def parse_guard_atoms(text_or_expr) -> tuple:
    """Guard atoms (clock, rel, constant), a constant an int when integral
    and a Fraction otherwise; conjunction-only grammar."""
    expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    atoms = []

    def walk(e):
        if e == "true" or e == []:
            return
        if not isinstance(e, list) or not e:
            raise InputError(f"malformed clock constraint {e!r}")
        if e[0] == "and":
            for x in e[1:]:
                walk(x)
            return
        if e[0] in RELATIONS and len(e) == 3 and isinstance(e[1], str) and _is_number(e[2]):
            atoms.append((e[1], e[0], exact(Fraction(e[2]))))
            return
        raise InputError(f"malformed clock constraint {e!r}")

    walk(expr)
    return tuple(atoms)


# --- theories ---------------------------------------------------------------------


def _canonical_name(text: str) -> str:
    """Accept action/atom names in s-expression or functional rendering
    (such as start(drive(m1,m2)), kept as it is)."""
    text = text.strip()
    return _render_expr(parse(text)) if text.startswith("(") else text


def _render_expr(expr) -> str:
    if isinstance(expr, str):
        return expr
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise InputError(f"malformed name {expr!r}")
    return render(expr[0], [_render_expr(e) for e in expr[1:]])


def _check_bat_json(obj) -> None:
    """Raise InputError unless obj has the shape of a theory JSON."""

    def names(value) -> bool:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    def entries(value, required, optional, lists) -> bool:
        """A list of objects with string fields `required`, and `optional`,
        when present, and name lists `lists`, when present."""
        return isinstance(value, list) and all(
            isinstance(e, dict)
            and all(isinstance(e.get(key), str) for key in required)
            and all(isinstance(e.get(key, ""), str) for key in optional)
            and all(names(e.get(key, [])) for key in lists)
            for e in value
        )

    init = obj.get("initial", {}) if isinstance(obj, dict) else None
    ok = (
        isinstance(init, dict)
        and isinstance(obj.get("sorts", {}), dict)
        and all(names(m) for m in obj.get("sorts", {}).values())
        and names(obj.get("clocks", []))
        and entries(obj.get("fluents", []), ("name",), ("kind", "range"), ("args",))
        and entries(obj.get("actions", []), ("name",), ("poss", "guard"), ("resets",))
        and entries(obj.get("ssa", []), ("fluent", "rhs"), ("value",), ("args",))
        and names(init.get("true", []))
        and isinstance(init.get("funcs", {}), dict)
        and all(isinstance(v, str) for v in init.get("funcs", {}).values())
    )
    if not ok:
        raise InputError(
            "theory JSON must map sorts to lists of names, list clocks by name, list "
            "fluents, actions and ssa entries as objects with string names and "
            "formulas and lists of names, and give the initial true atoms and values"
        )


def load_bat(obj: dict) -> Bat:
    """Theory from its JSON form; formulas are s-expression strings."""
    _check_bat_json(obj)
    sorts = {name: tuple(members) for name, members in obj.get("sorts", {}).items()}
    clocks = tuple(obj.get("clocks", ()))
    rel_fluents, fun_fluents = {}, {}
    for fl in obj.get("fluents", ()):
        name = fl["name"]
        if fl.get("kind", "relational") == "functional":
            if "range" not in fl:
                raise InputError(f"functional fluent {name!r} needs a range")
            fun_fluents[name] = FunFluent(
                tuple(fl.get("args", ())), fl["range"], bool(fl.get("none", False))
            )
        else:
            rel_fluents[name] = tuple(fl.get("args", ()))

    shell = Bat(
        sorts=sorts,
        clocks=clocks,
        rel_fluents=rel_fluents,
        fun_fluents=fun_fluents,
        actions={_canonical_name(a["name"]): ActionDecl() for a in obj.get("actions", ())},
        ssa_rel={name: SsaRel((), STRUE) for name in rel_fluents},
        ssa_fun={name: SsaFun((), "y", STRUE) for name in fun_fluents},
        initial=None,
    )

    actions = {}
    for a in obj.get("actions", ()):
        name = _canonical_name(a["name"])
        actions[name] = ActionDecl(
            poss=parse_static(a.get("poss", "true"), shell),
            guard=parse_static(a.get("guard", "true"), shell),
            resets=frozenset(a.get("resets", ())),
        )

    ssa_rel, ssa_fun = {}, {}
    for entry in obj.get("ssa", ()):
        name = entry["fluent"]
        params = tuple(entry.get("args", ()))
        if name in rel_fluents:
            rhs = parse_static(entry["rhs"], shell, set(params))
            ssa_rel[name] = SsaRel(params, rhs)
        elif name in fun_fluents:
            value_var = entry.get("value", "y")
            rhs = parse_static(entry["rhs"], shell, set(params) | {value_var})
            ssa_fun[name] = SsaFun(params, value_var, rhs)
        else:
            raise InputError(f"successor state axiom for undeclared fluent {name!r}")

    init = obj.get("initial", {})
    fluents = {_canonical_name(atom) for atom in init.get("true", ())}
    funcs = {_canonical_name(atom): value for atom, value in init.get("funcs", {}).items()}
    initial = make_state(fluents, funcs, {c: 0 for c in clocks})

    return Bat(
        sorts=sorts,
        clocks=clocks,
        rel_fluents=rel_fluents,
        fun_fluents=fun_fluents,
        actions=actions,
        ssa_rel=ssa_rel,
        ssa_fun=ssa_fun,
        initial=initial,
    )


# --- programs ---------------------------------------------------------------------


def load_program(obj, bat: Bat) -> golog.Program:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise InputError(f"malformed program JSON: {obj!r}")
    (kind, body), = obj.items()
    if kind in ("seq", "branch", "par") and not (isinstance(body, list) and body):
        raise InputError(f'"{kind}" takes a non-empty list of programs')
    if kind == "act":
        if not isinstance(body, str):
            raise InputError(f"malformed action name {body!r} in program")
        name = _canonical_name(body)
        if name not in bat.actions:
            raise InputError(f"undeclared action {name!r} in program")
        return golog.PAct(name)
    if kind == "test":
        return golog.PTest(parse_static(body, bat))
    if kind == "seq":
        return golog.seq(*[load_program(p, bat) for p in body])
    if kind == "branch":
        return golog.branch(*[load_program(p, bat) for p in body])
    if kind == "par":
        parts = [load_program(p, bat) for p in body]
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = golog.PPar(p, out)
        return out
    if kind == "star":
        return golog.PStar(load_program(body, bat))
    raise InputError(f"unknown program kind {kind!r}")


def program_to_json(p: golog.Program) -> dict:
    if isinstance(p, golog.PAct):
        return {"act": p.action}
    if isinstance(p, golog.PTest):
        return {"test": static_to_sexpr(p.formula)}
    if isinstance(p, golog.PSeq):
        return {"seq": [program_to_json(p.first), program_to_json(p.second)]}
    if isinstance(p, golog.PBranch):
        return {"branch": [program_to_json(p.left), program_to_json(p.right)]}
    if isinstance(p, golog.PPar):
        return {"par": [program_to_json(p.left), program_to_json(p.right)]}
    if isinstance(p, golog.PStar):
        return {"star": program_to_json(p.body)}
    raise InputError(f"not a program: {p!r}")


def term_to_sexpr(t) -> str:
    if isinstance(t, (Var, Const)):
        return str(t)
    if isinstance(t, App):
        if not t.args:
            return t.fn
        return "(" + t.fn + " " + " ".join(term_to_sexpr(a) for a in t.args) + ")"
    raise InputError(f"not a term: {t!r}")


def static_to_sexpr(f: Formula) -> str:
    if isinstance(f, SAnd):
        return "true" if not f.args else "(and " + " ".join(static_to_sexpr(a) for a in f.args) + ")"
    if isinstance(f, SOr):
        return "false" if not f.args else "(or " + " ".join(static_to_sexpr(a) for a in f.args) + ")"
    if isinstance(f, SNot):
        return f"(not {static_to_sexpr(f.arg)})"
    if isinstance(f, SQuant):
        return f"({f.kind} ({f.var} {f.sort}) {static_to_sexpr(f.body)})"
    if isinstance(f, SAtom):
        if not f.args:
            return f.fluent
        return "(" + f.fluent + " " + " ".join(term_to_sexpr(a) for a in f.args) + ")"
    if isinstance(f, SEq):
        return f"(= {term_to_sexpr(f.lhs)} {term_to_sexpr(f.rhs)})"
    if isinstance(f, SClock):
        return f"({f.rel} {term_to_sexpr(f.clock)} {format_fraction(f.const)})"
    raise InputError(f"not a static formula: {f!r}")


# --- timed automata ----------------------------------------------------------------


def _check_ta_json(obj) -> None:
    """Raise InputError unless obj has the shape `ta_to_json` writes."""

    def names(value) -> bool:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)

    ok = (
        isinstance(obj, dict)
        and names(obj.get("locations"))
        and isinstance(obj.get("initial"), str)
        and names(obj.get("finals", []))
        and names(obj.get("clocks", []))
        and isinstance(obj.get("invariants", {}), dict)
        and all(isinstance(v, str) for v in obj.get("invariants", {}).values())
        and isinstance(obj.get("switches", []), list)
        and all(
            isinstance(sw, dict)
            and all(isinstance(sw.get(key), str) for key in ("src", "label", "dst"))
            and isinstance(sw.get("guard", "true"), str)
            and names(sw.get("resets", []))
            for sw in obj.get("switches", [])
        )
    )
    if not ok:
        raise InputError(
            "timed automaton JSON must name its locations, initial location, finals "
            "and clocks by strings, map locations to guard strings as invariants, and "
            "list switches with string src, label, dst and guard and a list of resets"
        )


def load_ta(obj: dict) -> TimedAutomaton:
    """Timed automaton from the JSON form `ta_to_json` writes; its constants
    stay in the units of the input."""
    _check_ta_json(obj)
    named = {sw[end] for sw in obj.get("switches", ()) for end in ("src", "dst")}
    undeclared = (named | set(obj.get("finals", ())) | set(obj.get("invariants", {}))
                  ) - set(obj["locations"])
    if undeclared:
        raise InputError("switches, finals and invariants of the timed automaton name "
                         f"undeclared locations: {sorted(undeclared)}")
    invariants = {
        loc: ClockConstraint(parse_guard_atoms(text))
        for loc, text in obj.get("invariants", {}).items()
    }
    switches = tuple(
        Switch(
            sw["src"],
            sw["label"],
            ClockConstraint(parse_guard_atoms(sw.get("guard", "true"))),
            frozenset(sw.get("resets", ())),
            sw["dst"],
        )
        for sw in obj.get("switches", ())
    )
    return make_ta(
        tuple(obj["locations"]),
        obj["initial"],
        obj.get("finals", ()),
        tuple(obj.get("clocks", ())),
        {l: g for l, g in invariants.items() if g.atoms},
        switches,
    )
