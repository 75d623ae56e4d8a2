"""Finite-domain timed basic action theories and the program interpreter.

A theory fixes finite sorts, fluents, ground actions with precondition /
clock-guard / reset clauses, successor state axioms, and a complete initial
state.  Quantifiers are substitutional over the declared sorts, so truth,
one-step progression, and regression are all directly computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .mtl import Hashed, hashed_dataclass
from .temporal import as_fraction, compare

ACTION_VAR = "a"  # reserved variable bound to the acting action in SSAs
NONE_VALUE = "none"  # reserved functional value for "no value"


class ModelError(Exception):
    """A successor state axiom produced no or several values."""


class InputError(Exception):
    """Malformed theory, program, or formula input."""


# --- terms ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class App:
    fn: str
    args: tuple

    def __str__(self):
        if not self.args:
            return self.fn
        return f"{self.fn}({','.join(map(str, self.args))})"


Term = object


def render(fn: str, args: Iterable[str]) -> str:
    args = list(args)
    return fn if not args else f"{fn}({','.join(args)})"


# --- formulas --------------------------------------------------------------------


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class SAtom(Formula):
    fluent: str
    args: tuple = ()

    def __str__(self):
        return render(self.fluent, [str(a) for a in self.args])


@dataclass(frozen=True)
class SEq(Formula):
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"({self.lhs} = {self.rhs})"


@dataclass(frozen=True)
class SClock(Formula):
    clock: Term
    rel: str
    const: Fraction

    def __str__(self):
        return f"({self.clock} {self.rel} {self.const})"


@dataclass(frozen=True)
class SAnd(Formula):
    args: tuple = ()

    def __str__(self):
        return "true" if not self.args else "(" + " & ".join(map(str, self.args)) + ")"


@dataclass(frozen=True)
class SOr(Formula):
    args: tuple = ()

    def __str__(self):
        return "false" if not self.args else "(" + " | ".join(map(str, self.args)) + ")"


@dataclass(frozen=True)
class SNot(Formula):
    arg: Formula

    def __str__(self):
        return f"!{self.arg}"


@dataclass(frozen=True)
class SQuant(Formula):
    kind: str  # "forall" | "exists"
    var: str
    sort: str
    body: Formula

    def __str__(self):
        return f"({self.kind} ({self.var} {self.sort}) {self.body})"


STRUE, SFALSE = SAnd(), SOr()


def s_and(args):
    args = tuple(args)
    return args[0] if len(args) == 1 else SAnd(args)


def s_or(args):
    args = tuple(args)
    return args[0] if len(args) == 1 else SOr(args)


# --- theory declarations -----------------------------------------------------------


@dataclass(frozen=True)
class FunFluent:
    arg_sorts: tuple
    value_sort: str
    allow_none: bool = False


@dataclass(frozen=True)
class ActionDecl:
    poss: Formula = STRUE
    guard: Formula = STRUE
    resets: frozenset = frozenset()


@dataclass(frozen=True)
class SsaRel:
    params: tuple
    rhs: Formula


@dataclass(frozen=True)
class SsaFun:
    params: tuple
    value_var: str
    rhs: Formula


@dataclass(frozen=True)
class WorldState:
    """Complete fluent assignment plus a clock valuation.

    `fluents` holds the true ground relational atoms (canonical strings),
    `funcs` maps every ground functional atom to its value, `clocks` maps
    every declared clock to an exact rational.
    """

    fluents: frozenset
    funcs: tuple  # sorted (atom, value) pairs
    clocks: tuple  # sorted (name, Fraction) pairs

    @property
    def fun_map(self) -> dict:
        return dict(self.funcs)

    @property
    def clock_map(self) -> dict:
        return dict(self.clocks)

    def fluent_key(self):
        return (self.fluents, self.funcs)

    def with_clocks(self, clocks: Mapping[str, Fraction]) -> "WorldState":
        return WorldState(self.fluents, self.funcs, tuple(sorted(clocks.items())))

    def advanced(self, d: Fraction) -> "WorldState":
        if d < 0:
            raise ValueError("time increments must be non-negative")
        return WorldState(
            self.fluents, self.funcs, tuple((c, v + d) for c, v in self.clocks)
        )


def make_state(fluents: Iterable[str], funcs: Mapping[str, str], clocks: Mapping[str, Fraction]) -> WorldState:
    return WorldState(
        frozenset(fluents),
        tuple(sorted(funcs.items())),
        tuple(sorted((c, as_fraction(v)) for c, v in clocks.items())),
    )


@dataclass
class Bat:
    """Basic action theory over finite sorts.

    The special sorts ``action`` and ``clock`` are always available and list
    the declared ground actions and clocks.  `progress` memoizes the fluents
    and functional values it computes per theory, so the axioms must not be
    edited once the theory has been progressed.
    """

    sorts: dict
    clocks: tuple
    rel_fluents: dict  # name -> arg sort tuple
    fun_fluents: dict  # name -> FunFluent
    actions: dict  # ground action name -> ActionDecl
    ssa_rel: dict  # fluent -> SsaRel
    ssa_fun: dict  # fluent -> SsaFun
    initial: WorldState = field(default=None)

    def __post_init__(self):
        self.sorts = dict(self.sorts)
        self.sorts.setdefault("action", tuple(self.actions))
        self.sorts.setdefault("clock", tuple(self.clocks))
        for name in self.rel_fluents:
            if name not in self.ssa_rel:
                raise InputError(f"relational fluent {name!r} has no successor state axiom")
        for name in self.fun_fluents:
            if name not in self.ssa_fun:
                raise InputError(f"functional fluent {name!r} has no successor state axiom")
        for action, decl in self.actions.items():
            unknown = decl.resets - set(self.clocks)
            if unknown:
                raise InputError(f"action {action!r} resets undeclared clocks {sorted(unknown)}")
            # time enters only through the clock-constraint clause
            if clock_atoms(decl.poss):
                raise InputError(
                    f"precondition of {action!r} mentions clocks; put timing "
                    "conditions into the action's guard clause"
                )
        for name, ssa in list(self.ssa_rel.items()) + list(self.ssa_fun.items()):
            if clock_atoms(ssa.rhs):
                raise InputError(
                    f"successor state axiom for {name!r} mentions clocks; "
                    "effects must be time-invariant"
                )
        if self.initial is not None:
            self.validate_initial(self.initial)
        self._progressed = {}  # (fluents, funcs, action) -> (fluents, funcs)

    def sort_members(self, sort: str) -> tuple:
        try:
            return self.sorts[sort]
        except KeyError:
            raise InputError(f"undeclared sort {sort!r}") from None

    def fun_range(self, name: str) -> tuple:
        decl = self.fun_fluents[name]
        members = tuple(self.sort_members(decl.value_sort))
        return members + ((NONE_VALUE,) if decl.allow_none else ())

    def ground_rel_atoms(self):
        from itertools import product

        for name, arg_sorts in sorted(self.rel_fluents.items()):
            domains = [self.sort_members(s) for s in arg_sorts]
            for args in product(*domains):
                yield name, args

    def ground_fun_atoms(self):
        from itertools import product

        for name, decl in sorted(self.fun_fluents.items()):
            domains = [self.sort_members(s) for s in decl.arg_sorts]
            for args in product(*domains):
                yield name, args

    def validate_initial(self, state: WorldState):
        """Completeness check: every ground functional atom has a value and
        every clock is present.  Incomplete theories are rejected; enumerate
        the candidate models externally and verify each one separately."""
        fun_map = state.fun_map
        for name, args in self.ground_fun_atoms():
            atom = render(name, args)
            if atom not in fun_map:
                raise InputError(
                    f"initial state is incomplete: no value for {atom!r}; "
                    "complete-information theories are required, enumerate "
                    "models externally and verify each one"
                )
            value = fun_map[atom]
            if value not in self.fun_range(name):
                raise InputError(f"initial value {value!r} outside the range of {atom!r}")
        missing = set(self.clocks) - set(state.clock_map)
        if missing:
            raise InputError(f"initial state misses clocks {sorted(missing)}")


# --- evaluation --------------------------------------------------------------------


def eval_term(bat: Bat, state: WorldState, term: Term, env: Mapping[str, str]) -> str:
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise InputError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Const):
        return term.name
    if isinstance(term, App):
        args = [eval_term(bat, state, t, env) for t in term.args]
        rendered = render(term.fn, args)
        if term.fn in bat.fun_fluents:
            try:
                return state.fun_map[rendered]
            except KeyError:
                raise InputError(f"no value for functional atom {rendered!r}") from None
        return rendered
    raise InputError(f"not a term: {term!r}")


def holds(bat: Bat, state: WorldState, phi: Formula, env: Optional[Mapping[str, str]] = None) -> bool:
    """Truth by direct evaluation, quantifiers ranging over the finite sorts."""
    env = dict(env or {})

    def ev(f, env):
        if isinstance(f, SAtom):
            args = [eval_term(bat, state, t, env) for t in f.args]
            if f.fluent not in bat.rel_fluents:
                raise InputError(f"undeclared relational fluent {f.fluent!r}")
            return render(f.fluent, args) in state.fluents
        if isinstance(f, SEq):
            return eval_term(bat, state, f.lhs, env) == eval_term(bat, state, f.rhs, env)
        if isinstance(f, SClock):
            name = eval_term(bat, state, f.clock, env)
            try:
                value = state.clock_map[name]
            except KeyError:
                raise InputError(f"undeclared clock {name!r}") from None
            return compare(value, f.rel, f.const)
        if isinstance(f, SAnd):
            return all(ev(a, env) for a in f.args)
        if isinstance(f, SOr):
            return any(ev(a, env) for a in f.args)
        if isinstance(f, SNot):
            return not ev(f.arg, env)
        if isinstance(f, SQuant):
            members = bat.sort_members(f.sort)
            inner = dict(env)
            if f.kind == "forall":
                return all(ev(f.body, {**inner, f.var: n}) for n in members)
            return any(ev(f.body, {**inner, f.var: n}) for n in members)
        raise InputError(f"not a static formula: {f!r}")

    return ev(phi, env)


def progress(bat: Bat, state: WorldState, action: str) -> WorldState:
    """One-step forward application of the successor state axioms.

    Every ground fluent instance is evaluated in `state` with the action
    bound, once per theory, fluent state and action: the axioms read no
    clock.  Clocks named by the action's reset clause are zeroed.
    """
    if action not in bat.actions:
        raise InputError(f"undeclared action {action!r}")
    key = (state.fluents, state.funcs, action)
    hit = bat._progressed.get(key)
    if hit is None:
        hit = bat._progressed[key] = _progress_fluents(bat, state, action)
    resets = bat.actions[action].resets
    return WorldState(*hit, tuple(sorted(
        (c, Fraction(0) if c in resets else as_fraction(v)) for c, v in state.clocks
    )))


def _progress_fluents(bat: Bat, state: WorldState, action: str) -> tuple:
    new_fluents = set()
    for name, args in bat.ground_rel_atoms():
        ssa = bat.ssa_rel[name]
        env = dict(zip(ssa.params, args))
        env[ACTION_VAR] = action
        if holds(bat, state, ssa.rhs, env):
            new_fluents.add(render(name, args))
    new_funcs = {}
    for name, args in bat.ground_fun_atoms():
        ssa = bat.ssa_fun[name]
        env = dict(zip(ssa.params, args))
        env[ACTION_VAR] = action
        atom = render(name, args)
        values = [
            v for v in bat.fun_range(name)
            if holds(bat, state, ssa.rhs, {**env, ssa.value_var: v})
        ]
        if len(values) != 1:
            raise ModelError(
                f"successor state axiom for {atom!r} under {action!r} yields "
                f"{len(values)} values: {values}"
            )
        new_funcs[atom] = values[0]
    return frozenset(new_fluents), tuple(sorted(new_funcs.items()))


Trace = tuple  # of (action name, absolute Fraction time) pairs


def world_after(bat: Bat, trace: Trace) -> WorldState:
    """Fold time advances and actions over the initial state."""
    state = bat.initial
    now = Fraction(0)
    for action, t in trace:
        t = as_fraction(t)
        if t < now:
            raise InputError("trace times must be non-decreasing")
        state = progress(bat, state.advanced(t - now), action)
        now = t
    return state


# --- regression -----------------------------------------------------------------


def _subst(term: Term, env: Mapping[str, Term]) -> Term:
    if isinstance(term, Var):
        return env.get(term.name, term)
    if isinstance(term, App):
        return App(term.fn, tuple(_subst(t, env) for t in term.args))
    return term


def ground(bat: Bat, phi: Formula, env: Optional[Mapping[str, Term]] = None) -> Formula:
    """Expand quantifiers substitutionally and substitute the environment."""
    env = dict(env or {})

    def g(f, env):
        if isinstance(f, SAtom):
            return SAtom(f.fluent, tuple(_subst(t, env) for t in f.args))
        if isinstance(f, SEq):
            return SEq(_subst(f.lhs, env), _subst(f.rhs, env))
        if isinstance(f, SClock):
            return SClock(_subst(f.clock, env), f.rel, f.const)
        if isinstance(f, SAnd):
            return SAnd(tuple(g(a, env) for a in f.args))
        if isinstance(f, SOr):
            return SOr(tuple(g(a, env) for a in f.args))
        if isinstance(f, SNot):
            return SNot(g(f.arg, env))
        if isinstance(f, SQuant):
            members = bat.sort_members(f.sort)
            parts = tuple(g(f.body, {**env, f.var: Const(n)}) for n in members)
            return SAnd(parts) if f.kind == "forall" else SOr(parts)
        raise InputError(f"not a static formula: {f!r}")

    return g(phi, env)


def _const_clock(value: Fraction, rel: str, const: Fraction) -> Formula:
    return STRUE if compare(value, rel, const) else SFALSE


def _term_is_functional(bat: Bat, term: Term) -> bool:
    return isinstance(term, App) and term.fn in bat.fun_fluents


def regress(bat: Bat, trace: Trace, phi: Formula) -> Formula:
    """Rewrite phi into an equivalent formula about the initial situation.

    The trace must be rational; time steps shift clock-atom constants by the
    elapsed time, action steps substitute successor-state right-hand sides
    and resolve clock resets.
    """
    try:
        times = [as_fraction(t) for _, t in trace]
    except TypeError:
        raise InputError("regression requires rational traces") from None
    phi = ground(bat, phi)

    def shifted(atom, d):
        const = atom.const - d
        if const < 0:
            # clocks are non-negative, the comparison is decided
            return STRUE if atom.rel in (">=", ">") else SFALSE
        return SClock(atom.clock, atom.rel, const)

    def through_action(f, action):
        if isinstance(f, SAtom):
            ssa = bat.ssa_rel[f.fluent]
            env = {p: t for p, t in zip(ssa.params, f.args)}
            env[ACTION_VAR] = Const(action)
            return ground(bat, ssa.rhs, env)
        if isinstance(f, SEq):
            lf, rf = _term_is_functional(bat, f.lhs), _term_is_functional(bat, f.rhs)
            if lf and rf:
                raise InputError(
                    "regression does not support equalities between two "
                    "functional fluent terms"
                )
            if rf:
                f = SEq(f.rhs, f.lhs)
                lf = True
            if lf:
                ssa = bat.ssa_fun[f.lhs.fn]
                env = {p: t for p, t in zip(ssa.params, f.lhs.args)}
                env[ssa.value_var] = f.rhs
                env[ACTION_VAR] = Const(action)
                return ground(bat, ssa.rhs, env)
            return f
        if isinstance(f, SClock):  # resets are resolved before
            return f
        if isinstance(f, SAnd):
            return SAnd(tuple(through_action(a, action) for a in f.args))
        if isinstance(f, SOr):
            return SOr(tuple(through_action(a, action) for a in f.args))
        if isinstance(f, SNot):
            return SNot(through_action(f.arg, action))
        raise InputError(f"cannot regress {f!r}")

    def reset(atom, action):
        name = atom.clock.name if isinstance(atom.clock, Const) else str(atom.clock)
        if name in bat.actions[action].resets:
            return _const_clock(Fraction(0), atom.rel, atom.const)
        return atom

    # backwards through the trace: the action, then the delay before it
    for (action, _), t, prev in reversed(list(zip(trace, times, [Fraction(0)] + times))):
        phi = through_action(map_clocks(phi, lambda atom: reset(atom, action)), action)
        phi = map_clocks(phi, lambda atom: shifted(atom, t - prev))
    # at the start, clocks read 0
    return map_clocks(phi, lambda atom: _const_clock(Fraction(0), atom.rel, atom.const))


# --- programs --------------------------------------------------------------------


class Program(Hashed):
    """A program term; residual programs key the search's caches and states,
    so each term computes its hash once (see `mtl.Hashed`)."""

    __slots__ = ()


@hashed_dataclass
class PAct(Program):
    action: str

    def __str__(self):
        return self.action


@hashed_dataclass
class PTest(Program):
    formula: Formula

    def __str__(self):
        return f"{self.formula}?"


@hashed_dataclass
class PSeq(Program):
    first: Program
    second: Program

    def __str__(self):
        return f"({self.first}; {self.second})"


@hashed_dataclass
class PBranch(Program):
    left: Program
    right: Program

    def __str__(self):
        return f"({self.left} | {self.right})"


@hashed_dataclass
class PPar(Program):
    left: Program
    right: Program

    def __str__(self):
        return f"({self.left} || {self.right})"


@hashed_dataclass
class PStar(Program):
    body: Program

    def __str__(self):
        return f"({self.body})*"


NIL = PTest(STRUE)


# --- clock atoms -----------------------------------------------------------------


def map_clocks(x, fn):
    """`x`, a static formula or a program, with every clock atom `c` of the
    formula, or of the program's tests, replaced by `fn(c)`.  This is the
    one traversal of clock atoms: readers pass an `fn` that records the
    atom and returns it unchanged (see `clock_atoms`)."""
    if isinstance(x, SClock):
        return fn(x)
    if isinstance(x, (SAnd, SOr)):
        return type(x)(tuple(map_clocks(a, fn) for a in x.args))
    if isinstance(x, SNot):
        return SNot(map_clocks(x.arg, fn))
    if isinstance(x, SQuant):
        return SQuant(x.kind, x.var, x.sort, map_clocks(x.body, fn))
    if isinstance(x, PTest):
        return PTest(map_clocks(x.formula, fn))
    if isinstance(x, PSeq):
        return PSeq(map_clocks(x.first, fn), map_clocks(x.second, fn))
    if isinstance(x, (PBranch, PPar)):
        return type(x)(map_clocks(x.left, fn), map_clocks(x.right, fn))
    if isinstance(x, PStar):
        return PStar(map_clocks(x.body, fn))
    return x


def clock_atoms(x) -> list:
    """The clock atoms of a static formula, or of a program's tests."""
    found = []
    map_clocks(x, lambda atom: found.append(atom) or atom)
    return found


def seq(*parts: Program) -> Program:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = PSeq(p, out)
    return out


def branch(*parts: Program) -> Program:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = PBranch(p, out)
    return out


def normalize(p: Program) -> Program:
    """Normal form keeping the reachable-subprogram space small: drop nil in
    sequences and parallels, collapse duplicate branches."""
    if isinstance(p, PSeq):
        a, b = normalize(p.first), normalize(p.second)
        if a == NIL:
            return b
        if b == NIL:
            return a
        return PSeq(a, b)
    if isinstance(p, PBranch):
        a, b = normalize(p.left), normalize(p.right)
        return a if a == b else PBranch(a, b)
    if isinstance(p, PPar):
        a, b = normalize(p.left), normalize(p.right)
        if a == NIL:
            return b
        if b == NIL:
            return a
        return PPar(a, b)
    if isinstance(p, PStar):
        body = normalize(p.body)
        return NIL if body == NIL else PStar(body)
    return p


def is_final(bat: Bat, state: WorldState, p: Program) -> bool:
    if isinstance(p, PAct):
        return False
    if isinstance(p, PTest):
        return holds(bat, state, p.formula)
    if isinstance(p, PSeq):
        return is_final(bat, state, p.first) and is_final(bat, state, p.second)
    if isinstance(p, PBranch):
        return is_final(bat, state, p.left) or is_final(bat, state, p.right)
    if isinstance(p, PPar):
        return is_final(bat, state, p.left) and is_final(bat, state, p.right)
    if isinstance(p, PStar):
        return True
    raise InputError(f"not a program: {p!r}")


def program_steps(bat: Bat, state: WorldState, p: Program) -> frozenset:
    """Syntactic one-action transitions as (action, normalized residual)."""
    if isinstance(p, PAct):
        return frozenset({(p.action, NIL)})
    if isinstance(p, PTest):
        return frozenset()
    if isinstance(p, PSeq):
        out = {
            (action, normalize(PSeq(rest, p.second)))
            for action, rest in program_steps(bat, state, p.first)
        }
        if is_final(bat, state, p.first):
            out |= program_steps(bat, state, p.second)
        return frozenset(out)
    if isinstance(p, PBranch):
        return program_steps(bat, state, p.left) | program_steps(bat, state, p.right)
    if isinstance(p, PPar):
        left = {
            (action, normalize(PPar(rest, p.right)))
            for action, rest in program_steps(bat, state, p.left)
        }
        right = {
            (action, normalize(PPar(p.left, rest)))
            for action, rest in program_steps(bat, state, p.right)
        }
        return frozenset(left | right)
    if isinstance(p, PStar):
        return frozenset(
            (action, normalize(PSeq(rest, p)))
            for action, rest in program_steps(bat, state, p.body)
        )
    raise InputError(f"not a program: {p!r}")


def enabled_steps(bat: Bat, state: WorldState, p: Program) -> frozenset:
    """Transitions whose action passes its precondition and clock guard in
    the given state (clocks already advanced by the caller)."""
    out = set()
    for action, rest in program_steps(bat, state, p):
        decl = bat.actions.get(action)
        if decl is None:
            raise InputError(f"program mentions undeclared action {action!r}")
        if holds(bat, state, decl.poss) and holds(bat, state, decl.guard):
            out.add((action, rest))
    return frozenset(out)


# --- timed automata as theories ------------------------------------------------


@dataclass(frozen=True)
class TaEmbedding:
    bat: Bat
    program: Program
    switch_labels: dict  # action name -> label


def bat_from_ta(ta) -> TaEmbedding:
    """Theory simulating a timed automaton: a location fluent, per-label
    occurrence fluents, and one action per switch whose guard conjoins the
    switch constraint with both location invariants."""
    from .timed_automata import TimedAutomaton  # local import, no cycle at module load

    assert isinstance(ta, TimedAutomaton)
    loc_names = [str(l) for l in ta.locations]
    for sw in ta.switches:
        inv = ta.invariants.get(sw.dst)
        if inv and sw.resets & inv.clocks():
            raise InputError(
                f"switch into {sw.dst!r} resets clocks mentioned by the target "
                "invariant; move the invariant onto the outgoing switches"
            )

    def clock_formula(constraint) -> Formula:
        return s_and(
            [SClock(Const(c), rel, Fraction(k)) for c, rel, k in constraint.atoms]
        ) if constraint.atoms else STRUE

    actions = {}
    labels = sorted({str(sw.label) for sw in ta.switches})
    switch_labels = {}
    loc_rhs_cases = []
    occ_cases = []
    for i, sw in enumerate(ta.switches):
        name = f"sw{i}"
        switch_labels[name] = str(sw.label)
        guard = s_and(
            [clock_formula(sw.guard)]
            + [clock_formula(ta.invariants[l]) for l in (sw.src, sw.dst) if l in ta.invariants]
        )
        actions[name] = ActionDecl(
            poss=SEq(App("loc", ()), Const(str(sw.src))),
            guard=guard,
            resets=frozenset(sw.resets),
        )
        loc_rhs_cases.append(
            SAnd((SEq(Var(ACTION_VAR), Const(name)), SEq(Var("y"), Const(str(sw.dst)))))
        )
        occ_cases.append(
            SAnd((SEq(Var(ACTION_VAR), Const(name)), SEq(Var("s"), Const(str(sw.label)))))
        )

    is_switch = SOr(tuple(SEq(Var(ACTION_VAR), Const(n)) for n in actions))
    loc_rhs = SOr(
        tuple(loc_rhs_cases)
        + (SAnd((SEq(App("loc", ()), Var("y")), SNot(is_switch))),)
    )
    occ_rhs = SOr(tuple(occ_cases))

    bat = Bat(
        sorts={"taloc": tuple(loc_names), "talabel": tuple(labels) or ("<none>",)},
        clocks=tuple(ta.clocks),
        rel_fluents={"occ": ("talabel",)},
        fun_fluents={"loc": FunFluent((), "taloc")},
        actions=actions,
        ssa_rel={"occ": SsaRel(("s",), occ_rhs)},
        ssa_fun={"loc": SsaFun((), "y", loc_rhs)},
        initial=make_state(
            fluents=(),
            funcs={"loc": str(ta.initial)},
            clocks={c: Fraction(0) for c in ta.clocks},
        ),
    )
    final_test = PTest(
        s_or([SEq(App("loc", ()), Const(str(l))) for l in ta.finals])
        if ta.finals else SFALSE
    )
    if actions:
        program = PSeq(PStar(branch(*[PAct(n) for n in sorted(actions)])), final_test)
    else:
        program = final_test
    return TaEmbedding(bat, program, switch_labels)


def label_trace(trace: Trace, switch_labels: Mapping[str, str]) -> tuple:
    """Switch actions replaced by their labels, other actions untouched."""
    return tuple((switch_labels.get(action, action), t) for action, t in trace)
