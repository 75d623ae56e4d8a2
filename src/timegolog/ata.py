"""Alternating timed automata with a single implicit clock.

Locations carry positive boolean transition formulas; successor
configurations are the minimal models of those formulas, read off a
disjunctive normal form.  Each automaton keeps that normal form per
(location, symbol) in a table it fills on first use, so a symbol step only
checks the clock atoms against the current values.  The module also builds
the automaton tracking a metric temporal logic formula, the workhorse of
verification and synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Hashable, Iterable, Optional

from . import mtl
from .temporal import Interval, compare

# --- location formulas --------------------------------------------------------


class LocFormula:
    __slots__ = ()


@dataclass(frozen=True)
class LTrue(LocFormula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class LFalse(LocFormula):
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class LAnd(LocFormula):
    args: tuple

    def __str__(self):
        return "(" + " & ".join(map(str, self.args)) + ")"


@dataclass(frozen=True)
class LOr(LocFormula):
    args: tuple

    def __str__(self):
        return "(" + " | ".join(map(str, self.args)) + ")"


@dataclass(frozen=True)
class LLoc(LocFormula):
    loc: Hashable

    def __str__(self):
        return str(self.loc)


@dataclass(frozen=True)
class LClock(LocFormula):
    rel: str
    const: int

    def __str__(self):
        return f"x {self.rel} {self.const}"


@dataclass(frozen=True)
class LReset(LocFormula):
    arg: LocFormula

    def __str__(self):
        return f"x.({self.arg})"


LTRUE, LFALSE = LTrue(), LFalse()


def _push_reset(phi: LocFormula) -> LocFormula:
    """Push clock resets down to location atoms; x.(x ⋈ k) becomes 0 ⋈ k."""
    if isinstance(phi, LReset):
        arg = _push_reset(phi.arg)
        if isinstance(arg, LAnd):
            return LAnd(tuple(_push_reset(LReset(a)) for a in arg.args))
        if isinstance(arg, LOr):
            return LOr(tuple(_push_reset(LReset(a)) for a in arg.args))
        if isinstance(arg, LClock):
            return LTRUE if compare(Fraction(0), arg.rel, Fraction(arg.const)) else LFALSE
        if isinstance(arg, (LTrue, LFalse)):
            return arg
        if isinstance(arg, LReset):
            return arg
        return LReset(arg)  # reset of a plain location
    if isinstance(phi, LAnd):
        return LAnd(tuple(_push_reset(a) for a in phi.args))
    if isinstance(phi, LOr):
        return LOr(tuple(_push_reset(a) for a in phi.args))
    return phi


# DNF atoms: ("loc", l), ("reset", l), ("clock", rel, const)
Clause = frozenset


def minimal(sets: Iterable[frozenset]) -> list[frozenset]:
    """The distinct sets with no strict subset among them, in first-seen
    order (an antichain).  A set is tested only against the smaller sets
    kept so far: a dropped set's strict subsets include a kept one."""
    distinct = list(dict.fromkeys(sets))
    kept = []
    for s in sorted(distinct, key=len):
        for k in kept:
            if k < s:
                break
        else:
            kept.append(s)
    if len(kept) == len(distinct):
        return distinct
    kept = set(kept)
    return [s for s in distinct if s in kept]


def dnf(phi: LocFormula) -> tuple[Clause, ...]:
    """Clauses of the disjunctive normal form, each a set of atoms.

    The empty tuple is false; a clause that is an empty set is true.
    Subsumed clauses (supersets of another clause) are dropped.
    """
    phi = _push_reset(phi)

    def walk(f) -> list[frozenset]:
        if isinstance(f, LTrue):
            return [frozenset()]
        if isinstance(f, LFalse):
            return []
        if isinstance(f, LLoc):
            return [frozenset({("loc", f.loc)})]
        if isinstance(f, LClock):
            return [frozenset({("clock", f.rel, f.const)})]
        if isinstance(f, LReset):
            assert isinstance(f.arg, LLoc)
            return [frozenset({("reset", f.arg.loc)})]
        if isinstance(f, LOr):
            out = []
            for a in f.args:
                out.extend(walk(a))
            return out
        if isinstance(f, LAnd):
            clauses = [frozenset()]
            for a in f.args:
                clauses = [c | d for c in clauses for d in walk(a)]
            return clauses
        raise TypeError(f"not a location formula: {f!r}")

    return tuple(minimal(walk(phi)))


Configuration = frozenset  # of (location, clock value) states


def _split(clause: Clause) -> tuple:
    """A DNF clause as (clock bounds, kept locations, reset states)."""
    return (
        tuple((a[1], a[2]) for a in clause if a[0] == "clock"),
        tuple(a[1] for a in clause if a[0] == "loc"),
        frozenset((a[1], 0) for a in clause if a[0] == "reset"),
    )


def _models(clauses: Iterable[tuple], v, unit: int) -> list[Configuration]:
    return minimal(
        frozenset([(loc, v) for loc in kept]) | resets
        for bounds, kept, resets in clauses
        if all(compare(v, rel, const * unit) for rel, const in bounds)
    )


def minimal_models(phi: LocFormula, v, unit: int = 1) -> frozenset[Configuration]:
    """Minimal configurations satisfying phi when the clock reads v/unit: v
    is compared against the constants times the unit, so integer clock
    values over a unit need no Fractions."""
    return frozenset(_models(map(_split, dnf(phi)), v, unit))


# --- the automaton --------------------------------------------------------------


@dataclass(frozen=True)
class Ata:
    """Single-clock alternating timed automaton.

    `eta` maps (location, symbol set) to a location formula and is usually a
    plain function: the table over the powerset alphabet is never
    materialized in full.  `table` holds the split DNF clauses of `eta` for
    the (location, symbol) pairs read so far.  `atom_universe` lists the
    proposition names the transition formulas inspect; `max_constant` bounds
    the clock constants.
    """

    locations: frozenset
    initial: Hashable
    accepting: frozenset
    eta: Callable[[Hashable, frozenset], LocFormula]
    atom_universe: frozenset[str]
    max_constant: int
    location_names: dict
    table: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def clauses(self, loc, symbol: frozenset) -> tuple:
        hit = self.table.get((loc, symbol))
        if hit is None:
            hit = self.table[loc, symbol] = tuple(map(_split, dnf(self.eta(loc, symbol))))
        return hit

    def initial_configuration(self) -> Configuration:
        return frozenset({(self.initial, 0)})

    def is_accepting(self, g: Configuration) -> bool:
        return all(loc in self.accepting for loc, _ in g)

    def name_of(self, loc) -> str:
        return self.location_names[loc]


def make_ata(
    locations: Iterable,
    initial,
    accepting: Iterable,
    eta,
    atom_universe: Iterable[str],
    max_constant: int,
    location_names: Optional[dict] = None,
) -> Ata:
    locations = frozenset(locations)
    if location_names is None:
        location_names = {l: str(l) for l in locations}
    if isinstance(eta, dict):
        table = eta

        def eta_fn(loc, symbol):
            return table[(loc, symbol)]

    else:
        eta_fn = eta
    return Ata(
        locations,
        initial,
        frozenset(accepting),
        eta_fn,
        frozenset(atom_universe),
        max_constant,
        location_names,
    )


def time_step(g: Configuration, d, refine: int = 1) -> Configuration:
    """All clock values advanced by d; with `refine`, the values are first
    multiplied by it, moving them to a unit `refine` times finer (d is over
    that finer unit)."""
    if d < 0:
        raise ValueError("time increments must be non-negative")
    return frozenset((loc, v * refine + d) for loc, v in g)


def symbol_step(
    g: Configuration, symbol: frozenset, ata: Ata, unit: int = 1
) -> frozenset[Configuration]:
    """Successor configurations after reading a symbol set, the clock values
    over `unit`.

    One minimal model is chosen per state and the choices are unioned;
    configurations subsumed by a strict subset are dropped, which is sound
    because acceptance is downward closed.
    """
    per_state = []
    for loc, v in g:
        models = _models(ata.clauses(loc, symbol), v, unit)
        if not models:
            return frozenset()
        per_state.append(models)
    return frozenset(minimal(frozenset().union(*choice) for choice in product(*per_state)))


def _clamp(g: Configuration, k: int) -> Configuration:
    """Clamp clock values beyond the maximal constant to a single
    representative; sound by region equivalence."""
    top = Fraction(k + 1)
    return frozenset((loc, top if v > k else v) for loc, v in g)


def accepts(ata: Ata, rho: mtl.TimedWord) -> bool:
    """True iff some run over the word ends in an accepting configuration.

    Explores the set of reachable configurations breadth-first, reading each
    word entry as a time step followed by a symbol step.
    """
    k = max(ata.max_constant, 1)
    frontier = {ata.initial_configuration()}
    now = Fraction(0)
    for symbols, t in rho.entries:
        d = t - now
        now = t
        advanced = {_clamp(time_step(g, d), k) for g in frontier}
        frontier = set()
        for g in advanced:
            frontier |= symbol_step(g, symbols & ata.atom_universe, ata)
        frontier = set(minimal(frontier))
        if not frontier:
            return False
    return any(ata.is_accepting(g) for g in frontier)


# --- construction from MTL ------------------------------------------------------

INITIAL = "<init>"


def _clock_in(interval: Interval) -> LocFormula:
    atoms = [LClock(rel, k) for rel, k in interval.bounds()]
    if not atoms:
        return LTRUE
    return atoms[0] if len(atoms) == 1 else LAnd(tuple(atoms))


# the relation a value fails a bound by
NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def _clock_not_in(interval: Interval) -> LocFormula:
    atoms = [LClock(NEGATED[rel], k) for rel, k in interval.bounds()]
    if not atoms:
        return LFALSE
    return atoms[0] if len(atoms) == 1 else LOr(tuple(atoms))


def ata_from_mtl(phi: mtl.MtlFormula) -> Ata:
    """Automaton accepting exactly the words that satisfy phi (in PNF).

    Locations are the closure members (plus a distinguished initial
    location); the dual-until members are accepting.  Transition formulas
    reset the clock when entering a closure member, then compare it against
    the member's interval.
    """
    if not mtl.is_pnf(phi):
        raise ValueError("formula must be in positive normal form")
    cl = mtl.closure(phi)

    def init(psi, symbols) -> LocFormula:
        if psi in cl:
            return LReset(LLoc(psi))
        if isinstance(psi, mtl.Atom):
            return LTRUE if psi.name in symbols else LFALSE
        if isinstance(psi, mtl.Not) and isinstance(psi.arg, mtl.Atom):
            return LFALSE if psi.arg.name in symbols else LTRUE
        if isinstance(psi, mtl.And):
            return LAnd(tuple(init(a, symbols) for a in psi.args)) if psi.args else LTRUE
        if isinstance(psi, mtl.Or):
            return LOr(tuple(init(a, symbols) for a in psi.args)) if psi.args else LFALSE
        raise ValueError(f"unexpected sub-formula in PNF: {psi}")

    def eta(loc, symbols) -> LocFormula:
        if loc == INITIAL:
            return init(phi, symbols)
        if isinstance(loc, mtl.Until):
            return LOr((
                LAnd((init(loc.rhs, symbols), _clock_in(loc.interval))),
                LAnd((init(loc.lhs, symbols), LLoc(loc))),
            ))
        if isinstance(loc, mtl.DualUntil):
            return LAnd((
                LOr((init(loc.rhs, symbols), _clock_not_in(loc.interval))),
                LOr((init(loc.lhs, symbols), LLoc(loc))),
            ))
        raise KeyError(f"unknown location {loc!r}")

    ordered = sorted(cl, key=str)
    names = {INITIAL: "l0"}
    names.update({f: f"phi{i + 1}" for i, f in enumerate(ordered)})
    return make_ata(
        locations=frozenset(cl) | {INITIAL},
        initial=INITIAL,
        accepting=frozenset(f for f in cl if isinstance(f, mtl.DualUntil)),
        eta=eta,
        atom_universe=mtl.atoms_of(phi),
        max_constant=max(mtl.max_constant(phi), 1),
        location_names=names,
    )


# --- inspection dumps -----------------------------------------------------------


def _all_symbols(ata: Ata):
    atoms = sorted(ata.atom_universe)
    for bits in product([False, True], repeat=len(atoms)):
        yield frozenset(a for a, b in zip(atoms, bits) if b)


def eta_table(ata: Ata) -> dict:
    """Full transition table as JSON-ready data; exponential in the number
    of atoms, intended for small inspection dumps only."""
    rows = []
    for loc in sorted(ata.locations, key=ata.name_of):
        for symbols in _all_symbols(ata):
            formula = ata.eta(loc, symbols)
            clauses = [
                sorted(
                    atom if atom[0] == "clock" else (atom[0], ata.name_of(atom[1]))
                    for atom in clause
                )
                for clause in dnf(formula)
            ]
            rows.append({
                "location": ata.name_of(loc),
                "symbols": sorted(symbols),
                "formula": str(_rename(formula, ata)),
                "dnf": clauses,
            })
    return {
        "locations": sorted(ata.name_of(l) for l in ata.locations),
        "initial": ata.name_of(ata.initial),
        "accepting": sorted(ata.name_of(l) for l in ata.accepting),
        "atoms": sorted(ata.atom_universe),
        "transitions": rows,
    }


def _rename(phi: LocFormula, ata: Ata) -> LocFormula:
    if isinstance(phi, LLoc):
        return LLoc(ata.name_of(phi.loc))
    if isinstance(phi, LAnd):
        return LAnd(tuple(_rename(a, ata) for a in phi.args))
    if isinstance(phi, LOr):
        return LOr(tuple(_rename(a, ata) for a in phi.args))
    if isinstance(phi, LReset):
        return LReset(_rename(phi.arg, ata))
    return phi


def to_dot(ata: Ata) -> str:
    """One edge per (symbol, DNF clause, target location); guards and resets
    decorate the edge label."""
    lines = ["digraph ata {", "  rankdir=LR;"]
    for loc in sorted(ata.locations, key=ata.name_of):
        shape = "doublecircle" if loc in ata.accepting else "circle"
        lines.append(f'  "{ata.name_of(loc)}" [shape={shape}];')
    for loc in sorted(ata.locations, key=ata.name_of):
        for symbols in _all_symbols(ata):
            symtxt = "{" + ",".join(sorted(symbols)) + "}"
            for idx, clause in enumerate(dnf(ata.eta(loc, symbols))):
                guards = [f"x {rel} {k}" for _, rel, k in
                          (a for a in clause if a[0] == "clock")]
                guardtxt = (" [" + " & ".join(guards) + "]") if guards else ""
                emitted = False
                for atom in sorted(clause, key=str):
                    if atom[0] == "loc":
                        lines.append(
                            f'  "{ata.name_of(loc)}" -> "{ata.name_of(atom[1])}"'
                            f' [label="{symtxt}#{idx}{guardtxt}"];'
                        )
                        emitted = True
                    elif atom[0] == "reset":
                        lines.append(
                            f'  "{ata.name_of(loc)}" -> "{ata.name_of(atom[1])}"'
                            f' [label="{symtxt}#{idx}{guardtxt} x:=0"];'
                        )
                        emitted = True
                if not emitted:
                    lines.append(
                        f'  "{ata.name_of(loc)}" -> "accept_sink"'
                        f' [label="{symtxt}#{idx}{guardtxt}", style=dashed];'
                    )
    lines.append('  "accept_sink" [shape=doublecircle, label="{}"];')
    lines.append("}")
    return "\n".join(lines)
