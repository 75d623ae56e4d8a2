"""Metric temporal logic over finite timed words, point-based semantics.

The `satisfies` evaluator is the reference oracle for the rest of the
package, independent of the automata that decide the same logic.  It works
bottom-up, as offline monitors do (Thati & Roşu, RV 2004; Basin, Klaedtke,
Müller & Zălinescu, JACM 2015): each distinct subformula gets its truth at
every position once, from its children's, so the cost is linear in the
word's length times the number of subformulas, up to the log factor of
bisecting the times for an interval's ends.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import not_
from typing import Union

from .temporal import Interval, as_fraction, format_fraction

UNBOUNDED = Interval(0, None)


class Hashed:
    """Base of the terms that key caches and sets (formulas, programs): the
    hash is computed once, at construction, from the cached hashes of the
    fields.  Subclasses are declared with `@hashed_dataclass`."""

    __slots__ = ("_hash",)

    def __post_init__(self):
        object.__setattr__(self, "_hash", self._fields_hash())

    def __hash__(self):
        return self._hash


def hashed_dataclass(cls):
    """Frozen, slotted dataclass with the hash of `Hashed`."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._fields_hash = cls.__hash__
    cls.__hash__ = Hashed.__hash__
    return cls


class MtlFormula(Hashed):
    """Base class; concrete formulas are the frozen dataclasses below."""

    __slots__ = ()

    def __and__(self, other):
        return And((self, other))

    def __or__(self, other):
        return Or((self, other))

    def __invert__(self):
        return Not(self)


@hashed_dataclass
class Atom(MtlFormula):
    name: str

    def __str__(self):
        return self.name


@hashed_dataclass
class Not(MtlFormula):
    arg: MtlFormula

    def __str__(self):
        return f"!{self.arg}"


@hashed_dataclass
class And(MtlFormula):
    args: tuple

    def __str__(self):
        if not self.args:
            return "true"
        return "(" + " & ".join(map(str, self.args)) + ")"


@hashed_dataclass
class Or(MtlFormula):
    args: tuple

    def __str__(self):
        if not self.args:
            return "false"
        return "(" + " | ".join(map(str, self.args)) + ")"


@hashed_dataclass
class Until(MtlFormula):
    lhs: MtlFormula
    rhs: MtlFormula
    interval: Interval = UNBOUNDED

    def __str__(self):
        return f"({self.lhs} U{self.interval} {self.rhs})"


@hashed_dataclass
class DualUntil(MtlFormula):
    lhs: MtlFormula
    rhs: MtlFormula
    interval: Interval = UNBOUNDED

    def __str__(self):
        return f"({self.lhs} D{self.interval} {self.rhs})"


TRUE = And(())
FALSE = Or(())


def finally_(arg: MtlFormula, interval: Interval = UNBOUNDED) -> MtlFormula:
    return Until(TRUE, arg, interval)


def globally(arg: MtlFormula, interval: Interval = UNBOUNDED) -> MtlFormula:
    return Not(finally_(Not(arg), interval))


def next_(arg: MtlFormula, interval: Interval = UNBOUNDED) -> MtlFormula:
    return Until(FALSE, arg, interval)


def to_pnf(phi: MtlFormula) -> MtlFormula:
    """Positive normal form: push negation onto atoms, dualizing Until."""
    if isinstance(phi, Atom):
        return phi
    if isinstance(phi, And):
        return And(tuple(to_pnf(a) for a in phi.args))
    if isinstance(phi, Or):
        return Or(tuple(to_pnf(a) for a in phi.args))
    if isinstance(phi, Until):
        return Until(to_pnf(phi.lhs), to_pnf(phi.rhs), phi.interval)
    if isinstance(phi, DualUntil):
        return DualUntil(to_pnf(phi.lhs), to_pnf(phi.rhs), phi.interval)
    if isinstance(phi, Not):
        arg = phi.arg
        if isinstance(arg, Atom):
            return phi
        if isinstance(arg, Not):
            return to_pnf(arg.arg)
        if isinstance(arg, And):
            return Or(tuple(to_pnf(Not(a)) for a in arg.args))
        if isinstance(arg, Or):
            return And(tuple(to_pnf(Not(a)) for a in arg.args))
        if isinstance(arg, Until):
            return DualUntil(to_pnf(Not(arg.lhs)), to_pnf(Not(arg.rhs)), arg.interval)
        if isinstance(arg, DualUntil):
            return Until(to_pnf(Not(arg.lhs)), to_pnf(Not(arg.rhs)), arg.interval)
    raise TypeError(f"not an MTL formula: {phi!r}")


def is_pnf(phi: MtlFormula) -> bool:
    if isinstance(phi, Atom):
        return True
    if isinstance(phi, Not):
        return isinstance(phi.arg, Atom)
    if isinstance(phi, (And, Or)):
        return all(is_pnf(a) for a in phi.args)
    if isinstance(phi, (Until, DualUntil)):
        return is_pnf(phi.lhs) and is_pnf(phi.rhs)
    return False


def subformulas(phi: MtlFormula):
    """Each distinct subformula of phi once, children before parents, so
    phi comes last; an explicit stack, so deep formulas need no recursion.
    A None on the stack closes the innermost open formula.  TypeError on
    anything that is not a formula."""
    seen = set()
    stack = [phi]
    opened = []
    while stack:
        f = stack.pop()
        if f is None:
            yield opened.pop()
            continue
        if f in seen:
            continue
        seen.add(f)
        if isinstance(f, Atom):
            yield f
            continue
        if isinstance(f, (Until, DualUntil)):
            args = (f.lhs, f.rhs)
        elif isinstance(f, (And, Or)):
            args = f.args
        elif isinstance(f, Not):
            args = (f.arg,)
        else:
            raise TypeError(f"not an MTL formula: {f!r}")
        opened.append(f)
        stack.append(None)
        stack.extend(args)


def closure(phi: MtlFormula) -> frozenset:
    """Sub-formulas whose outermost connective is Until or DualUntil."""
    return frozenset(f for f in subformulas(phi) if isinstance(f, (Until, DualUntil)))


def atoms_of(phi: MtlFormula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(phi) if isinstance(f, Atom))


def max_constant(phi: MtlFormula) -> int:
    """Largest finite interval endpoint, 0 if there is none."""
    return max((f.interval.max_finite() for f in subformulas(phi)
                if isinstance(f, (Until, DualUntil))), default=0)


def scale_intervals(phi: MtlFormula, factor: int) -> MtlFormula:
    """Multiply every interval endpoint by a natural factor."""
    if factor == 1:
        return phi
    if isinstance(phi, Atom):
        return phi
    if isinstance(phi, Not):
        return Not(scale_intervals(phi.arg, factor))
    if isinstance(phi, And):
        return And(tuple(scale_intervals(a, factor) for a in phi.args))
    if isinstance(phi, Or):
        return Or(tuple(scale_intervals(a, factor) for a in phi.args))
    return type(phi)(scale_intervals(phi.lhs, factor), scale_intervals(phi.rhs, factor),
                     phi.interval.scaled(factor))


# --- timed words -------------------------------------------------------------

@dataclass(frozen=True)
class TimedWord:
    """Sequence of (symbol set, time) pairs with non-decreasing times.

    State-based words (the ones formulas are evaluated on) start at time 0;
    words induced by automaton runs may start later.
    """

    entries: tuple[tuple[frozenset[str], Fraction], ...]

    def __post_init__(self):
        times = [t for _, t in self.entries]
        if any(t < 0 for t in times) or times != sorted(times):
            raise ValueError("times must be non-negative and non-decreasing")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def symbols(self, i: int) -> frozenset[str]:
        return self.entries[i][0]

    def time(self, i: int) -> Fraction:
        return self.entries[i][1]

    def to_json(self) -> list:
        return [
            {"t": format_fraction(t), "symbols": sorted(syms)}
            for syms, t in self.entries
        ]

    @staticmethod
    def from_json(obj) -> "TimedWord":
        """Word from a list of {"t": int or "p/q", "symbols": [names]};
        ValueError on any other shape."""

        def ok(e) -> bool:
            return (isinstance(e, dict) and type(e.get("t")) in (int, str)
                    and isinstance(e.get("symbols"), list)
                    and all(isinstance(name, str) for name in e["symbols"]))

        if not (isinstance(obj, list) and all(map(ok, obj))):
            raise ValueError('timed word JSON must be a list of {"t": int or "p/q", '
                             '"symbols": [names]} entries')
        try:
            return TimedWord(tuple((frozenset(e["symbols"]), Fraction(e["t"])) for e in obj))
        except ZeroDivisionError:
            raise ValueError("a time of the timed word has denominator 0") from None


def word(*entries) -> TimedWord:
    """Convenience constructor: word(({'p'}, 0), ({'q'}, '1/2'))."""
    return TimedWord(tuple((frozenset(s), as_fraction(t)) for s, t in entries))


def satisfies(rho: TimedWord, i: int, phi: MtlFormula) -> bool:
    """Point-based truth of phi at position i of rho (strict until).

    Every subformula gets a column, its truth at every position of rho,
    children first.  Times and interval ends are scaled to integers once, by
    the lcm of their denominators.  A DualUntil holds where the Until of the
    negated operands has no witness."""
    if not 0 <= i < len(rho):
        raise IndexError(f"position {i} outside word of length {len(rho)}")
    subs = list(subformulas(phi))
    ends = [e for f in subs if isinstance(f, (Until, DualUntil))
            for e in (f.interval.lo, f.interval.hi) if e is not None]
    scale = lcm(*(t.denominator for _, t in rho.entries), *(e.denominator for e in ends))
    times = [t.numerator * (scale // t.denominator) for _, t in rho.entries]
    col: dict = {}
    for f in subs:
        if isinstance(f, Atom):
            col[f] = [f.name in syms for syms, _ in rho.entries]
        elif isinstance(f, Not):
            col[f] = list(map(not_, col[f.arg]))
        elif isinstance(f, And):
            col[f] = list(map(all, zip(*(col[a] for a in f.args)))) if f.args else [True] * len(rho)
        elif isinstance(f, Or):
            col[f] = list(map(any, zip(*(col[a] for a in f.args)))) if f.args else [False] * len(rho)
        elif isinstance(f, Until):
            col[f] = _witnessed(times, col[f.lhs], col[f.rhs], f.interval, scale)
        else:
            col[f] = list(map(not_, _witnessed(times, list(map(not_, col[f.lhs])),
                                                list(map(not_, col[f.rhs])), f.interval, scale)))
    return col[phi][i]


def _witnessed(times: list, lhs: list, rhs: list, iv: Interval, scale: int) -> list:
    """The column of (lhs U_iv rhs) on integer times: position i holds iff
    rhs holds at some j in (i, stop(i)] with times[j] - times[i] in scale*iv,
    where stop(i) is the first j > i at which lhs fails, or the last
    position.  The scan at j tests rhs before lhs, so stop(i) is itself a
    candidate.  Candidates form a range of positions, found by bisection
    (times do not decrease) and counted by prefix sums of rhs."""
    count = [0, *accumulate(rhs)]  # count[j]: positions before j at which rhs holds
    lo = int(iv.lo * scale)
    hi = None if iv.hi is None else int(iv.hi * scale)
    first = bisect_right if iv.lo_open else None if lo == 0 else bisect_left
    last = bisect_left if iv.hi_open else bisect_right
    out = [False] * len(times)
    end = len(times)  # one past stop(i)
    for i in range(len(times) - 1, -1, -1):
        # a closed low end at 0 admits every later position
        a = i + 1 if first is None else first(times, times[i] + lo, i + 1, end)
        b = end if hi is None else last(times, times[i] + hi, a, end)
        out[i] = count[b] > count[a]
        if not lhs[i]:
            end = i + 1
    return out


# --- JSON formula format ------------------------------------------------------

def formula_to_json(phi: MtlFormula) -> Union[dict, list]:
    if isinstance(phi, Atom):
        return {"atom": phi.name}
    if isinstance(phi, Not):
        return {"not": formula_to_json(phi.arg)}
    if isinstance(phi, And):
        return {"and": [formula_to_json(a) for a in phi.args]}
    if isinstance(phi, Or):
        return {"or": [formula_to_json(a) for a in phi.args]}
    if isinstance(phi, Until):
        return {"until": {"lhs": formula_to_json(phi.lhs), "rhs": formula_to_json(phi.rhs),
                          "interval": phi.interval.to_json()}}
    if isinstance(phi, DualUntil):
        return {"dualUntil": {"lhs": formula_to_json(phi.lhs), "rhs": formula_to_json(phi.rhs),
                              "interval": phi.interval.to_json()}}
    raise TypeError(f"not an MTL formula: {phi!r}")


def formula_from_json(obj) -> MtlFormula:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"malformed formula JSON: {obj!r}")
    (kind, body), = obj.items()
    if kind == "atom" and isinstance(body, str):
        return Atom(body)
    if kind == "not":
        return Not(formula_from_json(body))
    if kind in ("and", "or") and isinstance(body, list):
        return (And if kind == "and" else Or)(tuple(formula_from_json(a) for a in body))
    if kind in ("until", "dualUntil") and isinstance(body, dict) and {"lhs", "rhs"} <= set(body):
        cls = Until if kind == "until" else DualUntil
        iv = Interval.from_json(body.get("interval", {}))
        return cls(formula_from_json(body["lhs"]), formula_from_json(body["rhs"]), iv)
    if kind in ("finally", "globally", "next"):
        ctor = {"finally": finally_, "globally": globally, "next": next_}[kind]
        if isinstance(body, dict) and "arg" in body:
            iv = Interval.from_json(body.get("interval", {}))
            return ctor(formula_from_json(body["arg"]), iv)
        return ctor(formula_from_json(body))
    raise ValueError(f"malformed formula JSON: {obj!r}")
