"""Metric temporal logic over finite timed words, point-based semantics.

The `satisfies` evaluator is the reference oracle for the rest of the
package: it follows the strict-until semantics by direct recursion with
memoization, trading speed for obvious correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .temporal import Interval, as_fraction, format_fraction

UNBOUNDED = Interval(0, None)


class Hashed:
    """Base of the terms that key caches and sets (formulas, programs): the
    hash is computed once, at construction, from the cached hashes of the
    fields.  Subclasses are declared with `@hashed_dataclass`."""

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", self._fields_hash())

    def __hash__(self):
        return self._hash


def hashed_dataclass(cls):
    """Frozen dataclass with the hash of `Hashed`."""
    cls = dataclass(frozen=True)(cls)
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
    """Each distinct subformula of phi once, phi first; an explicit stack,
    so deep formulas need no recursion.  TypeError on anything that is not
    a formula."""
    seen = {phi}
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Atom):
            args = ()
        elif isinstance(f, (Until, DualUntil)):
            args = (f.lhs, f.rhs)
        elif isinstance(f, (And, Or)):
            args = f.args
        elif isinstance(f, Not):
            args = (f.arg,)
        else:
            raise TypeError(f"not an MTL formula: {f!r}")
        yield f
        for a in reversed(args):
            if a not in seen:
                seen.add(a)
                stack.append(a)


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


def satisfies(rho: TimedWord, i: int, phi: MtlFormula, _memo=None) -> bool:
    """Point-based truth of phi at position i of rho (strict until)."""
    if not 0 <= i < len(rho):
        raise IndexError(f"position {i} outside word of length {len(rho)}")
    if _memo is None:
        _memo = {}
    key = (i, phi)
    if key in _memo:
        return _memo[key]
    if isinstance(phi, Atom):
        result = phi.name in rho.symbols(i)
    elif isinstance(phi, Not):
        result = not satisfies(rho, i, phi.arg, _memo)
    elif isinstance(phi, And):
        result = all(satisfies(rho, i, a, _memo) for a in phi.args)
    elif isinstance(phi, Or):
        result = any(satisfies(rho, i, a, _memo) for a in phi.args)
    elif isinstance(phi, Until):
        result = False
        for j in range(i + 1, len(rho)):
            dt = rho.time(j) - rho.time(i)
            if phi.interval.contains(dt) and satisfies(rho, j, phi.rhs, _memo):
                result = True
                break
            if phi.interval.hi is not None and dt > phi.interval.hi:
                break
            if not satisfies(rho, j, phi.lhs, _memo):
                break
    elif isinstance(phi, DualUntil):
        # dual of the until loop: a witness position refutes the formula
        witness = False
        for j in range(i + 1, len(rho)):
            dt = rho.time(j) - rho.time(i)
            if phi.interval.contains(dt) and not satisfies(rho, j, phi.rhs, _memo):
                witness = True
                break
            if phi.interval.hi is not None and dt > phi.interval.hi:
                break
            if satisfies(rho, j, phi.lhs, _memo):
                break
        result = not witness
    else:
        raise TypeError(f"not an MTL formula: {phi!r}")
    _memo[key] = result
    return result


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
