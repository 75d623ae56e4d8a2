"""Clocks, exact intervals, regions, region increments, canonical words and
quasi-orders.

All clock arithmetic is exact, never floats.  `Interval` is the package's
one interval type: the intervals of formulas and plan constraints, and the
windows of times a witness is read from (`timed_automata.firing_window`,
the stages of `plantrans.validate_transformed`).  The region kernels work on
integers over a unit: a clock value v stands for v/unit.  The search in
`synthesis` keeps its states in that form; the `Fraction` APIs
(`region_delays`, `canonical_value_map`, `time_successors`) scale the
rationals they read by the lcm of their denominators, call the integer
kernel (`scaled_region_delays`, `scaled_value_map`) and build Fractions only
for their output.
A "clock set" in this module is a set of (name, value) pairs rather than a
mapping, because alternating automata may carry the same name with several
different clock values at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm
from typing import Callable, Iterable, Mapping, Optional

Q = Fraction

RELATIONS = ("<", "<=", "=", ">=", ">")


class ResourceError(Exception):
    """A search exceeded its budget."""


def as_fraction(x) -> Fraction:
    """Convert ints, Fractions, and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def exact(x) -> int | Fraction:
    """An int or a Fraction as an int when integral, unchanged otherwise;
    anything else, floats included, is rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ValueError(f"constraint constant must be an exact rational, got {x!r}")
    return int(x) if x.denominator == 1 else x


def format_fraction(x: int | Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def compare(value: Fraction, rel: str, const: Fraction) -> bool:
    if rel == "<":
        return value < const
    if rel == "<=":
        return value <= const
    if rel == "=":
        return value == const
    if rel == ">=":
        return value >= const
    if rel == ">":
        return value > const
    raise ValueError(f"unknown relation {rel!r}")


# one frozenset per distinct set of clock names, shared by every constraint
# that reads it: a synthesized controller holds thousands of region guards
_CLOCK_SETS: dict = {}


@dataclass(frozen=True)
class ClockConstraint:
    """Conjunction of atoms ``clock rel constant``; the empty conjunction is true.

    Constants are non-negative exact rationals: an int when integral, a
    Fraction otherwise.  The engines need natural constants, so each pipeline
    scales its own inputs by `scale_lcm` of their constants, in one place:
    `synthesis.build_problem` for verification and synthesis,
    `plantrans.transform_plan` for plan transformation.
    """

    atoms: tuple[tuple[str, str, int | Fraction], ...] = ()

    def __post_init__(self):
        if any(type(k) is not int for _, _, k in self.atoms):
            object.__setattr__(self, "atoms", tuple((c, r, exact(k)) for c, r, k in self.atoms))
        for clock, rel, const in self.atoms:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            if const < 0:
                raise ValueError(f"constraint constant must be non-negative, got {const}")

    def clocks(self) -> frozenset[str]:
        """The clocks the atoms read, computed on the first call and kept:
        automata with thousands of switches ask for every guard's clocks."""
        clocks = self.__dict__.get("_clocks")
        if clocks is None:
            clocks = frozenset(c for c, _, _ in self.atoms)
            clocks = _CLOCK_SETS.setdefault(clocks, clocks)
            object.__setattr__(self, "_clocks", clocks)
        return clocks

    def scaled(self, factor) -> "ClockConstraint":
        """Every constant multiplied by a positive rational factor."""
        return ClockConstraint(tuple((c, rel, k * factor) for c, rel, k in self.atoms))

    def conjoin(self, other: "ClockConstraint") -> "ClockConstraint":
        return ClockConstraint(self.atoms + other.atoms)

    def __str__(self) -> str:
        if not self.atoms:
            return "true"
        return " & ".join(f"{c} {rel} {k}" for c, rel, k in self.atoms)


TRUE_CONSTRAINT = ClockConstraint()


@dataclass(frozen=True, slots=True)
class Interval:
    """Exact interval: endpoints are ints or Fractions, hi=None is
    unbounded, and either endpoint may be open.  An unbounded interval has
    one form, with hi_open False, so [0,inf) and [0,inf] are equal.

    The algebra (`shift`, `back_shift`, `intersect`, `earliest`) expects
    nonempty operands; `back_shift` and `intersect` return None when the
    result is empty."""

    lo: int | Fraction = 0
    hi: Optional[int | Fraction] = None
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self):
        if self.hi is None and self.hi_open:
            object.__setattr__(self, "hi_open", False)
        lo, hi = self.lo, self.hi
        if not isinstance(lo, (int, Fraction)) or lo < 0 or hi is not None and (
            not isinstance(hi, (int, Fraction)) or hi < lo
        ):
            raise ValueError(f"malformed interval {self}")

    @staticmethod
    def point(t) -> "Interval":
        return Interval(t, t)

    @staticmethod
    def nonempty(lo, hi, lo_open=False, hi_open=False) -> Optional["Interval"]:
        """The interval, or None when it holds no point."""
        if hi is not None and (hi < lo or hi == lo and (lo_open or hi_open)):
            return None
        return Interval(lo, hi, lo_open, hi_open)

    def contains(self, x) -> bool:
        if self.lo_open:
            if x <= self.lo:
                return False
        elif x < self.lo:
            return False
        if self.hi is None:
            return True
        if self.hi_open:
            return x < self.hi
        return x <= self.hi

    def bounds(self) -> tuple:
        """The (rel, constant) pairs a non-negative value in the interval
        passes, lower bound first; the bound ">= 0" is left out."""
        out = ()
        if self.lo > 0 or self.lo_open:
            out = ((">" if self.lo_open else ">=", self.lo),)
        if self.hi is not None:
            out += (("<" if self.hi_open else "<=", self.hi),)
        return out

    def shift(self, iv: "Interval") -> "Interval":
        """Times t with t - s inside iv for some s in the interval."""
        hi = None if self.hi is None or iv.hi is None else self.hi + iv.hi
        lo_open, hi_open = self.lo_open or iv.lo_open, self.hi_open or iv.hi_open
        return Interval(self.lo + iv.lo, hi, lo_open, hi_open)

    def back_shift(self, iv: "Interval") -> Optional["Interval"]:
        """Times s >= 0 with t - s inside iv for some t in the interval."""
        lo, lo_open = 0, False
        if iv.hi is not None and self.lo >= iv.hi:
            lo, lo_open = self.lo - iv.hi, self.lo_open or iv.hi_open
        hi = None if self.hi is None else self.hi - iv.lo
        return Interval.nonempty(lo, hi, lo_open, self.hi_open or iv.lo_open)

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo, lo_open = max((self.lo, self.lo_open), (other.lo, other.lo_open))
        if self.hi is None:
            hi, hi_open = other.hi, other.hi_open
        elif other.hi is None:
            hi, hi_open = self.hi, self.hi_open
        else:
            # the smaller bound; at equal bounds, the open one
            hi, closed = min((self.hi, not self.hi_open), (other.hi, not other.hi_open))
            hi_open = not closed
        return Interval.nonempty(lo, hi, lo_open, hi_open)

    def earliest(self) -> int | Fraction:
        """The infimum when it is attained, otherwise a canonical interior
        point."""
        if not self.lo_open:
            return self.lo
        if self.hi is None:
            return self.lo + 1
        return self.lo + Fraction(self.hi - self.lo, 2)

    def scaled(self, factor: int) -> "Interval":
        """Both endpoints multiplied by a natural factor."""
        hi = None if self.hi is None else self.hi * factor
        return Interval(self.lo * factor, hi, self.lo_open, self.hi_open)

    def max_finite(self) -> int | Fraction:
        return self.lo if self.hi is None else self.hi

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open or self.hi is None else "]"
        hi = "inf" if self.hi is None else str(self.hi)
        return f"{left}{self.lo},{hi}{right}"

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "loOpen": self.lo_open, "hiOpen": self.hi_open}

    @staticmethod
    def from_json(obj) -> "Interval":
        """An interval with natural endpoints from its `to_json` object."""
        if isinstance(obj, Interval):
            return obj
        if isinstance(obj, dict):
            lo, hi = obj.get("lo", 0), obj.get("hi")
            lo_open, hi_open = obj.get("loOpen", False), obj.get("hiOpen", False)
            if (
                type(lo) is int and (hi is None or type(hi) is int)
                and isinstance(lo_open, bool) and isinstance(hi_open, bool)
            ):
                return Interval(lo, hi, lo_open, hi_open)
        raise ValueError(f"malformed interval JSON: {obj!r}")


def eval_constraint(valuation: Mapping[str, Fraction], g: ClockConstraint) -> bool:
    """True iff every atom of g holds under the valuation."""
    for clock, rel, const in g.atoms:
        if clock not in valuation:
            raise KeyError(f"unknown clock {clock!r} in constraint")
        if not compare(valuation[clock], rel, const):
            return False
    return True


def reset(valuation: Mapping[str, Fraction], names: Iterable[str]) -> dict[str, Fraction]:
    """Valuation with the given clocks set to 0, others unchanged."""
    names = set(names)
    unknown = names - set(valuation)
    if unknown:
        raise KeyError(f"cannot reset undeclared clocks: {sorted(unknown)}")
    return {name: Fraction(0) if name in names else value for name, value in valuation.items()}


# --- regions -----------------------------------------------------------------

def region_index(value: Fraction, k: int) -> int:
    """Index of the region of `value` for maximal constant k.

    Even index 2i is the point region {i}, odd 2i+1 the open interval (i, i+1),
    and 2k+1 the unbounded region of all values above k.
    """
    if value < 0:
        raise ValueError("clock values are non-negative")
    if value > k:
        return 2 * k + 1
    i = floor(value)
    return 2 * i if value == i else 2 * i + 1


def fract(value: Fraction, k: int) -> Fraction:
    """Fractional part; values above the maximal constant count as 0."""
    if value > k:
        return Fraction(0)
    return value - floor(value)


ClockSet = frozenset  # of (name, Fraction) pairs


def _as_clock_set(c: Iterable[tuple[str, Fraction]]) -> frozenset[tuple[str, Fraction]]:
    return frozenset((name, as_fraction(value)) for name, value in c)


@dataclass(frozen=True)
class CanonicalWord:
    """Region-abstracted clock set: letters partition the names by fractional
    part, ordered by increasing fractional part, each entry tagged with its
    region index.  All integer-valued and above-maximal entries share the
    first letter (their fractional part counts as 0).
    """

    letters: tuple[frozenset[tuple[str, int]], ...]

    def __str__(self) -> str:
        rendered = []
        for letter in self.letters:
            inner = ", ".join(f"({n}, {r})" for n, r in sorted(letter))
            rendered.append("{" + inner + "}")
        return "(" + ", ".join(rendered) + ")"

    def to_json(self) -> list[list[list]]:
        return [[list(entry) for entry in sorted(letter)] for letter in self.letters]


def canonical_word(c: Iterable[tuple[str, Fraction]], k: int) -> CanonicalWord:
    """Abstraction of a clock set: group by fractional part, order by it."""
    groups: dict[Fraction, set[tuple[str, int]]] = {}
    for name, value in _as_clock_set(c):
        groups.setdefault(fract(value, k), set()).add((name, region_index(value, k)))
    letters = tuple(frozenset(groups[f]) for f in sorted(groups))
    return CanonicalWord(letters)


def scaled_region_index(v: int, unit: int, k: int) -> int:
    """`region_index` of the value v/unit."""
    if v > k * unit:
        return 2 * k + 1
    q, r = divmod(v, unit)
    return 2 * q + (r > 0)


def scaled_canonical_word(c: Iterable[tuple[str, int]], unit: int, k: int) -> CanonicalWord:
    """`canonical_word` of the clock set whose values are v/unit."""
    top = k * unit
    groups: dict[int, set[tuple[str, int]]] = {}
    for name, v in c:
        fraction = 0 if v > top else v % unit
        groups.setdefault(fraction, set()).add((name, scaled_region_index(v, unit, k)))
    return CanonicalWord(tuple(frozenset(groups[f]) for f in sorted(groups)))


def region_equivalent(
    c1: Iterable[tuple[str, Fraction]], c2: Iterable[tuple[str, Fraction]], k: int
) -> bool:
    """True iff the two clock sets lie in the same region.

    Equivalence requires a name-preserving bijection matching region indices
    and the ordering (including ties) of fractional parts; this holds exactly
    when the canonical words coincide.
    """
    s1, s2 = _as_clock_set(c1), _as_clock_set(c2)
    from collections import Counter

    if Counter(n for n, _ in s1) != Counter(n for n, _ in s2):
        raise ValueError("clock sets must range over the same names")
    return canonical_word(s1, k) == canonical_word(s2, k)


def region_increment(c: Iterable[tuple[str, Fraction]], k: int) -> Fraction:
    """Canonical delay advancing the clock set into the next region.

    0 when every value already exceeds k; half the gap to the next integer
    when some value is an integer at most k; the full gap otherwise.  The
    maximal fractional part is taken over the whole set, where values above
    k contribute 0.
    """
    entries = _as_clock_set(c)
    if not entries or all(value > k for _, value in entries):
        return Fraction(0)
    mu = max(fract(value, k) for _, value in entries)
    if any(value <= k and value.denominator == 1 for _, value in entries):
        return (1 - mu) / 2
    return 1 - mu


def region_delays(values: Iterable[Fraction], k: int) -> list[Fraction]:
    """Accumulated region increments of a clock set with these values,
    ascending from 0: the delays of `time_successors`, without the sets.
    `scaled_region_delays` over the lcm of the denominators."""
    values = [as_fraction(v) for v in values]
    unit = lcm(1, *(v.denominator for v in values if v <= k))
    scaled = [v.numerator * (unit // v.denominator) for v in values if v <= k]
    return [Fraction(d, 2 * unit) for d in scaled_region_delays(scaled, unit, k)]


def scaled_region_delays(values: Iterable[int], unit: int, k: int) -> list[int]:
    """`region_delays` of the values v/unit, as integers over 2*unit.

    Only the distinct values at most k matter; names, and values above k,
    never change an increment.  The walk's integer points, where some value
    a reaches an integer at most k, are the times -a mod unit, unit later,
    and so on up to k*unit - a.  From an integer point the walk makes a
    half step to the midpoint of the next one, and from there a full step
    onto it, so all delays are integers over 2*unit.  The last integer point
    is where the smallest value reaches k; the half step from it leaves
    every value above k.
    """
    top = k * unit
    low = {v for v in values if v <= top}
    if not low:
        return [0]
    points = set()
    for a in low:
        points.update(range(-a % unit, top - a + 1, unit))
    points = sorted(points)
    doubled = [0] if points[0] == 0 else [0, 2 * points[0]]
    for prev, p in zip(points, points[1:]):
        doubled += (prev + p, 2 * p)
    doubled.append(2 * points[-1] + unit)
    return doubled


def region_delay_count(values: Iterable[int], unit: int, k: int) -> int:
    """len(scaled_region_delays(values, unit, k)), without enumerating the
    delays: per residue class of the values at most k, the integer points
    run from that residue up to k*unit minus the class's smallest value."""
    top = k * unit
    smallest: dict[int, int] = {}
    for a in values:
        if a <= top:
            r = -a % unit
            smallest[r] = min(a, smallest.get(r, a))
    if not smallest:
        return 1
    points = sum((top - a - r) // unit + 1 for r, a in smallest.items())
    return 2 * points + (0 if 0 in smallest else 1)


def time_successors(
    c: Iterable[tuple[str, Fraction]], k: int
) -> list[tuple[Fraction, frozenset[tuple[str, Fraction]]]]:
    """All region-distinct time successors, as (accumulated delay, clock set).

    The first element is (0, c) itself; the last is the first successor in
    which every value exceeds k.  The delays are those of iterating
    `region_increment` until every value exceeds k.
    """
    current = _as_clock_set(c)
    return [
        (d, frozenset((name, value + d) for name, value in current))
        for d in region_delays((value for _, value in current), k)
    ]


def canonical_value_map(values: Iterable[Fraction], k: int) -> dict[Fraction, Fraction]:
    """Map each value to its joint region representative.

    Values above k clamp to k+1; fractional parts are replaced by their rank
    over a common denominator, preserving integer parts, ties, and order.
    Applying the map to a clock set yields a region-equivalent set with
    denominators bounded by the number of distinct fractional parts, and the
    map is idempotent on its own image.  `scaled_value_map` over the lcm of
    the denominators of the values at most k.
    """
    values = {as_fraction(v) for v in values}
    unit = lcm(1, *(v.denominator for v in values if v <= k))
    scaled = {
        v: v.numerator * (unit // v.denominator) if v <= k else (k + 1) * unit
        for v in values
    }
    mapping, rank_unit = scaled_value_map(scaled.values(), unit, k)
    return {v: Fraction(mapping[a], rank_unit) for v, a in scaled.items()}


def scaled_value_map(values: Iterable[int], unit: int, k: int) -> tuple[dict[int, int], int]:
    """`canonical_value_map` of the values v/unit, as (map, rank unit): each
    value maps to an integer over the rank unit, which is the number of
    distinct fractional parts, plus one when none of them is 0 (values above
    k count as fractional part 0)."""
    top = k * unit
    values = set(values)
    fracts = sorted({0 if v > top else v % unit for v in values})
    offset = 1 if fracts and fracts[0] else 0
    rank_unit = len(fracts) + offset or 1
    rank = {f: i + offset for i, f in enumerate(fracts)}
    above = (k + 1) * rank_unit
    return {
        v: above if v > top else v // unit * rank_unit + rank[v % unit] for v in values
    }, rank_unit


def canonical_valuation(
    c: Iterable[tuple[str, Fraction]], k: int
) -> frozenset[tuple[str, Fraction]]:
    """Region representative of a clock set (see `canonical_value_map`)."""
    entries = _as_clock_set(c)
    mapping = canonical_value_map((v for _, v in entries), k)
    return frozenset((name, mapping[v]) for name, v in entries)


# --- quasi-orders ------------------------------------------------------------

def mono_dom_leq(w1: CanonicalWord, w2: CanonicalWord) -> bool:
    """Monotone domination: a strictly monotone injection h embedding w1 into
    w2 with letter-wise containment.  Greedy leftmost matching is complete
    because any single letter embeds independently of later choices.
    """
    j = 0
    for letter in w1.letters:
        while j < len(w2.letters) and not letter <= w2.letters[j]:
            j += 1
        if j == len(w2.letters):
            return False
        j += 1
    return True


def powerset_leq(xs: Iterable, ys: Iterable, leq: Callable) -> bool:
    """Power set order: every element of ys dominates some element of xs."""
    xs = list(xs)
    return all(any(leq(x, y) for x in xs) for y in ys)


# --- constant scaling --------------------------------------------------------

def scale_lcm(constants: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators; multiplying all constants
    (and dividing all reported times) by it yields a natural-constant problem.
    """
    return lcm(1, *(as_fraction(c).denominator for c in constants))
