"""Timed automata, parallel composition, and zone-based reachability.

Automata may carry rational constants; zones take integers only, so a
caller scales an automaton with `TimedAutomaton.scaled` before its zones
are explored (`plantrans.transform_plan` does) and divides the times it
gets back.  Zones are difference bound matrices over the declared clocks
plus the zero reference; emptiness and inclusion are decided on the
canonical form.  The reachability search stores delay-closed zones with
every clock that is dead at the zone's location freed: a static liveness
pass (`live_clocks`) finds the clocks a location reads again before
resetting them, so zones that differ only in the others are stored and
expanded once.  Zones are interned, and a successor is computed once per
distinct zone and switch effect, then looked up; the budget counts search
nodes, not zones.  The search returns a concrete run: a switch sequence
with exact delays chosen inside the feasible zone chain on the automaton
itself, replayed before it is returned.  Extraction and replay hold a
valuation as the current time and each clock's last reset time, so a step
touches only the clocks it resets.

A matrix is a flat row-major list of Python integers with bounds packed
into them: a bound "difference <= v" is 2v+1, "difference < v" is 2v, and
a large sentinel stands for infinity.  Packing makes bound addition and
comparison single integer operations, and the matrices are small (one row
per clock plus one), so plain loops that skip infinite entries beat array
code.  The search changes a matrix in place with the kernels `_conjoin`,
`_reset`, `_free`, `_up` and `_down`; a `Zone` wraps a stored canonical
matrix.  Conjoining a guard closes the matrix incrementally, in O(n^2) per
tightened bound (Bengtsson & Yi, 2004).  The other kernels keep a canonical
matrix canonical in O(n) per clock, so the full O(n^3) Floyd-Warshall
closure runs only after extrapolation changes a bound.  Constants are
limited to MAX_CONSTANT in magnitude, so no finite sum of bounds along a
path through any DBM that fits in memory reaches INF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import le, or_
from typing import Hashable, NamedTuple, Optional

from .temporal import (
    ClockConstraint,
    Interval,
    ResourceError,
    TRUE_CONSTRAINT,
    compare,
)

EPSILON = "ε"

MAX_CONSTANT = 1 << 40  # largest constant magnitude a zone accepts
# Packed infinity.  Finite packed bounds are below 2**42, so a sum of them
# reaches INF only along a path of 2**19 bounds.
INF = 1 << 61
LE_ZERO = 1  # packed (<= 0)


def _le(v: int) -> int:
    return 2 * v + 1


def _lt(v: int) -> int:
    return 2 * v


def _add(a: int, b: int) -> int:
    """Packed bound addition: values add, the result is non-strict only when
    both arguments are."""
    if a >= INF or b >= INF:
        return INF
    return a + b - ((a | b) & 1)


def _conjoin(m: list, n: int, bounds):
    """Conjoin packed bounds (i, j, bound on x_i - x_j) to the canonical
    n x n matrix m in place, restoring canonical form in O(n^2) per bound:
    every bound may now route through the new edge.  A negative cycle
    through the edge empties the zone: the bound is recorded, x_0 - x_0 < 0
    marks the zone empty, and an empty zone takes no further tightening."""
    for i, j, packed in bounds:
        if packed >= m[i * n + j] or m[0] < LE_ZERO:
            continue
        if _add(packed, m[j * n + i]) < LE_ZERO:
            m[i * n + j] = packed
            m[0] = _lt(0)
            continue
        row_j = m[j * n:(j + 1) * n]
        for a in range(0, n * n, n):
            ai = m[a + i]
            if ai >= INF:
                continue
            via = _add(ai, packed)
            for b, jb in enumerate(row_j):  # _add inlined: the hot loop
                if jb < INF:
                    s = via + jb - ((via | jb) & 1)
                    if s < m[a + b]:
                        m[a + b] = s


def _reset(m: list, n: int, ys):
    """Zero clocks ys in place; a canonical matrix stays canonical."""
    for y in ys:
        m[y * n:(y + 1) * n] = m[:n]
        m[y::n] = m[::n]
        m[y * n + y] = m[y * n] = m[y] = LE_ZERO


def _free(m: list, n: int, ys):
    """Drop all constraints on clocks ys but non-negativity, in place: row
    x := infinity, column x := column 0 (canonical stays canonical)."""
    for y in ys:
        m[y * n:(y + 1) * n] = [INF] * n
        m[y::n] = m[::n]
        m[y] = m[y * n + y] = LE_ZERO


def _up(m: list, n: int):
    """Future closure, in place: no clock has an upper bound (canonical
    stays canonical)."""
    m[n::n] = [INF] * (n - 1)


def _down(m: list, n: int):
    """Past closure with non-negative clocks, in place: each clock keeps the
    lower bound its differences imply (canonical stays canonical)."""
    for j in range(1, n):
        m[j] = min(LE_ZERO, min(m[n + j::n]))


def _constraint_bounds(g: ClockConstraint, index: dict) -> tuple:
    """The packed bounds (i, j, bound on x_i - x_j) of g's atoms."""
    out = []
    for clock, rel, const in g.atoms:
        if type(const) is not int or const > MAX_CONSTANT:  # scale rational automata first
            raise ValueError(f"clock constant {const} is not an integer, or exceeds 2**40")
        i = index[clock]
        if rel in ("<", "<=", "="):
            out.append((i, 0, _lt(const) if rel == "<" else _le(const)))
        if rel in (">", ">=", "="):
            out.append((0, i, _lt(-const) if rel == ">" else _le(-const)))
    return tuple(out)


class Zone:
    """Canonical DBM over clocks x_1..x_n with x_0 the zero reference.

    `m` holds the (n+1)x(n+1) packed bounds row by row: the bound on
    x_i - x_j is m[i * (n+1) + j]."""

    __slots__ = ("clocks", "m")

    def __init__(self, clocks: tuple, m: Optional[list] = None):
        self.clocks = tuple(clocks)
        n = len(self.clocks) + 1
        if m is None:
            m = [INF] * (n * n)
            m[:n] = [LE_ZERO] * n  # clocks are non-negative
            m[:: n + 1] = [LE_ZERO] * n
        self.m = m

    @classmethod
    def zero(cls, clocks: tuple) -> "Zone":
        n = len(clocks) + 1
        return cls(clocks, [LE_ZERO] * (n * n))

    @classmethod
    def universal(cls, clocks: tuple) -> "Zone":
        return cls(clocks)

    def _with(self, m: list) -> "Zone":
        """A zone over the same clocks with matrix m."""
        z = Zone.__new__(Zone)
        z.clocks = self.clocks
        z.m = m
        return z

    def canonicalized(self) -> "Zone":
        """Tighten all bounds (Floyd-Warshall closure); idempotent."""
        z = self._with(self.m[:])
        m = z.m
        n = len(self.clocks) + 1
        for k in range(n):
            row_k = m[k * n:(k + 1) * n]
            for i in range(0, n * n, n):
                ik = m[i + k]
                if ik >= INF:
                    continue
                for j, kj in enumerate(row_k):  # _add inlined: the hot loop
                    if kj < INF:
                        s = ik + kj - ((ik | kj) & 1)
                        if s < m[i + j]:
                            m[i + j] = s
        return z

    def extrapolate(self, k: int) -> "Zone":
        """Classical maximal-bound abstraction: bounds above k are dropped,
        bounds below -k are clamped; keeps the zone graph finite.  The zone
        must be canonical and non-empty, so its diagonal is (<= 0), which
        neither test selects."""
        high, low = _le(k), _lt(-k)
        m = [INF if b > high else low if b < low else b for b in self.m]
        if m == self.m:
            return self
        return self._with(m).canonicalized()

    def includes(self, other: "Zone") -> bool:
        """other ⊆ self, both canonical."""
        return all(map(le, other.m, self.m))

    def _bounds(self):
        n = len(self.clocks) + 1
        for i in range(n):
            for j in range(n):
                packed = self.m[i * n + j]
                if i == j or packed >= INF:
                    continue
                yield i, j, packed >> 1, not (packed & 1)

    def key(self):
        return tuple(self.m)


def firing_window(bounds, now, reset_at) -> Optional[Interval]:
    """Times t >= now at which the valuation lies in a zone, given the
    zone's decoded bounds (`Zone._bounds`), or None: clock ta.clocks[i] was
    last reset at reset_at[i], so at time t it reads t - reset_at[i];
    differences of clocks do not change."""
    lo, lo_strict = now, False
    hi, hi_strict = None, False
    for i, j, v, strict in bounds:
        if i == 0:  # -x_j <= v, so t >= reset_at[j] - v
            cand = reset_at[j - 1] - v
            if cand > lo or (cand == lo and strict):
                lo, lo_strict = cand, strict
        elif j == 0:  # x_i <= v, so t <= reset_at[i] + v
            cand = reset_at[i - 1] + v
            if hi is None or cand < hi or (cand == hi and strict):
                hi, hi_strict = cand, strict
        else:
            diff = reset_at[j - 1] - reset_at[i - 1]
            if (diff >= v) if strict else (diff > v):
                return None
    return Interval.nonempty(lo, hi, lo_strict, hi_strict)


# --- the automaton ---------------------------------------------------------------


class Switch(NamedTuple):  # a named tuple, cheap to build: products hold thousands
    src: Hashable
    label: str
    guard: ClockConstraint
    resets: frozenset
    dst: Hashable

    def __str__(self):
        resets = ",".join(sorted(self.resets))
        return f"{self.src} --{self.label} [{self.guard}] {{{resets}}}--> {self.dst}"


@dataclass(frozen=True)
class TimedAutomaton:
    locations: tuple
    initial: Hashable
    finals: frozenset
    clocks: tuple
    invariants: dict  # location -> ClockConstraint (missing = true)
    switches: tuple

    def __post_init__(self):
        if self.initial not in self.locations:
            raise ValueError("initial location not declared")
        declared = set(self.clocks)
        for sw in self.switches:
            if not (sw.guard.clocks() <= declared and sw.resets <= declared):
                raise ValueError(f"switch {sw} uses undeclared clocks")
        for loc, inv in self.invariants.items():
            if not inv.clocks() <= declared:
                raise ValueError(f"invariant of {loc!r} uses undeclared clocks")

    def labels(self) -> frozenset:
        return frozenset(sw.label for sw in self.switches)

    def invariant(self, loc) -> ClockConstraint:
        return self.invariants.get(loc, TRUE_CONSTRAINT)

    def constants(self):
        """The constants of every guard and invariant."""
        for g in (*(sw.guard for sw in self.switches), *self.invariants.values()):
            yield from (const for _, _, const in g.atoms)

    def max_constant(self):
        return max(self.constants(), default=0)

    def scaled(self, factor) -> "TimedAutomaton":
        """Every constant multiplied by a positive rational factor; the
        automaton itself at factor 1.  Each constraint object is scaled once,
        so constraints shared here are shared in the result."""
        if factor == 1:
            return self
        done: dict = {}  # id of a constraint -> its scaled copy

        def scale(g: ClockConstraint) -> ClockConstraint:
            return done.get(id(g)) or done.setdefault(id(g), g.scaled(factor))

        return TimedAutomaton(
            self.locations, self.initial, self.finals, self.clocks,
            {l: scale(g) for l, g in self.invariants.items()},
            tuple(Switch(src, label, scale(g), r, dst) for src, label, g, r, dst in self.switches),
        )

    def with_epsilon_loops(self) -> "TimedAutomaton":
        """Self-looping ε switch on every location (idempotent)."""
        have = {sw.src for sw in self.switches if sw.label == EPSILON and sw.src == sw.dst}
        extra = tuple(
            Switch(l, EPSILON, TRUE_CONSTRAINT, frozenset(), l)
            for l in self.locations
            if l not in have
        )
        return TimedAutomaton(
            self.locations, self.initial, self.finals, self.clocks,
            self.invariants, self.switches + extra,
        )


def make_ta(locations, initial, finals, clocks, invariants=None, switches=()) -> TimedAutomaton:
    """The automaton, once its switches, finals and invariants are checked
    to name declared locations; invariants without atoms are left out."""
    locations, finals, switches = tuple(locations), frozenset(finals), tuple(switches)
    invariants = invariants or {}
    named = {end for sw in switches for end in (sw.src, sw.dst)}
    undeclared = named.union(finals, invariants).difference(locations)
    if undeclared:
        raise ValueError("switches, finals and invariants of the timed automaton name "
                         f"undeclared locations: {sorted(undeclared, key=str)}")
    return TimedAutomaton(
        locations, initial, finals, tuple(clocks),
        {l: g for l, g in invariants.items() if g.atoms}, switches,
    )


def parallel_compose(a1: TimedAutomaton, a2: TimedAutomaton) -> TimedAutomaton:
    """Asynchronous product: every switch of either side fires on its own,
    the other side staying put; ε self-loops are preserved per location pair.
    Switches must join declared locations."""
    shared_clocks = set(a1.clocks) & set(a2.clocks)
    if shared_clocks:
        raise ValueError(f"clock names collide: {sorted(shared_clocks)}")
    shared = (a1.labels() & a2.labels()) - {EPSILON}
    if shared:
        raise ValueError(f"labels collide: {sorted(shared)}")
    locations = tuple((l1, l2) for l1 in a1.locations for l2 in a2.locations)
    invariants = {}
    for l1, l2 in locations:
        inv1, inv2 = a1.invariants.get(l1), a2.invariants.get(l2)
        inv = inv1.conjoin(inv2) if inv1 and inv2 else inv1 or inv2
        if inv and inv.atoms:
            invariants[(l1, l2)] = inv
    # switch ends reuse the location pairs: row l1 holds (l1, l2) for each l2
    # in order, column l2 holds (l1, l2) for each l1
    n2 = len(a2.locations)
    rows = {l1: locations[i * n2:(i + 1) * n2] for i, l1 in enumerate(a1.locations)}
    columns = {l2: locations[j::n2] for j, l2 in enumerate(a2.locations)}
    switches = [Switch(src, sw.label, sw.guard, sw.resets, dst)
                for sw in a1.switches for src, dst in zip(rows[sw.src], rows[sw.dst])]
    switches += [Switch(src, sw.label, sw.guard, sw.resets, dst)
                 for sw in a2.switches for src, dst in zip(columns[sw.src], columns[sw.dst])]
    return TimedAutomaton(
        locations,
        (a1.initial, a2.initial),
        frozenset((f1, f2) for f1 in a1.finals for f2 in a2.finals),
        a1.clocks + a2.clocks,
        invariants,
        tuple(switches),
    )


# --- reachability ----------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """Accepting run: per step the switch taken and the exact delay before it."""

    steps: tuple  # of (Switch, exact delay)

    def replay_valuations(self, ta: TimedAutomaton):
        """Replay the run on the automaton's guards and invariants, on the
        current time and each clock's last reset time; raises if one fails,
        which would mean the witness is unsound."""
        reset_at = dict.fromkeys(ta.clocks, 0)
        now = 0

        def holds(g: ClockConstraint) -> bool:
            return all(compare(now - reset_at[c], rel, k) for c, rel, k in g.atoms)

        loc = ta.initial
        if not holds(ta.invariant(loc)):
            raise AssertionError("initial valuation violates the invariant")
        for sw, delay in self.steps:
            if sw.src != loc:
                raise AssertionError("run is not connected")
            if delay < 0:
                raise AssertionError("negative delay")
            now += delay
            if not holds(ta.invariant(loc)):
                raise AssertionError("delay violates the source invariant")
            if not holds(sw.guard):
                raise AssertionError("guard fails on replay")
            for c in sw.resets:
                reset_at[c] = now
            loc = sw.dst
            if not holds(ta.invariant(loc)):
                raise AssertionError("target invariant fails on replay")


def run_to_timed_word(run: Run) -> tuple:
    """Absolute-time word (label, time), ε steps dropped."""
    out = []
    now = Fraction(0)
    for sw, delay in run.steps:
        now += delay
        if sw.label != EPSILON:
            out.append((sw.label, now))
    return tuple(out)


def _tables(ta: TimedAutomaton) -> tuple:
    """One walk over the automaton for the static passes: the largest
    constant, each location's invariant, and each switch as (source index,
    target index, guard, resets).  A constraint object is packed once into
    (bounds, clock mask), equal bounds into one object, a reset set into
    (clock indices, clock mask); bit i of a mask stands for ta.clocks[i]."""
    clock_index = {c: i + 1 for i, c in enumerate(ta.clocks)}
    index = {l: i for i, l in enumerate(ta.locations)}
    packed: dict = {}  # id of a constraint or reset set -> its pair
    shared: dict = {}  # packed bounds -> the one object holding them

    def pack(g) -> tuple:
        if isinstance(g, frozenset):
            out = tuple(clock_index[c] for c in g)
            mask = sum(1 << y >> 1 for y in out)
        else:
            out = shared.setdefault(b := _constraint_bounds(g, clock_index), b)
            mask = reduce(or_, ((1 << i | 1 << j) >> 1 for i, j, _ in out), 0)  # x_0: no bit
        packed[id(g)] = p = (out, mask)
        return p

    get = packed.get
    invariants = [get(id(g)) or pack(g) for g in map(ta.invariant, ta.locations)]
    switches = [(index[src], index[dst], get(id(g)) or pack(g), get(id(r)) or pack(r))
                for src, _, g, r, dst in ta.switches]  # nested tuples: hash once
    k = max((b >> 1 if j == 0 else -(b >> 1) for bounds in shared for _, j, b in bounds),
            default=0)
    return k, invariants, switches


def live_clocks(ta: TimedAutomaton, tables: Optional[tuple] = None) -> list:
    """Bitmask of the clocks live at each location, in the order of
    ta.locations; bit i stands for ta.clocks[i].  `tables` is `_tables(ta)`
    when the caller has it.

    A clock is live at l when l's invariant reads it, when a guard of a
    switch leaving l reads it, or when it is live at the target of a switch
    leaving l that does not reset it (Daws & Yovine, 1996).  The backward
    fixpoint runs on bitmasks: a location is revisited only when its mask
    grows, so the pass is linear in switches x clocks.  A dead clock's value
    is never read before it is reset, so freeing it loses no run."""
    _, invariants, switches = tables or _tables(ta)
    everything = (1 << len(ta.clocks)) - 1
    live = [mask for _, mask in invariants]
    into = [[] for _ in live]  # target -> [(source, mask of the clocks kept)]
    for src, dst, (_, guard_mask), (_, reset_mask) in switches:
        live[src] |= guard_mask
        if reset_mask or src != dst:  # a plain self-loop adds nothing
            into[dst].append((src, everything ^ reset_mask))
    stack = list(range(len(live)))
    while stack:
        dst = stack.pop()
        out = live[dst]
        for src, kept in into[dst]:
            grown = live[src] | (out & kept)
            if grown != live[src]:
                live[src] = grown
                stack.append(src)
    return live


def zone_reach(ta: TimedAutomaton, budget: int = 200000) -> Optional[Run]:
    """Breadth-first zone exploration; returns one accepting run with
    concrete delays, replayed on the automaton, or None when no final
    location is reachable.  The budget bounds the (location, zone) nodes.

    Stored zones are delay-closed: a node holds every valuation reachable
    by letting time pass in its location, and a successor under switch
    (g, r, dst) is free_D(up(reset_r(Z ∧ g) ∧ inv_dst) ∧ inv_dst),
    extrapolated, where D holds the clocks dead at dst (`live_clocks`).
    Zones that differ only in dead clocks are thereby one zone.  Zones are
    interned by canonical matrix and switch effects (g, r, inv_dst, D) are
    numbered, so each (zone, effect) successor is computed once; a stored
    zone equal to a new one is found by id, before any inclusion test.  A
    self-loop without guard or resets is never taken.  The witness is
    extracted and replayed on the automaton itself, with no clock freed."""
    from collections import deque

    n = len(ta.clocks) + 1
    k, invariants, switches = tables = _tables(ta)
    invariant = [bounds for bounds, _ in invariants]
    final = [l in ta.finals for l in ta.locations]
    live = live_clocks(ta, tables)
    freed = {mask: tuple(i + 1 for i in range(n - 1) if not mask >> i & 1) for mask in set(live)}
    effects: dict = {}  # (guard, resets, target invariant and live clocks) -> effect
    switches_from = [[] for _ in ta.locations]  # (switch index, dst, effect), in switch order
    for idx, (src, dst, (guard, _), (resets, reset_mask)) in enumerate(switches):
        if src == dst and not guard and not resets:
            continue
        key = (id(guard), reset_mask, id(invariant[dst]), live[dst])
        if key not in effects:
            effects[key] = (len(effects), guard, resets, invariant[dst], freed[live[dst]])
        switches_from[src].append((idx, dst, effects[key]))

    zones: list = []  # zone id -> (Zone, {effect id: successor zone id, or -1 if empty})
    zone_ids: dict = {}  # canonical matrix -> zone id

    def successor(zone: Zone, effect: tuple) -> int:
        _, guard, resets, inv, dead = effect
        m = zone.m[:]
        _conjoin(m, n, guard)  # an emptied matrix stays marked empty
        _reset(m, n, resets)
        _conjoin(m, n, inv)
        if m[0] < LE_ZERO:
            return -1
        _up(m, n)
        _conjoin(m, n, inv)
        _free(m, n, dead)
        z = zone._with(m).extrapolate(k)
        if z.key() not in zone_ids:
            zone_ids[z.key()] = len(zones)
            zones.append((z, {}))
        return zone_ids[z.key()]

    # the initial zone, delay-closed from zero (its bounds are within k)
    start = ta.locations.index(ta.initial)
    if successor(Zone.zero(ta.clocks), (0, (), (), invariant[start], freed[live[start]])) < 0:
        return None
    nodes = [(start, 0, None, None)]  # (location, zone id, parent node, switch index)
    stored = [[] for _ in ta.locations]  # location index -> zone ids
    stored[start].append(0)
    queue = deque([0])
    goal = 0 if final[start] else None
    while queue and goal is None:
        nid = queue.popleft()
        loc, zid, _, _ = nodes[nid]
        zone, known = zones[zid]
        for idx, dst, effect in switches_from[loc]:
            sid = known.get(effect[0])
            if sid is None:
                sid = known[effect[0]] = successor(zone, effect)
            bucket = stored[dst]
            if sid < 0 or sid in bucket:
                continue
            z = zones[sid][0]
            if any(zones[other][0].includes(z) for other in bucket):
                continue
            nodes.append((dst, sid, nid, idx))
            if len(nodes) > budget:
                raise ResourceError(f"zone graph exceeded {budget} nodes")
            bucket.append(sid)
            queue.append(len(nodes) - 1)
            if final[dst]:
                goal = len(nodes) - 1
                break

    if goal is None:
        return None

    path = []
    _, _, parent, idx = nodes[goal]
    while parent is not None:
        src, dst, (guard, _), (resets, _) = switches[idx]
        path.append((ta.switches[idx], guard, resets, invariant[src], invariant[dst]))
        _, _, parent, idx = nodes[parent]
    path.reverse()
    run = _extract_run(ta, path)
    run.replay_valuations(ta)
    return run


def _extract_run(ta: TimedAutomaton, path: list) -> Run:
    """Concrete delays for a fixed switch path via backward zone propagation,
    then greedy forward choice of the earliest feasible firing time.

    A step is (switch, packed guard, reset clock indices, packed source and
    target invariants).  post[i] is the feasible set for the valuation at
    the moment switch i fires (after the delay, before the reset), taking
    the whole remaining suffix into account.  As in `zone_reach`, each
    (zone, step kind) pair is computed once and each distinct zone's bounds
    are decoded once, however long the path.  Times stay exact: ints, or a
    Fraction where a window open at both ends puts a midpoint."""
    n = len(ta.clocks) + 1
    zone = Zone.universal(ta.clocks)  # its past closure is itself
    post = [None] * len(path)
    known: dict = {}  # (id of the later zone, ids of the step's parts) -> zone
    # canonical matrix -> the one zone holding it; keeping every zone alive
    # keeps the ids in `known` from being reused
    interned = {tuple(zone.m): zone}
    for i in range(len(path) - 1, -1, -1):
        _, guard, resets, inv_src, inv_dst = path[i]
        key = (id(zone), id(guard), id(resets), id(inv_src), id(inv_dst))
        if key not in known:
            m = zone.m[:]
            _down(m, n)
            # weakest pre-zone of the reset: each reset clock read 0 after it
            zeroed = tuple(b for y in resets for b in ((y, 0, LE_ZERO), (0, y, LE_ZERO)))
            _conjoin(m, n, inv_dst + zeroed)
            _free(m, n, resets)
            _conjoin(m, n, guard + inv_src)
            if m[0] < LE_ZERO:
                raise AssertionError("infeasible path from zone search")
            known[key] = interned.setdefault(tuple(m), zone._with(m))
        post[i] = zone = known[key]

    now = 0
    reset_at = [0] * (n - 1)
    steps = []
    bounds = {id(z): tuple(z._bounds()) for z in interned.values()}
    for (sw, _, resets, _, _), zone in zip(path, post):
        window = firing_window(bounds[id(zone)], now, reset_at)
        if window is None:
            raise AssertionError("no feasible delay on replay")
        t = window.earliest()
        steps.append((sw, t - now))
        now = t
        for y in resets:
            reset_at[y - 1] = t
    return Run(tuple(steps))


# --- serialization ----------------------------------------------------------------


def loc_str(loc) -> str:
    if isinstance(loc, tuple):
        return "|".join(loc_str(l) for l in loc)
    return str(loc)


def constraint_to_sexpr(g: ClockConstraint) -> str:
    if not g.atoms:
        return "true"
    parts = [f"({rel} {clock} {k})" for clock, rel, k in g.atoms]
    return parts[0] if len(parts) == 1 else "(and " + " ".join(parts) + ")"


def ta_to_json(ta: TimedAutomaton) -> dict:
    """JSON form of the automaton, the form `parsing.load_ta` reads."""
    return {
        "locations": [loc_str(l) for l in ta.locations],
        "initial": loc_str(ta.initial),
        "finals": sorted(loc_str(l) for l in ta.finals),
        "clocks": list(ta.clocks),
        "invariants": {
            loc_str(l): constraint_to_sexpr(inv) for l, inv in sorted(
                ta.invariants.items(), key=lambda kv: loc_str(kv[0])
            )
        },
        "switches": [
            {
                "src": loc_str(sw.src),
                "label": sw.label,
                "guard": constraint_to_sexpr(sw.guard),
                "resets": sorted(sw.resets),
                "dst": loc_str(sw.dst),
            }
            for sw in ta.switches
        ],
    }


def ta_to_dot(ta: TimedAutomaton) -> str:
    """DOT drawing of the automaton."""
    lines = ["digraph ta {", "  rankdir=LR;"]
    for loc in ta.locations:
        name = loc_str(loc)
        shape = "doublecircle" if loc in ta.finals else "circle"
        inv = ta.invariants.get(loc)
        label = name if inv is None else f"{name}\\n{inv}"
        lines.append(f'  "{name}" [shape={shape}, label="{label}"];')
    lines.append(f'  "__init" [shape=point];')
    lines.append(f'  "__init" -> "{loc_str(ta.initial)}";')
    for sw in ta.switches:
        parts = [sw.label]
        if sw.guard.atoms:
            parts.append(str(sw.guard))
        if sw.resets:
            parts.append(", ".join(f"{c}:=0" for c in sorted(sw.resets)))
        label = " / ".join(parts)
        lines.append(f'  "{loc_str(sw.src)}" -> "{loc_str(sw.dst)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
