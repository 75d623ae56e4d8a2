"""Plan transformation: encode a fixed action sequence and its timing
constraints as a timed automaton, compose it with the platform model,
rewrite the product so chaining constraints are enforced structurally, and
extract a satisfying timed trace by zone reachability.

The constraint language has three forms: absolute timing for the i-th plan
action, relative timing between two plan actions, and chains requiring the
platform to pass through location stages within given windows between two
matched plan actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from fractions import Fraction
from typing import Optional

from . import mtl
from .mtl import Atom, MtlFormula, TimedWord
from .parsing import parse_mtl
from .temporal import ClockConstraint, Interval, eval_constraint, scale_lcm
from .timed_automata import (
    EPSILON,
    Switch,
    TimedAutomaton,
    make_ta,
    parallel_compose,
    run_to_timed_word,
    zone_reach,
)


class PlanConstraintError(ValueError):
    """A constraint cannot be satisfied structurally (e.g. a chain stage
    matches no platform location within its activation)."""


@dataclass(frozen=True)
class Plan:
    actions: tuple  # ground action names, 1-based in constraints
    _matching: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isinstance(a, str) and a for a in self.actions):
            raise ValueError("plan actions must be non-empty names")
        if EPSILON in self.actions:
            raise ValueError(f"the plan action {EPSILON} is reserved for idle self-loops")

    def matching(self, pattern: str) -> frozenset:
        """The actions `pattern` matches (`match_action`), computed once."""
        if pattern not in self._matching:
            self._matching[pattern] = frozenset(a for a in set(self.actions) if match_action(pattern, a))
        return self._matching[pattern]

    def __len__(self):
        return len(self.actions)

    def action(self, i: int) -> str:
        return self.actions[i - 1]


@dataclass(frozen=True)
class Abs:
    i: int
    interval: Interval


@dataclass(frozen=True)
class Rel:
    i: int
    j: int
    interval: Interval

    def __post_init__(self):
        if not self.i < self.j:
            raise ValueError("relative constraints need i < j")


@dataclass(frozen=True)
class Chain:
    """Between matched plan actions the platform must pass through the
    stages in order; `stages` pairs a location predicate (an MTL boolean
    formula over platform location names) with a duration interval."""

    stages: tuple  # of (MtlFormula over locations, Interval)
    alpha1: str  # action matcher
    alpha2: str

    def __post_init__(self):
        if not self.stages:
            raise ValueError("chains need at least one stage")


@dataclass(frozen=True)
class ConstraintSet:
    abs: tuple = ()
    rel: tuple = ()
    chain: tuple = ()

    def check_indices(self, plan: Plan):
        for c in self.abs:
            if not 1 <= c.i <= len(plan):
                raise ValueError(f"absolute constraint index {c.i} outside the plan")
        for c in self.rel:
            if not 1 <= c.i < c.j <= len(plan):
                raise ValueError(f"relative constraint ({c.i},{c.j}) outside the plan")


def match_action(pattern: str, action: str) -> bool:
    """Matchers are exact names, globs, or kind-prefixed globs on the base
    of start(...)/end(...) actions, e.g. "start:goto*"."""
    for kind in ("start", "end"):
        prefix = kind + ":"
        if pattern.startswith(prefix):
            if not (action.startswith(kind + "(") and action.endswith(")")):
                return False
            base = action[len(kind) + 1:-1]
            return fnmatchcase(base, pattern[len(prefix):])
    return fnmatchcase(action, pattern)


@dataclass(frozen=True)
class Activation:
    s: int
    e: int


def get_activations(chain: Chain, plan: Plan) -> frozenset:
    """Pairs (s, e) with the s-th action matching alpha1, the e-th matching
    alpha2, and no alpha1 or alpha2 match strictly between (the scope runs
    to the first closing match)."""
    out = set()
    n = len(plan)
    a1, a2 = plan.matching(chain.alpha1), plan.matching(chain.alpha2)
    for s in range(1, n + 1):
        if plan.action(s) not in a1:
            continue
        for e in range(s + 1, n + 1):
            if plan.action(e) in a1:
                break
            if plan.action(e) in a2:
                out.add(Activation(s, e))
                break
    return frozenset(out)


def _interval_atoms(clock: str, interval: Interval) -> tuple:
    return tuple((clock, rel, k) for rel, k in interval.bounds())


def rel_clock(i: int, j: int) -> str:
    return f"x_{i}_{j}"


def _share_rel_clocks(rel: tuple) -> dict:
    """Clock of each relative window start.  Windows starting at position i
    share one clock, live from i to the last j they read it at; a clock is
    free again at a start no earlier than the end of its previous lifetime,
    since switch i evaluates its guard before its resets.  Greedy interval
    colouring in order of starts uses as many clocks as the largest number
    of lifetimes overlapping at once; each clock is named after the first
    window it serves."""
    span: dict = {}  # start -> (first j, last j) of its windows
    for c in rel:
        first, last = span.get(c.i, (c.j, c.j))
        span[c.i] = (min(first, c.j), max(last, c.j))
    clock_of: dict = {}
    busy_until: dict = {}  # clock -> end of its current lifetime
    for i, (first, last) in sorted(span.items()):
        free = [x for x, end in busy_until.items() if end <= i]
        clock_of[i] = free[0] if free else rel_clock(i, first)
        busy_until[clock_of[i]] = last
    return clock_of


def encode_plan(plan: Plan, constraints: ConstraintSet) -> TimedAutomaton:
    """One location per plan position; switch i fires action i, guarded by
    the absolute window and the relative windows ending at i, and resets the
    clock of the relative windows starting at i.  Relative windows share
    clocks wherever their lifetimes allow (`_share_rel_clocks`), and only
    clocks some constraint mentions are declared, each once; the accepted
    words are exactly the correctly ordered, fully timed plans meeting every
    absolute and relative constraint."""
    constraints.check_indices(plan)
    n = len(plan)
    abs_by_i: dict = {}
    for c in constraints.abs:
        abs_by_i.setdefault(c.i, []).append(c.interval)
    clock_of = _share_rel_clocks(constraints.rel)
    clocks = ["x_abs"] if abs_by_i else []
    clocks += list(dict.fromkeys(clock_of.values()))
    switches = []
    for i in range(1, n + 1):
        atoms = []
        for interval in abs_by_i.get(i, ()):
            atoms += _interval_atoms("x_abs", interval)
        for c in constraints.rel:
            if c.j == i:
                atoms += _interval_atoms(clock_of[c.i], c.interval)
        resets = frozenset({clock_of[i]} if i in clock_of else ())
        switches.append(
            Switch(f"l{i - 1}", plan.action(i), ClockConstraint(tuple(atoms)), resets, f"l{i}")
        )
    return make_ta(
        locations=[f"l{i}" for i in range(n + 1)],
        initial="l0",
        finals=[f"l{n}"],
        clocks=clocks,
        invariants={},
        switches=switches,
    )


# --- chain surgery on the product -------------------------------------------------


def _beta_holds(beta: MtlFormula, location: str) -> bool:
    word = TimedWord(((frozenset({location}), Fraction(0)),))
    return mtl.satisfies(word, 0, beta)


def enforce_chain(product: TimedAutomaton, activations: list) -> TimedAutomaton:
    """Replace each activation's context by one filtered copy per stage.

    `product` is `parallel_compose(encode_plan(...), platform)`: its
    locations are (plan location, platform location) pairs, plan-major.
    `activations` lists (Activation, Chain, chain clock) in the order the
    surgeries apply; activation (s, e) has the plan positions s..e-1 as its
    context.  Stage j keeps the context locations whose platform component
    satisfies the stage predicate; switches between consecutive stages
    carry the stage-duration guard and reset the chain clock, entry
    switches reset it, and exit switches carry the final stage's guard.
    The platform's ε self-loops let consecutive stages share a location
    without an actual platform action.

    One walk over the switches applies every surgery, and the automaton is
    built once; the result, order included, is that of applying them one
    after another, where a location copied by an earlier surgery is copied
    again with nested tags ((loc, tag1), tag2)."""
    position = {l: i for i, l in enumerate(dict.fromkeys(l for l, _ in product.locations))}
    platform = dict.fromkeys(p for _, p in product.locations)
    surgeries = []  # (s, e, clock, stage location sets, stage tags, stage guard atoms)
    stage_sets: dict = {}  # per chain clock
    covering = [[] for _ in position]  # plan position -> surgeries whose context holds it
    for k, (act, chain, clock) in enumerate(activations):
        if clock not in stage_sets:
            stage_sets[clock] = [
                frozenset(p for p in platform if _beta_holds(beta, p)) for beta, _ in chain.stages
            ]
        tags = [("stage", clock, j) for j in range(1, len(chain.stages) + 1)]
        atoms = [_interval_atoms(clock, iv) for _, iv in chain.stages]
        surgeries.append((act.s, act.e, clock, stage_sets[clock], tags, atoms))
        for i in range(act.s, act.e):
            covering[i].append(k)

    # locations: each surgery moves its context to the end, stage by stage
    records = [(loc, position[loc[0]], loc[1], loc) for loc in product.locations]
    clocks = product.clocks
    for s, e, clock, sets, tags, _ in surgeries:
        context = [r for r in records if s <= r[1] < e]
        if not context:
            raise PlanConstraintError(f"activation ({s},{e}) has an empty context")
        records = [r for r in records if not s <= r[1] < e]
        for j, (kept, tag) in enumerate(zip(sets, tags), start=1):
            copies = [((loc, tag), i, p, base) for loc, i, p, base in context if p in kept]
            if not copies:
                raise PlanConstraintError(
                    f"chain stage {j} matches no platform location within "
                    f"activation ({s},{e}): constraint unsatisfiable"
                )
            records += copies
        if clock not in clocks:
            clocks += (clock,)

    switches = []
    for sw in product.switches:
        i1, i2 = position[sw.src[0]], position[sw.dst[0]]
        c1, c2 = covering[i1], covering[i2]
        ks = c1 if c1 == c2 else sorted({*c1, *c2})
        if not ks:
            switches.append(sw)
            continue
        p1, p2 = sw.src[1], sw.dst[1]
        # copies of sw so far: (src, dst, added guard atoms, resets)
        copies = [(sw.src, sw.dst, (), sw.resets)]
        for k in ks:
            s, e, clock, sets, tags, atoms = surgeries[k]
            if not s <= i1 < e:
                # context entry: start stage 1 and the chain clock
                keep = p2 in sets[0]
                copies = [(a, (b, tags[0]), g, r | {clock}) for a, b, g, r in copies if keep]
            elif not s <= i2 < e:
                # context exit: only from the last stage, closing its window
                keep = p1 in sets[-1]
                copies = [((a, tags[-1]), b, g + atoms[-1], r) for a, b, g, r in copies if keep]
            else:
                # internal: within a stage, and across consecutive stages
                inner = []
                for a, b, g, r in copies:
                    for j, kept in enumerate(sets):
                        if p1 not in kept:
                            continue
                        if p2 in kept:
                            inner.append(((a, tags[j]), (b, tags[j]), g, r))
                        if j + 1 < len(sets) and p2 in sets[j + 1]:
                            inner.append(
                                ((a, tags[j]), (b, tags[j + 1]), g + atoms[j], r | {clock})
                            )
                copies = inner
        for a, b, g, r in copies:
            guard = sw.guard.conjoin(ClockConstraint(g)) if g else sw.guard
            switches.append(Switch(a, sw.label, guard, r, b))

    invariants = {
        loc: product.invariants[base] for loc, _, _, base in records if base in product.invariants
    }
    finals = frozenset(l for l in product.finals if not covering[position[l[0]]])
    return make_ta([r[0] for r in records], product.initial, finals, clocks, invariants, switches)


def transform_plan(
    plan: Plan, platform: TimedAutomaton, constraints: ConstraintSet,
    encoding: Optional[TimedAutomaton] = None,
) -> Optional[tuple]:
    """Timed realization of the plan interleaved with platform actions, or
    None when the constraints are unsatisfiable.  The platform automaton is
    ε-augmented automatically; ε never shows up in the result.  A caller
    that has already built `build_encoding(plan, platform, constraints)`,
    which checks the platform, passes it as `encoding`, so it is not built
    again.

    Platform constants may be rationals; constraint intervals are naturals.
    The zones run on the encoding with every constant multiplied by the lcm
    of the platform's denominators, and the times found are divided by it,
    so the result is in the units of the inputs."""
    if encoding is None:
        encoding = build_encoding(plan, platform, constraints)
    scale = scale_lcm(platform.constants())
    run = zone_reach(encoding.scaled(scale))
    if run is None:
        return None
    return tuple((label, t / scale) for label, t in run_to_timed_word(run))


def check_platform(plan: Plan, platform: TimedAutomaton) -> None:
    """Reject a platform whose labels collide with plan actions, or that
    uses ε on anything but a plain self-loop (transformed traces drop ε
    steps, so such a switch would give a trace that fails validation)."""
    shared = set(plan.actions) & {str(sw.label) for sw in platform.switches}
    if shared:
        raise ValueError(f"plan actions collide with platform labels: {sorted(shared)}")
    for sw in platform.switches:
        if sw.label == EPSILON and (sw.src != sw.dst or sw.guard.atoms or sw.resets):
            raise ValueError(
                f"platform switch {sw} uses the label {EPSILON}, which is reserved "
                "for self-loops without guard or resets"
            )


def build_encoding(
    plan: Plan, platform: TimedAutomaton, constraints: ConstraintSet
) -> TimedAutomaton:
    """The fully constrained product automaton (exposed for inspection): the
    plan encoding composed with the ε-augmented platform, then every chain
    activation's surgery, chain by chain and in plan order, in one
    `enforce_chain` pass.  The inputs go through `check_platform` first, so
    nothing is built, or written from it, for a platform that is rejected."""
    check_platform(plan, platform)
    product = parallel_compose(encode_plan(plan, constraints), platform.with_epsilon_loops())
    activations = [
        (act, chain, f"x_chain{ci}")
        for ci, chain in enumerate(constraints.chain)
        for act in sorted(get_activations(chain, plan), key=lambda a: (a.s, a.e))
    ]
    return enforce_chain(product, activations) if activations else product


# --- independent validation ---------------------------------------------------------


def constraint_formulas(plan: Plan, constraints: ConstraintSet) -> list[MtlFormula]:
    """The constraints spelled out as trace formulas over plan-position
    atoms PlanOrder(i), action-occurrence atoms, and platform locations."""
    out = []
    for c in constraints.abs:
        out.append(mtl.finally_(Atom(f"PlanOrder({c.i})"), c.interval))
    for c in constraints.rel:
        out.append(mtl.finally_(mtl.And((
            Atom(f"PlanOrder({c.i})"),
            mtl.finally_(Atom(f"PlanOrder({c.j})"), c.interval),
        ))))
    for chain in constraints.chain:
        out.append(chain_formula(plan, chain))
    return out


def _matcher_formula(plan: Plan, pattern: str) -> MtlFormula:
    return mtl.Or(tuple(Atom(a) for a in sorted(plan.matching(pattern))))


def chain_formula(plan: Plan, chain: Chain) -> MtlFormula:
    a1 = _matcher_formula(plan, chain.alpha1)
    a2 = _matcher_formula(plan, chain.alpha2)
    trigger = mtl.And((a1, mtl.Until(mtl.Not(a1), a2)))

    def level(j: int) -> MtlFormula:
        beta, interval = chain.stages[j]
        hold = mtl.And((beta, mtl.Not(a2)))
        target = a2 if j == len(chain.stages) - 1 else level(j + 1)
        return mtl.And((hold, mtl.Until(hold, target, interval)))

    return mtl.globally(mtl.Or((mtl.Not(trigger), level(0))))


def trace_word(plan: Plan, platform: TimedAutomaton, trace: tuple) -> Optional[TimedWord]:
    """State-based word of a transformed trace: occurrence atoms, the last
    plan position, and the platform location; None when the trace does not
    replay on the plan order and the platform semantics."""
    plan_actions = list(plan.actions)
    platform_by_label: dict = {}
    for sw in platform.switches:
        platform_by_label.setdefault(str(sw.label), []).append(sw)

    def moves(k, loc, valuation, now, plan_pos):
        """Ways to replay trace[k] from a replay state: the word entry it
        adds and the successor state (loc, valuation, now, plan_pos)."""
        action, t = trace[k]
        t = Fraction(t)
        if t < now or action == EPSILON:
            return
        advanced = {c: v + (t - now) for c, v in valuation.items()}
        if not eval_constraint(advanced, platform.invariant(loc)):
            return
        if plan_pos < len(plan_actions) and action == plan_actions[plan_pos]:
            symbols = {action, f"PlanOrder({plan_pos + 1})", str(loc)}
            yield (frozenset(symbols), t), (loc, advanced, t, plan_pos + 1)
            return
        po = {f"PlanOrder({plan_pos})"} if plan_pos else set()
        for sw in platform_by_label.get(action, ()):
            if sw.src != loc or not eval_constraint(advanced, sw.guard):
                continue
            succ = {c: (Fraction(0) if c in sw.resets else v) for c, v in advanced.items()}
            if not eval_constraint(succ, platform.invariant(sw.dst)):
                continue
            yield (frozenset({action, str(sw.dst)} | po), t), (sw.dst, succ, t, plan_pos)

    start_val = {c: Fraction(0) for c in platform.clocks}
    if not eval_constraint(start_val, platform.invariant(platform.initial)):
        return None
    # depth-first replay over the (finitely many) nondeterministic platform
    # runs; stack[k] enumerates the moves for trace[k], entries[k + 1] holds
    # the one taken
    state = (platform.initial, start_val, Fraction(0), 0)
    entries = [(frozenset({str(platform.initial)}), Fraction(0))]
    stack = []
    while True:
        if len(stack) < len(trace):
            stack.append(moves(len(stack), *state))
        else:
            loc, _, _, plan_pos = state
            if plan_pos == len(plan_actions) and (
                not platform.finals or loc in platform.finals
            ):
                return TimedWord(tuple(entries))
        step = None
        while stack and step is None:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
        if step is None:
            return None
        del entries[len(stack):]
        entry, state = step
        entries.append(entry)


# --- silent-move reconstruction ----------------------------------------------------
#
# Emitted traces drop the platform's ε self-loops, but the constraint
# semantics observes a trace position at every action, including an ε move
# that advances a chain stage without changing the platform location.  The
# validator therefore searches for stage-crossing times consistent with the
# observed positions (a chain of interval constraints) and re-inserts those
# observation points before handing the word to the semantics oracle.


def _chain_insertions(entries, plan, chain, platform_names):
    """Observation points restoring the chain's silent stage crossings, or
    None when no consistent crossing times exist for some activation.

    Crossings either coincide with an observed action (the platform move
    that switches the stage) or fall inside a piece whose location satisfies
    both adjacent stage predicates (an ε move).  Feasibility is a chain of
    interval constraints: windows are propagated forward through a search
    over piece assignments, and concrete times are fixed by a backward pass.
    """
    # an entry satisfies `_matcher_formula` iff it holds a matched name
    a1, a2 = plan.matching(chain.alpha1), plan.matching(chain.alpha2)

    def loc_of(symbols):
        for s in symbols:
            if s in platform_names:
                return s
        raise ValueError("word entry lacks a platform location")

    n = len(chain.stages)
    intervals = [iv for _, iv in chain.stages]
    insertions = []
    for p in range(1, len(entries)):
        if entries[p][0].isdisjoint(a1):
            continue
        q = None
        for r in range(p + 1, len(entries)):
            if not entries[r][0].isdisjoint(a1):
                break
            if not entries[r][0].isdisjoint(a2):
                q = r
                break
        if q is None:
            continue
        times = [t for _, t in entries]
        locs = [loc_of(symbols) for symbols, _ in entries]
        beta_ok = [
            [_beta_holds(beta, locs[r]) for r in range(p, q)]
            for beta, _ in chain.stages
        ]

        def dfs(r, j, window):
            """Pieces before r are covered; stage j entered at a time in
            `window`.  Returns the crossing slots [(piece, kind)] or None.
            The next crossing may land in the same piece again (stages of
            zero duration), so recursion re-enters at piece m, not m+1.
            """
            if j == n - 1:
                for piece in range(r, q):
                    if not beta_ok[j][piece - p]:
                        return None
                if not window.shift(intervals[j]).contains(times[q]):
                    return None
                return []
            for m in range(r, q):
                # seam: the observed action at position m switches the stage
                if m > p and m > r and beta_ok[j + 1][m - p]:
                    w = window.shift(intervals[j]).intersect(Interval.point(times[m]))
                    if w is not None:
                        rest = dfs(m, j + 1, w)
                        if rest is not None:
                            return [(m, "seam")] + rest
                # silent move inside piece m: the location fits both stages
                if beta_ok[j][m - p] and beta_ok[j + 1][m - p]:
                    w = window.shift(intervals[j]).intersect(Interval(times[m], times[m + 1]))
                    if w is not None:
                        rest = dfs(m, j + 1, w)
                        if rest is not None:
                            return [(m, "eps")] + rest
                if not beta_ok[j][m - p]:
                    return None  # cannot stay in stage j past this piece
            return None

        slots = dfs(p, 0, Interval.point(times[p]))
        if slots is None:
            return None

        # concrete times: backward-tighten the windows, then pick forward
        windows = []
        for (m, kind) in slots:
            windows.append(Interval(times[m], times[m] if kind == "seam" else times[m + 1]))
        bound = Interval.point(times[q]).back_shift(intervals[n - 1])
        for j in range(len(slots) - 1, -1, -1):
            bound = windows[j].intersect(bound)
            windows[j] = bound
            bound = bound.back_shift(intervals[j])
        t_prev = times[p]
        for j, ((m, kind), w) in enumerate(zip(slots, windows)):
            t = Interval.point(t_prev).shift(intervals[j]).intersect(w).earliest()
            if kind == "eps":
                insertions.append((m, t, locs[m]))
            t_prev = t
    return insertions


def validate_transformed(
    trace: tuple, plan: Plan, platform: TimedAutomaton, constraints: ConstraintSet
) -> bool:
    """True iff the trace replays on the plan order and the platform
    semantics and every constraint holds under the independent trace-formula
    semantics (with the platform's silent stage-crossing moves restored as
    observation points)."""
    plan_actions = set(plan.actions)
    plan_sub = [a for a, _ in trace if a in plan_actions]
    if plan_sub != list(plan.actions):
        return False
    word = trace_word(plan, platform, trace)
    if word is None:
        return False
    platform_names = frozenset(str(l) for l in platform.locations)
    entries = list(word.entries)
    all_insertions = []
    for chain in constraints.chain:
        got = _chain_insertions(entries, plan, chain, platform_names)
        if got is None:
            return False
        all_insertions.extend(got)
    augmented = list(entries)
    # insert from the back so earlier indices stay valid; within one piece,
    # later times go in first so the final order is ascending; duplicates
    # stay distinct (consecutive zero-duration stages each need their own
    # witness position)
    for piece, t, loc in sorted(all_insertions, key=lambda x: (-x[0], -x[1])):
        carry = {s for s in augmented[piece][0] if s.startswith("PlanOrder(")}
        augmented.insert(piece + 1, (frozenset({loc}) | frozenset(carry), t))
    final = TimedWord(tuple(augmented))
    return all(
        mtl.satisfies(final, 0, phi) for phi in constraint_formulas(plan, constraints)
    )


# --- JSON ------------------------------------------------------------------------


def plan_from_json(obj) -> Plan:
    actions = obj.get("actions") if isinstance(obj, dict) else None
    if not isinstance(actions, list) or not all(isinstance(a, str) and a for a in actions):
        raise ValueError('plan JSON must be {"actions": [non-empty action names]}')
    return Plan(tuple(actions))


def _field(entry, key: str, kind: type, where: str):
    """entry[key] when entry is a JSON object and the value has type kind."""
    value = entry.get(key) if isinstance(entry, dict) else None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f'constraints JSON: each {where} needs a "{key}" of type {kind.__name__}')
    return value


def constraints_from_json(obj: dict) -> ConstraintSet:
    if not isinstance(obj, dict):
        raise ValueError("constraints JSON must be an object")

    def entries(key: str) -> list:
        items = obj.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f'constraints JSON: "{key}" must be a list')
        return items

    def interval(entry, where: str) -> Interval:
        return Interval.from_json(_field(entry, "interval", dict, where))

    abs_cs = tuple(
        Abs(_field(c, "i", int, "abs"), interval(c, "abs"))
        for c in entries("abs")
    )
    rel_cs = tuple(
        Rel(_field(c, "i", int, "rel"), _field(c, "j", int, "rel"), interval(c, "rel"))
        for c in entries("rel")
    )
    chains = []
    for c in entries("chain"):
        stages = tuple(
            (parse_mtl(_field(st, "beta", str, "stage")), interval(st, "stage"))
            for st in _field(c, "stages", list, "chain")
        )
        chains.append(Chain(stages, _field(c, "alpha1", str, "chain"),
                            _field(c, "alpha2", str, "chain")))
    return ConstraintSet(abs_cs, rel_cs, tuple(chains))

