"""Independent test oracles: region-level brute force, kept deliberately
separate from the zone engine and the synthesis pipeline, and the direct
recursive reading of the MTL semantics that `mtl.satisfies` evaluates
bottom-up."""

from fractions import Fraction
from itertools import product

from timegolog import golog
from timegolog.ata import minimal_models, symbol_step
from timegolog.mtl import And, Atom, DualUntil, Not, Or, Until
from timegolog.temporal import (
    canonical_valuation,
    eval_constraint,
    region_delays,
    time_successors,
)
from timegolog.timed_automata import INF


def enumerate_completed_traces(bat, program, k, max_actions):
    """All completed program traces at region-representative times.

    Delays range over the region increments of the program clocks together
    with one age clock per past action and one for the start of time; ages
    dominate every interval distinction a trace formula can make, so the
    returned set hits every region-distinct satisfaction outcome.
    """
    results = set()
    if golog.is_final(bat, bat.initial, program):
        results.add(())

    def explore(state, ages, prog, now, trace, depth):
        if depth == 0:
            return
        pooled = frozenset(state.clocks) | frozenset(
            (f"age{i}", a) for i, a in enumerate(ages)
        )
        for delay, _ in time_successors(pooled, k):
            advanced = state.advanced(delay)
            aged = tuple(a + delay for a in ages)
            for action, rest in sorted(
                golog.enabled_steps(bat, advanced, prog), key=str
            ):
                nstate = golog.progress(bat, advanced, action)
                ntrace = trace + ((action, now + delay),)
                if golog.is_final(bat, nstate, rest):
                    results.add(ntrace)
                explore(nstate, aged + (Fraction(0),), rest, now + delay,
                        ntrace, depth - 1)

    explore(bat.initial, (Fraction(0),), program, Fraction(0), (), max_actions)
    return results


def is_execution(bat, program, trace) -> bool:
    """Whether a timed trace is a completed execution of the program: each
    action is an enabled step of some residual program at its time, and the
    program may stop after the last one."""
    state, now, programs = bat.initial, Fraction(0), {program}
    for action, t in trace:
        advanced = state.advanced(Fraction(t) - now)
        programs = {
            rest for prog in programs
            for a, rest in golog.enabled_steps(bat, advanced, prog) if a == action
        }
        if not programs:
            return False
        state, now = golog.progress(bat, advanced, action), Fraction(t)
    return any(golog.is_final(bat, state, prog) for prog in programs)


def zone_contains(zone, valuation: dict) -> bool:
    """Whether the valuation (clock -> exact value) meets every off-diagonal
    entry of the zone's packed matrix, decoded here: entry b bounds
    x_i - x_j by b >> 1, non-strictly when b is odd, and INF bounds nothing.
    The diagonal is skipped, so an emptiness mark there does not hide the
    recorded bounds of a zone marked empty."""
    values = [0] + [valuation[c] for c in zone.clocks]
    n = len(values)
    for (i, xi), (j, xj) in product(enumerate(values), repeat=2):
        if i == j:
            continue
        b = zone.m[i * n + j]
        if b < INF and not (xi - xj <= b >> 1 if b & 1 else xi - xj < b >> 1):
            return False
    return True


def region_reachable(ta) -> bool:
    """Explicit search over (location, region-representative valuation)
    states; decides whether any final location is reachable."""
    k = max(ta.max_constant(), 1)

    def canon(valuation: dict) -> tuple:
        pairs = canonical_valuation(frozenset(valuation.items()), k)
        return tuple(sorted(pairs))

    start_val = {c: Fraction(0) for c in ta.clocks}
    if not eval_constraint(start_val, ta.invariant(ta.initial)):
        return False
    start = (ta.initial, canon(start_val))
    seen = {start}
    frontier = [start]
    while frontier:
        loc, pairs = frontier.pop()
        if loc in ta.finals:
            return True
        valuation = dict(pairs)
        for delay, advanced_pairs in time_successors(frozenset(pairs), k):
            advanced = dict(advanced_pairs)
            if not eval_constraint(advanced, ta.invariant(loc)):
                # convex invariants: once violated under delay, stay violated
                break
            for sw in ta.switches:
                if sw.src != loc:
                    continue
                if not eval_constraint(advanced, sw.guard):
                    continue
                succ_val = {
                    c: (Fraction(0) if c in sw.resets else v) for c, v in advanced.items()
                }
                if not eval_constraint(succ_val, ta.invariant(sw.dst)):
                    continue
                state = (sw.dst, canon(succ_val))
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
    return False


def region_language(ta, max_actions: int):
    """All non-ε label words of accepting runs with at most max_actions
    switches, at region-representative times (exact rationals)."""
    k = max(ta.max_constant(), 1)
    words = set()

    def canon_key(valuation):
        return tuple(sorted(canonical_valuation(frozenset(valuation.items()), k)))

    start_val = {c: Fraction(0) for c in ta.clocks}
    if not eval_constraint(start_val, ta.invariant(ta.initial)):
        return words
    seen = set()

    def explore(loc, valuation, now, word, depth):
        key = (loc, canon_key(valuation), tuple(word), now)
        if key in seen:
            return
        seen.add(key)
        if loc in ta.finals:
            words.add(tuple(word))
        if depth == 0:
            return
        for delay, advanced_pairs in time_successors(frozenset(valuation.items()), k):
            advanced = dict(advanced_pairs)
            if not eval_constraint(advanced, ta.invariant(loc)):
                break
            for sw in ta.switches:
                if sw.src != loc or not eval_constraint(advanced, sw.guard):
                    continue
                succ = {c: (Fraction(0) if c in sw.resets else v) for c, v in advanced.items()}
                if not eval_constraint(succ, ta.invariant(sw.dst)):
                    continue
                new_word = word if sw.label == "ε" else word + [(sw.label, now + delay)]
                explore(sw.dst, succ, now + delay, list(new_word), depth - 1)

    explore(ta.initial, start_val, Fraction(0), [], max_actions)
    return words


def eager_successors(problem, state):
    """Reference for `synthesis.det_successors_exact` in Fractions: every
    member's configuration is advanced at every region increment, and the
    enabled steps are evaluated with `golog` on the exact advanced world.
    Successors are (fluents, funcs, clocks, members) with Fraction values,
    a member being a (residual program, configuration) pair."""
    bat, ata, unit = problem.bat, problem.ata, state.unit
    world0 = golog.WorldState(
        state.fluents, state.funcs,
        tuple((c, Fraction(v, unit)) for c, v in state.clocks),
    )
    members = [
        (m.prog, frozenset((loc, Fraction(v, unit)) for loc, v in m.config))
        for m in state.members
    ]
    values = {v for _, v in world0.clocks} | {v for _, g in members for _, v in g}
    out = []
    for idx, delay in enumerate(region_delays(values, problem.k)):
        world = world0.advanced(delay)
        by_action = {}
        for prog, config in members:
            advanced = frozenset((loc, v + delay) for loc, v in config)
            for action, rest in golog.enabled_steps(bat, world, prog):
                by_action.setdefault(action, []).append((advanced, rest))
        for action in sorted(by_action):
            after = golog.progress(bat, world, action)
            symbol = frozenset(after.fluents) & ata.atom_universe
            succ = {
                (rest, g)
                for config, rest in by_action[action]
                for g in symbol_step(config, symbol, ata)
            }
            kept = frozenset(
                m for m in succ if not any(o[0] == m[0] and o[1] < m[1] for o in succ)
            )
            if kept:
                out.append(((action, idx), (after.fluents, after.funcs, after.clocks, kept)))
    return out


def reference_symbol_step(g, symbol, ata, unit=1):
    """`ata.symbol_step` from each state's transition formula: the minimal
    models of `eta(loc, symbol)` per state, one chosen per state, unioned,
    and the unions with a strict subset among them dropped."""
    per_state = [minimal_models(ata.eta(loc, symbol), v, unit) for loc, v in g]
    unions = {frozenset().union(*choice) for choice in product(*per_state)}
    return frozenset(u for u in unions if not any(o < u for o in unions))


def recursive_satisfies(rho, i, phi, _memo=None) -> bool:
    """Point-based truth of phi at position i of rho (strict until), by
    direct recursion with memoization: the reference for `mtl.satisfies`.
    Recursion depth grows with the word, so keep words short."""
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
        result = not recursive_satisfies(rho, i, phi.arg, _memo)
    elif isinstance(phi, And):
        result = all(recursive_satisfies(rho, i, a, _memo) for a in phi.args)
    elif isinstance(phi, Or):
        result = any(recursive_satisfies(rho, i, a, _memo) for a in phi.args)
    elif isinstance(phi, Until):
        result = False
        for j in range(i + 1, len(rho)):
            dt = rho.time(j) - rho.time(i)
            if phi.interval.contains(dt) and recursive_satisfies(rho, j, phi.rhs, _memo):
                result = True
                break
            if phi.interval.hi is not None and dt > phi.interval.hi:
                break
            if not recursive_satisfies(rho, j, phi.lhs, _memo):
                break
    elif isinstance(phi, DualUntil):
        # dual of the until loop: a witness position refutes the formula
        witness = False
        for j in range(i + 1, len(rho)):
            dt = rho.time(j) - rho.time(i)
            if phi.interval.contains(dt) and not recursive_satisfies(rho, j, phi.rhs, _memo):
                witness = True
                break
            if phi.interval.hi is not None and dt > phi.interval.hi:
                break
            if recursive_satisfies(rho, j, phi.lhs, _memo):
                break
        result = not witness
    else:
        raise TypeError(f"not an MTL formula: {phi!r}")
    _memo[key] = result
    return result
