"""Verification and controller synthesis for timed programs.

The pipeline: compile the specification of undesired behavior into an
alternating timed automaton, run it in lockstep with the program
interpreter, restrict time steps to region increments over the pooled clock
set, determinize by collecting all simultaneous (program, automaton-config)
alternatives, and search the resulting finitely-branching system.  A
well-quasi-order on states closes paths that are dominated by an ancestor
(in `verify`, by any node explored before), so the search graph is finite
even for looping programs.  For synthesis, a two-player safety game is
labelled during the search, which stops expanding a node once its label is
decided; the graph so searched decides whether a controller exists and
yields it.

A product state holds its program and automaton clock values as integers
over one per-state unit: a value v of a state with unit u stands for v/u.
Canonical states (the search's nodes) take the rank unit of
`temporal.scaled_value_map`; exact states (replay and simulation) the gcd,
with values above k set to k + 1.  A `Fraction` is built only where a time
leaves the search: the world handed to `golog` where a guard or a program
test reads a clock, the times of replayed and simulated traces, `trace_to_word`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Optional

from .ata import Ata, ata_from_mtl, minimal, symbol_step, time_step
from . import golog, mtl
from .golog import Bat, Program, WorldState, normalize
from .mtl import Hashed, MtlFormula, TimedWord, hashed_dataclass
from .temporal import (
    ClockConstraint,
    ResourceError,
    mono_dom_leq,
    powerset_leq,
    region_delay_count,
    scale_lcm,
    scaled_canonical_word,
    scaled_region_delays,
    scaled_region_index,
    scaled_value_map,
    time_successors,  # noqa: F401  (re-exported: `synthesis.time_successors` stays importable)
)


class NoControllerError(Exception):
    """Controller extraction attempted on a losing game."""


# --- problem assembly ---------------------------------------------------------


@dataclass
class Problem:
    """A synthesis/verification instance with caches that the search, the
    replay and the simulation share and fill; it interns members and member
    steps."""

    bat: Bat
    program: Program
    spec: MtlFormula  # positive normal form
    ata: Ata
    k: int
    scale: int = 1  # the inputs' clock constants were multiplied by it

    def __post_init__(self):
        self._steps_cache = {}
        self._final_cache = {}
        self._symbol_cache = {}
        self._poss_cache = {}
        self._guard_cache = {}
        self._members = {}  # residual program -> configuration -> its Member
        self._advanced = {}  # (configuration, delay) -> advanced configuration
        # when no test reads a clock, transitions and finality are functions
        # of the fluent state alone and the caches can ignore the valuation
        self._clocked_tests = bool(golog.clock_atoms(self.program))

    def member(self, prog: Program, config: frozenset) -> Member:
        """The one `Member` of this problem with these fields."""
        by_config = self._members.get(prog)
        if by_config is None:
            by_config = self._members[prog] = {}
        hit = by_config.get(config)
        if hit is None:
            hit = by_config[config] = Member(prog, config)
        return hit

    def progress_fluents(self, state: WorldState, action: str) -> WorldState:
        """The fluents and functional values after the action in a world
        without clocks; `golog.progress` computes them once per fluent state
        and action for the theory, and `trace_to_word` reuses them."""
        return golog.progress(self.bat, state, action)

    def program_steps(self, state: WorldState, prog: Program) -> frozenset:
        clocks = state.clocks if self._clocked_tests else None
        key = (state.fluent_key(), clocks, prog)
        hit = self._steps_cache.get(key)
        if hit is None:
            hit = golog.program_steps(self.bat, state, prog)
            self._steps_cache[key] = hit
        return hit

    def is_final(self, state: WorldState, prog: Program) -> bool:
        clocks = state.clocks if self._clocked_tests else None
        key = (state.fluent_key(), clocks, prog)
        hit = self._final_cache.get(key)
        if hit is None:
            hit = golog.is_final(self.bat, state, prog)
            self._final_cache[key] = hit
        return hit

    def poss(self, state: WorldState, action: str) -> bool:
        key = (state.fluent_key(), action)
        hit = self._poss_cache.get(key)
        if hit is None:
            hit = golog.holds(self.bat, state, self.bat.actions[action].poss)
            self._poss_cache[key] = hit
        return hit

    def guard_ok(self, state: DetState, regions: tuple, action: str) -> bool:
        """Whether the action's clock guard holds when the program clocks lie
        in these regions.  Every guard constant is at most k, so any value
        of a region decides the guard."""
        key = (state.fluents, state.funcs, regions, action)
        hit = self._guard_cache.get(key)
        if hit is None:
            world = region_world(state, regions)
            hit = golog.holds(self.bat, world, self.bat.actions[action].guard)
            self._guard_cache[key] = hit
        return hit

    def symbol(self, state: WorldState) -> frozenset:
        return frozenset(state.fluents) & self.ata.atom_universe

    def symbol_step(self, config: frozenset, symbol: frozenset, unit: int) -> frozenset:
        key = (config, symbol, unit)
        hit = self._symbol_cache.get(key)
        if hit is None:
            hit = symbol_step(config, symbol, self.ata, unit)
            self._symbol_cache[key] = hit
        return hit

    def member_step(self, config: frozenset, delay: int, symbol: frozenset, unit: int) -> frozenset:
        """`symbol_step(time_step(config, delay, 2), symbol, unit)`, `config`
        over unit/2: each time step once per delay, each symbol step once per
        symbol and unit (the same integers over another unit are other times)."""
        key = (config, delay)
        advanced = self._advanced.get(key)
        if advanced is None:
            advanced = self._advanced[key] = time_step(config, delay, 2)
        return self.symbol_step(advanced, symbol, unit)


def build_problem(bat: Bat, program: Program, spec: MtlFormula) -> Problem:
    """Normalize the inputs, scale them to natural constants and fix the
    maximal constant k.

    Clock constants may be rationals.  The theory, the program and the spec
    are multiplied by the lcm of the denominators of the constants in the
    action guards and the program tests, kept as `Problem.scale`; search
    times are then in units of 1/scale.  k bounds every clock comparison the
    scaled problem makes (guards, program tests and spec intervals), as the
    region abstraction is exact only up to it."""
    atoms = [a for decl in bat.actions.values() for a in golog.clock_atoms(decl.guard)]
    atoms += golog.clock_atoms(program)
    scale = scale_lcm(a.const for a in atoms)
    if scale != 1:
        def scaled(x):
            return golog.map_clocks(
                x, lambda a: golog.SClock(a.clock, a.rel, a.const * scale)
            )

        bat = replace(
            bat,
            actions={
                name: replace(decl, guard=scaled(decl.guard))
                for name, decl in bat.actions.items()
            },
            initial=bat.initial.with_clocks(
                {c: v * scale for c, v in bat.initial.clocks}
            ),
        )
        program = scaled(program)
        spec = mtl.scale_intervals(spec, scale)
    pnf = mtl.to_pnf(spec)
    automaton = ata_from_mtl(pnf)
    k = max(1, automaton.max_constant, *(int(a.const * scale) for a in atoms))
    return Problem(bat, normalize(program), pnf, automaton, k, scale)


# --- determinized product states -----------------------------------------------


@hashed_dataclass
class Member(Hashed):
    """One surviving (residual program, automaton configuration) alternative;
    members key sets and caches, so the hash is computed once."""

    prog: Program
    config: frozenset  # of (ata location, clock value over the state's unit)


@dataclass(frozen=True, slots=True)
class DetState:
    """Determinized product state: the shared world (fluents, functional
    values, program clocks) and the set of member alternatives.  Every clock
    value v, of the program and of the automata, stands for v/unit."""

    fluents: frozenset
    funcs: tuple
    clocks: tuple  # sorted (clock name, clock value over the unit)
    members: frozenset  # of Member
    unit: int

    def world(self, clocks: bool = True) -> WorldState:
        """The state's world; without its clocks for what reads none."""
        values = tuple((c, Fraction(v, self.unit)) for c, v in self.clocks) if clocks else ()
        return WorldState(self.fluents, self.funcs, values)


def region_world(state: DetState, regions: tuple) -> WorldState:
    """The state's world with each program clock at a representative of the
    given region: index i (see `temporal.region_index`) at i/2."""
    return WorldState(
        state.fluents, state.funcs,
        tuple((c, Fraction(r, 2)) for (c, _), r in zip(state.clocks, regions)),
    )


def pooled_clock_set(state: DetState, ata: Ata) -> frozenset:
    """Program clocks plus every member's automaton clock values, the
    automaton entries tagged by their location names."""
    entries = set(state.clocks)
    for member in state.members:
        for loc, v in member.config:
            entries.add((ata.name_of(loc), v))
    return frozenset(entries)


def clock_values(state: DetState) -> set:
    """The distinct values of the program and automaton clocks."""
    values = {v for _, v in state.clocks}
    for member in state.members:
        values.update(v for _, v in member.config)
    return values


def canonicalize(problem: Problem, state: DetState) -> DetState:
    """Joint region representative of all clock values; the node identity."""
    mapping, unit = scaled_value_map(clock_values(state), state.unit, problem.k)
    clocks = tuple((c, mapping[v]) for c, v in state.clocks)
    members = frozenset(
        problem.member(m.prog, frozenset((loc, mapping[v]) for loc, v in m.config))
        for m in state.members
    )
    return DetState(state.fluents, state.funcs, clocks, members, unit)


def exact_initial_state(problem: Problem) -> DetState:
    w0 = problem.bat.initial
    unit = scale_lcm(v for _, v in w0.clocks)
    configs = problem.symbol_step(
        problem.ata.initial_configuration(), problem.symbol(w0), unit
    )
    return DetState(
        w0.fluents, w0.funcs, tuple((c, int(v * unit)) for c, v in w0.clocks),
        frozenset(problem.member(problem.program, g) for g in configs), unit,
    )


def initial_det_state(problem: Problem) -> DetState:
    """Pair the fresh program with the automaton after it reads the set of
    initially true ground fluent atoms."""
    return canonicalize(problem, exact_initial_state(problem))


def is_bad(problem: Problem, state: DetState) -> bool:
    """Some member couples a final program configuration with an accepting
    automaton configuration: the trace so far satisfies the undesired spec."""
    world = state.world(clocks=problem._clocked_tests)
    return any(
        problem.ata.is_accepting(m.config) and problem.is_final(world, m.prog)
        for m in state.members
    )


def is_final_state(problem: Problem, state: DetState) -> bool:
    """Every member may stop here (used for the empty controller choice)."""
    world = state.world(clocks=problem._clocked_tests)
    return all(problem.is_final(world, m.prog) for m in state.members)


def increments(problem: Problem, state: DetState) -> list[int]:
    """Accumulated region increments of the pooled clock set, ascending, as
    integers over 2 * state.unit.

    Names never change an increment, so the distinct values suffice."""
    return scaled_region_delays(clock_values(state), state.unit, problem.k)


def _moves(problem: Problem, world: WorldState, members) -> list:
    """(action, [(member, residual program)]) for the members' next steps
    whose action passes its precondition, actions in lexicographic order."""
    by_action: dict = {}
    for member in members:
        for action, rest in problem.program_steps(world, member.prog):
            by_action.setdefault(action, []).append((member, rest))
    return [(a, by_action[a]) for a in sorted(by_action) if problem.poss(world, a)]


def det_moves(problem: Problem, state: DetState, delays: Optional[list] = None) -> list:
    """((action, increment index), move) for each of the members' next steps
    that passes precondition and clock guard at an increment (`delays`, if
    given), increments ascending, actions lexicographic.  A move is (delay,
    unit, clocks, world, symbol, steps): the delay and the successor's
    program clocks over its unit, the clockless world and the symbol after
    the action, and the (member, residual program) steps, which only
    `move_target` and `exact_target` take.  What does not depend on the delay
    is done once: the preconditions, the world and symbol after each action,
    and the program steps unless a test reads a clock."""
    if delays is None:
        delays = increments(problem, state)
    unit = 2 * state.unit
    # the axioms read no clock, nor do the program steps unless a test does
    world = state.world(clocks=False)
    moves = None if problem._clocked_tests else _moves(problem, world, state.members)
    if moves == []:
        return []
    after: dict = {}  # action -> (world after it, its symbol)
    out = []
    for idx, delay in enumerate(delays):
        clocks = tuple((c, 2 * v + delay) for c, v in state.clocks)
        # program tests and guards compare with constants at most k, so the
        # program clocks' regions decide them
        regions = tuple(scaled_region_index(v, unit, problem.k) for _, v in clocks)
        enabled = moves
        if enabled is None:
            enabled = _moves(problem, region_world(state, regions), state.members)
        for action, steps in enabled:
            if not problem.guard_ok(state, regions, action):
                continue
            if action not in after:
                next_world = problem.progress_fluents(world, action)
                after[action] = (next_world, problem.symbol(next_world))
            resets = problem.bat.actions[action].resets
            reset = tuple((c, 0 if c in resets else v) for c, v in clocks)
            out.append(((action, idx), (delay, unit, reset, *after[action], steps)))
    return out


def _target_configs(problem: Problem, move: tuple) -> list:
    """(residual program, configuration) pairs after the move, minimal per
    program (acceptance is downward closed); each member step once per problem."""
    delay, unit, _, _, symbol, steps = move
    configs_of: dict = {}  # residual program -> its configurations
    for member, rest in steps:
        configs_of.setdefault(rest, set()).update(
            problem.member_step(member.config, delay, symbol, unit)
        )
    return [(rest, g) for rest, configs in configs_of.items() for g in minimal(configs)]


def move_target(problem: Problem, move: tuple) -> Optional[DetState]:
    """The successor with exact values over the move's unit; None when every
    automaton run dies, as no extension can then satisfy the specification."""
    _, unit, clocks, world, _, _ = move
    members = frozenset(problem.member(rest, g) for rest, g in _target_configs(problem, move))
    return DetState(world.fluents, world.funcs, clocks, members, unit) if members else None


def exact_target(problem: Problem, move: tuple) -> Optional[DetState]:
    """`move_target` in one pass, over its smallest unit, values above k set
    to k + 1: k bounds every guard, program test and spec interval (region
    equivalence), so increments, live moves, finality and times stay."""
    _, unit, clocks, world, _, _ = move
    pairs = _target_configs(problem, move)
    if not pairs:
        return None
    top = problem.k * unit
    values = {v for _, v in clocks} | {v for _, g in pairs for _, v in g}
    d = gcd(unit, *(v for v in values if v <= top))  # d divides (k + 1) * unit too
    value = {v: (v if v <= top else top + unit) // d for v in values}
    members = frozenset(
        problem.member(rest, frozenset((loc, value[v]) for loc, v in g)) for rest, g in pairs
    )
    clocks = tuple((c, value[v]) for c, v in clocks)
    return DetState(world.fluents, world.funcs, clocks, members, unit // d)


def det_successors_exact(problem: Problem, state: DetState, delays: Optional[list] = None) -> list:
    """All ((action, increment index), successor) pairs of `det_moves` with
    a target, the successors over the unit 2 * state.unit."""
    return [
        (key, succ) for key, move in det_moves(problem, state, delays)
        if (succ := move_target(problem, move)) is not None
    ]


def det_successors(
    problem: Problem, state: DetState, delays: Optional[list] = None
) -> list:
    """Canonicalized successors, deterministic order (increments ascending,
    actions lexicographic)."""
    return [
        (key, canonicalize(problem, succ))
        for key, succ in det_successors_exact(problem, state, delays)
    ]


# --- the quasi-order -------------------------------------------------------------


def member_words(problem: Problem, state: DetState, interned: dict) -> dict:
    """The canonical words of the members' pooled clock sets (the program
    clocks with the member's automaton clocks, named by location), without
    repeats, per residual program.  Few words are distinct, so each is kept
    once in `interned`, which the states of one search share."""
    name = problem.ata.name_of
    words: dict = {}
    for m in state.members:
        entries = set(state.clocks)
        entries.update((name(loc), v) for loc, v in m.config)
        word = scaled_canonical_word(entries, state.unit, problem.k)
        words.setdefault(m.prog, set()).add(interned.setdefault(word, word))
    return {prog: tuple(found) for prog, found in words.items()}


def det_leq(a: Node, b: Node, leq: Optional[Callable] = None) -> bool:
    """The well-quasi-order on two nodes with their `member_words`: equal
    worlds, and every member of b dominates a member of a with the same
    residual program, by monotone domination of their canonical words
    (`leq`: a search's memo of `mono_dom_leq`, or by default itself)."""
    if (a.state.fluents, a.state.funcs) != (b.state.fluents, b.state.funcs):
        return False
    leq = leq or mono_dom_leq
    return all(
        powerset_leq(a.words.get(prog, ()), words, leq)
        for prog, words in b.words.items()
    )


# --- search graph -----------------------------------------------------------------

BAD, SUCCESSFUL, DEAD, INNER = "bad", "successful", "dead", "inner"


@dataclass(slots=True)
class Node:
    nid: int
    state: DetState
    status: str = INNER
    dominator: Optional[int] = None
    edges: tuple = ()  # ((action, incr index), child nid)
    parent: Optional[tuple] = None  # (parent nid, action, incr index)
    label: Optional[bool] = None
    delays: Optional[list] = None  # the state's increments, once classified
    words: Optional[dict] = None  # the state's member_words, once classified


@dataclass
class SearchGraph:
    root: int
    nodes: list
    explored: int = 0
    covered: int = 0  # nodes closed by a finished node, not by an ancestor

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def bad_nodes(self):
        return [n for n in self.nodes if n.status == BAD]


class _Frame:
    __slots__ = ("nid", "successors", "next_index", "edges", "choices")

    def __init__(self, nid, successors, choices):
        self.nid = nid
        self.successors = successors
        self.next_index = 0
        self.edges = {}  # (action, incr index) -> child nid, in build order
        self.choices = choices  # the minimal valid choices; None outside a game


def build_graph(
    problem: Problem,
    budget: Optional[int] = None,
    stop_on_bad: bool = False,
    controllable: Optional[Callable[[str], bool]] = None,
) -> SearchGraph:
    """Depth-first expansion of the determinized product into a finite graph.

    A node closes as soon as it is bad, dominated by an ancestor on the
    current path (the well-quasi-order makes this fire on every infinite
    path), or successor-less; canonically identical states share one node.
    `budget` bounds the number of nodes and the region increments of any
    one node; exceeding it raises `ResourceError`.

    With `stop_on_bad` (as in `verify`) this is the coverability search of
    well-structured systems (Finkel & Schnoebelen, TCS 2001): a node closes
    when any earlier classified, non-bad node lies below it (counted in
    `covered` unless it is an ancestor).  The search stops at the first bad
    node, so each classified node is an ancestor or finished with no bad
    node reachable; bad states are downward closed, so nothing above a
    finished node reaches one either.  This is the state table's reuse of
    an equal finished node, with `det_leq` for equality.  Only the minimal
    nodes are kept, in antichains per world and program-clock regions,
    which `det_leq` needs equal (De Wulf, Doyen, Henzinger & Raskin, CAV
    2006); a node dropped from one lies above the node that replaced it, so
    ancestors below a node are found there too.  The full exploration keeps
    no antichains and checks only the ancestors.

    Given the game's `controllable` predicate, the game is labelled during
    the search (on-the-fly solving, Cassez, David, Fleury, Larsen & Lime,
    CONCUR 2005).  An inner node's minimal valid choices
    (`_minimal_valid_sets`, over its complete successor list) are computed
    once, when it is pushed; each time a child's label becomes known, the
    node is labelled True if some choice has all its children built and
    True, False if every choice has a child built and False.  A labelled
    node builds no further children, so its edge list stays partial: it
    holds, in successor order, the children built up to the one that
    decided.  A node left unlabelled keeps its complete edge list, and
    `label_graph` decides it.  Without `controllable` (as in `verify`)
    every node is expanded completely.
    """
    nodes: list[Node] = []
    table: dict = {}
    graph = SearchGraph(root=0, nodes=nodes)

    def new_node(state: DetState, parent, register: bool = True) -> Node:
        node = Node(nid=len(nodes), state=state, parent=parent)
        nodes.append(node)
        if register:
            table[state] = node.nid
        if budget is not None and len(nodes) > budget:
            raise ResourceError(f"node budget {budget} exhausted ({len(nodes)} nodes)")
        return node

    path: list[int] = []
    on_path: set[int] = set()
    interned_words: dict = {}
    # canonical states share few sets of clock values: one delays list each
    delays_by_values: dict = {}

    def delays_of(state: DetState) -> list:
        key = (frozenset(clock_values(state)), state.unit)
        delays = delays_by_values.get(key)
        if delays is None:
            values, unit = key
            if budget is not None:
                # the increments are counted before they are enumerated
                count = region_delay_count(values, unit, problem.k)
                if count > budget:
                    raise ResourceError(
                        f"budget {budget} exhausted ({count} region increments at one node)"
                    )
            delays = delays_by_values[key] = scaled_region_delays(values, unit, problem.k)
        return delays

    # verify's antichains: per world and program-clock regions, the minimal
    # non-bad nodes classified so far
    antichains: dict = {}
    # mono_dom_leq per pair of words; interned words live as long as the
    # search, so their ids are stable
    dominations: dict = {}

    def leq(x, y) -> bool:
        key = (id(x), id(y))
        hit = dominations.get(key)
        if hit is None:
            hit = dominations[key] = mono_dom_leq(x, y)
        return hit

    def covering(node: Node) -> Optional[int]:
        """An antichain node below this one; otherwise the node joins its
        antichain, which drops the nodes above it."""
        state = node.state
        regions = tuple(scaled_region_index(v, state.unit, problem.k) for _, v in state.clocks)
        key = (state.fluents, state.funcs, regions)
        progs = node.words.keys()
        kept = []
        for other in antichains.get(key, ()):
            # det_leq(a, b) needs every residual program of b in a
            others = other.words.keys()
            if progs <= others and det_leq(other, node, leq):
                return other.nid
            if not (others <= progs and det_leq(node, other, leq)):
                kept.append(other)
        kept.append(node)
        antichains[key] = kept
        return None

    def classify(node: Node) -> Optional[list]:
        """Set the node status; returns the successor list for inner nodes."""
        graph.explored += 1
        if is_bad(problem, node.state):
            node.status = BAD
            node.label = False
            return None
        node.words = member_words(problem, node.state, interned_words)
        if not stop_on_bad:
            dominator = next((a for a in reversed(path) if det_leq(nodes[a], node)), None)
        else:
            dominator = covering(node)
            graph.covered += dominator is not None and dominator not in on_path
        if dominator is not None:
            node.status = SUCCESSFUL
            node.dominator = dominator
            return None
        node.delays = delays_of(node.state)
        succ = det_successors(problem, node.state, node.delays)
        if not succ:
            node.status = DEAD
            node.label = True
            return None
        node.status = INNER
        return succ

    def settle(frame: _Frame) -> None:
        """Label the frame's node if its built children decide the game."""
        if frame.choices is None:
            return
        label = _choice_label(frame.choices, frame.edges, nodes)
        if label is not None:
            nodes[frame.nid].label = label
            frame.next_index = len(frame.successors)  # build no more children

    def push(node: Node, successors: list) -> None:
        choices = None
        if controllable is not None:
            keys = [key for key, _ in successors]
            choices = _minimal_valid_sets(problem, node.state, keys, controllable)
        frame = _Frame(node.nid, successors, choices)
        stack.append(frame)
        path.append(node.nid)
        on_path.add(node.nid)
        settle(frame)  # the empty choice wins before any child is built

    stack: list[_Frame] = []
    root_node = new_node(initial_det_state(problem), None)
    root_succ = classify(root_node)
    if root_succ is None:
        return graph
    push(root_node, root_succ)

    while stack:
        frame = stack[-1]
        if frame.next_index >= len(frame.successors):
            node = nodes[frame.nid]
            node.edges = tuple(frame.edges.items())
            stack.pop()
            on_path.discard(path.pop())
            if stack and node.label is not None:
                settle(stack[-1])
            continue
        key, child_state = frame.successors[frame.next_index]
        frame.next_index += 1
        existing = table.get(child_state)
        if existing is not None:
            if existing in on_path:
                # the successor closes a cycle: stand in a dominated leaf
                # (equality witnesses the quasi-order) so the graph stays
                # acyclic and the game loops through the dominator instead
                stub = new_node(child_state, (frame.nid, key[0], key[1]), register=False)
                stub.status = SUCCESSFUL
                stub.dominator = existing
                graph.explored += 1
                frame.edges[key] = stub.nid
            else:
                frame.edges[key] = existing
                if nodes[existing].label is not None:
                    settle(frame)
            continue
        child = new_node(child_state, (frame.nid, key[0], key[1]))
        frame.edges[key] = child.nid
        child_succ = classify(child)
        if child_succ is None:
            if stop_on_bad and child.status == BAD:
                for open_frame in stack:
                    nodes[open_frame.nid].edges = tuple(open_frame.edges.items())
                return graph
            if child.label is not None:
                settle(frame)
            continue
        push(child, child_succ)

    return graph


# --- the timed game -------------------------------------------------------------


def _minimal_valid_sets(problem, node_state, keys, controllable):
    """Candidate controller choices over the enabled timed actions `keys`:
    all environment actions, plus, per controller action, that action with
    every environment action at the same or an earlier increment.  These
    minimal sets suffice: goodness is antitone in the choice and every valid
    choice contains one of them.  The empty choice is valid only at final
    states without environment moves."""
    env = [k for k in keys if not controllable(k[0])]
    ctl = [k for k in keys if controllable(k[0])]
    sets = []
    if env:
        sets.append(frozenset(env))
    elif is_final_state(problem, node_state):
        sets.append(frozenset())
    for key in ctl:
        _, idx = key
        sets.append(frozenset({key} | {e for e in env if e[1] <= idx}))
    return sets


def _choice_label(choices, edges: dict, nodes: list) -> Optional[bool]:
    """A node's label from the labels of its built children, or None while
    unknown children can still decide it: True once some choice has all its
    children built and True, False once every choice has a child built and
    False.  `edges` maps each built timed action to its child."""
    undecided = False
    for choice in choices:
        labels = [nodes[edges[key]].label if key in edges else None for key in choice]
        if any(label is False for label in labels):
            continue
        if all(labels):
            return True
        undecided = True
    return None if undecided else False


def label_graph(problem: Problem, graph: SearchGraph, controllable: Callable[[str], bool]) -> bool:
    """Solve the safety game on the finite graph and label every node.

    A node is losing iff every valid controller choice hands the environment
    a losing successor (`_choice_label`, the rule the search labels by);
    dominated leaves behave like their dominating ancestor (the controller
    can keep simulating that ancestor's strategy, and an endless play never
    completes a trace, hence is safe).  Computed as the least fixpoint of
    the environment attractor: a node found losing is labelled False and
    its predecessors are looked at again.  Nodes whose label was committed
    during the search keep it, and every node still open at the fixpoint
    wins.
    """
    nodes = graph.nodes
    rev: list = [[] for _ in nodes]  # nid -> predecessors, by edge or domination
    for node in nodes:
        for _, cid in node.edges:
            rev[cid].append(node.nid)
        if node.status == SUCCESSFUL:
            rev[node.dominator].append(node.nid)
    work = deque(range(len(nodes)))
    while work:
        node = nodes[work.popleft()]
        if node.label is not None:
            continue
        if node.status == SUCCESSFUL:
            lost = nodes[node.dominator].label is False
        else:
            edges = dict(node.edges)
            choices = _minimal_valid_sets(problem, node.state, list(edges), controllable)
            lost = _choice_label(choices, edges, nodes) is False
        if lost:
            node.label = False
            work.extend(rev[node.nid])
    for node in nodes:
        if node.label is None:
            node.label = True
    return nodes[graph.root].label


def check_for_controller(
    bat: Bat,
    program: Program,
    spec: MtlFormula,
    controllable: Callable[[str], bool],
    budget: Optional[int] = None,
):
    """Whether a controller avoiding the undesired behavior exists; returns
    (verdict, labeled graph, problem) so a controller can be extracted.

    The graph is the one searched with on-the-fly labelling (`build_graph`
    with `controllable`): a node whose label the search committed has only
    the children built before it was decided, and `label_graph` labels the
    rest.  `extract_controller` and `simulate_controller` work on this same
    graph.  The problem's clock constants, and so the guards of the
    controller's edges, are those of the inputs multiplied by
    `problem.scale`."""
    problem = build_problem(bat, program, spec)
    graph = build_graph(problem, budget=budget, controllable=controllable)
    result = label_graph(problem, graph, controllable)
    return result, graph, problem


# --- verification ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    safe: bool
    counterexample: Optional[tuple] = None  # ((action, absolute time), ...)
    nodes: int = 0


def replay_path(problem: Problem, keys: Iterable[tuple]) -> tuple:
    """Execute (action, increment index) decisions on the exact product,
    clamped above k (`exact_target`), and return the timed trace; region
    equivalence keeps the indices valid and the times unchanged."""
    state = exact_initial_state(problem)
    now = Fraction(0)
    trace = []
    for action, idx in keys:
        delays = increments(problem, state)
        move = dict(det_moves(problem, state, delays)).get((action, idx))
        succ = None if move is None else exact_target(problem, move)
        if succ is None:
            raise AssertionError("replay diverged from the abstract path")
        now += Fraction(delays[idx], 2 * state.unit)
        trace.append((action, now))
        state = succ
    return tuple(trace)


def path_to(graph: SearchGraph, nid: int) -> list:
    keys = []
    node = graph.node(nid)
    while node.parent is not None:
        pid, action, idx = node.parent
        keys.append((action, idx))
        node = graph.node(pid)
    keys.reverse()
    return keys


def verify(bat: Bat, program: Program, spec: MtlFormula, budget: Optional[int] = None) -> Verdict:
    """Safe iff no finite completed execution satisfies the specification;
    unsafe verdicts carry a concrete rational counterexample trace, in the
    units of the inputs."""
    problem = build_problem(bat, program, spec)
    graph = build_graph(problem, budget=budget, stop_on_bad=True)
    bad = graph.bad_nodes()
    if not bad:
        return Verdict(safe=True, nodes=len(graph.nodes))
    trace = replay_path(problem, path_to(graph, bad[0].nid))
    trace = tuple((action, t / problem.scale) for action, t in trace)
    return Verdict(safe=False, counterexample=trace, nodes=len(graph.nodes))


def trace_to_word(bat: Bat, trace: tuple, atom_filter: Optional[frozenset] = None) -> TimedWord:
    """State-based timed word of a trace: the initial fluents at time zero,
    then the fluents after each action."""
    entries = []
    state = bat.initial
    now = Fraction(0)

    def symbols(s):
        out = frozenset(s.fluents)
        return out if atom_filter is None else out & atom_filter

    entries.append((symbols(state), Fraction(0)))
    for action, t in trace:
        t = Fraction(t)
        state = golog.progress(bat, state.advanced(t - now), action)
        now = t
        entries.append((symbols(state), t))
    return TimedWord(tuple(entries))


def graph_debug_json(problem: Problem, graph: SearchGraph) -> dict:
    """Inspection dump of the search graph: per node the status, label,
    member programs, and the canonical word of the pooled clock set (a JSON
    array of arrays of [name, regionIndex])."""
    nodes = []
    for node in graph.nodes:
        pooled = pooled_clock_set(node.state, problem.ata)
        nodes.append({
            "id": node.nid,
            "status": node.status,
            "label": node.label,
            "fluents": sorted(node.state.fluents),
            "programs": sorted({str(m.prog) for m in node.state.members}),
            "canonicalWord": scaled_canonical_word(
                pooled, node.state.unit, problem.k
            ).to_json(),
            "edges": [
                {"action": action, "increment": idx, "to": cid}
                for (action, idx), cid in node.edges
            ],
        })
    return {"root": graph.root, "maxConstant": problem.k, "nodes": nodes}


# --- controller extraction ---------------------------------------------------------


@dataclass(frozen=True)
class ControllerEdge:
    source: int
    action: str
    incr_index: int
    guard: ClockConstraint
    resets: frozenset
    target: int


@dataclass
class Controller:
    """Synthesized controller: locations are winning graph nodes, edges the
    good timed actions with region guards over the program clocks."""

    initial: int
    locations: tuple
    edges: tuple
    problem: Problem
    graph: SearchGraph
    controllable: Callable[[str], bool]
    tie_warnings: tuple = ()

    def __post_init__(self):
        self._by_source = {}
        for e in self.edges:
            self._by_source.setdefault(e.source, []).append(e)

    def edges_from(self, location: int):
        return list(self._by_source.get(location, ()))

    def to_ta(self):
        """The controller as a timed automaton, its guards in the units of
        the inputs."""
        from .timed_automata import Switch, make_ta

        switches = [
            Switch(f"n{e.source}", e.action, e.guard, e.resets, f"n{e.target}")
            for e in self.edges
        ]
        return make_ta(
            locations=[f"n{l}" for l in self.locations],
            initial=f"n{self.initial}",
            finals=[
                f"n{l}" for l in self.locations
                if is_final_state(self.problem, self.graph.node(l).state)
            ],
            clocks=self.problem.bat.clocks,
            invariants={},
            switches=switches,
        ).scaled(Fraction(1, self.problem.scale))


def _region_guard(problem: Problem, state: DetState, delay: int) -> ClockConstraint:
    """Box constraint over the program clocks describing their individual
    regions after the delay, an increment of the state (fractional-part
    ordering between clocks is not expressible without diagonal constraints
    and is dropped)."""
    k = problem.k
    atoms = []
    for clock, value in state.clocks:
        region = scaled_region_index(2 * value + delay, 2 * state.unit, k)
        if region == 2 * k + 1:
            atoms.append((clock, ">", k))
        elif region % 2 == 0:
            atoms.append((clock, "=", region // 2))
        else:
            atoms.append((clock, ">", region // 2))
            atoms.append((clock, "<", region // 2 + 1))
    return ClockConstraint(tuple(atoms))


def extract_controller(problem: Problem, graph: SearchGraph, controllable) -> Controller:
    """Keep, from every reachable winning node, each edge into a winning
    node; edges into dominated leaves loop back to the dominating ancestor.
    Same-increment ties between controller and environment actions are
    reported (preemption is interpreted strictly at region granularity).

    The graph may be the one searched with on-the-fly labelling, whose
    labelled nodes have partial edge lists; the selection is still a valid
    controller choice.  Suppose the search committed a node's label by a
    winning minimal choice W: one controller action at increment i with
    every environment action at an increment <= i, or all environment
    actions.  W's children were all built and labelled True, so the
    selected edges contain W.  The search stopped right after W was decided
    and builds children in increment order, so every selected controller
    action sits at some increment m <= i.  Every environment action at an
    increment <= m is then in W and selected, and every later one is
    strictly preempted.  Nodes whose label was not committed during the
    search keep their complete edge lists."""
    root = graph.node(graph.root)
    if root.label is not True:
        raise NoControllerError("the initial node is losing; no controller exists")

    def redirect(nid: int) -> int:
        node = graph.node(nid)
        while node.status == SUCCESSFUL:
            node = graph.node(node.dominator)
        return node.nid

    ties = []
    edges = []
    reachable = {graph.root}
    frontier = [graph.root]
    while frontier:
        nid = frontier.pop()
        node = graph.node(nid)
        env_at = {}
        for (action, idx), _ in node.edges:
            if not controllable(action):
                env_at.setdefault(idx, []).append(action)
        for (action, idx), cid in node.edges:
            target = redirect(cid)
            if graph.node(target).label is not True:
                continue
            if controllable(action) and env_at.get(idx):
                ties.append(
                    f"node {nid}: controller action {action} shares increment "
                    f"{idx} with environment action(s) {sorted(env_at[idx])}"
                )
            edges.append(ControllerEdge(
                source=nid,
                action=action,
                incr_index=idx,
                guard=_region_guard(problem, node.state, node.delays[idx]),
                resets=problem.bat.actions[action].resets,
                target=target,
            ))
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    return Controller(
        initial=graph.root,
        locations=tuple(sorted(reachable)),
        edges=tuple(e for e in edges if e.source in reachable),
        problem=problem,
        graph=graph,
        controllable=controllable,
        tie_warnings=tuple(ties),
    )


# --- controller simulation -----------------------------------------------------------


@dataclass
class SimulationReport:
    trials: int
    completed: int
    violations: tuple
    condition_failures: tuple

    @property
    def ok(self) -> bool:
        return not self.violations and not self.condition_failures


def simulate_controller(
    controller: Controller,
    trials: int = 500,
    seed: int = 0,
    max_steps: int = 400,
) -> SimulationReport:
    """Drive the exact product, clamped above k (`exact_target`), under the
    controller against randomized environment resolutions; check every
    completed trace with the independent semantics oracle.

    Each step enumerates the real region increments, forms the controller's
    selected timed actions, asserts the controller conditions (selected
    actions enabled; enabled environment moves selected or strictly
    preempted; empty selection only at final states), and lets a seeded
    adversary pick, biased towards region boundaries.

    Every trial starts from one exact state under one controller, so trials
    revisit states and repeat plays.  The exact work is shared across
    trials: each distinct completed trace is turned into a timed word and
    checked by the oracle once, and each distinct state is expanded once,
    into its increments and the successor of each live move, which every
    later visit reads.  The controller conditions, their messages and the
    adversary's draws stay per step and per trial.  The memo holds each
    distinct state visited once, so at most trials * max_steps of them, and
    the clamp keeps the states of a looping play recurring: the looped
    camera controller's 10 benchmark trials visit 107 states, 67 distinct.
    """
    import random

    if trials < 0:
        raise ValueError(f"trials must be at least 0, not {trials}")
    problem = controller.problem
    graph = controller.graph
    controllable = controller.controllable
    rng = random.Random(seed)
    violations = []
    failures = []
    completed = 0
    initial = exact_initial_state(problem)
    expanded = {}  # state -> (delays, {timed action: its successor})
    verdicts = {}  # completed trace -> does it satisfy the (bad) spec

    def expand(state: DetState) -> tuple:
        hit = expanded.get(state)
        if hit is None:
            delays = increments(problem, state)
            successors = {
                key: succ for key, move in det_moves(problem, state, delays)
                if (succ := exact_target(problem, move)) is not None
            }
            hit = expanded[state] = (delays, successors)
        return hit

    for trial in range(trials):
        node = graph.node(controller.initial)
        state = initial
        now = Fraction(0)
        trace = []
        ended = False
        for _ in range(max_steps):
            delays, successors = expand(state)
            selected = {
                (e.action, e.incr_index): e for e in controller.edges_from(node.nid)
            }
            for key in selected:
                if key not in successors:
                    failures.append(
                        f"trial {trial}: selected {key} not enabled at node {node.nid}"
                    )
            min_ctl = min(
                (idx for (a, idx) in selected if controllable(a)), default=None
            )
            for action, idx in successors:
                if controllable(action) or (action, idx) in selected:
                    continue
                if min_ctl is None or min_ctl >= idx:
                    failures.append(
                        f"trial {trial}: environment action {(action, idx)} neither "
                        f"selected nor preempted at node {node.nid}"
                    )
            if not selected:
                # stopping is fine at final states and at stuck states (the
                # play cannot be extended, so no completed trace arises)
                if successors and not is_final_state(problem, state):
                    failures.append(
                        f"trial {trial}: empty selection at non-final node {node.nid}"
                    )
                ended = True
                break
            keys = sorted(selected)
            if rng.random() < 0.5:
                key = min(keys, key=lambda k: k[1])
            else:
                key = rng.choice(keys)
            succ = successors.get(key)
            if succ is None:
                ended = True  # selection error already recorded
                break
            now += Fraction(delays[key[1]], 2 * state.unit)
            trace.append((key[0], now))
            state = succ
            node = graph.node(selected[key].target)
        if not ended:
            continue
        if is_final_state(problem, state):
            completed += 1
            trace = tuple(trace)
            bad = verdicts.get(trace)
            if bad is None:
                word = trace_to_word(problem.bat, trace, problem.ata.atom_universe)
                bad = verdicts[trace] = mtl.satisfies(word, 0, problem.spec)
            if bad:
                violations.append(trace)
    return SimulationReport(
        trials=trials,
        completed=completed,
        violations=tuple(violations),
        condition_failures=tuple(failures),
    )
