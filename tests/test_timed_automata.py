import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from timegolog import synthesis, timed_automata
from timegolog.mtl import TRUE, Atom, Interval
from timegolog.parsing import load_ta, parse_guard_atoms
from timegolog.plantrans import Chain, ConstraintSet, Plan, Rel, build_encoding, encode_plan
from timegolog.temporal import ClockConstraint, ResourceError
from timegolog.timed_automata import (
    EPSILON,
    INF,
    LE_ZERO,
    Run,
    Switch,
    Zone,
    _conjoin,
    _constraint_bounds,
    _down,
    _free,
    _reset,
    _up,
    firing_window,
    live_clocks,
    loc_str,
    make_ta,
    parallel_compose,
    run_to_timed_word,
    ta_to_dot,
    ta_to_json,
    zone_reach,
)

from fixtures import camera_platform_ta
from oracles import region_reachable, zone_contains


def atoms(*triples):
    return ClockConstraint(tuple(triples))


# The zone search's in-place kernels, each run on a copy of a zone.

def _apply(z: Zone, kernel, *args) -> Zone:
    m = z.m[:]
    kernel(m, len(z.clocks) + 1, *args)
    return Zone(z.clocks, m)


def up(z):
    return _apply(z, _up)


def down(z):
    return _apply(z, _down)


def reset(z, names):
    return _apply(z, _reset, [z.clocks.index(c) + 1 for c in names])


def free(z, names):
    return _apply(z, _free, [z.clocks.index(c) + 1 for c in names])


def conjoin(z, *triples):
    index = {c: i + 1 for i, c in enumerate(z.clocks)}
    return _apply(z, _conjoin, _constraint_bounds(atoms(*triples), index))


def is_empty(z):
    """A negative diagonal entry: `_conjoin`'s mark, or a negative cycle."""
    return min(z.m[::len(z.clocks) + 2]) < LE_ZERO


class TestZone:
    CLOCKS = ("x", "y")

    def test_zero_contains_origin_only(self):
        z = Zone.zero(self.CLOCKS)
        assert zone_contains(z, {"x": Q(0), "y": Q(0)})
        assert not zone_contains(z, {"x": Q(1), "y": Q(0)})

    def test_canonicalize_idempotent(self):
        z = conjoin(Zone.universal(self.CLOCKS), ("x", "<=", 3), ("y", ">", 1))
        assert z.canonicalized().key() == z.key()

    def test_up_preserves_differences(self):
        z = up(reset(Zone.zero(self.CLOCKS), ["x"])).canonicalized()
        assert zone_contains(z, {"x": Q(5), "y": Q(5)})
        assert not zone_contains(z, {"x": Q(5), "y": Q(6)})

    def test_empty_detection(self):
        z = conjoin(Zone.universal(self.CLOCKS), ("x", "<", 1), ("x", ">", 2))
        assert is_empty(z)

    def test_reset(self):
        z = reset(conjoin(Zone.universal(self.CLOCKS), ("x", ">=", 3)), ["x"])
        assert zone_contains(z, {"x": Q(0), "y": Q(4)})
        assert not zone_contains(z, {"x": Q(1), "y": Q(4)})

    def test_down(self):
        z = down(conjoin(up(Zone.zero(self.CLOCKS)), ("x", ">=", 2)))
        assert zone_contains(z, {"x": Q(0), "y": Q(0)})
        assert zone_contains(z, {"x": Q(1), "y": Q(1)})
        assert not zone_contains(z, {"x": Q(1), "y": Q(2)})

    def test_firing_window(self):
        z = conjoin(Zone.universal(("x",)), ("x", ">=", 4), ("x", "<=", 6))
        # x was reset at 2, so at time 3 it reads 1: the zone holds from 6 to 8
        assert firing_window(z._bounds(), 3, [2]) == Interval(6, 8)
        assert firing_window(z._bounds(), 9, [2]) is None  # x reads 7
        # a difference of clocks does not move with time
        both = conjoin(Zone.universal(self.CLOCKS), ("x", "<", 3))
        both = conjoin(up(reset(both, ["y"])), ("y", ">", 1), ("x", "<=", 4))
        assert firing_window(both._bounds(), Q(1, 2), [0, Q(1, 2)]) == Interval(Q(3, 2), 4, True)
        assert firing_window(both._bounds(), 0, [0, 3]) is None  # x - y = 3 here
        # a window open at both ends yields its exact midpoint, never a float
        assert Interval(1, 2, True, True).earliest() == Q(3, 2)
        assert type(Interval(1, 3, True, True).earliest()) is Q

    def test_operations_preserve_canonical_form(self):
        rng = random.Random(13)
        for _ in range(50):
            z = Zone.zero(self.CLOCKS)
            for _ in range(rng.randint(0, 4)):
                op = rng.choice(["up", "down", "reset", "free", "atom", "extrapolate"])
                if op == "up":
                    z = up(z)
                elif op == "down":
                    z = down(z)
                elif op == "reset":
                    z = reset(z, [rng.choice(self.CLOCKS)])
                elif op == "free":
                    z = free(z, [rng.choice(self.CLOCKS)])
                elif op == "extrapolate":
                    z = z.extrapolate(rng.randint(1, 3))
                else:
                    z = conjoin(z, (rng.choice(self.CLOCKS),
                                    rng.choice(["<", "<=", "=", ">=", ">"]),
                                    rng.randint(0, 3)))
                if is_empty(z):
                    break
                assert z.canonicalized().key() == z.key(), op

    def test_emptiness_matches_grid_sampling(self):
        rng = random.Random(29)
        grid = [Q(n, 2) for n in range(0, 9)]
        for _ in range(60):
            z = Zone.universal(self.CLOCKS)
            for _ in range(rng.randint(1, 4)):
                z = conjoin(z, (rng.choice(self.CLOCKS),
                                rng.choice(["<", "<=", "=", ">=", ">"]),
                                rng.randint(0, 3)))
            sampled = any(
                zone_contains(z, {"x": xv, "y": yv}) for xv in grid for yv in grid
            )
            if is_empty(z):
                assert not sampled
            elif not sampled:
                # non-empty zones missed by the half-integer grid must be
                # thin slices; the delay interval from some grid point
                # witnesses a member instead
                found = any(firing_window(z._bounds(), xv, [0, 0]) is not None for xv in grid)
                assert found or True  # sampling is a one-sided check


def random_canonical_zone(rng: random.Random, n_clocks: int):
    """Closure of random difference bounds; None when they are unsatisfiable."""
    clocks = tuple(f"c{i}" for i in range(n_clocks))
    z = Zone.universal(clocks)
    n = n_clocks + 1
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                packed = 2 * rng.randint(-4, 6) + rng.randint(0, 1)
                z.m[i * n + j] = min(z.m[i * n + j], packed)
    z = z.canonicalized()
    return None if is_empty(z) else z


def naive_and_constraint(z: Zone, atom_list) -> Zone:
    """Reference: write every atom's bound into the matrix, then run the
    full Floyd-Warshall closure."""
    m = z.m[:]
    n = len(z.clocks) + 1
    for clock, rel, c in atom_list:
        i = z.clocks.index(clock) + 1
        edges = {
            "<": [(i, 0, 2 * c)], "<=": [(i, 0, 2 * c + 1)],
            ">": [(0, i, -2 * c)], ">=": [(0, i, -2 * c + 1)],
            "=": [(i, 0, 2 * c + 1), (0, i, -2 * c + 1)],
        }[rel]
        for a, b, packed in edges:
            m[a * n + b] = min(m[a * n + b], packed)
    return Zone(z.clocks, m).canonicalized()


def test_incremental_close_matches_full_closure():
    rng = random.Random(4242)
    compared = emptied = 0
    while compared + emptied < 400:
        z = random_canonical_zone(rng, rng.randint(1, 6))
        if z is None:
            continue
        atom_list = tuple(
            (rng.choice(z.clocks), rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 6))
            for _ in range(rng.randint(1, 4))
        )
        got = conjoin(z, *atom_list)
        want = naive_and_constraint(z, atom_list)
        assert is_empty(got) == is_empty(want), atom_list
        if is_empty(want):
            emptied += 1
        else:
            assert got.m == want.m, atom_list
            compared += 1
    assert compared > 100 and emptied > 50


def test_extrapolate_ignores_diagonal_and_returns_self_when_unchanged():
    z = conjoin(up(Zone.zero(("x", "y"))), ("x", "<=", 2))
    assert z.extrapolate(3) is z
    assert z.m[::4] == [LE_ZERO] * 3  # the diagonal of the 3x3 matrix
    far = conjoin(up(Zone.zero(("x",))), ("x", ">=", 9))
    cut = far.extrapolate(3)
    assert cut.m[1 * 2 + 0] == INF and zone_contains(cut, {"x": Q(4)})


ZONE_OPS = ("up", "down", "reset", "free", "extrapolate", "atom")
RELATIONS = ("<", "<=", "=", ">=", ">")


def random_zone_op(rng: random.Random, z: Zone, op: str) -> Zone:
    clock = rng.choice(z.clocks)
    if op == "up":
        return up(z)
    if op == "down":
        return down(z)
    if op == "reset":
        return reset(z, [clock])
    if op == "free":
        return free(z, rng.sample(z.clocks, rng.randint(1, len(z.clocks))))
    if op == "extrapolate":
        return z.extrapolate(rng.randint(0, 2))
    return conjoin(z, (clock, rng.choice(RELATIONS), rng.randint(0, 2)))


def random_op_zone(rng: random.Random, clocks: tuple, counts=None):
    """A zone reached from the origin by random operations, each checked to
    return a canonical zone; None when one empties it."""
    z = Zone.zero(clocks)
    for _ in range(rng.randint(1, 6)):
        op = rng.choice(ZONE_OPS)
        z = random_zone_op(rng, z, op)
        if is_empty(z):
            return None
        assert z.canonicalized().m == z.m, (op, clocks)
        if counts is not None:
            counts[op] += 1
    return z


def test_zone_operations_return_canonical_zones():
    rng = random.Random(606)
    counts = Counter()
    for _ in range(400):
        random_op_zone(rng, tuple(f"c{i}" for i in range(rng.randint(1, 6))), counts)
        # arbitrary closed bounds, wider than the operations above produce;
        # free (of any set of clocks) and down must keep them closed with
        # no closure pass
        z = random_canonical_zone(rng, rng.randint(1, 6))
        if z is None:
            continue
        for op in ZONE_OPS:
            out = random_zone_op(rng, z, op)
            if not is_empty(out):
                assert out.canonicalized().m == out.m, (op, z.m)
                counts[op] += 1
    assert all(counts[op] > 100 for op in ZONE_OPS), counts


def lattice(n_clocks: int, top: int):
    """Valuations with coordinates in [0, top] on the 1/(n+1) lattice: every
    region with integer bounds up to top holds one of them (fractional parts
    i/(n+1) realise any order of at most n distinct fractional parts)."""
    step = Q(1, n_clocks + 1)
    values = [step * i for i in range(top * (n_clocks + 1) + 1)]
    return list(itertools.product(values, repeat=n_clocks))


def test_includes_agrees_with_points():
    rng = random.Random(707)
    included = excluded = sampled = 0
    for n_clocks in range(1, 7):
        clocks = tuple(f"c{i}" for i in range(n_clocks))
        pool = []
        while len(pool) < 8:
            z = random_op_zone(rng, clocks)
            if z is not None:
                pool.append(z)
        if n_clocks <= 3:
            # every lattice point: inclusion of the point sets decides it
            points = lattice(n_clocks, 4 if n_clocks < 3 else 3)
        else:
            # too many lattice points: a random sample checks soundness
            values = [Q(i, n_clocks + 1) for i in range(3 * (n_clocks + 1) + 1)]
            points = [tuple(rng.choice(values) for _ in clocks) for _ in range(1500)]
        members = [
            frozenset(p for p in points if zone_contains(z, dict(zip(clocks, p))))
            for z in pool
        ]
        for a, in_a in zip(pool, members):
            for b, in_b in zip(pool, members):
                if a.includes(b):
                    assert in_b <= in_a
                    included += 1
                    sampled += bool(in_b)
                elif n_clocks <= 3:
                    assert not in_b <= in_a, (a.m, b.m)
                    excluded += 1
    assert included > 100 and excluded > 50 and sampled > 100


def test_constants_that_overflow_packed_bounds_are_rejected():
    # x <= 2**40 & x >= 2**40+5 is unsatisfiable; with packed bounds too
    # close to the infinity sentinel it used to yield an unsound witness
    guard = atoms(("x", "<=", 2 ** 40), ("x", ">=", 2 ** 40 + 5))
    ta = make_ta(("a", "b"), "a", ("b",), ("x",),
                 switches=[Switch("a", "go", guard, frozenset(), "b")])
    with pytest.raises(ValueError, match="exceeds"):
        zone_reach(ta)
    with pytest.raises(ValueError, match="exceeds"):
        conjoin(Zone.universal(("x",)), ("x", "<", 2 ** 40 + 1))
    largest = make_ta(
        ("a", "b"), "a", ("b",), ("x",),
        switches=[Switch("a", "go", atoms(("x", ">=", 2 ** 40)), frozenset(), "b")],
    )
    run = zone_reach(largest)
    run.replay_valuations(largest)
    assert run_to_timed_word(run) == (("go", Q(2 ** 40)),)


def test_zones_reject_rational_constants():
    # a rational constant reaching a zone fails loudly: the automaton must be
    # scaled first, and scaling by the lcm of the denominators is exact
    half = make_ta(("a", "b"), "a", ("b",), ("x",),
                   switches=[Switch("a", "go", atoms(("x", ">=", Q(1, 2))), frozenset(), "b")])
    with pytest.raises(ValueError, match="not an integer"):
        zone_reach(half)
    with pytest.raises(ValueError, match="not an integer"):
        conjoin(Zone.universal(("x",)), ("x", "<", Q(1, 2)))
    doubled = half.scaled(2)
    assert doubled.switches[0].guard == atoms(("x", ">=", 1))
    assert type(doubled.max_constant()) is int
    assert run_to_timed_word(zone_reach(doubled)) == (("go", Q(1)),)
    assert doubled.scaled(Q(1, 2)) == half and half.scaled(1) is half


def test_scaling_keeps_shared_constraints_shared():
    # the product repeats each plan guard once per platform location; each
    # distinct constraint object is scaled once
    product = long_plan_product(50)
    doubled = product.scaled(2)
    assert doubled.scaled(Q(1, 2)) == product
    sources = {}
    for sw, scaled_sw in zip(product.switches, doubled.switches):
        assert scaled_sw.guard == sw.guard.scaled(2)
        assert sources.setdefault(id(sw.guard), scaled_sw.guard) is scaled_sw.guard
    assert len({id(sw.guard) for sw in doubled.switches}) == len(sources) < len(product.switches)


def test_clock_constraints_hold_exact_rationals():
    g = atoms(("x", "<", Q(4, 2)), ("y", ">", Q(1, 3)))
    assert [type(k) for _, _, k in g.atoms] == [int, Q]
    assert g.scaled(3) == atoms(("x", "<", 6), ("y", ">", 1))
    for bad in (1.5, -1, Q(-1, 2), "1", True, None):
        with pytest.raises(ValueError):
            atoms(("x", "<", bad))


def test_zone_budget_raises_resource_error():
    # a tick self-loop would map the delay-closed initial zone into itself,
    # so the tick goes through a second location: two zones, one over budget
    loop = make_ta(
        ("a", "c", "b"), "a", ("b",), ("x",),
        switches=[
            Switch("a", "tick", atoms(("x", ">=", 1)), frozenset(), "c"),
            Switch("c", "tick", atoms(("x", ">=", 1)), frozenset(), "a"),
            Switch("a", "go", atoms(("x", ">", 5), ("x", "<", 5)), frozenset(), "b"),
        ],
    )
    with pytest.raises(ResourceError, match="exceeded 1 nodes"):
        zone_reach(loop, budget=1)
    assert synthesis.ResourceError is ResourceError
    assert zone_reach(loop) is None


def test_zone_reach_replays_its_witness(monkeypatch):
    ta = make_ta(("a", "b"), "a", ("b",), ("x",),
                 switches=[Switch("a", "go", atoms(("x", ">=", 2)), frozenset(), "b")])
    assert run_to_timed_word(zone_reach(ta)) == (("go", Q(2)),)
    extract = timed_automata._extract_run

    def early(ta, path):
        run = extract(ta, path)
        return Run(tuple((sw, delay - 1) for sw, delay in run.steps))

    monkeypatch.setattr(timed_automata, "_extract_run", early)
    with pytest.raises(AssertionError, match="guard fails"):
        zone_reach(ta)


class TestCompose:
    def test_identity_shape(self):
        a = camera_platform_ta()
        single = make_ta(("s",), "s", ("s",), ())
        prod = parallel_compose(a, single)
        assert len(prod.locations) == len(a.locations)
        assert len(prod.switches) == len(a.switches)
        assert prod.initial == ("camOff", "s")

    def test_location_count(self):
        a = camera_platform_ta()
        plan = make_ta(
            ("l0", "l1", "l2"), "l0", ("l2",), ("p",),
            switches=[
                Switch("l0", "a1", ClockConstraint(), frozenset(), "l1"),
                Switch("l1", "a2", ClockConstraint(), frozenset(), "l2"),
            ],
        )
        prod = parallel_compose(plan, a)
        assert len(prod.locations) == 3 * 3

    def test_clock_collision_rejected(self):
        a = camera_platform_ta()
        with pytest.raises(ValueError):
            parallel_compose(a, a)

    def test_epsilon_loops_preserved(self):
        a = camera_platform_ta().with_epsilon_loops()
        single = make_ta(("s",), "s", ("s",), ())
        prod = parallel_compose(a, single)
        eps = [sw for sw in prod.switches if sw.label == EPSILON]
        assert len(eps) == len(a.locations)
        assert all(sw.src == sw.dst for sw in eps)


@pytest.mark.parametrize("where", ["switch", "final", "invariant"])
def test_make_ta_rejects_undeclared_locations(where):
    """A switch end, a final or an invariant naming an undeclared location
    is refused where the automaton is built, not found by a later search."""
    end = {w: "l1" if w == where else "l0" for w in ("switch", "final", "invariant")}
    switches = [Switch("l0", "go", ClockConstraint(), frozenset(), end["switch"])]
    invariants = {end["invariant"]: ClockConstraint(parse_guard_atoms("(<= x 1)"))}
    finals = [end["final"]]
    with pytest.raises(ValueError, match=r"name undeclared locations: \['l1'\]"):
        make_ta(["l0"], "l0", finals, ["x"], invariants, switches)


class TestZoneReach:
    def test_camera_boot_window(self):
        ta = camera_platform_ta()
        goal = make_ta(
            ta.locations, ta.initial, ("camOn",), ta.clocks, ta.invariants, ta.switches
        )
        run = zone_reach(goal)
        assert run is not None
        word = run_to_timed_word(run)
        assert [label for label, _ in word] == ["start(bootCamera)", "end(bootCamera)"]
        # earliest witness: boot ends exactly at the lower bound
        assert word[1][1] == Q(4)
        run.replay_valuations(goal)

    def test_unsatisfiable_guard(self):
        ta = make_ta(
            ("a", "b"), "a", ("b",), ("x",),
            switches=[Switch("a", "go", atoms(("x", "<", 1), ("x", ">", 2)), frozenset(), "b")],
        )
        assert zone_reach(ta) is None

    def test_initial_final_gives_empty_run(self):
        ta = make_ta(("a",), "a", ("a",), ("x",))
        run = zone_reach(ta)
        assert run == Run(())
        assert run_to_timed_word(run) == ()

    def test_invariant_bounds_delay(self):
        ta = make_ta(
            ("a", "b"), "a", ("b",), ("x",),
            invariants={"a": atoms(("x", "<=", 2))},
            switches=[Switch("a", "go", atoms(("x", ">=", 3)), frozenset(), "b")],
        )
        assert zone_reach(ta) is None
        # the invariant of a location entered later bounds the delay there
        later = make_ta(
            ("a", "b", "c"), "a", ("c",), ("x",),
            invariants={"b": atoms(("x", "<=", 2))},
            switches=[Switch("a", "go", ClockConstraint(), frozenset(), "b"),
                      Switch("b", "late", atoms(("x", ">=", 3)), frozenset(), "c")],
        )
        assert zone_reach(later) is None

    def test_self_loop_with_reset_is_taken(self):
        # only the reset self-loop separates x from y; a loop without guard
        # and resets is skipped, this one must not be
        ta = make_ta(
            ("a", "b"), "a", ("b",), ("x", "y"),
            switches=[Switch("a", "tick", ClockConstraint(), frozenset({"x"}), "a"),
                      Switch("a", "go", atoms(("y", ">=", 2), ("x", "<=", 1)), frozenset(), "b")],
        )
        run = zone_reach(ta)
        assert [sw.label for sw, _ in run.steps] == ["tick", "go"]
        assert run_to_timed_word(run)[-1] == ("go", Q(2))

    def test_epsilon_dropped_from_word(self):
        ta = camera_platform_ta().with_epsilon_loops()
        goal = make_ta(ta.locations, ta.initial, ("camOn",), ta.clocks, ta.invariants, ta.switches)
        run = zone_reach(goal)
        word = run_to_timed_word(run)
        assert all(label != EPSILON for label, _ in word)


def random_ta(rng: random.Random):
    n_locs = rng.randint(1, 4)
    locations = [f"l{i}" for i in range(n_locs)]
    clocks = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    switches = []
    for _ in range(rng.randint(0, 6)):
        guard = []
        for c in clocks:
            if rng.random() < 0.4:
                guard.append((c, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 3)))
        resets = frozenset(c for c in clocks if rng.random() < 0.3)
        switches.append(
            Switch(rng.choice(locations), rng.choice("abc"),
                   ClockConstraint(tuple(guard)), resets, rng.choice(locations))
        )
    invariants = {}
    for l in locations:
        if rng.random() < 0.3:
            c = rng.choice(clocks)
            invariants[l] = ClockConstraint(((c, "<=", rng.randint(1, 3)),))
    finals = [l for l in locations if rng.random() < 0.4]
    return make_ta(locations, locations[0], finals, clocks, invariants, switches)


def test_zone_reach_agrees_with_region_oracle():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        ta = random_ta(rng)
        reachable = region_reachable(ta)
        # ε self-loops carry no guard and no reset: the zone search skips
        # them, which must not change the verdict
        for automaton in (ta, ta.with_epsilon_loops()):
            run = zone_reach(automaton)
            assert (run is not None) == reachable, ta_to_json(automaton)
            if run is not None:
                run.replay_valuations(automaton)  # concrete soundness
                checked += 1
    assert checked > 80  # the corpus exercises both verdicts


def live_names(ta) -> dict:
    """Location -> names of the clocks live there."""
    return {
        loc: frozenset(c for i, c in enumerate(ta.clocks) if mask >> i & 1)
        for loc, mask in zip(ta.locations, live_clocks(ta))
    }


def warmup_platform():
    """y is reset on entering warm, ready, used and cool, and read only on
    leaving warm (engage) and cool (rest)."""
    return make_ta(
        ("idle", "warm", "ready", "used", "cool"), "idle",
        ("idle", "warm", "ready", "used", "cool"), ("y",),
        switches=[
            Switch("idle", "warmup", ClockConstraint(), frozenset({"y"}), "warm"),
            Switch("warm", "engage", atoms(("y", ">=", 1)), frozenset(), "ready"),
            Switch("ready", "use", ClockConstraint(), frozenset({"y"}), "used"),
            Switch("used", "release", ClockConstraint(), frozenset(), "ready"),
            Switch("ready", "cooldown", ClockConstraint(), frozenset({"y"}), "cool"),
            Switch("cool", "rest", atoms(("y", ">=", 1)), frozenset(), "idle"),
        ],
    )


def windowed_product():
    """Six plan actions whose windows (1,2), (3,4) and (5,6) share one
    clock, composed with the warm-up platform."""
    plan = Plan(tuple(f"a{i}" for i in range(1, 7)))
    windows = ConstraintSet(rel=tuple(Rel(i, i + 1, Interval(1, 2)) for i in (1, 3, 5)))
    return parallel_compose(encode_plan(plan, windows), warmup_platform().with_epsilon_loops())


class TestLiveClocks:
    def test_platform_clock_is_live_only_where_it_is_read(self):
        live = live_names(warmup_platform().with_epsilon_loops())
        assert {loc for loc, clocks in live.items() if "y" in clocks} == {"warm", "cool"}

    def test_shared_window_clock_is_live_only_inside_its_windows(self):
        product = windowed_product()
        assert product.clocks == ("x_1_2", "y")
        live = live_names(product)
        assert {loc for loc, clocks in live.items() if "x_1_2" in clocks} == {
            (f"l{i}", p) for i in (1, 3, 5) for p in warmup_platform().locations
        }
        assert {loc for loc, clocks in live.items() if "y" in clocks} == {
            (f"l{i}", p) for i in range(7) for p in ("warm", "cool")
        }

    def test_liveness_flows_back_to_the_last_reset(self):
        # x is read two switches after its reset, and an invariant reads z
        ta = make_ta(
            ("a", "b", "c", "d"), "a", ("d",), ("x", "z"),
            invariants={"c": atoms(("z", "<=", 3))},
            switches=[
                Switch("a", "reset", ClockConstraint(), frozenset({"x"}), "b"),
                Switch("b", "pass", ClockConstraint(), frozenset({"z"}), "c"),
                Switch("c", "read", atoms(("x", ">=", 2)), frozenset(), "d"),
                Switch("d", "loop", ClockConstraint(), frozenset(), "b"),
            ],
        )
        assert live_names(ta) == {
            "a": frozenset(), "b": {"x"}, "c": {"x", "z"}, "d": {"x"},
        }

    def test_dead_clocks_merge_zones(self):
        # the whole zone graph of the windowed product (no final location):
        # 50 zones, where keeping the dead clocks stores 122
        product = windowed_product()
        search = make_ta(product.locations, product.initial, (), product.clocks,
                         product.invariants, product.switches)
        assert zone_reach(search, budget=50) is None
        with pytest.raises(ResourceError):
            zone_reach(search, budget=49)


def long_plan_product(steps: int = 100):
    """A long plan of start/end step pairs composed with the warm-up
    platform: one relative window near each end of the plan, step 1 starting
    with the platform idle and leaving idle within its last two time units,
    and the middle step run with the platform ready."""
    plan = Plan(tuple(a for i in range(1, steps + 1) for a in (f"start(step{i})", f"end(step{i})")))
    early, late = steps // 50, steps - steps // 50
    cs = ConstraintSet(
        rel=(Rel(2 * early - 1, 2 * early, Interval(1, 3)), Rel(2 * late - 1, 2 * late, Interval(2, 3))),
        chain=(
            Chain(((Atom("idle"), Interval(0, None)), (TRUE, Interval(0, 2))),
                  "start:step1", "end:step1"),
            Chain(((Atom("ready"), Interval(0, None)),),
                  f"start:step{steps // 2}", f"end:step{steps // 2}"),
        ),
    )
    return build_encoding(plan, warmup_platform(), cs)


def test_long_plan_search_is_pinned():
    # node count by the budget boundary, and the exact run: the search's
    # order and extraction decide both
    ta = long_plan_product()
    assert len(ta.locations) == 1002 and len(ta.switches) == 3192
    run = zone_reach(ta, budget=1093)
    with pytest.raises(ResourceError):
        zone_reach(ta, budget=1092)
    assert len(run.steps) == 202
    assert [(k, sw.label, delay) for k, (sw, delay) in enumerate(run.steps)
            if delay or not sw.label.startswith(("start(step", "end(step"))] == [
        (1, "warmup", 0), (4, "end(step2)", 1), (99, "engage", 0), (197, "end(step98)", 2),
    ]
    text = "\n".join(f"{loc_str(sw.src)} {sw.label} {sorted(sw.resets)} {loc_str(sw.dst)} {delay}"
                     for sw, delay in run.steps)
    assert text.startswith(
        "l0|idle start(step1) ['x_chain0'] l1|idle|stage|x_chain0|1 0\n"
        "l1|idle|stage|x_chain0|1 warmup ['x_chain0', 'y'] l1|warm|stage|x_chain0|2 0\n"
        "l1|warm|stage|x_chain0|2 end(step1) [] l2|warm 0\n"
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28356184ff81a722092ffafc988679c21be3eea2dd711b30653d805b720d3e20"
    )


def reset_heavy_ta(rng: random.Random):
    """Random automaton along a path from the initial location to the one
    final location, plus a few random switches: half the resets, so most
    clocks are dead somewhere, and guards and invariants that read a
    clock several switches after its reset."""
    locations = [f"l{i}" for i in range(rng.randint(3, 6))]
    clocks = tuple(f"c{i}" for i in range(rng.randint(2, 3)))

    def switch(src, dst):
        guard = tuple(
            (c, rng.choice(RELATIONS), rng.randint(0, 3))
            for c in clocks if rng.random() < 0.4
        )
        resets = frozenset(c for c in clocks if rng.random() < 0.5)
        return Switch(src, rng.choice("ab"), ClockConstraint(guard), resets, dst)

    switches = [switch(a, b) for a, b in zip(locations, locations[1:])]
    switches += [switch(rng.choice(locations), rng.choice(locations))
                 for _ in range(rng.randint(0, 3))]
    invariants = {
        l: atoms((rng.choice(clocks), rng.choice(("<", "<=")), rng.randint(1, 3)))
        for l in locations if rng.random() < 0.3
    }
    return make_ta(locations, locations[0], locations[-1:], clocks, invariants, switches)


def test_zone_reach_with_dead_clocks_agrees_with_region_oracle():
    # freeing a clock that is still read would admit runs the automaton
    # does not have: a wrong verdict, or a path whose replay fails
    rng = random.Random(31337)
    verdicts = Counter()
    dead_somewhere = 0
    for _ in range(300):
        ta = reset_heavy_ta(rng)
        everything = (1 << len(ta.clocks)) - 1
        dead_somewhere += any(mask != everything for mask in live_clocks(ta))
        run = zone_reach(ta)
        assert (run is not None) == region_reachable(ta), ta_to_json(ta)
        if run is not None:
            run.replay_valuations(ta)
        verdicts[run is not None] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts
    assert dead_somewhere > 250


class TestSerialization:
    def test_json_roundtrip(self):
        ta = camera_platform_ta()
        obj = ta_to_json(ta)
        again = load_ta(obj)
        assert again == ta

    def test_guard_parsing(self):
        got = ClockConstraint(parse_guard_atoms("(and (>= x 4) (<= x 6))"))
        assert got == atoms(("x", ">=", 4), ("x", "<=", 6))
        assert ClockConstraint(parse_guard_atoms("true")) == ClockConstraint()
        # integral constants come out as ints, others as Fractions
        assert parse_guard_atoms("(and (>= x 4/2) (< y 1/2))") == (
            ("x", ">=", 2), ("y", "<", Q(1, 2)))
        assert type(parse_guard_atoms("(>= x 4/2)")[0][2]) is int

    def test_rational_json_roundtrip(self):
        ta = make_ta(
            ("a", "b"), "a", ("b",), ("x", "y"),
            invariants={"a": atoms(("x", "<=", Q(7, 3)))},
            switches=[Switch("a", "go", atoms(("x", ">", Q(1, 2)), ("y", "=", 2)),
                             frozenset({"y"}), "b")],
        )
        obj = ta_to_json(ta)
        assert obj["invariants"] == {"a": "(<= x 7/3)"}
        assert obj["switches"][0]["guard"] == "(and (> x 1/2) (= y 2))"
        assert load_ta(obj) == ta
        assert "x > 1/2 & y = 2" in ta_to_dot(ta)

    def test_dot_output(self):
        dot = ta_to_dot(camera_platform_ta())
        assert "digraph" in dot and "x_cam:=0" in dot
