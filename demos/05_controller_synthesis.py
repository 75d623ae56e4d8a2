"""Controller synthesis for the camera scenario, end to end.

The robot must drive to a machine and grasp an object while, in parallel,
it may boot its camera.  The specification of undesired behavior: grasping
while the camera is off, or grasping within two seconds of a camera-off
observation.  Start actions are under the agent's control; end actions (the
durations) belong to the environment.

The pipeline compiles the specification into an alternating timed
automaton, explores the determinized product restricted to region-increment
delays, closes dominated branches via the well-quasi-order, solves the
safety game while it searches (a node stops expanding once its label is
decided), extracts a controller from the searched graph, and stress-tests
it against randomized environments with the independent semantics oracle.
"""

import json
import time
from pathlib import Path

from timegolog import mtl
from timegolog.cli import parse_formula_text
from timegolog.parsing import load_bat, load_program
from timegolog.synthesis import (
    check_for_controller,
    extract_controller,
    simulate_controller,
    verify,
)
from timegolog.temporal import format_fraction

DATA = Path(__file__).parent / "data"

bat = load_bat(json.loads((DATA / "camera_bat.json").read_text()))
program = load_program(json.loads((DATA / "camera_program.json").read_text()), bat)
spec = parse_formula_text((DATA / "camera_spec.sexpr").read_text(), bat)
print("undesired behavior:", spec)
print()

print("== verification without control ==")
verdict = verify(bat, program, spec)
print("is every execution safe?", verdict.safe)
print("a violating execution:")
for action, t in verdict.counterexample:
    print(f"  {format_fraction(t):>4}  {action}")
print("(grasping happens within two seconds of a camera-off observation)")
print()

print("== the timed game ==")
controllable = lambda action: action.startswith("start(")
t0 = time.time()
result, graph, problem = check_for_controller(bat, program, spec, controllable)
print(f"controller exists: {result}  "
      f"({len(graph.nodes)} nodes, {time.time() - t0:.1f}s)")

controller = extract_controller(problem, graph, controllable)
print(f"controller: {len(controller.locations)} locations, "
      f"{len(controller.edges)} edges")
print()

print("== a few controller edges out of the initial location ==")
for edge in controller.edges_from(controller.initial)[:4]:
    print(f"  {edge.action:25s} when {edge.guard}")
print()

print("== adversarial simulation ==")
report = simulate_controller(controller, trials=500, seed=7)
print(f"trials: {report.trials}, completed traces: {report.completed}")
print(f"specification violations: {len(report.violations)}")
print(f"controller-condition failures: {len(report.condition_failures)}")
print()
print("every completed trace was re-checked with the point-based semantics")
print("oracle; the controller also never blocked and always covered or")
print("preempted the environment's moves")
