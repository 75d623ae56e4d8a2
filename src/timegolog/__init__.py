"""Verification and synthesis for timed agent programs against metric
temporal logic specifications, and transformation of abstract plans into
platform-constrained timed action sequences via timed-automata reachability.

The package is organized by layer:

- `temporal`: exact rational clocks and intervals (`Interval`, which `mtl`
  and the package re-export), regions, region increments, canonical words,
  and the quasi-orders driving the search's termination argument.
- `mtl`: the specification logic and its point-based reference semantics,
  which doubles as the test oracle for everything downstream.
- `ata`: single-clock alternating timed automata and the compilation of a
  specification into one.
- `golog`: finite-domain timed basic action theories, the program
  interpreter, regression, and the embedding of timed automata as theories.
- `timed_automata`: the timed-automaton data model, parallel composition,
  and zone-based reachability with concrete witness extraction.
- `synthesis`: the verification and controller-synthesis pipeline.
- `plantrans`: plan encoding, chain-constraint surgery, and realization.
- `cli`: the command-line front end.
"""

from .golog import Bat, Program, WorldState
from .mtl import Interval, MtlFormula, TimedWord
from .plantrans import Plan, transform_plan, validate_transformed
from .synthesis import check_for_controller, extract_controller, simulate_controller, verify
from .timed_automata import TimedAutomaton, parallel_compose, run_to_timed_word, zone_reach

__version__ = "0.1.0"

__all__ = [
    "Bat",
    "Interval",
    "MtlFormula",
    "Plan",
    "Program",
    "TimedAutomaton",
    "TimedWord",
    "WorldState",
    "check_for_controller",
    "extract_controller",
    "parallel_compose",
    "run_to_timed_word",
    "simulate_controller",
    "transform_plan",
    "validate_transformed",
    "verify",
    "zone_reach",
    "__version__",
]
