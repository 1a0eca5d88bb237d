"""Built-in repo-specific rules.

Importing this package registers every rule with the engine registry
(:func:`repro.lint.engine.all_rules` triggers the import).  One module
per rule family:

* :mod:`~repro.lint.rules.pickle_safety` — callables that cannot cross
  the ``ScenarioSuite`` process pool;
* :mod:`~repro.lint.rules.determinism` — unordered iteration, unseeded
  randomness, wall-clock reads;
* :mod:`~repro.lint.rules.perf_counters` — PERF counter-name discipline;
* :mod:`~repro.lint.rules.spec_drift` — ``SessionSpec`` fields and
  workload ids versus the session-format docs;
* :mod:`~repro.lint.rules.spec_hygiene` — mutable defaults and
  non-frozen spec/config dataclasses.

Each property has exactly one static check; ``docs/static-analysis.md``
lists what each rule has caught and which dynamic test guards the
same property.
"""

from repro.lint.rules import (  # noqa: F401 - imported for registration
    determinism,
    perf_counters,
    pickle_safety,
    spec_drift,
    spec_hygiene,
)
