#!/usr/bin/env python3
"""Declarative sessions: one spec file, one batch sweep, one table.

The paper's evaluation is dozens of (machine, topology, staging, scale)
configurations.  With the session API each configuration is a
:class:`repro.api.SessionSpec` — a JSON-serializable value — and a
:class:`repro.api.ScenarioSuite` runs a whole batch concurrently:

1. build a base spec and write it to disk (what `stat-repro run --spec`
   consumes),
2. expand it over scales and modes,
3. run the batch in one call and print the comparison table,
4. replay one scenario with a declared fault plan (two I/O nodes
   crash before the merge).

Run:  python examples/scenario_sweep.py
"""

import tempfile
from pathlib import Path

from repro.api import ScenarioSuite, SessionSpec
from repro.faults.plan import FaultPlan


def main() -> None:
    base = SessionSpec(machine="bgl", daemons=8, mode="co",
                       num_samples=5, seed=2008)

    # 1. specs are files --------------------------------------------------
    spec_path = Path(tempfile.mkdtemp()) / "ring_hang.json"
    base.save(spec_path)
    print(f"spec written to {spec_path}:")
    print(spec_path.read_text())

    # 2. + 3. expand and run the batch -----------------------------------
    specs = [base.replace(daemons=d, mode=mode,
                          name=f"bgl-{d}io-{mode}")
             for d in (4, 8, 16)
             for mode in ("co", "vn")]
    report = ScenarioSuite(specs).run()
    print(report.table())
    print()

    # 4. one degraded session: the dead set is part of the spec ----------
    crashes = FaultPlan(seed=base.seed).with_crashes([2, 5])
    result = base.replace(daemons=8, faults=crashes).run().result
    print("degraded session (daemons 2 and 5 died before the merge):")
    print(f"  missing daemons: {sorted(result.merge.missing_daemons)}")
    print(f"  tasks still covered: {sum(c.size for c in result.classes)}"
          f" of {8 * 64}")


if __name__ == "__main__":
    main()
