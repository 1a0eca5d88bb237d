#!/usr/bin/env python3
"""An operator's workflow: capture a session, archive it, triage offline.

Models the division of labour the paper proposes: STAT runs *once* at full
scale (cheap, lightweight), the result is archived, and the expensive
human + heavyweight-debugger time happens later against the archive —
including on a workstation with no access to the machine.

Steps shown:

1. run a degraded full session (one I/O-node daemon has died; the TBO̅N
   skips its subtree and reports it),
2. save the session to disk (binary tree codec + DOT + JSON),
3. reload it and answer triage questions with the query API,
4. export the topology that was used, in MRNet's file format.

Run:  python examples/session_workflow.py
"""

import tempfile
from pathlib import Path

from repro.core.frontend import STATFrontEnd
from repro.core.queries import TreeQuery
from repro.core.ranklist import format_edge_label
from repro.core.session import load_session, save_session
from repro.machine.bgl import BGLMachine
from repro.statbench import ring_hang_states
from repro.tbon.spec import to_topology_file


def main() -> None:
    machine = BGLMachine.with_io_nodes(32, "co")    # 2,048 tasks
    front_end = STATFrontEnd(machine, seed=777)
    print(f"machine: {machine.describe()}")
    print(f"topology: {front_end.topology.describe()}")

    # 1. capture --------------------------------------------------------
    session = front_end.attach_and_analyze(
        ring_hang_states(machine.total_tasks))
    print(f"\ncaptured session: {len(session.classes)} classes, "
          f"total {session.total_seconds:.1f} simulated seconds")

    # 2. archive --------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "stat-session"
        save_session(session, directory, machine_name=machine.name)
        files = sorted(p.name for p in directory.iterdir())
        print(f"archived to {directory.name}/: {files}")

        # 3. offline triage ---------------------------------------------
        archive = load_session(directory)
        query = TreeQuery(archive.tree_3d)
        print("\noffline triage on the archive:")

        suspects = query.reached_but_not("main", "PMPI_Barrier")
        print(f"  never reached the barrier: "
              f"{format_edge_label(suspects)}")

        for path, ranks in query.outliers(max_class_size=1):
            print(f"  singleton at {path.leaf.function}: rank {ranks[0]}")

        rank = int(suspects[0])
        print(f"  rank {rank} was observed on:")
        for path in query.where_is(rank):
            print(f"    {path}")

    # 4. topology export --------------------------------------------------
    print("\nthe MRNet topology file for this session:")
    text = to_topology_file(front_end.topology)
    head = text.splitlines()[:3]
    print("  " + "\n  ".join(head))
    print(f"  ... ({len(text.splitlines())} lines total)")


if __name__ == "__main__":
    main()
