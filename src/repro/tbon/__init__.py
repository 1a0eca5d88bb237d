"""Tree-Based Overlay Network (TBO̅N) — the MRNet substrate.

MRNet gives STAT scalable communication: a front end at the root, optional
layers of communication processes (CPs), and the tool daemons as leaves.
Custom *filters* run at every internal node, aggregating children's packets
before forwarding — for STAT, the filter is the prefix-tree merge.

This package reimplements the pieces the paper exercises:

* :mod:`repro.tbon.topology` — tree construction, including the exact
  fanout rules of Section III (flat 1-deep; 2-deep with
  ``min(sqrt(D), 28)`` CPs; 3-deep with front-end fanout 4 over 16 or 24
  CPs; and fully balanced n-deep trees for Atlas).
* :mod:`repro.tbon.network` — the timed reduction/broadcast engine.
  Filters execute **for real** on real payloads; the simulated clock
  charges link transfers (from real serialized byte counts), per-message
  overheads, ingress serialization at each host NIC, and CPU dilation when
  CPs share login nodes.
* :mod:`repro.tbon.streaming` — the same reduction as a discrete-event
  simulation (asynchronous daemons, incremental folds, snapshots).
* :mod:`repro.tbon.retry` — the one failure path both engines drive:
  leaf resolution against a fault plan and the per-transmission
  retry/degrade state machine.
"""

from repro.tbon.network import ReduceResult, TBONCostBase, TBONetwork, \
    TBONOverflowError
from repro.tbon.retry import AllDaemonsFailed, DaemonFailure
from repro.tbon.spec import from_topology_file, parse_shape, \
    to_topology_file
from repro.tbon.streaming import Snapshot, StreamConfig, StreamResult, \
    StreamingReduction, StreamingTBON
from repro.tbon.topology import Topology, TopologyNode, Role

__all__ = [
    "Topology",
    "TopologyNode",
    "Role",
    "TBONCostBase",
    "TBONetwork",
    "ReduceResult",
    "TBONOverflowError",
    "DaemonFailure",
    "AllDaemonsFailed",
    "StreamingTBON",
    "StreamingReduction",
    "StreamConfig",
    "StreamResult",
    "Snapshot",
    "parse_shape",
    "to_topology_file",
    "from_topology_file",
]
