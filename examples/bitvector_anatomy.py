#!/usr/bin/env python3
"""Figure 6 walkthrough: why edge labels had to become hierarchical.

Prints the Figure 6 experiment: the paper's 4-task illustration — daemon
0 debugging tasks 0 and 2, daemon 1 debugging tasks 1 and 3 — built
from packed label rows, concatenated and remapped into rank order by the
front end, then the per-edge wire-size arithmetic from 1K tasks to a
hypothetical million-core system.

Run:  python examples/bitvector_anatomy.py
"""

from repro.experiments import fig06_bitvector


def main() -> None:
    print(fig06_bitvector.run().render())


if __name__ == "__main__":
    main()
