"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# The whole tier-1 suite runs with runtime kernel contracts asserting
# on real arrays (sanitizer mode).  Set the env var BEFORE any repro
# import so process-pool children inherit it, then force-enable for
# this process regardless of prior environment.
os.environ["REPRO_CONTRACTS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.lint import contracts as _contracts  # noqa: E402

_contracts.enable()

from repro.core.merge import (  # noqa: E402
    DenseLabelScheme,
    HierarchicalLabelScheme,
)
from repro.core.taskset import TaskMap  # noqa: E402
from repro.core.treearrays import TreeArrays  # noqa: E402
from repro.machine.atlas import AtlasMachine  # noqa: E402
from repro.machine.bgl import BGLMachine  # noqa: E402
from repro.mpi.stacks import BGLStackModel, LinuxStackModel  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402


def as_arrays(scheme, trees):
    """Object trees -> the ``TreeArrays`` a scheme merges (test boundary).

    Tests build their inputs with ``PrefixTree.insert`` and keep feeding
    the reference kernels those objects; the production kernels take
    arrays only.
    """
    return [TreeArrays.from_prefix_tree(t, kind=scheme.kind) for t in trees]


@pytest.fixture
def engine() -> Engine:
    """A fresh simulation engine."""
    return Engine()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG."""
    return np.random.default_rng(208_000)


@pytest.fixture
def small_task_map() -> TaskMap:
    """4 daemons x 8 tasks, cyclic placement (remap is non-trivial)."""
    return TaskMap.cyclic(4, 8)


@pytest.fixture
def atlas_small() -> AtlasMachine:
    """A 16-node Atlas allocation (128 tasks)."""
    return AtlasMachine.with_nodes(16)


@pytest.fixture
def bgl_small() -> BGLMachine:
    """A 16-I/O-node BG/L partition in CO mode (1,024 tasks)."""
    return BGLMachine.with_io_nodes(16, "co")


@pytest.fixture
def bgl_stacks() -> BGLStackModel:
    return BGLStackModel()


@pytest.fixture
def linux_stacks() -> LinuxStackModel:
    return LinuxStackModel()


@pytest.fixture(params=["dense", "hierarchical"])
def any_scheme(request):
    """Both label schemes, parameterized (width 32 for dense)."""
    if request.param == "dense":
        return DenseLabelScheme(32)
    return HierarchicalLabelScheme()
