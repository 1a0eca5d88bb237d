"""Metamorphic properties of a whole session's end product.

Each test runs one small random spec twice, changing one thing that must
not matter (the TBO̅N topology, the label scheme, streamed arrival order)
or one thing with a known effect (a daemon crashed at t=0, a larger
retry budget under the same link drops, a permutation of the MPI ranks
at the finalize boundary), and checks the finalized trees, the
equivalence classes, the triage queries or the degradation report
against each other.
Example counts are small: every example runs two or three sessions.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.core.equivalence import EquivalenceClass, equivalence_classes
from repro.core.queries import TreeQuery
from repro.core.taskset import TaskMap
from repro.core.treearrays import KIND_DENSE, TreeArrays
from repro.faults.plan import FaultPlan, LinkFault, RetryPolicy
from repro.tbon.retry import AllDaemonsFailed
from repro.tbon.streaming import StreamConfig

TOPOLOGIES = (None, "flat", "balanced:2", "balanced:3", "bgl-3deep")

#: (machine, mode) -> daemon counts small enough for ~20 ms sessions
MACHINES = {("atlas", "co"): st.integers(2, 12),
            ("bgl", "co"): st.integers(2, 6),
            ("bgl", "vn"): st.integers(2, 4)}


@st.composite
def specs(draw):
    machine, mode = draw(st.sampled_from(sorted(MACHINES)))
    return SessionSpec(
        machine=machine, mode=mode,
        daemons=draw(MACHINES[(machine, mode)]),
        topology=draw(st.sampled_from(TOPOLOGIES)),
        scheme=draw(st.sampled_from(["dense", "hierarchical"])),
        mapping=draw(st.sampled_from(["block", "cyclic"])),
        workload=draw(st.sampled_from(
            ["ring_hang", "distinct", "uniform:3", "uniform:9"])),
        num_samples=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32 - 1)))


def run(spec, stream_config=None):
    """One session: ``(pipeline context, result)``."""
    pipeline = SessionPipeline.from_spec(spec)
    if stream_config is not None:
        pipeline.ctx.stream = True
        pipeline.ctx.stream_config = stream_config
    return pipeline.ctx, pipeline.run()


def assert_same_answer(a, b):
    assert a.tree_2d.structurally_equal(b.tree_2d)
    assert a.tree_3d.structurally_equal(b.tree_3d)
    assert a.classes == b.classes


@settings(max_examples=25, deadline=None)
@given(specs(), st.sampled_from(TOPOLOGIES))
def test_topology_does_not_change_the_answer(spec, topology):
    _, base = run(spec)
    _, moved = run(dataclasses.replace(spec, topology=topology))
    assert_same_answer(base, moved)


@settings(max_examples=25, deadline=None)
@given(specs())
def test_dense_and_hierarchical_finalize_agree(spec):
    _, dense = run(dataclasses.replace(spec, scheme="dense"))
    _, hier = run(dataclasses.replace(spec, scheme="hierarchical"))
    assert dense.tree_2d.kind == hier.tree_2d.kind == "dense"
    assert_same_answer(dense, hier)


@settings(max_examples=25, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1),
       st.floats(0.0, 0.2), st.floats(0.0, 2.0), st.floats(0.0, 0.5))
def test_streamed_equals_batch_under_any_jitter(spec, seed, jitter, link,
                                                 stragglers):
    _, batch = run(spec)
    _, streamed = run(spec, StreamConfig(
        seed=seed, jitter_mean_s=jitter, link_jitter=link,
        straggler_fraction=stragglers, straggler_extra_s=0.1))
    assert streamed.tree_2d.arrays_equal(batch.tree_2d)
    assert streamed.tree_3d.arrays_equal(batch.tree_3d)
    assert streamed.classes == batch.classes


@settings(max_examples=25, deadline=None)
@given(specs(), st.data())
def test_crashing_a_daemon_removes_exactly_its_ranks(spec, data):
    ctx, healthy = run(spec)
    daemon = data.draw(st.sampled_from(sorted(ctx.task_map.daemons())))
    _, crashed = run(dataclasses.replace(
        spec, faults=FaultPlan(seed=spec.seed).with_crashes([daemon])))
    gone = set(ctx.task_map.ranks_of(daemon).tolist())
    expected = [EquivalenceClass(c.paths, kept) for c in healthy.classes
                if (kept := tuple(r for r in c.ranks if r not in gone))]
    expected.sort(key=lambda c: (-c.size, c.representative))
    assert list(crashed.merge.missing_daemons) == [daemon]
    assert crashed.classes == expected


@settings(max_examples=25, deadline=None)
@given(specs(), st.floats(0.05, 0.9), st.integers(0, 3), st.integers(1, 3))
def test_more_retries_never_lower_coverage(spec, drop_p, retries, more):
    def degradation(max_retries):
        """The session's report, or None when every daemon was lost."""
        plan = FaultPlan(seed=spec.seed, links=(LinkFault(drop_p=drop_p),),
                         retry=RetryPolicy(max_retries=max_retries))
        try:
            _, result = run(dataclasses.replace(spec, faults=plan))
        except AllDaemonsFailed:
            return None
        return result.degradation

    fewer, extra = degradation(retries), degradation(retries + more)
    if fewer is not None:
        assert extra is not None
        assert extra.coverage >= fewer.coverage
        assert set(extra.missing_daemons) <= set(fewer.missing_daemons)


def permuted(tree, perm):
    """A dense ``tree`` with every rank ``r`` of every label row moved to
    ``perm[r]`` — the same nodes, rows and row sharing."""
    bits = np.unpackbits(tree.labels, axis=1, count=tree.width)
    moved = np.zeros_like(bits)
    moved[:, perm] = bits
    return TreeArrays(KIND_DENSE, tree.frame_ids, tree.parents,
                      tree.label_refs, tree.level_offsets,
                      np.packbits(moved, axis=1), width=tree.width)


@settings(max_examples=25, deadline=None)
@given(specs(), st.data())
def test_permuting_ranks_permutes_the_answer(spec, data):
    """Finalize a merged root under a rank-permuted task map: the nodes
    stay, every label, class and query answer moves by the permutation,
    and nothing else changes.

    Only the hierarchical scheme reads the map at finalize (its remap);
    a dense root is already rank-ordered and must finalize to itself
    under any map, so for it the permutation is applied to its rows.
    """
    dead = data.draw(st.sets(st.integers(0, spec.daemons - 1),
                             max_size=spec.daemons - 1))
    ctx = SessionPipeline.from_spec(
        dataclasses.replace(spec, dead_daemons=tuple(dead))
    ).run_until("merge")
    task_map = ctx.task_map
    total = task_map.total_tasks
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(total)
    asked = rng.choice(total, size=min(total, 12), replace=False).tolist()
    moved_map = TaskMap({d: perm[task_map.ranks_of(d)]
                         for d in task_map.daemons()})
    for root in ctx.merge.payload.trees():
        final = ctx.scheme.finalize(root, task_map)
        moved = ctx.scheme.finalize(root, moved_map)
        if ctx.scheme.kind == KIND_DENSE:
            assert moved.arrays_equal(final)  # the map is not read
            moved = permuted(final, perm)
        assert moved.structurally_equal(permuted(final, perm))
        for node in range(final.node_count()):
            assert np.array_equal(moved.label_of(node),
                                  np.sort(perm[final.label_of(node)]))

        expected = [EquivalenceClass(c.paths,
                                     tuple(sorted(perm[list(c.ranks)]
                                                  .tolist())))
                    for c in equivalence_classes(final)]
        expected.sort(key=lambda c: (-c.size, c.representative))
        assert equivalence_classes(moved) == expected

        if not final.node_count():
            continue
        query, moved_query = TreeQuery(final), TreeQuery(moved)
        for rank in asked:
            assert np.array_equal(moved_query.class_of(int(perm[rank])),
                                  np.sort(perm[query.class_of(rank)]))
            assert moved_query.where_is(int(perm[rank])) == \
                query.where_is(rank)
