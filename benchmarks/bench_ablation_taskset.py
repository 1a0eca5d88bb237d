"""Ablation A3 — task-set representation micro-costs on this host.

Validates the wire-size arithmetic that drives Section V: dense labels
serialize to the job width at every scale; a full-width hierarchical
label is the job width plus one 64-bit header per daemon chunk, while
the daemon-level edge the paper's claim is about stays one small chunk.
"""

from repro.experiments import ablation_taskset


def test_ablation_taskset(once):
    result = once(ablation_taskset.run)
    print()
    print(result.render())

    dense_bytes = {int(r.x): r.y
                   for r in result.series("dense serialize (bytes)")}
    hier_bytes = {int(r.x): r.y
                  for r in result.series("hierarchical serialize (bytes)")}
    edge_bytes = {int(r.x): r.y
                  for r in result.series("hierarchical daemon edge (bytes)")}
    # dense grows with job width; at 1M tasks it is a megabit (128 KB)
    assert dense_bytes[1_048_576] == 1_048_576 / 8
    for width in dense_bytes:
        # full width: every task's bit plus a 64-bit header per 128-task
        # chunk, so larger than dense by exactly the headers
        assert hier_bytes[width] == (width + 64 * (width // 128)) / 8
        # one daemon's edge: 128 bits + one header = 24 B at every width,
        # far smaller than the job-width dense edge
        assert edge_bytes[width] == 24
        assert edge_bytes[width] < dense_bytes[width] / 5

    unions = {int(r.x): r.y for r in result.series("dense union")}
    # micro-costs stay in the microsecond range even at 1M tasks
    assert unions[1_048_576] < 1e5  # < 0.1 s
