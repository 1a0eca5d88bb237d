"""The forest block's one sort, pinned to the ``int64`` stable argsort.

``build_forest`` sorts each block's trace-id matrix once, row by row,
keyed on the ids cast to the narrowest unsigned dtype that holds the
largest one (:func:`repro.core.forest._block_order`), and derives the
2D tree's order from it by keeping the last instant's columns
(:func:`repro.core.forest._tail_order`).  A stable order is unique, so
both must equal a fresh stable ``argsort`` of the ``int64`` matrix and
of its last columns, for ids whose key is ``uint8``, ``uint16`` (numpy's
radix sorts), ``uint32`` or ``uint64``.  Few distinct ids per matrix
keep ties, where an unstable sort would differ, frequent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forest import _block_order, _tail_order

#: key dtype -> the (lowest, highest) largest id that selects it
KEY_RANGES = {
    np.uint8: (0, 2**8 - 1),
    np.uint16: (2**8, 2**16 - 1),
    np.uint32: (2**16, 2**32 - 1),
    np.uint64: (2**32, 2**63 - 1),
}


@st.composite
def id_matrices(draw):
    """``(key dtype, elems, last)``: an int64 id matrix whose largest id
    selects ``key dtype``, and a tail width in ``{1, n // 2, n}``."""
    key = draw(st.sampled_from(list(KEY_RANGES)))
    lo, hi = KEY_RANGES[key]
    top = draw(st.integers(lo, hi))
    palette = [top] + draw(st.lists(st.integers(0, top), min_size=0,
                                    max_size=5))
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    picks = draw(st.lists(st.integers(0, len(palette) - 1),
                          min_size=rows * n, max_size=rows * n))
    elems = np.asarray(palette, dtype=np.int64)[picks].reshape(rows, n)
    elems.flat[draw(st.integers(0, rows * n - 1))] = top
    last = draw(st.sampled_from([1, n // 2, n]))
    return key, elems, last


@settings(max_examples=300, deadline=None)
@given(id_matrices())
def test_block_order_is_the_int64_stable_argsort(case):
    key, elems, last = case
    assert np.min_scalar_type(int(elems.max())) == key
    order = _block_order(elems)
    assert order.dtype == np.int64
    np.testing.assert_array_equal(
        order, np.argsort(elems, axis=1, kind="stable"))
    n = elems.shape[1]
    tail = _tail_order(order, last)
    np.testing.assert_array_equal(
        tail, np.argsort(elems[:, n - last:], axis=1, kind="stable"))


def test_radix_keys_cover_a_whole_block():
    """A block-sized matrix of small ids: a uint8 key, the same order."""
    rng = np.random.default_rng(7)
    elems = rng.integers(0, 9, size=(64, 4096)).astype(np.int64)
    order = _block_order(elems)
    np.testing.assert_array_equal(
        order, np.argsort(elems, axis=1, kind="stable"))
    np.testing.assert_array_equal(
        _tail_order(order, 409),
        np.argsort(elems[:, -409:], axis=1, kind="stable"))
