"""Binary wire codec for call-graph prefix trees.

The TBO̅N timing model charges links using ``serialized_bytes()``; this
module makes that accounting *honest* by actually implementing the wire
format — trees (with either label representation) round-trip through
``pack_tree`` / ``unpack_tree``, and the encoded length equals the size
model's prediction.  The same codec doubles as a session file format
(see :mod:`repro.core.session`), so a front end can persist a merged tree
and a GUI or later analysis can reload it.

Wire format (all integers little-endian):

* tree header: magic ``b'STPT'``, u8 version, u8 label kind, u16 reserved
* u32 child count of the root, then per node in
  :meth:`~repro.core.treearrays.TreeArrays.preorder`: frame (u32
  function length + bytes, u16 module length + bytes), label, u32 child
  count
* dense label: u32 width in bits + packed bytes
* hierarchical label: u32 chunk count, per chunk (u32 daemon id, u32 width)
  — the 64-bit header per chunk of the wire model — then packed bytes

The per-node ``+8`` in :meth:`TreeArrays.serialized_bytes` covers the
child count plus framing; :func:`verify_size_model` holds the model to
the real encoding.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.buildarrays import segment_bounds
from repro.core.frames import Frame
from repro.core.interning import FRAMES
from repro.core.taskset import DaemonLayout
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays

__all__ = ["pack_tree", "unpack_tree", "verify_size_model", "CodecError"]

_MAGIC = b"STPT"
_VERSION = 1
_KIND_DENSE = 0
_KIND_HIERARCHICAL = 1


class CodecError(ValueError):
    """Malformed or inconsistent buffer."""


def _pack_frame(out: List[bytes], frame: Frame) -> None:
    fn = frame.function.encode()
    mod = frame.module.encode()
    out.append(struct.pack("<I", len(fn)))
    out.append(fn)
    out.append(struct.pack("<H", len(mod)))
    out.append(mod)


def _label_header(tree: TreeArrays) -> bytes:
    """The bytes every label of ``tree`` starts with: a dense label's
    width, or a hierarchical label's chunk table."""
    if tree.kind == KIND_DENSE:
        width = tree.width if tree.width is not None \
            else tree.labels.shape[1] * 8
        return struct.pack("<I", width)
    layout = tree.layout
    return struct.pack("<I", len(layout)) + b"".join(
        struct.pack("<II", daemon_id, width)
        for daemon_id, width in zip(layout.daemon_ids, layout.widths))


def pack_tree(tree: TreeArrays) -> bytes:
    """Serialize a tree (and its labels) to bytes, nodes in preorder."""
    # An empty tree has no labels, so its kind byte is irrelevant.
    kind = _KIND_HIERARCHICAL if tree.kind == KIND_HIER \
        and tree.node_count() else _KIND_DENSE
    header = _label_header(tree)
    rows = [header + row.tobytes() for row in tree.labels]
    refs = tree.label_refs.tolist()
    frames = FRAMES.frames_of(tree.frame_ids)
    kids = tree.children()
    out: List[bytes] = [_MAGIC, struct.pack("<BBH", _VERSION, kind, 0),
                        struct.pack("<I", len(kids[-1]))]
    for node in tree.preorder(kids):
        _pack_frame(out, frames[node])
        out.append(rows[refs[node]])
        out.append(struct.pack("<I", len(kids[node])))
    return b"".join(out)


class _Reader:
    """Cursor over a packed buffer with bounds checking."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CodecError(
                f"truncated buffer: need {n} bytes at offset {self.pos}")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def done(self) -> bool:
        return self.pos == len(self.buf)


def _unpack_frame(r: _Reader) -> Frame:
    fn = r.take(r.u32()).decode()
    mod = r.take(r.u16()).decode()
    return Frame(fn, mod)


def _unpack_label(r: _Reader, kind: int) -> Tuple[Any, bytes]:
    """One label as ``(width or layout, packed bytes)``."""
    if kind == _KIND_DENSE:
        width = r.u32()
        return width, r.take((width + 7) // 8)
    table = np.frombuffer(r.take(8 * r.u32()), dtype="<u4").reshape(-1, 2)
    layout = DaemonLayout(table[:, 0].tolist(), table[:, 1].tolist())
    return layout, r.take(layout.nbytes)


def unpack_tree(buf: bytes) -> TreeArrays:
    """Inverse of :func:`pack_tree`; validates framing strictly.

    Returns the tree in BFS order (a stable sort of the preorder by
    depth, so :meth:`TreeArrays.preorder` gives the packed order back)
    with one label row per distinct label, as the kernels share them.
    """
    r = _Reader(buf)
    if r.take(4) != _MAGIC:
        raise CodecError("bad magic: not a packed prefix tree")
    version, kind = r.u8(), r.u8()
    r.u16()  # reserved
    if version != _VERSION:
        raise CodecError(f"unsupported version {version}")
    if kind not in (_KIND_DENSE, _KIND_HIERARCHICAL):
        raise CodecError(f"unknown label kind {kind}")

    frame_ids: List[int] = []
    parents: List[int] = []
    depths: List[int] = []
    refs: List[int] = []
    rows: Dict[Tuple[Any, bytes], int] = {}

    def rec(parent: int, depth: int) -> None:
        for _ in range(r.u32()):
            node = len(frame_ids)
            frame_ids.append(_unpack_frame(r).id)
            parents.append(parent)
            depths.append(depth)
            refs.append(rows.setdefault(_unpack_label(r, kind), len(rows)))
            rec(node, depth + 1)

    rec(-1, 0)
    if not r.done():
        raise CodecError(f"{len(buf) - r.pos} trailing bytes")
    shapes = {shape for shape, _ in rows}
    if len(shapes) > 1:
        raise CodecError("labels of one tree disagree on their shape")

    if not rows:
        return TreeArrays.empty(KIND_DENSE, width=0)
    shape = shapes.pop()
    hier = kind == _KIND_HIERARCHICAL
    labels = np.frombuffer(bytearray(b"".join(data for _, data in rows)),
                           dtype=np.uint8).reshape(len(rows), -1)
    depth = np.asarray(depths, dtype=np.int64)
    order = np.argsort(depth, kind="stable")  # preorder -> BFS
    index = np.argsort(order)
    up = np.asarray(parents, dtype=np.int64)[order]
    return TreeArrays(
        KIND_HIER if hier else KIND_DENSE,
        np.asarray(frame_ids, dtype=np.int64)[order],
        np.where(up >= 0, index[up], -1), np.asarray(refs)[order],
        segment_bounds(depth, int(depth.max()) + 1), labels,
        width=None if hier else shape, layout=shape if hier else None)


def verify_size_model(tree: TreeArrays, tolerance: float = 0.15) -> Tuple[int, int]:
    """Check the analytic wire-size model against the real encoding.

    Returns ``(modelled, actual)`` byte counts; raises ``AssertionError``
    when they diverge by more than ``tolerance`` (relative).  Used in tests
    to keep the TBO̅N timing model honest as formats evolve.
    """
    modelled = tree.serialized_bytes()
    actual = len(pack_tree(tree))
    if modelled == 0 and actual == 0:
        return modelled, actual
    if abs(modelled - actual) > tolerance * max(modelled, actual):
        raise AssertionError(
            f"wire-size model drifted: modelled {modelled} vs actual "
            f"{actual} bytes")
    return modelled, actual
