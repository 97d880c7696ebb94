"""On-page node layouts for the disk-resident B+-tree.

Layouts mirror the accounting the paper uses for Eq. (4):

* **Leaf**: 1 indicator byte, 2-byte entry count, 8-byte left and right
  sibling pointers, then ``count`` fixed-width (key, value) entries.
* **Internal**: 1 indicator byte, 2-byte key count, ``count + 1`` 8-byte
  child pointers, then ``count`` fixed-width separator keys.

Keys and values are opaque fixed-width byte strings; key codecs encode so
that bytewise order equals numeric order, letting nodes compare raw bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

#: Sentinel page id meaning "no sibling".
NO_PAGE = 0xFFFFFFFFFFFFFFFF

_LEAF_TYPE = 1
_INTERNAL_TYPE = 0
_HEADER = struct.Struct(">BH")          # type, count
_SIBLINGS = struct.Struct(">QQ")        # left, right page ids
_CHILD = struct.Struct(">Q")

LEAF_HEADER_BYTES = _HEADER.size + _SIBLINGS.size   # 3 + 16 = 19
INTERNAL_HEADER_BYTES = _HEADER.size                # 3


class NodeFormatError(ValueError):
    """Raised when a page does not parse as the expected node type."""


@dataclass
class LeafNode:
    """In-memory image of a leaf page."""

    keys: list[bytes] = field(default_factory=list)
    values: list[bytes] = field(default_factory=list)
    left: int = NO_PAGE
    right: int = NO_PAGE

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class InternalNode:
    """In-memory image of an internal page.

    ``children`` has ``len(keys) + 1`` entries; ``keys[i]`` is the minimum
    key reachable under ``children[i + 1]``.
    """

    keys: list[bytes] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.keys)


def leaf_capacity(page_size: int, key_width: int, value_width: int) -> int:
    """Maximum entries per leaf under this layout."""
    usable = page_size - LEAF_HEADER_BYTES
    return usable // (key_width + value_width)


def internal_capacity(page_size: int, key_width: int) -> int:
    """Maximum separator keys per internal node (children = capacity + 1)."""
    usable = page_size - INTERNAL_HEADER_BYTES - _CHILD.size
    return usable // (key_width + _CHILD.size)


def serialize_leaf(node: LeafNode, page_size: int,
                   key_width: int, value_width: int) -> bytes:
    """Pack a leaf node into a page-sized byte string."""
    count = len(node.keys)
    if count != len(node.values):
        raise NodeFormatError("leaf keys/values length mismatch")
    if count > leaf_capacity(page_size, key_width, value_width):
        raise NodeFormatError(f"leaf overflow: {count} entries")
    parts = [_HEADER.pack(_LEAF_TYPE, count),
             _SIBLINGS.pack(node.left, node.right)]
    for key, value in zip(node.keys, node.values):
        if len(key) != key_width or len(value) != value_width:
            raise NodeFormatError("leaf entry width mismatch")
        parts.append(key)
        parts.append(value)
    raw = b"".join(parts)
    return raw + bytes(page_size - len(raw))


def serialize_internal(node: InternalNode, page_size: int,
                       key_width: int) -> bytes:
    """Pack an internal node into a page-sized byte string."""
    count = len(node.keys)
    if len(node.children) != count + 1:
        raise NodeFormatError(
            f"internal node needs {count + 1} children, has {len(node.children)}"
        )
    if count > internal_capacity(page_size, key_width):
        raise NodeFormatError(f"internal overflow: {count} keys")
    parts = [_HEADER.pack(_INTERNAL_TYPE, count)]
    parts.extend(_CHILD.pack(child) for child in node.children)
    for key in node.keys:
        if len(key) != key_width:
            raise NodeFormatError("internal key width mismatch")
        parts.append(key)
    raw = b"".join(parts)
    return raw + bytes(page_size - len(raw))


def parse_node(raw: bytes, key_width: int,
               value_width: int) -> LeafNode | InternalNode:
    """Parse a page into the node it encodes."""
    node_type, count = _HEADER.unpack_from(raw, 0)
    if node_type == _LEAF_TYPE:
        return _parse_leaf(raw, count, key_width, value_width)
    if node_type == _INTERNAL_TYPE:
        return _parse_internal(raw, count, key_width)
    raise NodeFormatError(f"unknown node type byte {node_type}")


def _parse_leaf(raw: bytes, count: int, key_width: int,
                value_width: int) -> LeafNode:
    left, right = _SIBLINGS.unpack_from(raw, _HEADER.size)
    offset = LEAF_HEADER_BYTES
    entry = key_width + value_width
    if offset + count * entry > len(raw):
        raise NodeFormatError("leaf entry region exceeds page")
    keys: list[bytes] = []
    values: list[bytes] = []
    for _ in range(count):
        # Keys must be real bytes: the tree orders them with <, which a
        # memoryview (zero-copy mmap page) does not support.  Values stay
        # whatever slice of ``raw`` is — views over an mmap page are
        # passed through copy-free to the candidate decode.
        keys.append(bytes(raw[offset:offset + key_width]))
        offset += key_width
        values.append(raw[offset:offset + value_width])
        offset += value_width
    return LeafNode(keys=keys, values=values, left=left, right=right)


def _parse_internal(raw: bytes, count: int, key_width: int) -> InternalNode:
    offset = INTERNAL_HEADER_BYTES
    needed = (count + 1) * _CHILD.size + count * key_width
    if offset + needed > len(raw):
        raise NodeFormatError("internal entry region exceeds page")
    children: list[int] = []
    for _ in range(count + 1):
        children.append(_CHILD.unpack_from(raw, offset)[0])
        offset += _CHILD.size
    keys: list[bytes] = []
    for _ in range(count):
        keys.append(bytes(raw[offset:offset + key_width]))
        offset += key_width
    return InternalNode(keys=keys, children=children)
