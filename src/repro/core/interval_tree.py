"""Self-balancing interval tree with a two-entry lookup cache.

ARBALEST "uses an interval tree to maintain the relationship between OV and
CV" (§IV.C): every device access must find, from a raw device address, the
mapped section it belongs to, in O(log m) for m live mappings — and because
kernels hammer the same few arrays, the paper amortizes that to O(1) with a
cache of the latest lookup.  The cache here keeps the latest *two*, since
an element-wise ``A[i] = A[i] + B[i]`` alternates between two mappings.

The tree stores *non-overlapping, half-open* intervals ``[lo, hi)`` with an
arbitrary payload.  Balancing is AVL (height-bound 1.44·log2 m); since the
intervals never overlap, a stabbing query is a plain ordered descent, and
the classic max-endpoint augmentation is kept only to support overlap
queries used by input validation.

This one structure serves two masters: the CV→mapping lookup inside the
detector, and the host-address→shadow-block lookup, each with its own cache.
"""

from __future__ import annotations

from typing import Any, Generic, Iterator, TypeVar

T = TypeVar("T")


class _Node(Generic[T]):
    __slots__ = ("lo", "hi", "value", "left", "right", "height", "max_hi")

    def __init__(self, lo: int, hi: int, value: T):
        self.lo = lo
        self.hi = hi
        self.value = value
        self.left: "_Node[T] | None" = None
        self.right: "_Node[T] | None" = None
        self.height = 1
        self.max_hi = hi


def _h(node: "_Node[T] | None") -> int:
    return node.height if node is not None else 0


def _fix(node: "_Node[T]") -> None:
    node.height = 1 + max(_h(node.left), _h(node.right))
    node.max_hi = node.hi
    if node.left is not None and node.left.max_hi > node.max_hi:
        node.max_hi = node.left.max_hi
    if node.right is not None and node.right.max_hi > node.max_hi:
        node.max_hi = node.right.max_hi


def _rot_right(y: "_Node[T]") -> "_Node[T]":
    x = y.left
    assert x is not None
    y.left = x.right
    x.right = y
    _fix(y)
    _fix(x)
    return x


def _rot_left(x: "_Node[T]") -> "_Node[T]":
    y = x.right
    assert y is not None
    x.right = y.left
    y.left = x
    _fix(x)
    _fix(y)
    return y


def _balance(node: "_Node[T]") -> "_Node[T]":
    _fix(node)
    bf = _h(node.left) - _h(node.right)
    if bf > 1:
        assert node.left is not None
        if _h(node.left.left) < _h(node.left.right):
            node.left = _rot_left(node.left)
        return _rot_right(node)
    if bf < -1:
        assert node.right is not None
        if _h(node.right.right) < _h(node.right.left):
            node.right = _rot_right(node.right)
        return _rot_left(node)
    return node


class IntervalTree(Generic[T]):
    """Non-overlapping half-open intervals keyed by ``lo``, AVL-balanced."""

    def __init__(self) -> None:
        self._root: "_Node[T] | None" = None
        self._len = 0
        # The two latest successful stabs, most recent first.
        self._cached: "_Node[T] | None" = None
        self._cached2: "_Node[T] | None" = None
        self.cache_hits = 0
        self.cache_misses = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    # -- mutation ----------------------------------------------------------

    def insert(self, lo: int, hi: int, value: T) -> None:
        """Insert ``[lo, hi)``; overlap with an existing interval is an error."""
        if lo >= hi:
            raise ValueError(f"empty interval [{lo}, {hi})")
        if self.first_overlap(lo, hi) is not None:
            raise ValueError(f"[{lo:#x}, {hi:#x}) overlaps an existing interval")
        self._root = self._insert(self._root, lo, hi, value)
        self._len += 1

    def _insert(self, node: "_Node[T] | None", lo: int, hi: int, value: T) -> "_Node[T]":
        if node is None:
            return _Node(lo, hi, value)
        if lo < node.lo:
            node.left = self._insert(node.left, lo, hi, value)
        else:
            node.right = self._insert(node.right, lo, hi, value)
        return _balance(node)

    def remove(self, lo: int) -> T:
        """Remove the interval whose low endpoint is ``lo``; returns payload."""
        removed: list[T] = []
        self._root = self._remove(self._root, lo, removed)
        if not removed:
            raise KeyError(f"no interval starts at {lo:#x}")
        self._len -= 1
        if self._cached is not None and self._cached.lo == lo:
            self._cached = None
        if self._cached2 is not None and self._cached2.lo == lo:
            self._cached2 = None
        return removed[0]

    def _remove(
        self, node: "_Node[T] | None", lo: int, removed: list[T]
    ) -> "_Node[T] | None":
        if node is None:
            return None
        if lo < node.lo:
            node.left = self._remove(node.left, lo, removed)
        elif lo > node.lo:
            node.right = self._remove(node.right, lo, removed)
        else:
            removed.append(node.value)
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            # Replace with in-order successor.
            succ = node.right
            while succ.left is not None:
                succ = succ.left
            node.lo, node.hi, node.value = succ.lo, succ.hi, succ.value
            # Detach the successor (its payload was moved up; drop into a
            # throwaway list so `removed` keeps the original payload).
            node.right = self._remove(node.right, succ.lo, [])
        return _balance(node)

    # -- queries -------------------------------------------------------------

    def stab(self, point: int) -> T | None:
        """Payload of the interval containing ``point``, or ``None``.

        Amortized O(1): the two previous hits are re-checked before
        descending, and a hit becomes the most recent one.
        """
        cached = self._cached
        if cached is not None and cached.lo <= point < cached.hi:
            self.cache_hits += 1
            return cached.value
        cached = self._cached2
        if cached is not None and cached.lo <= point < cached.hi:
            self.cache_hits += 1
            self._cached2, self._cached = self._cached, cached
            return cached.value
        self.cache_misses += 1
        node = self._root
        while node is not None:
            if point < node.lo:
                node = node.left
            elif point >= node.hi:
                node = node.right
            else:
                self._cached2, self._cached = self._cached, node
                return node.value
        return None

    def interval_of(self, point: int) -> tuple[int, int, T] | None:
        """``(lo, hi, payload)`` of the interval containing ``point``."""
        self.stab(point)
        # A successful stab leaves its node as the most recent hit.
        node = self._cached
        if node is not None and node.lo <= point < node.hi:
            return node.lo, node.hi, node.value
        return None

    def first_overlap(self, lo: int, hi: int) -> tuple[int, int, T] | None:
        """Any stored interval overlapping ``[lo, hi)``, using ``max_hi``."""
        node = self._root
        while node is not None:
            if node.left is not None and node.left.max_hi > lo:
                node = node.left
                continue
            if node.lo < hi and lo < node.hi:
                return node.lo, node.hi, node.value
            if node.lo >= hi:
                return None
            node = node.right
        return None

    def items(self) -> Iterator[tuple[int, int, T]]:
        """All intervals in increasing order of ``lo``."""

        def walk(node: "_Node[T] | None") -> Iterator[tuple[int, int, T]]:
            if node is None:
                return
            yield from walk(node.left)
            yield (node.lo, node.hi, node.value)
            yield from walk(node.right)

        return walk(self._root)

    def clear_cache(self) -> None:
        """Drop the lookup cache (ablation A2 disables it this way)."""
        self._cached = self._cached2 = None

    @property
    def height(self) -> int:
        return _h(self._root)
