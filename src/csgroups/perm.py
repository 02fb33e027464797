"""Permutation arithmetic and group closure by cosets (Dimino's algorithm).

Everything downstream computes on an ``ElementTable``, the fully
enumerated closure of a generating set, whose elements are the rows of
an image matrix in the narrowest dtype that holds the points (uint8 up
to 256 points, see ``point_dtype``); a ``Permutation`` (a bijection on
``{0, ..., deg-1}``) is for I/O only.  Matrix values are only used as
indices and compared; arithmetic on them, such as a row start plus a
point, is done in intp, where it cannot wrap.  Within a table an element
is identified by its images of a base, a few points that only the
identity fixes (Sims 1970; Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, ch. 4), so that finding a product or
conjugate reads a few columns.  Each image is below ``deg``, so the
images read as digits in radix ``deg`` make an exact key whenever
``deg**len(base)`` fits 64 bits, as it does for every group in the
catalog; only beyond that (say C2^5 moving 10 of 7,133 points) is the
key a hash whose matches are checked against the images.

Composition convention: ``compose(p, q)`` applies the *right* factor
first, i.e. the result maps ``i -> p(q(i))``.  All fixtures and tests
assume this convention.
"""

from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_CLOSURE_CAP = 5000
KEY_SEED = 0x6373  # seeds the fixed weights of the base-image hash
_KEY_MASK = (1 << 64) - 1
_MARK_CHUNK = 1 << 16  # matrix entries per chunk of the bijection check


class DegreeMismatchError(ValueError):
    """Raised when permutations of different degrees are combined."""


class OrderCapExceededError(RuntimeError):
    """Raised when a closure grows past the configured element cap.

    Carries ``partial_count``, the number of elements found before
    giving up (a lower bound on the true order).
    """

    def __init__(self, cap: int, partial_count: int):
        super().__init__(f"order cap exceeded: cap={cap}, found at least {partial_count} elements")
        self.cap = cap
        self.partial_count = partial_count


class Permutation:
    """An immutable bijection on ``{0, ..., deg-1}``.

    ``images[i]`` is the image of point ``i``.  Hashable; equality is
    by image sequence.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection on 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Permutation is immutable")

    @property
    def deg(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)})"

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its least point."""
        seen = [False] * self.deg
        out: list[tuple[int, ...]] = []
        for start in range(self.deg):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            pt = self.images[start]
            while pt != start:
                seen[pt] = True
                cyc.append(pt)
                pt = self.images[pt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out


def identity(deg: int) -> Permutation:
    return Permutation(range(deg))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Product applying ``q`` first: ``i -> p(q(i))``."""
    if p.deg != q.deg:
        raise DegreeMismatchError(f"degree mismatch: {p.deg} != {q.deg}")
    pi = p.images
    return Permutation(tuple(pi[j] for j in q.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.deg
    for i, v in enumerate(p.images):
        inv[v] = i
    return Permutation(inv)


def element_order(p: Permutation) -> int:
    """Least k >= 1 with p^k = identity; the lcm of the cycle lengths."""
    order = 1
    for cyc in p.cycles():
        order = math.lcm(order, len(cyc))
    return order


def from_cycles(deg: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """Permutation from disjoint cycles over 0-based points."""
    images = list(range(deg))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            if images[a] != a:
                raise ValueError(f"cycles are not disjoint at point {a}")
            images[a] = b
    return Permutation(images)


def format_cycles(p: Permutation) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + ",".join(str(pt) for pt in cyc) + ")" for cyc in cycs)


@lru_cache(maxsize=None)
def _key_weights(count: int) -> tuple[int, ...]:
    """The fixed 64-bit weights of the first ``count`` base points."""
    rng = random.Random(KEY_SEED)
    return tuple(rng.getrandbits(64) for _ in range(count))


def _radix_weights(deg: int, count: int) -> tuple[int, ...] | None:
    """The weights ``deg**c`` of base points ``c < count``, or None when
    ``deg**count`` exceeds 2^64.

    Every image is below ``deg``, so under these weights a key reads the
    base images as the digits of a number in radix ``deg``: it is below
    ``deg**count`` and names one tuple of images, so it fits 64 bits
    without wrapping exactly when ``deg**count <= 2**64``."""
    if deg ** count > 1 << 64:
        return None
    return tuple(deg ** c for c in range(count))


def _check_bijections(matrix: np.ndarray) -> None:
    """Raise ValueError unless every row of ``matrix``, whose values are
    known to be points, is a bijection: each row's points are marked in a
    flat boolean array, a chunk of rows at a time so that the marks and
    their intp positions stay small next to the matrix, and every mark
    must be set."""
    rows, deg = matrix.shape
    step = max(1, _MARK_CHUNK // max(deg, 1))
    for start in range(0, rows, step):
        block = matrix[start:start + step]
        marks = np.zeros(block.size, dtype=bool)
        marks[(np.arange(len(block)) * deg)[:, None] + block] = True  # row start plus point
        if not marks.all():
            raise ValueError(f"not every row is a bijection on 0..{deg - 1}")


def point_dtype(deg: int) -> np.dtype:
    """The dtype of the image matrix of a group on ``deg`` points: the
    narrowest that holds the points ``0..deg-1``."""
    if deg <= 1 << 8:
        return np.dtype(np.uint8)
    if deg <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int32)


def _base_of(matrix: np.ndarray) -> list[int]:
    """Points that only the first row (the identity) fixes pointwise.

    Takes the first other row that fixes every point chosen so far and
    adds the first point it moves, until no other row fixes them all.  In
    a group each point at least halves the pointwise stabilizer, so the
    base has at most log2(n) points, and two elements with the same base
    images are equal.
    """
    points = np.arange(matrix.shape[1], dtype=matrix.dtype)
    fixing = np.ones(len(matrix), dtype=bool)
    fixing[0] = False
    base: list[int] = []
    while row := int(fixing.argmax()):  # 0 once no other row is left
        b = int((matrix[row] != points).argmax())
        if matrix[row, b] == b:
            raise ValueError("duplicate elements in table")
        base.append(b)
        fixing &= matrix[:, b] == b
    return base


class ElementTable:
    """Fully enumerated group of permutations, closed under the operations.

    ``matrix`` is the element store, in ``point_dtype(deg)``: row ``i``
    holds the images of element ``i``, row 0 is the identity, and the row
    index is the element's canonical identifier everywhere else in the
    package.  The matrix given is checked before it is narrowed, so an
    image out of range is rejected, not wrapped into range.
    ``images[i, p]`` reads one image through a memoryview of ``matrix``,
    which is faster than ``ndarray.item``; ``element(i)`` builds a
    ``Permutation`` on demand.

    Elements are found by a 64-bit key of their images of ``base``, kept
    sorted with the element each key belongs to (12 bytes per element).
    When ``deg**len(base) <= 2**64`` the key is the images read as
    digits in radix ``deg`` and ``exact`` is true: a key names one tuple
    of images, so a key match is the element, with no images read back,
    and two rows with one key are duplicates.  A batch of lookups sorts
    its keys; a batch of ``len(self)`` rows whose sorted keys are the
    table's is a permutation of the whole group (a multiplication row, a
    conjugation map, the inverses), and its indices are the table's key
    order scattered back, with no search.  Any other batch is searched in
    key order.  Only when the radix key would not fit (``exact`` false)
    is the key a hash with fixed random weights, which narrows a search
    to the elements of one key; each candidate is then checked against
    the images, a batch one base column at a time, so a hash collision
    never gives a wrong index.  Immutable after construction.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or not len(matrix):
            raise ValueError("row 0 must be the identity")
        self.deg = deg = matrix.shape[1]
        if matrix.size and (matrix.min() < 0 or matrix.max() >= deg):
            raise ValueError(f"not every row is a bijection on 0..{deg - 1}")
        self.matrix = matrix = np.ascontiguousarray(matrix, dtype=point_dtype(deg))
        if (matrix[0] != np.arange(deg)).any():
            raise ValueError("row 0 must be the identity")
        _check_bijections(matrix)
        self.images = memoryview(matrix)
        self.base = _base_of(matrix)
        weights = _radix_weights(deg, len(self.base))
        self.exact = weights is not None
        self._weights = weights if self.exact else _key_weights(len(self.base))
        self._weight_vector = np.array(self._weights, dtype=np.uint64)
        keys = self._keys_of(self.matrix[:, self.base])
        order = np.argsort(keys)
        # arrays for the scalar path, numpy views of them for batches
        self._key_list = array("Q", keys[order].tobytes())
        self._order_list = array("i", order.astype(np.int32).tobytes())
        self._keys = np.frombuffer(self._key_list, dtype=np.uint64)
        self._key_order = np.frombuffer(self._order_list, dtype=np.int32)
        tied = np.flatnonzero(self._keys[1:] == self._keys[:-1]).tolist()
        if self.exact:  # rows with one exact key have the same base images
            duplicated = bool(tied)
        else:  # rows with one hash key may differ
            rows = {int(self._key_order[pos]) for t in tied for pos in (t, t + 1)}
            duplicated = len({self.matrix[row].tobytes() for row in rows}) < len(rows)
        if duplicated:
            raise ValueError("duplicate elements in table")

    def __len__(self) -> int:
        return len(self.matrix)

    def element(self, i: int) -> Permutation:
        return Permutation(self.matrix[i].tolist())

    @property
    def elements(self) -> list[Permutation]:
        """Every element as a ``Permutation``, built anew on each access."""
        return [Permutation(row) for row in self.matrix.tolist()]

    def _keys_of(self, images: np.ndarray) -> np.ndarray:
        """Hash of each row of base images (wrapping uint64 arithmetic)."""
        return images.astype(np.uint64) @ self._weight_vector

    def _candidates(self, images: list[int]) -> Iterator[int]:
        """Indices of the elements whose key is that of ``images``."""
        key = sum(map(mul, self._weights, images)) & _KEY_MASK
        keys = self._key_list
        pos = bisect_left(keys, key)
        while pos < len(keys) and keys[pos] == key:
            yield self._order_list[pos]
            pos += 1

    def index_of_base(self, images: list[int]) -> int:
        """Index of the element with these images of ``base``.

        Only for products and conjugates of table elements, whose base
        images belong to exactly one element.
        """
        if self.exact:  # the key is the images, so a key match is the element
            key = sum(map(mul, self._weights, images))
            keys = self._key_list
            pos = bisect_left(keys, key)
            if pos < len(keys) and keys[pos] == key:
                return self._order_list[pos]
        else:
            rows = self.images
            for idx in self._candidates(images):
                if [rows[idx, b] for b in self.base] == images:
                    return idx
        raise KeyError(f"no element has base images {images}")

    def indices_of_base(self, images: np.ndarray) -> np.ndarray:
        """``index_of_base`` of every row of ``images``, in one batch.

        The keys are sorted, and under exact keys a batch whose sorted
        keys are the table's is a permutation of the whole group, read
        off the table's key order with no search.  Any other batch is
        searched in sorted order, which walks the sorted index once
        instead of jumping about it; under hash keys each candidate is
        then checked one base column at a time."""
        keys = self._keys_of(images)
        order = keys.argsort()
        if self.exact and len(keys) == len(self._keys) and np.array_equal(keys[order], self._keys):
            idx = np.empty(len(keys), dtype=np.int32)
            idx[order] = self._key_order
            return idx
        pos = np.empty(len(keys), dtype=np.intp)
        pos[order] = np.searchsorted(self._keys, keys[order])
        np.minimum(pos, len(self._keys) - 1, out=pos)
        idx = self._key_order[pos]
        wrong = self._keys[pos] != keys
        if not self.exact:
            flat, starts = self.matrix.ravel(), idx.astype(np.intp) * self.deg  # row starts
            for col, b in enumerate(self.base):
                wrong |= flat.take(starts + b) != images[:, col]
        for m in np.flatnonzero(wrong).tolist():  # scan a hash collision, or raise KeyError
            idx[m] = self.index_of_base(images[m].tolist())
        return idx

    def index_of(self, p: Permutation) -> int:
        if p.deg == self.deg:
            images = list(p.images)
            for idx in self._candidates([images[b] for b in self.base]):
                if self.matrix[idx].tolist() == images:
                    return idx
        raise KeyError(f"permutation {format_cycles(p)} not in table")

    def __contains__(self, p: Permutation) -> bool:
        try:
            self.index_of(p)
        except KeyError:
            return False
        return True


def close(generators: Sequence[Permutation], cap: int = DEFAULT_CLOSURE_CAP) -> ElementTable:
    """The closure of ``generators`` under composition, a whole coset at a
    time (``close_with_degree``).

    Raises ``OrderCapExceededError``, with ``partial_count == cap + 1``,
    once the next coset would take the count past ``cap``.  An empty
    generator list needs an explicit degree; use ``close_with_degree``.
    """
    if not generators:
        raise ValueError("empty generator list; use close_with_degree")
    deg = generators[0].deg
    return close_with_degree(generators, deg, cap)


def close_with_degree(generators: Sequence[Permutation], deg: int,
                      cap: int = DEFAULT_CLOSURE_CAP) -> ElementTable:
    """``close`` on ``deg`` points, by Dimino's algorithm (G. Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991).

    Let H = <g1, ..., g(i-1)> be closed, in ``store[:|H|]``.  A generator
    gi already in H adds nothing.  Otherwise <H, gi> is the union of the
    right cosets H*t found from t = gi by multiplying each new coset's
    representative by every generator so far: a product t outside the
    elements found is the representative of a new coset, written as one
    gather of H's rows, and only t is tested for membership.  So the rows
    of each <g1, ..., gi> come first, coset by coset, and row 0 is the
    identity.  While H is trivial a coset is its representative alone.

    Works in ``point_dtype(deg)`` throughout.  Membership is read off a
    set of the rows' bytes.  Cosets are written straight into one store,
    which grows by at least a quarter when full and is trimmed to the
    order before the table takes it.  So the table holds no spare rows,
    and the closure holds no more than the store, the bytes of its rows,
    and one round's products and one coset, each with its rows' bytes."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for g in generators:
        if g.deg != deg:
            raise DegreeMismatchError(f"generator degree {g.deg} != {deg}")
    dtype = point_dtype(deg)
    gens = np.array([g.images for g in generators], dtype=dtype).reshape(len(generators), deg)
    row_bytes = np.dtype((np.void, dtype.itemsize * deg))
    store = np.empty((min(cap, 1 + len(gens)), deg), dtype=dtype)
    store[0] = np.arange(deg)
    seen = {store[0].tobytes()}
    count = 1
    for i in range(len(gens)):
        order = count  # H = store[:order] is closed
        products = gens[i:i + 1]  # the identity times gi: the first coset is H*gi
        while len(products):
            reps = []  # the store rows of this round's new representatives
            for j, key in enumerate(products.view(row_bytes).ravel().tolist()):
                if key in seen:
                    continue
                grown = count + order
                if grown > cap:
                    raise OrderCapExceededError(cap, cap + 1)
                if grown > len(store):  # no view of the store is alive here
                    store.resize((min(cap, max(grown, len(store) * 5 // 4)), deg), refcheck=False)
                if order == 1:
                    store[count] = products[j]
                    seen.add(key)
                else:
                    # row-wise composition: (h * t)(x) = h[t[x]], for every h in H;
                    # "clip" writes straight into the store ("raise" would buffer)
                    store[:order].take(products[j], axis=1, out=store[count:grown], mode="clip")
                    seen.update(store[count:grown].view(row_bytes).ravel().tolist())
                reps.append(count)
                count = grown
            # each representative times each generator so far: (t * g)(x) = t[g[x]]
            products = store.take(reps, axis=0).take(gens[:i + 1], axis=1).reshape(-1, deg)
    del seen
    store.resize((count, deg), refcheck=False)
    return ElementTable(store)
