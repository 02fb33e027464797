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
    """``close`` on ``deg`` points: each generator in turn is adjoined to
    the subgroup of those before it by one ``Closure`` step, so the rows
    of each <g1, ..., gi> come first and row 0 is the identity.  The store
    is trimmed to the order before the table takes it, so the table holds
    no spare rows."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    for g in generators:
        if g.deg != deg:
            raise DegreeMismatchError(f"generator degree {g.deg} != {deg}")
    closure = Closure(deg, cap, len(generators), rows=1 + len(generators))
    for g in generators:
        closure.adjoin(np.array(g.images, dtype=closure.store.dtype))
    return ElementTable(closure.rows())


class Closure:
    """A subgroup grown one generator at a time by Dimino's algorithm (G.
    Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
    1991): the one coset step of ``close_with_degree`` and of the normal
    closures in ``structure``.

    The subgroup H closed so far is ``store[:count]``, rows of images in
    ``point_dtype(deg)`` with row 0 the identity, and ``gens[:ngens]`` are
    the rows adjoined so far.  Membership is read off ``seen``, the set of
    the rows' bytes, so a row given to ``adjoin`` or ``extend`` must be in
    that dtype too.  ``adjoin(g)`` makes H = <H, g>:

    - g already in H adds nothing (but still counts as a generator).
    - When H is trivial, <g> is written by doubling: with g^0, ..., g^(m-1)
      in the store, g^m, ..., g^(2m-1) are those rows taken by g^m, up to
      the first that is the identity.  So <g> takes about log2 of its
      order in rounds, not one round per power.
    - Otherwise <H, g> is the union of the right cosets H*t found from
      t = g by multiplying each new coset's representative by every
      generator so far: a product t outside the elements found is the
      representative of a new coset, written as one gather of H's rows,
      and only t is tested for membership.

    The store grows by at least a quarter when full; ``rows`` trims it to
    the order.  Growing past ``cap`` rows raises
    ``OrderCapExceededError(cap, cap + 1)``.  So a closure holds no more
    than the store, the bytes of its rows, and one round's products and
    one coset, each with its rows' bytes.

    ``within``, when not 0, is the order of a group known to hold every
    row adjoined.  By Lagrange, a subgroup of it with more than half its
    elements is all of it, so the coset search stops there with ``count =
    within``; the store then holds only some of the elements.
    """

    def __init__(self, deg: int, cap: int, max_gens: int, rows: int = 1, within: int = 0):
        dtype = point_dtype(deg)
        self.deg, self.cap, self.within = deg, cap, within
        self._row_bytes = np.dtype((np.void, dtype.itemsize * deg))
        self.store = np.empty((max(1, min(cap, rows)), deg), dtype=dtype)
        self.store[0] = np.arange(deg)
        self.seen = {self.store[0].tobytes()}
        self.count = 1
        self.gens = np.empty((max_gens, deg), dtype=dtype)
        self.ngens = 0

    def rows(self) -> np.ndarray:
        """The store, trimmed to the order; the closure is done with."""
        del self.seen
        self.store.resize((self.count, self.deg), refcheck=False)
        return self.store

    def _grow(self, rows: int) -> None:
        """Room for ``rows <= cap`` rows; no view of the store may be alive."""
        if rows > len(self.store):
            self.store.resize((min(self.cap, max(rows, len(self.store) * 5 // 4)), self.deg),
                              refcheck=False)

    def _keys(self, rows: np.ndarray) -> list[bytes]:
        """The membership key of each of the C-contiguous ``rows``."""
        return rows.view(self._row_bytes).ravel().tolist()

    def adjoin(self, g: np.ndarray) -> None:
        self.gens[self.ngens] = g
        g = self.gens[self.ngens]
        self.ngens += 1
        if g.tobytes() in self.seen:
            return
        if self.count == 1:
            self._powers(g)
        else:
            self._cosets(g)

    def extend(self, rows: np.ndarray) -> None:
        """Adjoin each of ``rows`` in turn that is not yet an element, until
        the closure is all of ``within``."""
        for j, key in enumerate(self._keys(rows)):
            if self.count == self.within:
                break
            if key not in self.seen:
                self.adjoin(rows[j])

    def _powers(self, g: np.ndarray) -> None:
        """<g>, by doubling, for a trivial H: while g, ..., g^(m-1) are not
        the identity, g^m, ..., g^(2m-1) are new up to the first that is."""
        cap, seen = self.cap, self.seen
        m = 1
        while True:
            power = self.store[m - 1].take(g)  # g^m
            if power.tobytes() in seen:
                break
            step = min(m, cap - m)  # the powers that fit
            if not step:
                raise OrderCapExceededError(cap, cap + 1)
            self._grow(m + step)
            block = self.store[m:m + step]
            # row-wise composition: (g^j g^m)(x) = g^j[g^m[x]], for j < step
            self.store[:step].take(power, axis=1, out=block, mode="clip")
            keys = self._keys(block)
            del block  # the store may be resized next
            new = next((j for j, key in enumerate(keys) if key in seen), step)
            seen.update(keys[:new])
            m += new
            if new < step:
                break
        self.count = m

    def _cosets(self, g: np.ndarray) -> None:
        """<H, g> as right cosets of H, one at a time: each is written as
        one gather of H's rows straight into the store."""
        order, deg, cap, seen = self.count, self.deg, self.cap, self.seen
        gens = self.gens[:self.ngens]
        count = order
        products = g[None]  # the identity times g: the first coset is H*g
        while len(products):
            first = count  # this round's cosets start here
            for j, key in enumerate(self._keys(products)):
                if key in seen:
                    continue
                grown = count + order
                if grown > cap:
                    raise OrderCapExceededError(cap, cap + 1)
                self._grow(grown)  # no view of the store is alive here
                # row-wise composition: (h * t)(x) = h[t[x]], for every h in H;
                # "clip" writes straight into the store ("raise" would buffer)
                self.store[:order].take(products[j], axis=1, out=self.store[count:grown],
                                        mode="clip")
                seen.update(self._keys(self.store[count:grown]))
                count = grown
                if count * 2 > self.within > 0:
                    self.count = self.within
                    return
            # each representative times each generator so far: (t * g)(x) = t[g[x]]
            products = self.store[first:count:order].take(gens, axis=1).reshape(-1, deg)
        self.count = count
