"""Group construction: named families, direct products, and generator
fixtures.

Groups are always realized as permutation groups; when no natural
small-degree action exists we fall back to the regular representation.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .arith import is_prime, primitive_root
from .perm import (
    DEFAULT_CLOSURE_CAP,
    ElementTable,
    Permutation,
    close_with_degree,
    from_cycles,
    identity,
)

ROW_MEMO_ENTRIES = 4096  # indices a group may hold in memoized multiplication rows

class ParameterError(ValueError):
    """Invalid parameters for a named group family."""


class FixtureError(ValueError):
    """Malformed fixture file."""


class FiniteGroup:
    """A fully enumerated permutation group.

    Elements are referred to by their index in ``table``, their row of
    ``table.matrix``; index 0 is the identity, and ``element`` builds a
    ``Permutation`` for output only.  Products and conjugates are found by
    their images of the table's base, gathered for a whole row or batch at
    once and looked up in one go.  Immutable after construction.  Inverses
    and element orders are memoized, and so are multiplication rows while
    the memo holds at most ``ROW_MEMO_ENTRIES`` indices in all: small
    groups reuse their rows, and large ones do not grow by n indices per row.
    """

    def __init__(self, table: ElementTable, generator_indices: Sequence[int],
                 name: str):
        self.table = table
        self.generator_indices = list(generator_indices)
        self.name = name
        self._mul_rows: dict[int, np.ndarray] = {}
        self._inv: Optional[np.ndarray] = None
        self._orders: Optional[np.ndarray] = None

    @property
    def order(self) -> int:
        return len(self.table)

    @property
    def deg(self) -> int:
        return self.table.deg

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def element(self, i: int) -> Permutation:
        return self.table.element(i)

    # -- index-level algebra -------------------------------------------------

    def products(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        """Indices of ``x * y`` for x in ``xs`` (rows) and y in ``ys`` (columns)."""
        mat, base = self.table.matrix, self.table.base
        cols = mat[:, base][np.asarray(ys, dtype=np.intp)]   # y's images of the base
        images = np.take(mat[np.asarray(xs, dtype=np.intp)], cols, axis=1)
        found = self.table.indices_of_base(images.reshape(len(xs) * len(ys), len(base)))
        return found.reshape(len(xs), len(ys))

    def mul_row(self, i: int) -> np.ndarray:
        """Indices of ``i * j`` for every ``j``."""
        row = self._mul_rows.get(i)
        if row is None:
            mat = self.table.matrix
            row = self.table.indices_of_base(mat[i][mat[:, self.table.base]])
            if (len(self._mul_rows) + 1) * self.order <= ROW_MEMO_ENTRIES:
                self._mul_rows[i] = row
        return row

    def mul_column(self, j: int) -> np.ndarray:
        """Indices of ``i * j`` for every ``i``."""
        mat = self.table.matrix
        return self.table.indices_of_base(mat[:, mat[j][self.table.base]])

    def mul(self, i: int, j: int) -> int:
        row = self._mul_rows.get(i)
        if row is not None:
            return int(row[j])
        im = self.table.images
        return self.table.index_of_base([im[i, im[j, b]] for b in self.table.base])

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            mat = self.table.matrix
            images = np.empty((self.order, len(self.table.base)), dtype=np.int32)
            for col, b in enumerate(self.table.base):
                # the inverse of x maps b to the point that x maps to b
                images[:, col] = (mat == b).argmax(axis=1)
            self._inv = self.table.indices_of_base(images)
        return self._inv

    @property
    def element_orders(self) -> np.ndarray:
        """Order of each element: x^k = 1 exactly when x^k fixes the base,
        so it is the lcm of the lengths of x's cycles through the base."""
        if self._orders is None:
            mat, base = self.table.matrix, np.array(self.table.base, dtype=np.int32)
            rows = np.arange(self.order)[:, None] * self.deg  # row starts in mat.ravel()
            points = mat[:, base]  # x^k(b), k = 1, 2, ...
            lengths = np.ones(points.shape, dtype=np.int64)
            pending = points != base
            while np.count_nonzero(pending):
                lengths += pending
                points = mat.ravel()[rows + points]
                pending &= points != base
            self._orders = np.lcm.reduce(lengths, axis=1, initial=1)
        return self._orders

    def conjugate(self, x: int, g: int) -> int:
        """Index of ``g^-1 x g``."""
        im, h = self.table.images, int(self.inv[g])
        return self.table.index_of_base([im[h, im[x, im[g, b]]] for b in self.table.base])

    def conjugate_many(self, xs: np.ndarray, g: int) -> np.ndarray:
        """Indices of ``g^-1 x g`` for each x in ``xs`` (vectorized)."""
        mat = self.table.matrix
        cols = mat[g][self.table.base]
        images = mat[int(self.inv[g])][mat[np.asarray(xs, dtype=np.intp)[:, None], cols]]
        return self.table.indices_of_base(images)

    def conjugate_by_all(self, x: int) -> np.ndarray:
        """Indices of ``g^-1 x g`` for every g in the group (vectorized)."""
        mat = self.table.matrix
        xg = mat[x][mat[:, self.table.base]]          # row g -> x*g on the base
        return self.table.indices_of_base(mat[self.inv[:, None], xg])

    def commutator(self, x: int, y: int) -> int:
        """Index of ``x^-1 y^-1 x y``."""
        xy = self.mul(x, y)
        yx = self.mul(y, x)
        return self.mul(int(self.inv[yx]), xy)

    def power(self, x: int, k: int) -> int:
        k %= int(self.element_orders[x])
        result, base = 0, x
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def subgroup_closure(self, seed: Sequence[int],
                         rows: Optional[dict[int, list[int]]] = None) -> frozenset[int]:
        """Element indices of the subgroup generated by ``seed``.

        Breadth first from the identity, multiplying on the left by each
        generator through its multiplication row.  A caller that closes
        several seeds sharing generators may pass a dict in ``rows``,
        which keeps the rows across those calls.
        """
        if rows is None:
            rows = {}
        gens = sorted({int(s) for s in seed} - {0})
        for g in gens:
            if g not in rows:
                rows[g] = self.mul_row(g).tolist()
        gen_rows = [rows[g] for g in gens]
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for row in gen_rows:
                for x in frontier:
                    y = row[x]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(members)


# -- named families ----------------------------------------------------------


def _trivial(deg: int = 1) -> ElementTable:
    return ElementTable(np.arange(deg)[None, :])


def cyclic(n: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    if n < 1:
        raise ParameterError(f"cyclic({n}): n must be >= 1")
    if n == 1:
        return FiniteGroup(_trivial(), [], "cyclic(1)")
    gen = from_cycles(n, [tuple(range(n))])
    table = close_with_degree([gen], n, cap)
    return FiniteGroup(table, [table.index_of(gen)], f"cyclic({n})")


def symmetric(n: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    if n < 1:
        raise ParameterError(f"symmetric({n}): n must be >= 1")
    if n == 1:
        return FiniteGroup(_trivial(), [], "symmetric(1)")
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    table = close_with_degree(gens, n, cap)
    return FiniteGroup(table, [table.index_of(g) for g in gens], f"symmetric({n})")


def alternating(n: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    if n < 3:
        raise ParameterError(f"alternating({n}): n must be >= 3")
    gens = [from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        big = tuple(range(n)) if n % 2 == 1 else tuple(range(1, n))
        gens.append(from_cycles(n, [big]))
    table = close_with_degree(gens, n, cap)
    return FiniteGroup(table, [table.index_of(g) for g in gens], f"alternating({n})")


def dihedral(n: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points."""
    if n < 2:
        raise ParameterError(f"dihedral({n}): n must be >= 2")
    rot = from_cycles(n, [tuple(range(n))])
    refl = Permutation([(n - i) % n for i in range(n)])
    table = close_with_degree([rot, refl], n, cap)
    return FiniteGroup(table, [table.index_of(rot), table.index_of(refl)],
                       f"dihedral({n})")


def quaternion8(cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Q8 in its regular representation on the 8 units {±1, ±i, ±j, ±k}."""
    # points: 0:1, 1:-1, 2:i, 3:-i, 4:j, 5:-j, 6:k, 7:-k
    left_i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])  # i*1=i, i*i=-1, i*j=k, i*k=-j
    left_j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])  # j*1=j, j*i=-k, j*j=-1, j*k=i
    table = close_with_degree([left_i, left_j], 8, cap)
    return FiniteGroup(table, [table.index_of(left_i), table.index_of(left_j)],
                       "quaternion8")


def extraspecial_p3(p: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Heisenberg group of order p^3 (odd p, exponent p), regular action.

    Elements are triples (a, b, c) over Z/p with
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b'); points are the p^3
    element triples and generators act by left multiplication.
    """
    if p < 3 or not is_prime(p):
        raise ParameterError(f"extraspecial_p3({p}): p must be an odd prime "
                             "(use quaternion8/dihedral(4) for p=2)")

    def pt(a: int, b: int, c: int) -> int:
        return (a * p + b) * p + c

    def left_mult(a: int, b: int, c: int) -> Permutation:
        images = [0] * p ** 3
        for a2 in range(p):
            for b2 in range(p):
                for c2 in range(p):
                    images[pt(a2, b2, c2)] = pt((a + a2) % p, (b + b2) % p,
                                                (c + c2 + a * b2) % p)
        return Permutation(images)

    gens = [left_mult(1, 0, 0), left_mult(0, 1, 0)]
    table = close_with_degree(gens, p ** 3, cap)
    return FiniteGroup(table, [table.index_of(g) for g in gens], f"extraspecial_p3({p})")


def frobenius_pq(p: int, q: int, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """The Frobenius group C_p : C_q on p points (q | p-1 required)."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ParameterError(f"frobenius_pq({p},{q}): need distinct primes")
    if (p - 1) % q != 0:
        raise ParameterError(f"frobenius_pq({p},{q}): q must divide p-1")
    mult = pow(primitive_root(p), (p - 1) // q, p)
    shift = Permutation([(i + 1) % p for i in range(p)])
    scale = Permutation([(i * mult) % p for i in range(p)])
    table = close_with_degree([shift, scale], p, cap)
    return FiniteGroup(table, [table.index_of(shift), table.index_of(scale)],
                       f"frobenius_pq({p},{q})")


# -- products ----------------------------------------------------------------


def direct_product(G: FiniteGroup, H: FiniteGroup,
                   cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """External direct product acting on the disjoint union of points."""
    dg, dh = G.deg, H.deg
    deg = dg + dh

    def lift_g(p: Permutation) -> Permutation:
        return Permutation(list(p.images) + list(range(dg, deg)))

    def lift_h(p: Permutation) -> Permutation:
        return Permutation(list(range(dg)) + [dg + i for i in p.images])

    gens = ([lift_g(G.element(i)) for i in G.generator_indices]
            + [lift_h(H.element(i)) for i in H.generator_indices])
    table = close_with_degree(gens, deg, cap)
    name = f"{G.name} x {H.name}"
    return FiniteGroup(table, [table.index_of(g) for g in gens], name)


# -- fixtures ----------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycle_line(line: str, deg: int) -> Permutation:
    # points may be separated by commas, whitespace, or both
    compact = re.sub(r"\s+", ",", line.strip())
    compact = compact.replace("(,", "(").replace(",)", ")")
    if compact == "()":
        return identity(deg)
    if not re.fullmatch(r"(\([\d,]+\))+", compact):
        raise ValueError(f"bad cycle notation: {line!r}")
    cycles = []
    for body in _CYCLE_RE.findall(compact):
        pts = [int(tok) for tok in body.split(",") if tok]
        if any(pt < 1 or pt > deg for pt in pts):
            raise ValueError(f"point out of range 1..{deg} in {line!r}")
        cycles.append(tuple(pt - 1 for pt in pts))
    return from_cycles(deg, cycles)


def load_fixture(path: str | Path, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Load a group from a generator fixture file.

    Grammar: ``name <label>`` line, ``degree <n>`` line, then one
    permutation per line in disjoint-cycle notation over 1-based points;
    ``()`` is the identity and ``#`` starts a comment.
    """
    path = Path(path)
    name: Optional[str] = None
    deg: Optional[int] = None
    gens: list[Permutation] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FixtureError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if name is None:
                if not line.startswith("name "):
                    raise ValueError("expected 'name <label>'")
                name = line[5:].strip()
            elif deg is None:
                if not line.startswith("degree "):
                    raise ValueError("expected 'degree <n>'")
                deg = int(line[7:].strip())
                if deg < 1:
                    raise ValueError("degree must be >= 1")
            else:
                gens.append(parse_cycle_line(line, deg))
        except ValueError as exc:
            raise FixtureError(f"{path}:{lineno}: {exc}") from exc
    if name is None or deg is None:
        raise FixtureError(f"{path}: missing name/degree header")
    table = close_with_degree(gens, deg, cap) if gens else _trivial(deg)
    gen_idx = [table.index_of(g) for g in gens if not g.is_identity()]
    return FiniteGroup(table, gen_idx, name)


def dump_fixture(G: FiniteGroup, path: str | Path,
                 comment: Optional[str] = None) -> None:
    """Write a group's generators in the fixture grammar (1-based points)."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"name {G.name}")
    lines.append(f"degree {G.deg}")
    for i in G.generator_indices:
        p = G.element(i)
        cycs = p.cycles()
        if not cycs:
            lines.append("()")
        else:
            lines.append("".join("(" + ",".join(str(pt + 1) for pt in c) + ")"
                                 for c in cycs))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
