"""Workload definitions and the arithmetic the oracles rely on.

Nothing here imports csgroups: orders, class-size multisets and
solubility of the atoms are derived from closed formulas, so the
oracles check the engine against values it did not compute.
"""

from __future__ import annotations

import math
import random
from collections import Counter

WORKLOADS = ("fixtures-verdict", "lemma-suite", "class-sizes")

# fixtures-verdict: the paper's headline cases (acceptance checks 1-3 and 6)
VERDICT_FIXTURES = ("g160_234", "g162_5", "g480_166", "g486_176", "psl_2_8")

# lemma-suite: the builtin sweep grid plus the bundled fixtures below.  The
# order-480/486 fixtures are left out: their lemma runs alone take about a
# minute each and would swamp the other 50 inputs.
LEMMA_FIXTURES = ("g160_234", "g162_5", "psl_2_8")

FIXTURE_ORDERS = {"g160_234": 160, "g162_5": 162, "g480_166": 480,
                  "g486_176": 486, "psl_2_8": 504}

# class-sizes: direct products of non-abelian atoms.  The product set is
# drawn once from SPEC_SEED, so orders and class sizes are the same for
# every run seed; the run seed only changes the presentation.
CLASS_SIZE_INPUTS = 60
SPEC_SEED = 2510
MIN_ORDER, MAX_ORDER, MAX_DEGREE = 500, 5000, 30
ATOMS = ([f"sym({n})" for n in range(3, 7)]
         + [f"alt({n})" for n in range(4, 8)]
         + [f"dihedral({n})" for n in range(3, 16) if n != 4]
         + [f"frobenius({p},{q})" for p, q in ((7, 3), (11, 5), (13, 3), (19, 3))])


def parse_atom(atom: str) -> tuple[str, tuple[int, ...]]:
    name, _, rest = atom.partition("(")
    args = tuple(int(a) for a in rest.rstrip(")").split(",")) if rest else ()
    return name, args


def split_product(spec: str) -> list[str]:
    """Split 'sym(3)xalt(5)' into atoms ('x' only after a digit or ')')."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(spec):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "x" and depth == 0 and i > start and spec[i - 1] in ")0123456789":
            parts.append(spec[start:i])
            start = i + 1
    parts.append(spec[start:])
    return parts


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def is_composite(n: int) -> bool:
    return n > 1 and not _is_prime(n)


def atom_order(atom: str) -> int:
    name, args = parse_atom(atom)
    if atom == "q8":
        return 8
    if atom == "F21":
        return 21
    if name == "cyclic":
        return args[0]
    if name == "sym":
        return math.factorial(args[0])
    if name == "alt":
        return math.factorial(args[0]) // 2
    if name == "dihedral":
        return 2 * args[0]
    if name == "extraspecial":
        return args[0] ** 3
    if name == "frobenius":
        return args[0] * args[1]
    raise ValueError(f"unknown atom {atom!r}")


def spec_order(spec: str) -> int:
    return math.prod(atom_order(a) for a in split_product(spec))


def atom_degree(atom: str) -> int:
    _, args = parse_atom(atom)
    return args[0]  # sym, alt, dihedral and frobenius act on args[0] points


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _centralizer_order(cycle_type: tuple[int, ...]) -> int:
    return math.prod(k ** m * math.factorial(m) for k, m in Counter(cycle_type).items())


def atom_class_sizes(atom: str) -> Counter:
    """Class-size multiset {size: number of classes} from closed formulas."""
    name, args = parse_atom(atom)
    if name == "sym":
        n = args[0]
        return Counter(math.factorial(n) // _centralizer_order(lam) for lam in _partitions(n))
    if name == "alt":
        n = args[0]
        sizes: Counter = Counter()
        for lam in _partitions(n):
            if (n - len(lam)) % 2:
                continue  # odd permutations
            size = math.factorial(n) // _centralizer_order(lam)
            if all(k % 2 for k in lam) and len(set(lam)) == len(lam):
                sizes[size // 2] += 2  # the S_n class splits in A_n
            else:
                sizes[size] += 1
        return sizes
    if name == "dihedral":
        n = args[0]
        if n % 2:
            return Counter({1: 1, 2: (n - 1) // 2, n: 1})
        return Counter({1: 2, 2: (n - 2) // 2, n // 2: 2})
    if name == "frobenius":
        p, q = args
        return Counter({1: 1, q: (p - 1) // q, p: q - 1})
    raise ValueError(f"no class-size formula for {atom!r}")


def product_class_sizes(atoms: list[str]) -> Counter:
    """Classes of a direct product are products of classes of the factors."""
    total = Counter({1: 1})
    for atom in atoms:
        nxt: Counter = Counter()
        for a, ca in total.items():
            for b, cb in atom_class_sizes(atom).items():
                nxt[a * b] += ca * cb
        total = nxt
    return total


def atom_soluble(atom: str) -> bool:
    name, args = parse_atom(atom)
    if name in ("sym", "alt"):
        return args[0] <= 4
    return True  # dihedral and Frobenius groups are metabelian


def class_size_specs() -> list[str]:
    """The fixed product specs of the class-sizes workload."""
    rng = random.Random(SPEC_SEED)
    specs: list[str] = []
    seen: set[tuple[str, ...]] = set()
    while len(specs) < CLASS_SIZE_INPUTS:
        atoms = tuple(sorted(rng.sample(ATOMS, rng.choice((2, 3)))))
        order = math.prod(atom_order(a) for a in atoms)
        degree = sum(atom_degree(a) for a in atoms)
        composites = [s for s in product_class_sizes(list(atoms)) if is_composite(s)]
        if (atoms in seen or not MIN_ORDER <= order <= MAX_ORDER
                or degree > MAX_DEGREE or len(composites) < 3):
            continue
        seen.add(atoms)
        specs.append("x".join(atoms))
    return specs


def workload_specs(workload: str, builtin_grid: list[str]) -> list[tuple[str, str]]:
    """(kind, locator) for each input: kind is 'fixture' or 'builtin'."""
    if workload == "fixtures-verdict":
        return [("fixture", name) for name in VERDICT_FIXTURES]
    if workload == "lemma-suite":
        return ([("builtin", spec) for spec in builtin_grid]
                + [("fixture", name) for name in LEMMA_FIXTURES])
    if workload == "class-sizes":
        return [("builtin", spec) for spec in class_size_specs()]
    raise ValueError(f"unknown workload {workload!r}")


def known_order(kind: str, locator: str) -> int:
    return FIXTURE_ORDERS[locator] if kind == "fixture" else spec_order(locator)
