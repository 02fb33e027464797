"""Named group catalog: builtin constructions reachable by spec string,
bundled fixture files, and the default sweep grid."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .construct import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    extraspecial_p3,
    frobenius_pq,
    load_fixture,
    quaternion8,
    symmetric,
)
from .perm import DEFAULT_CLOSURE_CAP, OrderCapExceededError

FIXTURE_DIR = Path(__file__).parent / "fixtures"


class CatalogError(ValueError):
    pass


_ALIASES = {
    "q8": quaternion8,
    "quaternion8": quaternion8,
    "F21": lambda cap: frobenius_pq(7, 3, cap),
}

_CONSTRUCTORS = {
    "cyclic": (cyclic, 1),
    "sym": (symmetric, 1),
    "symmetric": (symmetric, 1),
    "alt": (alternating, 1),
    "alternating": (alternating, 1),
    "dihedral": (dihedral, 1),
    "extraspecial": (extraspecial_p3, 1),
    "frobenius": (frobenius_pq, 2),
}


def _split_factors(spec: str) -> list[str]:
    """Split on 'x' at paren depth 0 when it separates two atoms.

    An 'x' inside a name (such as 'extraspecial') is kept: separators
    are only recognized after a digit or a closing paren.
    """
    parts: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(spec):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "x" and depth == 0 and i > start and spec[i - 1] in ")0123456789":
            parts.append(spec[start:i])
            start = i + 1
    parts.append(spec[start:])
    return parts


def _parse_atom(atom: str, cap: int) -> FiniteGroup:
    atom = atom.strip()
    if atom in _ALIASES:
        return _ALIASES[atom](cap=cap)
    if "(" in atom and atom.endswith(")"):
        name, argstr = atom[:-1].split("(", 1)
        if name not in _CONSTRUCTORS:
            raise CatalogError(f"unknown constructor {name!r}")
        ctor, arity = _CONSTRUCTORS[name]
        try:
            args = [int(s) for s in argstr.split(",")]
        except ValueError:
            raise CatalogError(f"bad arguments in {atom!r}") from None
        if len(args) != arity:
            raise CatalogError(f"{name} takes {arity} argument(s), got {len(args)}")
        return ctor(*args, cap=cap)
    raise CatalogError(f"unknown group spec {atom!r}")


def make_builtin(spec: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Build a group from a spec string, e.g. 'sym(4)', 'q8xF21',
    'cyclic(3)xdihedral(5)', closing no group past ``cap`` elements."""
    factors = [_parse_atom(part, cap) for part in _split_factors(spec)]
    if not factors:
        raise CatalogError("empty group spec")
    G = factors[0]
    for H in factors[1:]:
        G = direct_product(G, H, cap)
    if len(factors) > 1:
        G.name = spec
    return G


def fixture_group(name: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    path = FIXTURE_DIR / f"{name}.txt"
    if not path.exists():
        raise CatalogError(f"no bundled fixture named {name!r}")
    return load_fixture(path, cap)


def psl_2_8_fixture() -> FiniteGroup:
    return fixture_group("psl_2_8")


# Default sweep grid: small enough for a single-core run in minutes,
# varied enough to exercise every verdict and lemma non-vacuously.
BUILTIN_GRID = (
    [f"cyclic({n})" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 24, 30)]
    + [f"dihedral({n})" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12)]
    + ["sym(3)", "sym(4)", "sym(5)", "alt(4)", "alt(5)"]
    + ["q8", "extraspecial(3)", "extraspecial(5)"]
    + ["frobenius(3,2)", "frobenius(5,2)", "frobenius(7,2)", "F21",
       "frobenius(11,2)", "frobenius(11,5)", "frobenius(13,3)"]
    + ["q8xF21", "q8xcyclic(15)", "q8xcyclic(3)", "sym(3)xcyclic(4)",
       "sym(3)xsym(3)", "dihedral(5)xcyclic(3)", "extraspecial(3)xcyclic(2)",
       "alt(4)xcyclic(5)", "q8xsym(3)"]
)


@dataclass
class CatalogEntry:
    name: str
    source: str  # "builtin" or "fixture"
    group: FiniteGroup


def catalog_entries(fixture_dirs: Sequence[str | Path] = ()) -> list[tuple[str, str, str]]:
    """The groups of a sweep as picklable ``(name, source, locator)``
    entries, to be built by ``build_entry``: the builtin grid by spec, then
    the ``*.txt`` fixture files of the bundled directory and of each of
    ``fixture_dirs`` by path, each named by its file stem."""
    return ([(spec, "builtin", spec) for spec in BUILTIN_GRID]
            + [(path.stem, "fixture", str(path))
               for d in (FIXTURE_DIR, *fixture_dirs) for path in sorted(Path(d).glob("*.txt"))])


def build_entry(entry: tuple[str, str, str], cap: int) -> FiniteGroup:
    """The group of a catalog entry, closing no group past ``cap`` elements."""
    _, source, locator = entry
    return make_builtin(locator, cap) if source == "builtin" else load_fixture(locator, cap)


def iter_catalog(max_elements: int = DEFAULT_CLOSURE_CAP) -> Iterator[CatalogEntry]:
    """Yield the groups of a sweep of at most ``max_elements`` elements
    in a deterministic order."""
    built: list[CatalogEntry] = []
    for entry in catalog_entries():
        try:
            G = build_entry(entry, max_elements)
        except OrderCapExceededError:
            continue
        built.append(CatalogEntry(entry[0], entry[1], G))
    yield from sorted(built, key=lambda e: (e.group.order, e.name))
