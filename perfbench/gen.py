"""Write the seeded inputs of one benchmark workload as fixture files.

Each input is a known group (a bundled fixture or a builtin spec),
written ``PRESENTATIONS`` times.  Each presentation is a random
generating set drawn from the group's elements, with its points randomly
relabelled; a set is kept only when it closes to the group's known
order.  So the seed changes element numbering but never the group.

Run from the repository root:

    python3 perfbench/gen.py --workload lemma-suite --seed 1 --out DIR

It writes DIR/<n>-<k>.txt for presentation k of input n, and
DIR/manifest.json.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from csgroups.catalog import BUILTIN_GRID, fixture_group, make_builtin  # noqa: E402
from csgroups.construct import FiniteGroup  # noqa: E402
from csgroups.perm import Permutation  # noqa: E402

import specs  # noqa: E402

MAX_ATTEMPTS = 2000
# each pass of a run analyses the next presentation of every input, so an
# input's timing is not that of one numbering of its elements
PRESENTATIONS = 3


class GenerationError(RuntimeError):
    pass


def random_presentation(G: FiniteGroup, order: int,
                        rng: random.Random) -> list[Permutation]:
    """As many random elements as G has generators, relabelled by a random
    point permutation, redrawn until they generate a group of ``order``."""
    deg = G.deg
    count = len(G.generator_indices)
    if order == 1:
        return []
    for attempt in range(MAX_ATTEMPTS):
        if attempt and attempt % 100 == 0:
            count += 1  # some groups rarely fall to so few random elements
        picks = [G.element(rng.randrange(1, G.order)) for _ in range(count)]
        sigma = list(range(deg))
        rng.shuffle(sigma)
        gens = []
        for p in picks:
            images = [0] * deg
            for i, v in enumerate(p.images):
                images[sigma[i]] = sigma[v]
            gens.append(Permutation(images))
        if generated_order([g.images for g in gens]) == order:
            return gens
    raise GenerationError(f"{G.name}: no generating set of order {order} found")


def generated_order(gens: list[tuple[int, ...]]) -> int:
    """Order of the group that ``gens`` generate, by breadth-first search
    over image tuples; independent of the engine's closure."""
    element = tuple(range(len(gens[0])))
    seen, frontier = {element}, [element]
    while frontier:
        grown = []
        for element in frontier:
            for g in gens:
                product = tuple(map(g.__getitem__, element))
                if product not in seen:
                    seen.add(product)
                    grown.append(product)
        frontier = grown
    return len(seen)


def cycle_line(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(pt + 1) for pt in c) + ")" for c in cycles)


def generate(workload: str, seed: int, out: Path) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    out.mkdir(parents=True, exist_ok=True)
    inputs = []
    for n, (kind, locator) in enumerate(specs.workload_specs(workload, list(BUILTIN_GRID))):
        G = fixture_group(locator) if kind == "fixture" else make_builtin(locator)
        order = specs.known_order(kind, locator)
        if G.order != order:
            raise GenerationError(f"{locator}: built order {G.order}, known {order}")
        files, generators = [], []
        for k in range(PRESENTATIONS):
            gens = random_presentation(G, order, rng)
            path = out / f"{n:03d}-{k}.txt"
            lines = [f"# {workload} seed {seed}: {kind} {locator}, order {order}, "
                     f"presentation {k}", f"name {locator}", f"degree {G.deg}"]
            lines += [cycle_line(g) for g in gens]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            files.append(str(path))
            generators.append(len(gens))
        inputs.append({"name": locator, "kind": kind, "files": files,
                       "order": order, "degree": G.deg, "generators": generators})
    manifest = {"workload": workload, "seed": seed, "inputs": inputs}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
