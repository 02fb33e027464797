#!/usr/bin/env python3
"""Measure the memory of closing a group's regular representation.

    python3 scripts/closure_peak.py "sym(5)xfrobenius(13,3)"

Builds the builtin group of the spec, turns it into its regular
representation (each generator g acts on the element indices as
x -> g*x, so the degree is the order) and closes those generators with
``close_with_degree``: once untimed by tracemalloc for the closure
seconds, then once under tracemalloc for the peak of Python-allocated
memory.  Prints the order, the bytes of the closed table's matrix, the
closure seconds, the tracemalloc peak, that peak divided by the matrix
bytes, and the process's peak RSS (``ru_maxrss``).  Sizes are in MB of
2^20 bytes.
"""

from __future__ import annotations

import argparse
import gc
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from csgroups.catalog import make_builtin
from csgroups.perm import Permutation, close_with_degree

MB = 2 ** 20


def regular_generators(spec: str) -> tuple[list[Permutation], int]:
    """The generators of the spec's group acting on its element indices
    by left multiplication, and the degree of that action."""
    G = make_builtin(spec)
    return [Permutation(G.mul_row(g).tolist()) for g in G.generator_indices], G.order


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec", help="builtin group spec, e.g. 'alt(4)xfrobenius(7,3)'")
    args = parser.parse_args(argv)
    gens, deg = regular_generators(args.spec)
    gc.collect()
    start = time.perf_counter()
    table = close_with_degree(gens, deg)
    seconds = time.perf_counter() - start
    matrix_bytes = table.matrix.nbytes
    del table
    gc.collect()
    tracemalloc.start()
    table = close_with_degree(gens, deg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB
    print(f"spec            {args.spec}")
    print(f"order           {len(table)}")
    print(f"matrix          {matrix_bytes / MB:.1f} MB ({table.matrix.dtype})")
    print(f"closure         {seconds:.3f} s")
    print(f"tracemalloc     {peak / MB:.1f} MB peak")
    print(f"peak / matrix   {peak / matrix_bytes:.2f}")
    print(f"ru_maxrss       {rss_mb:.1f} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
