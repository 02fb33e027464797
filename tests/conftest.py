"""Fixtures shared by the test modules."""

import random
import sys

import pytest

import csgroups.cli  # noqa: F401  (loads every engine module)
from csgroups.construct import FiniteGroup, _generated
from csgroups.perm import Permutation


@pytest.fixture
def refuse_lattice(monkeypatch):
    """Fail any call of ``structure.normal_subgroups``, under whichever
    module imported it: no analysis builds the normal-subgroup lattice,
    which only the tests use as an oracle."""
    def refuse(*args, **kwargs):
        raise AssertionError("an analysis enumerated normal subgroups")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "csgroups" and hasattr(module, "normal_subgroups"):
            monkeypatch.setattr(module, "normal_subgroups", refuse)


def relabelled(G: FiniteGroup, seed: int) -> FiniteGroup:
    """G redrawn as ``perfbench/gen.py`` draws a presentation: as many
    random elements as G has generators (one more after each 100 failed
    draws), with their points relabelled by a random permutation, redrawn
    until they generate a group of G's order.  The group is G's, up to
    that relabelling; its element numbering is the new generators'."""
    rng = random.Random(f"relabelled/{G.name}/{seed}")
    count = len(G.generator_indices)
    for attempt in range(2000):
        if attempt and attempt % 100 == 0:
            count += 1
        picks = [G.element(rng.randrange(1, G.order)) for _ in range(count)]
        sigma = list(range(G.deg))
        rng.shuffle(sigma)
        gens = []
        for p in picks:
            images = [0] * G.deg
            for i, v in enumerate(p.images):
                images[sigma[i]] = sigma[v]
            gens.append(Permutation(images))
        H = _generated(gens, G.deg, G.name, G.order)  # a conjugate of a subgroup of G
        if H.order == G.order:
            return H
    raise AssertionError(f"{G.name}: no generating set found")


@pytest.fixture
def relabel():
    """``relabelled``: a group redrawn under a seeded point relabelling."""
    return relabelled
