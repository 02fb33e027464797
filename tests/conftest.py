"""Fixtures shared by the test modules."""

import sys

import pytest

import csgroups.cli  # noqa: F401  (loads every engine module)


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
