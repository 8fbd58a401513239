"""Every exported name resolves, so removing a function cannot leave a
dangling entry in an ``__all__`` list."""

import importlib

import pytest

MODULES = ["qsemimarkov"] + [f"qsemimarkov.{name}" for name in (
    "cli", "emitters", "errors", "measures", "numerics", "quantum",
    "semimarkov")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []

