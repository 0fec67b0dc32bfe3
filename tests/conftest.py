"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def rebind(monkeypatch):
    """Swap a function for a replacement wherever a gska module binds it.

    Modules that import a function by name keep their own binding, so
    patching only the defining module would miss their calls.
    """
    def swap(original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "gska" and not name.startswith("gska."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)
    return swap
