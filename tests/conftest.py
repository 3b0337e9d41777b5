"""Make a checkout's ``src/`` importable in child processes too, and
share the fixtures that look inside the solver.

``pyproject.toml`` puts ``src/`` on this process's path; tests that start
``python -m tpass`` need it in the children's ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

import pytest

from tpass import lp

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry
)


@pytest.fixture
def tableaus(monkeypatch):
    """Each solve's tableau, as set up, with the argument it was set up
    from as ``given``."""
    made = []

    class Spy(lp._Tableau):
        def __init__(self, model, *args):
            super().__init__(model, *args)
            self.given = model
            made.append(self)

    monkeypatch.setattr(lp, "_Tableau", Spy)
    return made
