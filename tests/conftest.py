"""Make a checkout's ``src/`` importable in child processes too.

``pyproject.toml`` puts ``src/`` on this process's path; tests that start
``python -m tpass`` need it in the children's ``PYTHONPATH`` as well.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    entry for entry in (_SRC, os.environ.get("PYTHONPATH")) if entry
)
