"""Let the child processes that some tests start import superband from
``src`` without an install, as ``pythonpath`` in pyproject.toml lets the
tests themselves."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)
