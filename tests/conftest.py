"""Child processes import the same capkit as the tests do.

``pyproject.toml`` puts this checkout's ``src/`` on the test process's
path; the CLI tests run ``python -m capkit`` in child processes, which see
only the environment, so the same directory goes first on their PYTHONPATH.
"""

from __future__ import annotations

import os
from pathlib import Path

import capkit

_SRC = str(Path(capkit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
