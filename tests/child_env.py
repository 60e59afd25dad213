"""The environment of a child interpreter that a test starts."""

import os
from pathlib import Path

import longmem

SRC_DIR = str(Path(longmem.__file__).resolve().parents[1])


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with ``extra`` set and ``SRC_DIR`` put
    ahead of the inherited ``PYTHONPATH``, so the child imports the package
    under test and still finds whatever the inherited path holds."""
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}
