import os
from pathlib import Path

import pytest

import nsfd_epi


@pytest.fixture
def package_env():
    """Environment for a subprocess that must import the nsfd_epi under test."""
    src = str(Path(nsfd_epi.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
