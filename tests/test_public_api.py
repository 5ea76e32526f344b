"""The public API is what the README and the demos use: every name in
``mmdlab.__all__`` appears there as a whole word."""

import re
from pathlib import Path

import pytest

import mmdlab

ROOT = Path(__file__).resolve().parent.parent
DOCS = "\n".join(
    p.read_text() for p in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))]
)


@pytest.mark.parametrize("name", mmdlab.__all__)
def test_public_name_is_used_in_readme_or_demos(name):
    assert re.search(rf"\b{re.escape(name)}\b", DOCS), f"{name} is in __all__ but unused"
