"""The test suite writes nothing into the checkout."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_hypothesis_storage_lies_outside_the_checkout():
    configuration = pytest.importorskip("hypothesis.configuration")
    home = configuration.storage_directory(intent_to_write=False).path.resolve()
    assert not home.is_relative_to(ROOT), home
