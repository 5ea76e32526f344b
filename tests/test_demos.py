"""Every script under demos/ runs to completion, and the package exports
what the README and the demos use."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the runner demo writes its config and outputs under a temporary
    # directory, which it must remove again
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("mmdlab_demo_*"))


def test_every_public_name_is_importable_and_used_in_the_readme_or_a_demo():
    import mmdlab

    text = (ROOT / "README.md").read_text() + "".join(p.read_text() for p in DEMOS)
    assert len(set(mmdlab.__all__)) == len(mmdlab.__all__)
    for name in mmdlab.__all__:
        assert getattr(mmdlab, name) is not None, name
        assert re.search(rf"\b{name}\b", text), name
    namespace = {}
    exec("from mmdlab import *", namespace)
    assert set(mmdlab.__all__) <= set(namespace)
