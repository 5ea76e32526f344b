"""Fuzzed config files through ``mmdlab run``: whatever the JSON holds, the
runner exits with a documented code (0, 1, 2 or 4), never with 3, and
reports an error in one line without a traceback."""

import json
import math
import tempfile
from pathlib import Path

import pytest

from mmdlab.cli import main
from mmdlab.constructions import STRATEGIES
from mmdlab.diagnostics import Thresholds
from mmdlab.kernels import FIELD_BUILDERS
from mmdlab.presets import PRESETS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# values of the wrong kind for any key
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 1),
    st.text(max_size=4),
    st.floats(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


def or_junk(valid):
    """``valid`` nine times in ten, else a value of the wrong kind."""
    return st.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


numbers = st.one_of(
    st.integers(-3, 3),
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
)
lengths = st.one_of(st.floats(min_value=1e-3, max_value=50.0), numbers)
points = st.lists(st.one_of(st.floats(min_value=-5.0, max_value=5.0), numbers), max_size=3)
fields = or_junk(
    st.one_of(
        st.fixed_dictionaries(
            {"g": st.sampled_from(sorted(FIELD_BUILDERS)), "xi": or_junk(points)}
        ),
        st.fixed_dictionaries(
            {"g": st.just("c0_null_at"), "xis": st.lists(points, max_size=2)}
        ),
    )
)


def small(lo, hi):
    """Sizes stay small, so every run is short."""
    return or_junk(st.integers(lo, hi))


base_kernels = st.fixed_dictionaries(
    {
        "family": or_junk(
            st.sampled_from(["gaussian", "laplacian", "inverse_multiquadric"])
        ),
    },
    optional={
        "dim": small(1, 3),
        "sigma": or_junk(lengths),
        "gamma": lengths,
        "c": lengths,
        "beta": lengths,
    },
)


def extend(child):
    return st.one_of(
        st.fixed_dictionaries({"op": st.just("shift"), "child": child}, optional={"c": numbers}),
        st.fixed_dictionaries(
            {"op": st.just("scale"), "child": child, "field": fields}
        ),
        st.fixed_dictionaries(
            {"op": st.just("center"), "child": child},
            optional={
                "a": numbers,
                "p": st.lists(st.tuples(points, numbers).map(list), max_size=3),
            },
        ),
        st.fixed_dictionaries({"op": st.one_of(st.text(max_size=3), junk)}),
    )


kernels = st.recursive(base_kernels, extend, max_leaves=3)

configs = st.fixed_dictionaries(
    {
        "preset": or_junk(st.sampled_from(sorted(PRESETS))),
        "n_max": small(2, 16),
        "pairs": small(1, 4),
    },
    optional={
        "dim": small(1, 3),
        "seed": or_junk(st.integers(-1, 2**40)),
        "kernel": or_junk(kernels),
        "radii": or_junk(st.lists(lengths, max_size=3)),
        "xi": or_junk(points),
        "xi2": or_junk(points),
        "strategy": or_junk(st.sampled_from(sorted(STRATEGIES))),
        "scaler": or_junk(st.sampled_from(sorted(FIELD_BUILDERS))),
        "thresholds": or_junk(
            st.dictionaries(
                st.sampled_from(list(Thresholds.__dataclass_fields__)),
                or_junk(numbers),
                max_size=2,
            )
        ),
    },
)


# derandomized, so every run draws the same configs and a failure repeats
@hypothesis.settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        hypothesis.HealthCheck.too_slow,
        hypothesis.HealthCheck.function_scoped_fixture,
    ],
)
@hypothesis.given(config=configs)
def test_fuzzed_configs_exit_with_documented_codes(config, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        code = main(["run", "--config", str(cfg_path), "--out", str(Path(tmp) / "o")])
        out, err = capsys.readouterr()
    assert code in (0, 1, 2, 4), err
    assert "Traceback" not in out + err
    lines = err.splitlines()
    if code == 0:
        assert lines == []
    elif code == 1:
        assert lines[0] == "verdict mismatch:"
    else:
        prefix = "error: " if code == 2 else "construction failed: "
        assert len(lines) == 1 and lines[0].startswith(prefix), err
