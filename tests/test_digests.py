"""Golden sha256 digests of trace.csv, so any byte change fails a test.

Speed-ups must leave every byte of trace.csv as it was.  These digests were
taken with numpy 2.4.6 on x86-64; no kernel evaluation calls BLAS.
"""

import hashlib
import json

import pytest

from mmdlab.cli import main
from mmdlab.presets import PRESETS

PRESET_DIGESTS = {
    "metrize_demo": "731e2a031012f0a2d9f2d8212db4db3c659463283468de813dab542f507d81da",
    "escape_demo": "5da686117651476c4a65aa14064dd2d87bc20125abc1366f3430140c97f163dc",
    "flaw_counterexample": "159dee1e6be5042087cba04ed945ade9f1389687a6522d58b1f2413568cbfb86",
    "shift_invariance": "8b9d723fef2ec65862dc4f5ddf6a1ac312160a0a51a1d346715416132ae52fd6",
    "center_invariance": "a51d02e403c128028b8486ad7add0b92e8596bd2f3fe356c99e8760d08d61858",
    "compact_regime": "e99b31082aa5e5016c47bc36525b1940e58fc9ebcd1bdd1c8999e9e46b70ea66",
    "dirac_null_witness": "a9b86c4a5253b78a436eca1b808bf809391295528ba5d7b944cdb28d326e45e3",
    "signed_witness_escape": "5d9b29792d7b29360f2be3b02e030b1047812871724220d178317e9388c4b20b",
}

# escape_demo at nmax 256, seed 3: the grid and random searches
SEARCH_DIGESTS = {
    ("grid", 1): "d39c3a1f12a7517e31d24e7001947d4310ccf2cea86f865b7f210e3b28aa3663",
    ("grid", 2): "9fe04d49c5cd29b5898fe4ad897c4de42fe49b58426de0878d5aef16ce96e402",
    ("grid", 3): "13cfd1aa1f7a7f4b82dfe1388d202e01e6a01b6d70774fb18000338ace791a30",
    ("random", 1): "56b9458169b5681d5f5bccd7db27f823a731e7e9a62572fe80879714f292acd7",
    ("random", 2): "1087af5136c41be2b2423b93503b55b86059476c9bd81744e0e36b7cfbb1f28c",
    ("random", 3): "5cc62833f652e602ea8cae61d5a35d13e04043d71a883f4804600e542b7cf291",
}


def trace_digest(tmp_path, config, nmax):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--nmax", str(nmax), "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


def test_every_preset_is_covered():
    assert set(PRESET_DIGESTS) == set(PRESETS)


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_trace_at_nmax_64(tmp_path, preset):
    assert trace_digest(tmp_path, {"preset": preset}, 64) == PRESET_DIGESTS[preset]


@pytest.mark.parametrize("strategy, dim", sorted(SEARCH_DIGESTS))
def test_escape_demo_search_trace(tmp_path, strategy, dim):
    config = {"preset": "escape_demo", "strategy": strategy, "dim": dim}
    assert trace_digest(tmp_path, config, 256) == SEARCH_DIGESTS[strategy, dim]
