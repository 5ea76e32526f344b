"""Golden sha256 digests of trace.csv and summary.txt, so any byte change
fails a test.

Speed-ups must leave every byte of trace.csv as it was, and every byte of
summary.txt apart from its ``wall_time_ms`` line: the summary carries what
the trace does not, such as the identity residual, the probe-ball masses
and the c0 trace.

These digests were taken with numpy 2.4.6 on x86-64; no kernel evaluation
calls BLAS.  They depend on numpy's SIMD dispatch level: its AVX-512 exp
and power round some lanes differently from its AVX2 and baseline
versions, which agree with each other.  So there are two sets:
``x86_v4``, for a CPU where numpy reports the X86_V4 (AVX-512) feature, and
``x86_v3``, for one where it does not, or with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".  This process
checks the set of its own level, and runs this file again in a subprocess
at the other level where the CPU can run it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath

from mmdlab.cli import main
from mmdlab.presets import PRESETS

AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
LEVEL = "x86_v4" if _multiarray_umath.__cpu_features__.get("X86_V4") else "x86_v3"

PRESET_DIGESTS = {
    "x86_v4": {
        "metrize_demo": "731e2a031012f0a2d9f2d8212db4db3c659463283468de813dab542f507d81da",
        "escape_demo": "5da686117651476c4a65aa14064dd2d87bc20125abc1366f3430140c97f163dc",
        "flaw_counterexample": "159dee1e6be5042087cba04ed945ade9f1389687a6522d58b1f2413568cbfb86",
        "shift_invariance": "8b9d723fef2ec65862dc4f5ddf6a1ac312160a0a51a1d346715416132ae52fd6",
        "center_invariance": "a51d02e403c128028b8486ad7add0b92e8596bd2f3fe356c99e8760d08d61858",
        "compact_regime": "e99b31082aa5e5016c47bc36525b1940e58fc9ebcd1bdd1c8999e9e46b70ea66",
        "dirac_null_witness": "a9b86c4a5253b78a436eca1b808bf809391295528ba5d7b944cdb28d326e45e3",
        "signed_witness_escape": "5d9b29792d7b29360f2be3b02e030b1047812871724220d178317e9388c4b20b",
    },
    "x86_v3": {
        "metrize_demo": "e5757a53b22b77844c5ded9c73d20d99b738c3ca363836933478374fff741cc8",
        "escape_demo": "7a7f11321ca1378e40cdfe3e173b261b2fa914fd08f590476f8724347740dc75",
        "flaw_counterexample": "159dee1e6be5042087cba04ed945ade9f1389687a6522d58b1f2413568cbfb86",
        "shift_invariance": "ed7e146cd7cda581a2d6213150c95adfff98a534d233a127a5671f2aec74c857",
        "center_invariance": "0e7da0615876afe5e9579213188b2ae195112ebadc0a82d12c339abff2f685d6",
        "compact_regime": "705bf9ff8a09f7c8b39d9b7fb5c44ce3333beb0429a4ca4fa63a21e7cb686735",
        "dirac_null_witness": "e606ff166a67694d14092ba3307aa3fc57b0f6f2d9f5d22cf03bd453d50bbda8",
        "signed_witness_escape": "d79f7faddb45a285fb2299a9c431ed09b56b15c821201ec0f3009eda364d5652",
    },
}

# summary.txt without its wall_time_ms line, every preset at nmax 64, seed 3
SUMMARY_DIGESTS = {
    "x86_v4": {
        "metrize_demo": "d9193fa4e192922f4febfa16a1ab2eeec1dd1b075122566d33af8e69ed196b7f",
        "escape_demo": "b11ab4d83d5e722208feed937f5db3906b19a1563a9f8a6447bdb1eece80039b",
        "flaw_counterexample": "453fb546fb4482b9ceab1cf51cb839ddca58e3bf47e9188b5979bb46a13313e9",
        "shift_invariance": "24cddbb83a6736664d802fb71ae4526285b5cc6413805e28150314feb45da241",
        "center_invariance": "bd35593e5213d142f5e249d93bcaf12e917b549ad9492d74cade8e0ca1ff5c67",
        "compact_regime": "815cf5fa4811ce854a4a97f7c76c5ff71656a06e30bdb2917204b417c30171e4",
        "dirac_null_witness": "60b3ea27d369f963c5a50f486631865c74382e728f1a120d6b497c63d11b4d0a",
        "signed_witness_escape": "337f8412aa154461790630a6049f37fa0395220e7b5cc1338702a953bdd36f57",
    },
    "x86_v3": {
        "metrize_demo": "d9193fa4e192922f4febfa16a1ab2eeec1dd1b075122566d33af8e69ed196b7f",
        "escape_demo": "b11ab4d83d5e722208feed937f5db3906b19a1563a9f8a6447bdb1eece80039b",
        "flaw_counterexample": "453fb546fb4482b9ceab1cf51cb839ddca58e3bf47e9188b5979bb46a13313e9",
        "shift_invariance": "5f781bedc00c8f33c9b10456bcb1eafdb7e66e1e89e2c12ec00cd09c8cce83e4",
        "center_invariance": "bd35593e5213d142f5e249d93bcaf12e917b549ad9492d74cade8e0ca1ff5c67",
        "compact_regime": "815cf5fa4811ce854a4a97f7c76c5ff71656a06e30bdb2917204b417c30171e4",
        "dirac_null_witness": "60b3ea27d369f963c5a50f486631865c74382e728f1a120d6b497c63d11b4d0a",
        "signed_witness_escape": "337f8412aa154461790630a6049f37fa0395220e7b5cc1338702a953bdd36f57",
    },
}

# escape_demo at nmax 256, seed 3: the grid and random searches
SEARCH_DIGESTS = {
    "x86_v4": {
        ("grid", 1): "d39c3a1f12a7517e31d24e7001947d4310ccf2cea86f865b7f210e3b28aa3663",
        ("grid", 2): "9fe04d49c5cd29b5898fe4ad897c4de42fe49b58426de0878d5aef16ce96e402",
        ("grid", 3): "13cfd1aa1f7a7f4b82dfe1388d202e01e6a01b6d70774fb18000338ace791a30",
        ("random", 1): "56b9458169b5681d5f5bccd7db27f823a731e7e9a62572fe80879714f292acd7",
        ("random", 2): "1087af5136c41be2b2423b93503b55b86059476c9bd81744e0e36b7cfbb1f28c",
        ("random", 3): "5cc62833f652e602ea8cae61d5a35d13e04043d71a883f4804600e542b7cf291",
    },
    "x86_v3": {
        ("grid", 1): "d39c3a1f12a7517e31d24e7001947d4310ccf2cea86f865b7f210e3b28aa3663",
        ("grid", 2): "9006823a33696bc2402742ec25edc2d962e615d36d90e1a64c30035f793f20fc",
        ("grid", 3): "98db03676bb4a99bcecbb39af5b19a004a1b424ebd17d19c5b716924f34a26e4",
        ("random", 1): "ac4bd70987f974981177e449feeaa13b9b250b6d8a08306995417db6932faca1",
        ("random", 2): "1087af5136c41be2b2423b93503b55b86059476c9bd81744e0e36b7cfbb1f28c",
        ("random", 3): "5cc62833f652e602ea8cae61d5a35d13e04043d71a883f4804600e542b7cf291",
    },
}


# flaw_counterexample at nmax 1024, seed 3: its self terms span many Gram
# tiles, so the far-field skip of the self-term sums is pinned too; the
# same at both levels
FLAW_1024_DIGEST = "33e9dc488151fd1e40bb133237c6dd87768c6e01490ce790c769b9697fb73744"


def run_preset(tmp_path, config, nmax):
    """The output directory of one run at seed 3."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--nmax", str(nmax), "--seed", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    return out


def trace_digest(tmp_path, config, nmax):
    out = run_preset(tmp_path, config, nmax)
    return hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()


def test_every_preset_is_covered():
    for level in (*PRESET_DIGESTS.values(), *SUMMARY_DIGESTS.values()):
        assert set(level) == set(PRESETS)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_trace_at_nmax_64(tmp_path, preset):
    assert trace_digest(tmp_path, {"preset": preset}, 64) == PRESET_DIGESTS[LEVEL][preset]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_summary_at_nmax_64(tmp_path, preset):
    out = run_preset(tmp_path, {"preset": preset}, 64)
    lines = (out / "summary.txt").read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("wall_time_ms="))
    assert len(kept) < sum(map(len, lines))
    assert hashlib.sha256(kept.encode()).hexdigest() == SUMMARY_DIGESTS[LEVEL][preset]


@pytest.mark.parametrize("strategy, dim", sorted(SEARCH_DIGESTS["x86_v4"]))
def test_escape_demo_search_trace(tmp_path, strategy, dim):
    config = {"preset": "escape_demo", "strategy": strategy, "dim": dim}
    assert trace_digest(tmp_path, config, 256) == SEARCH_DIGESTS[LEVEL][strategy, dim]


def test_flaw_trace_at_nmax_1024(tmp_path):
    assert trace_digest(tmp_path, {"preset": "flaw_counterexample"}, 1024) == FLAW_1024_DIGEST


def test_digests_at_the_other_dispatch_level():
    if LEVEL == "x86_v3":
        pytest.skip("numpy reports no X86_V4 (AVX-512) here, so that level cannot run")
    if not set(AVX512_OFF.split()) <= set(_multiarray_umath.__cpu_dispatch__):
        pytest.skip("numpy on this machine has no AVX-512 dispatch to switch off")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__],
        cwd=Path(__file__).resolve().parents[1],
        env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_OFF),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "24 passed, 1 skipped" in proc.stdout, proc.stdout
