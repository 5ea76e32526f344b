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

import pytest
from numpy._core import _multiarray_umath

from mmdlab.cli import main
from mmdlab.presets import PRESETS
from helpers import run_constants, run_without_avx512

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

# escape_demo at nmax 256, seed 3: the grid and random searches.  In dims 4
# and 5 the grid starts at shell 5, of 8,080 and 102,002 points, and the
# searches draw up to 44,288 and 87,552 of them
SEARCH_DIGESTS = {
    "x86_v4": {
        ("grid", 1): "d39c3a1f12a7517e31d24e7001947d4310ccf2cea86f865b7f210e3b28aa3663",
        ("grid", 2): "9fe04d49c5cd29b5898fe4ad897c4de42fe49b58426de0878d5aef16ce96e402",
        ("grid", 3): "13cfd1aa1f7a7f4b82dfe1388d202e01e6a01b6d70774fb18000338ace791a30",
        ("grid", 4): "b5a6e9be84dff266f08d4316dc33a24aea59b60e195d073d3d26acb1f45829db",
        ("grid", 5): "3b25b20476bf93a5678ad5cf501b6df23ac3dc46be3fb75f7dd1534e88d3f9cd",
        ("random", 1): "56b9458169b5681d5f5bccd7db27f823a731e7e9a62572fe80879714f292acd7",
        ("random", 2): "1087af5136c41be2b2423b93503b55b86059476c9bd81744e0e36b7cfbb1f28c",
        ("random", 3): "5cc62833f652e602ea8cae61d5a35d13e04043d71a883f4804600e542b7cf291",
    },
    "x86_v3": {
        ("grid", 1): "d39c3a1f12a7517e31d24e7001947d4310ccf2cea86f865b7f210e3b28aa3663",
        ("grid", 2): "9006823a33696bc2402742ec25edc2d962e615d36d90e1a64c30035f793f20fc",
        ("grid", 3): "98db03676bb4a99bcecbb39af5b19a004a1b424ebd17d19c5b716924f34a26e4",
        ("grid", 4): "facb3998bc88e75ac2a9a74c7183dc4244dbc72eed927a12e712c2737ad497df",
        ("grid", 5): "3b25b20476bf93a5678ad5cf501b6df23ac3dc46be3fb75f7dd1534e88d3f9cd",
        ("random", 1): "ac4bd70987f974981177e449feeaa13b9b250b6d8a08306995417db6932faca1",
        ("random", 2): "1087af5136c41be2b2423b93503b55b86059476c9bd81744e0e36b7cfbb1f28c",
        ("random", 3): "5cc62833f652e602ea8cae61d5a35d13e04043d71a883f4804600e542b7cf291",
    },
}


# flaw_counterexample at nmax 1024, seed 3: its self terms span many Gram
# tiles, so the far-field skip of the self-term sums is pinned too; the
# same at both levels
FLAW_1024_DIGEST = "33e9dc488151fd1e40bb133237c6dd87768c6e01490ce790c769b9697fb73744"

# compact_regime at nmax 1024, seed 3: its 1,024 mixtures fill several of
# the probe's chunks, so the chunk walk of the columns and the MMD trace is
# pinned too
COMPACT_1024_DIGESTS = {
    "x86_v4": "088eae17634adc99a136ec0caf9792605d6e20a0092ef748537c3b86da929ef2",
    "x86_v3": "a76c544f418d5abe6c6d36b8aceaa31976136e7dde5f7e028984bca317064138",
}


# the invariance presets off their defaults, at seed 3: center_invariance
# at 2,000 pairs, the benchmark's input, and shift_invariance in dim 3.
# Taken from the three-block MMD route, before small pairs were read from
# one kernel block, so they pin that route's bits
INVARIANCE_CONFIGS = {
    "center_invariance": {"preset": "center_invariance", "pairs": 2000},
    "shift_invariance": {"preset": "shift_invariance", "dim": 3},
}
INVARIANCE_DIGESTS = {
    "x86_v4": {
        "center_invariance": "9c1b60c279e3aade6ba905429eda1d05280a415303d9a7a0c53460499a9a4ea6",
        "shift_invariance": "856941ed864d4e22929946cb43550f379ce4916fc324847b4825a9857f5bba62",
    },
    "x86_v3": {
        "center_invariance": "c79af6816834410538e2aec35945634f4b8ea36b9bdb7367fde40a512467b658",
        "shift_invariance": "2cdd537d04539536c67f1cbb162b27998b9b1d66c82082385fdb934dd0dcc533",
    },
}

# the benchmark's four workloads (``WORKLOADS`` in perfbench/run.py) at
# benchmark seed 1, whole: the bytes of the claimed workload at its full
# 2,000 pairs are pinned here, not only compared between runs of one code
WORKLOAD_DIGESTS = {
    "x86_v4": {
        "flaw-n4096": "d234f5711c340c5665f23c9e63d2dc1cbfe50d09a3f9ba5d4208dad6a24e0729",
        "search-grid2d": "bf3b2381e89bded51d6597e38c1b8e873b5ea485f47e52ab75d747fe6fb3884c",
        "invariance-small": "79b2c90c9a0c570a70d5e07a6646c56f708ae6f93c7092e694305bb1772e2609",
        "probe-rows": "f1771190590be3430aed81bb602db23e31fd154bd8ecec3b90808acf46e43d9b",
    },
    "x86_v3": {
        "flaw-n4096": "d234f5711c340c5665f23c9e63d2dc1cbfe50d09a3f9ba5d4208dad6a24e0729",
        "search-grid2d": "e9ff3ae0fc28f2cbb195e8be70ccb371c31a785ed5f748d0b7020cd2f19b7b1e",
        "invariance-small": "63f0f068485c8866baf84290cb3fbe56f1f964b8c4ffebc8cac288a4d41e670a",
        "probe-rows": "8ab995bd8d3fad3e7c83bbcf1c4883c017c7d3f8cb65303e77f805b0f26b1b33",
    },
}

# the preset seed that benchmark seed 1 selects for probe-rows
# (perfbench/run.py preset_seed); every other workload takes seed 1 itself
WORKLOAD_SEEDS = {"probe-rows": 973879302}


def run_preset(tmp_path, config, nmax=None, seed=3):
    """The output directory of one run, at the config's own size when
    ``nmax`` is None."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)]
    if nmax is not None:
        argv += ["--nmax", str(nmax)]
    assert main(argv) == 0
    return out


def trace_digest(tmp_path, config, nmax=None, seed=3):
    out = run_preset(tmp_path, config, nmax, seed)
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


def test_compact_trace_at_nmax_1024(tmp_path):
    digest = trace_digest(tmp_path, {"preset": "compact_regime"}, 1024)
    assert digest == COMPACT_1024_DIGESTS[LEVEL]


@pytest.mark.parametrize("preset", sorted(INVARIANCE_CONFIGS))
def test_invariance_trace_off_defaults(tmp_path, preset):
    digest = trace_digest(tmp_path, INVARIANCE_CONFIGS[preset])
    assert digest == INVARIANCE_DIGESTS[LEVEL][preset]

@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS["x86_v4"]))
def test_benchmark_workload_trace(tmp_path, workload):
    (configs,) = run_constants("WORKLOADS")
    assert set(configs) == set(WORKLOAD_DIGESTS[LEVEL])
    seed = WORKLOAD_SEEDS.get(workload, 1)
    digest = trace_digest(tmp_path, configs[workload], seed=seed)
    assert digest == WORKLOAD_DIGESTS[LEVEL][workload]


def test_digests_at_the_other_dispatch_level():
    proc = run_without_avx512(__file__)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "33 passed, 1 skipped" in proc.stdout, proc.stdout
