"""Self-tests: each of the benchmark's output checks can be made to fail.

A check that never fails shows nothing, so every check is fed a
deliberately broken output here and must report it, while the genuine
output of the same workload passes.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.core import SparseErrorModel, use_engine

from perfbench import checks
from perfbench.runner import END_TO_END_UNITS, PER_LAYER_UNITS, run_workload
from perfbench.workloads import (
    UNLISTED,
    WORKLOADS,
    Codes32,
    Service32,
    Sheet128,
    Stream32,
)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_printed_metrics_match_benchmark_json():
    """Every listed workload and every metric the runner prints is declared."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    listed = [name for name in WORKLOADS if name not in UNLISTED]
    assert [w["name"] for w in spec["workloads"]] == listed
    declared = {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }
    assert declared == {"end_to_end": END_TO_END_UNITS, "per_layer": PER_LAYER_UNITS}


def test_all_zero_reconstruction_fails_rmse_check(tmp_path):
    """An all-zero reconstruction of clean frames breaks the clean RMSE limit."""
    workload = Codes32(0, tmp_path)
    workload.make_inputs()
    for clean in workload.frames[:8]:
        workload.score(clean, np.zeros_like(clean))
    assert any("clean-frame limit" in p for p in workload.finish())


def test_exact_reconstruction_passes_rmse_check(tmp_path):
    """The clean frames themselves pass the same check."""
    workload = Codes32(0, tmp_path)
    workload.make_inputs()
    for clean in workload.frames[:8]:
        workload.score(clean, clean.copy())
    assert workload.finish() == []


def test_raw_corrupted_reconstruction_fails_rmse_check(tmp_path):
    """Handing back the raw corrupted frames does not beat them."""
    workload = Stream32(0, tmp_path)
    workload.make_inputs()
    errors = SparseErrorModel(transient_rate=workload.error_rate, seed=1)
    for clean in workload.frames[:8]:
        corrupted, _ = errors.corrupt(clean)
        workload.score(clean, corrupted, raw=corrupted)
    assert any("do not beat" in p for p in workload.finish())


def test_non_finite_or_misshapen_frame_is_reported():
    """NaN pixels, a wrong shape or a missing frame are each reported."""
    assert checks.frame_problem(np.full((32, 32), np.nan), (32, 32))
    assert checks.frame_problem(np.zeros((32, 31)), (32, 32))
    assert checks.frame_problem(None, (32, 32))
    assert checks.frame_problem(np.zeros((32, 32)), (32, 32)) is None


def test_journal_missing_one_verdict_fails_service_check(tmp_path):
    """A genuine journal passes; one verdict record removed, or a torn tail, fails."""
    workload = Service32(0, tmp_path)
    workload.make_inputs()
    workload.setup()
    try:
        with use_engine(workload.engine):
            result = workload.run_round(0, traced=False)
            assert result.failed == 0
            assert workload.finish() == []
        lines = workload.journal_path.read_bytes().splitlines(keepends=True)
        verdicts = [i for i, line in enumerate(lines) if b'"type":"verdict"' in line]
        assert len(verdicts) == len(workload.admitted)
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(b"".join(lines[:verdicts[3]] + lines[verdicts[3] + 1:]))
        problems = checks.journal_problems(broken, workload.admitted)
        assert any("0 verdicts" in p for p in problems)
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b"".join(lines)[:-7])
        problems = checks.journal_problems(torn, workload.admitted)
        assert any("torn" in p for p in problems)
    finally:
        workload.close()


def test_duplicate_or_missing_verdict_fails_verdict_check():
    """A missing, duplicated or stray verdict is reported."""
    assert checks.verdict_problems([1, 2, 3], Counter({1: 1, 2: 1, 3: 1})) == []
    assert checks.verdict_problems([1, 2, 3], Counter({1: 1, 2: 2, 3: 1}))
    assert checks.verdict_problems([1, 2, 3], Counter({1: 1, 3: 1}))
    assert checks.verdict_problems([1, 2], Counter({1: 1, 2: 1, 9: 1}))


def test_pooled_result_altered_in_one_pixel_fails_bitwise_check(tmp_path):
    """Pooled frames match the serial re-decode until one pixel moves by one ulp."""
    workload = Sheet128(0, tmp_path)
    workload.make_inputs()
    workload.setup()
    try:
        with use_engine(workload.engine):
            workload.run_round(0, traced=False)
            reference = workload.serial_reconstructions(0)
    finally:
        workload.close()
    serial = {0: [checks.digest(frame) for frame in reference]}
    assert checks.bitwise_problems(workload.pooled, serial) == []
    altered = reference[3].copy()
    altered.flat[100] = np.nextafter(altered.flat[100], np.inf)
    workload.pooled[0][0][3] = checks.digest(altered)
    problems = checks.bitwise_problems(workload.pooled, serial)
    assert problems == [
        "variant 0 round 0 frame 3: pooled reconstruction differs from "
        "serial re-decode"
    ]


def _short_run(name, seed, work_dir, trace=False, rounds=1):
    """Run whole rounds of a workload with no time floor."""
    frames = rounds * WORKLOADS[name].round_frames
    return run_workload(name, seed, 0.0, trace, work_dir, min_frames=frames)


def test_same_seed_reproduces_rmse_bit_for_bit(tmp_path):
    """Two runs with one seed report the same RMSE to the last bit."""
    first, _ = _short_run("stream-32", 3, tmp_path / "a")
    second, _ = _short_run("stream-32", 3, tmp_path / "b")
    assert first["correct"] and second["correct"]
    assert first["metrics"]["rmse"]["value"] == second["metrics"]["rmse"]["value"]


def test_different_seed_changes_inputs(tmp_path):
    """Another seed makes other frames; the same seed makes the same ones."""
    a, b = Stream32(3, tmp_path), Stream32(4, tmp_path)
    a.make_inputs()
    b.make_inputs()
    assert not np.array_equal(a.frames, b.frames)
    again = Stream32(3, tmp_path)
    again.make_inputs()
    assert np.array_equal(a.frames, again.frames)


@pytest.mark.parametrize("name", ["stream-32", "service-32"])
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    """A traced run prints every per-layer metric and passes its checks."""
    result, record = _short_run(name, 5, tmp_path, trace=True, rounds=2)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert result["metrics"]["solvers.iterations"]["value"] > 0
    assert result["metrics"]["engine.cache_misses"]["value"] == 1.0
