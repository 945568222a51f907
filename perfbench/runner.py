"""Run one workload: set up, time whole rounds, check, and compute metrics.

End-to-end metrics come from untraced runs.  A traced run alternates
untraced and traced rounds, reports the per-layer split from the traced
ones and the tracing overhead as the difference in ``frames_per_s``
between the two kinds of round.
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import use_engine

from . import host
from .tracing import Tracer
from .workloads import WORKLOADS, RoundResult

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Fewest timed frames in a run, so that ten samples lie beyond the p90.
MIN_FRAMES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "frame_p50_ms": "ms",
    "frame_p90_ms": "ms",
    "rmse": "normalised",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "array.scan_ms": "ms",
    "measurement.draw_ms": "ms",
    "engine.operator_ms": "ms",
    "engine.cache_hits": "count/frame",
    "engine.cache_misses": "count",
    "operators.spectral_norm_ms": "ms",
    "solvers.solve_ms": "ms",
    "solvers.iterations": "count",
    "solvers.iter_us": "us",
    "solvers.unconverged": "count/frame",
    "rpca.detect_ms": "ms",
    "resilience.validate_ms": "ms",
    "resilience.fallbacks": "count/frame",
    "executor.map_ms": "ms",
    "executor.busy_ms": "ms",
    "executor.efficiency": "ratio",
    "serve.submit_us": "us",
    "serve.cycle_ms": "ms",
    "serve.queue_wait_ms.icu": "ms",
    "serve.queue_wait_ms.lab": "ms",
    "serve.verdict_p50_ms.icu": "ms",
    "serve.verdict_p50_ms.lab": "ms",
    "serve.batch_frames": "count",
    "serve.journal_ms": "ms",
    "serve.journal_bytes": "bytes",
    "unattributed_ms": "ms",
    "trace.overhead_frames_per_s": "frames/s",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _frames_per_s(rounds: list[RoundResult]) -> float:
    return _ratio(sum(r.delivered for r in rounds), sum(r.program_s for r in rounds))


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    rounds: list[RoundResult], setup_s: float, rmse: float, rss_mb: float
) -> dict:
    """The six user-facing metrics over every timed frame of the run."""
    latencies_ms = np.array([x for r in rounds for x in r.latencies]) * 1e3
    return {
        "setup_s": setup_s,
        "frames_per_s": _frames_per_s(rounds),
        "frame_p50_ms": float(np.percentile(latencies_ms, 50)),
        "frame_p90_ms": float(np.percentile(latencies_ms, 90)),
        "rmse": rmse,
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(
    tracer: Tracer,
    traced: list[RoundResult],
    plain: list[RoundResult],
    cache_hits: int,
    cache_misses: int,
    workload_stats: dict,
) -> dict:
    """The per-layer split of the traced rounds, per frame unless noted."""
    frames = sum(r.frames for r in traced)
    program_s = sum(r.program_s for r in traced)

    def per_frame_ms(stage: str) -> float:
        return _ratio(tracer.time.get(stage, 0.0), frames) * 1e3

    solve_s = tracer.time.get("solvers.solve", 0.0)
    lab_batches = tracer.batch_frames.get("lab/skin-0", [])
    metrics = {
        "array.scan_ms": per_frame_ms("array.scan"),
        "measurement.draw_ms": per_frame_ms("measurement.draw"),
        "engine.operator_ms": per_frame_ms("engine.operator"),
        "engine.cache_hits": _ratio(cache_hits, frames),
        "engine.cache_misses": float(cache_misses),
        "operators.spectral_norm_ms": per_frame_ms("operators.spectral_norm"),
        "solvers.solve_ms": _ratio(solve_s, tracer.rhs) * 1e3,
        "solvers.iterations": _ratio(tracer.iterations, tracer.rhs),
        "solvers.iter_us": _ratio(solve_s, tracer.iterations) * 1e6,
        "solvers.unconverged": _ratio(tracer.unconverged, frames),
        "rpca.detect_ms": per_frame_ms("rpca.detect"),
        "resilience.validate_ms": per_frame_ms("resilience.validate"),
        "resilience.fallbacks": _ratio(max(0, tracer.rhs - frames), frames),
        "executor.map_ms": per_frame_ms("executor.map"),
        "executor.busy_ms": _ratio(tracer.busy, frames) * 1e3,
        "executor.efficiency": _ratio(tracer.busy, tracer.slot_time),
        "serve.submit_us": _ratio(
            tracer.time.get("serve.submit", 0.0), tracer.calls.get("serve.submit", 0)
        )
        * 1e6,
        "serve.cycle_ms": _ratio(
            tracer.time.get("serve.cycle", 0.0), tracer.calls.get("serve.cycle", 0)
        )
        * 1e3,
        "serve.queue_wait_ms.icu": 0.0,
        "serve.queue_wait_ms.lab": 0.0,
        "serve.verdict_p50_ms.icu": 0.0,
        "serve.verdict_p50_ms.lab": 0.0,
        "serve.batch_frames": _ratio(sum(lab_batches), len(lab_batches)),
        "serve.journal_ms": per_frame_ms("serve.journal"),
        "serve.journal_bytes": 0.0,
        "unattributed_ms": _ratio(program_s - tracer.covered, frames) * 1e3,
        "trace.overhead_frames_per_s": _frames_per_s(plain) - _frames_per_s(traced),
    }
    metrics.update(workload_stats)
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    import_s: float = 0.0,
    min_frames: int = MIN_FRAMES,
) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, record)``.

    ``result`` is the object printed as the last line (``correct``,
    ``attempted``, ``failed`` and ``metrics``); ``record`` carries the
    host facts and run details printed just before it.  Rounds continue
    until ``seconds`` of program time have passed and at least
    ``min_frames`` frames were timed (a traced run also needs one
    round of each kind).
    """
    steal_before = host.steal_ticks()
    facts = host.facts()
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work_dir)
    tracer = Tracer() if trace else None
    rounds: list[tuple[RoundResult, bool]] = []
    traced_hits = 0
    try:
        workload.make_inputs()
        setup_runs = []
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.close()
            start = time.perf_counter()
            workload.setup()
            setup_runs.append(time.perf_counter() - start)
        engine = workload.engine
        program_s = 0.0
        frames = 0
        with use_engine(engine):
            while (
                program_s < seconds
                or frames < min_frames
                or (trace and len(rounds) < 2)
            ):
                traced = trace and len(rounds) % 2 == 1
                hits_before = engine.cache.hits
                if traced:
                    tracer.install()
                try:
                    result = workload.run_round(len(rounds), traced)
                finally:
                    if traced:
                        tracer.uninstall()
                if traced:
                    traced_hits += engine.cache.hits - hits_before
                rounds.append((result, traced))
                program_s += result.program_s
                frames += result.frames
            # Before the checks: re-reading the journal and the serial
            # re-decode are the benchmark's memory, not the workload's.
            rss_mb = peak_rss_mb()
            problems = workload.finish()
        cache = engine.cache.stats()
    finally:
        workload.close()

    all_rounds = [r for r, _ in rounds]
    setup_s = import_s + statistics.median(setup_runs)
    if trace:
        metrics = per_layer_metrics(
            tracer,
            [r for r, t in rounds if t],
            [r for r, t in rounds if not t],
            traced_hits,
            cache["misses"],
            workload.layer_stats(),
        )
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(all_rounds, setup_s, workload.rmse, rss_mb)
        units = END_TO_END_UNITS
    steal_after = host.steal_ticks()
    result = {
        "correct": not problems,
        "attempted": sum(r.frames for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()
        },
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "host": facts,
        "load_1min_end": host.load_1min(),
        "steal_ticks": None
        if steal_before is None or steal_after is None
        else steal_after - steal_before,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "rounds": len(rounds),
        "frames": result["attempted"],
        "program_s": sum(r.program_s for r in all_rounds),
        "round_program_s": [r.program_s for r in all_rounds],
        "rmse": workload.rmse,
        "cache": cache,
        "problems": problems[:20],
        **workload.record(),
    }
    return result, record
