"""Per-layer tracing by wrapping the program's public entry points.

The program is not edited: :class:`Tracer` swaps each layer's entry
point (a class method or a module-level name the caller looks up) for a
timing wrapper while a traced round runs, and puts the original back
afterwards.  Spans are kept in memory as per-stage totals.

Two rules keep the split honest:

* a stage re-entered on the same thread (``VerdictJournal.append``
  auto-flushing through ``flush``) counts once, for the outer call;
* "covered" time -- what ``unattributed_ms`` is measured against -- is
  the main thread's time inside stages that are not themselves nested
  in another stage.  Container stages (``DecodeService.submit`` and
  ``run_cycle``) are timed but do not cover: the stages inside them do.
  Solves running on pool workers are covered by the main thread's
  ``Executor.map_tasks`` span.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


def _targets() -> list[tuple]:
    """``(owner, attribute, stage, container, observer)`` for every layer."""
    from repro.array import imager
    from repro.array.flexible_encoder import FlexibleEncoder
    from repro.core import engine, measurement, solvers
    from repro.core.executor import Executor
    from repro.core.operators import LinearOperator
    from repro.resilience import runtime
    from repro.serve import service
    from repro.serve.durability import VerdictJournal

    model_classes = {
        type(measurement.get_measurement(name))
        for name in measurement.measurement_names()
    }
    return [
        (FlexibleEncoder, "scan_normalized", "array.scan", False, None),
        *(
            (cls, "draw", "measurement.draw", False, None)
            for cls in sorted(model_classes, key=lambda c: c.__name__)
        ),
        (engine.DecodeEngine, "operator", "engine.operator", False, None),
        (
            LinearOperator,
            "spectral_norm",
            "operators.spectral_norm",
            False,
            None,
        ),
        (engine, "solve", "solvers.solve", False, Tracer._saw_solve),
        (imager, "solve", "solvers.solve", False, Tracer._saw_solve),
        (solvers, "solve_batch", "solvers.solve", False, Tracer._saw_batch),
        (imager, "detect_outliers", "rpca.detect", False, None),
        (
            imager,
            "validate_reconstruction",
            "resilience.validate",
            False,
            None,
        ),
        (
            runtime,
            "validate_reconstruction",
            "resilience.validate",
            False,
            None,
        ),
        (Executor, "map_tasks", "executor.map", False, Tracer._saw_map),
        (service.DecodeService, "submit", "serve.submit", True, None),
        (service.DecodeService, "run_cycle", "serve.cycle", True, None),
        (
            service,
            "decode_pending",
            "serve.decode_pending",
            True,
            Tracer._saw_batch_frames,
        ),
        (VerdictJournal, "append", "serve.journal", False, None),
        (VerdictJournal, "flush", "serve.journal", False, None),
    ]


class Tracer:
    """Accumulates per-stage time and per-layer counts across traced rounds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._patches: list[tuple] = []
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.covered = 0.0
        self.rhs = 0
        self.iterations = 0
        self.unconverged = 0
        self.busy = 0.0
        self.slot_time = 0.0
        self.batch_frames: dict[str, list[int]] = defaultdict(list)

    # -- observers (called with the lock held) -------------------------------
    def _saw_solve(self, args, result, elapsed: float) -> None:
        self._count_results([result])

    def _saw_batch(self, args, results, elapsed: float) -> None:
        if results is not None:
            self._count_results(results)

    def _count_results(self, results) -> None:
        for result in results:
            self.rhs += 1
            self.iterations += int(result.iterations)
            if not result.converged:
                self.unconverged += 1

    def _saw_map(self, args, results, elapsed: float) -> None:
        self.busy += sum(r.duration_s for r in results)
        self.slot_time += elapsed * args[0].workers

    def _saw_batch_frames(self, args, result, elapsed: float) -> None:
        batch = args[0]
        self.batch_frames[batch.stream].append(len(batch.pendings))

    # -- patching ----------------------------------------------------------
    def _wrap(self, stage: str, fn, container: bool, observer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            open_stages = getattr(local, "open", None)
            if open_stages is None:
                open_stages = local.open = set()
                local.depth = 0
            if stage in open_stages:
                return fn(*args, **kwargs)
            outer_depth = local.depth
            open_stages.add(stage)
            if not container:
                local.depth = outer_depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                open_stages.discard(stage)
                local.depth = outer_depth
            with tracer._lock:
                tracer.time[stage] += elapsed
                tracer.calls[stage] += 1
                if (
                    not container
                    and outer_depth == 0
                    and threading.get_ident() == tracer._main
                ):
                    tracer.covered += elapsed
                if observer is not None:
                    observer(tracer, args, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer entry point (idempotent until :meth:`uninstall`)."""
        if self._patches:
            return
        for owner, attr, stage, container, observer in _targets():
            had_own = attr in vars(owner)
            original = vars(owner)[attr] if had_own else getattr(owner, attr)
            setattr(owner, attr, self._wrap(stage, original, container, observer))
            self._patches.append((owner, attr, had_own, original))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
