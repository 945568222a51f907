"""The benchmark workloads.

Each workload makes its inputs from the seed alone (the program only
ever sees the generated frames and seeds derived from it), builds the
program objects on a fresh :class:`~repro.core.engine.DecodeEngine`,
warms up until the operator cache is filled, and then runs whole
rounds: the same operations, on the same number of frames, every
round.  Latency is measured from the call that hands a frame to the
program until its reconstruction or verdict comes back.

Why these (the README has the layer table):

* ``stream-32`` -- the paper's operating point: FISTA on row sampling
  at M/N = 0.5 under 10% transient sparse errors with RPCA screening
  and a static resilience policy;
* ``codes-32`` -- dense summed codes: every frame draws an explicit
  512 x 1024 code, builds an operator and runs a power iteration
  (runnable by name, but not one of the benchmark's listed workloads:
  see :data:`UNLISTED`);
* ``sheet-128`` -- 128 x 128 e-skin frames fanned out over a 2-worker
  thread pool: FFT-size applies, BLAS threads inside pool workers, the
  largest array scan;
* ``service-32`` -- the multi-tenant decode service with a durable
  journal: admission, priority dispatch, coalescing, supervised decode.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.array import ActiveMatrix, FlexibleEncoder, ReadoutChain, StreamingImager
from repro.core import (
    DecodeContext,
    DecodeEngine,
    SparseErrorModel,
    resolve_executor,
    use_engine,
)
from repro.datasets import NUM_CLASSES, TactileObjectGenerator, ThermalHandGenerator
from repro.resilience import ResiliencePolicy
from repro.serve import DecodeService, StreamConfig, TenantConfig, VerdictJournal

from . import checks

#: M/N of every workload (the paper's operating point).
SAMPLING_FRACTION = 0.5
#: Distinct 32 x 32 input frames per run (more than a run uses), so that
#: seed-to-seed differences in content average out; rounds cycle through them.
POOL_FRAMES = 512


def derive_seed(seed: int, *keys: int) -> int:
    """A seed for one input stream or program RNG, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def encoder(shape: tuple, seed: int) -> FlexibleEncoder:
    """An ideal active matrix behind a readout chain with seeded noise."""
    return FlexibleEncoder(ActiveMatrix(shape), readout=ReadoutChain(seed=seed))


def tactile_frames(seed: int, count: int, shape: tuple) -> np.ndarray:
    """``count`` tactile grasp frames cycling through the object classes."""
    generators = [
        TactileObjectGenerator(c, shape=shape, seed=seed)
        for c in range(NUM_CLASSES)
    ]
    return np.stack([generators[i % NUM_CLASSES].frame() for i in range(count)])


@dataclass
class RoundResult:
    """What one round did: per-frame latencies and the time spent in the program."""

    latencies: list[float]
    program_s: float
    delivered: int
    failed: int

    @property
    def frames(self) -> int:
        """Frames attempted in the round."""
        return len(self.latencies)


@dataclass
class Workload:
    """Shared bookkeeping: fresh engine, RMSE scoring and problem list.

    Subclasses implement :meth:`make_inputs`, :meth:`build`,
    :meth:`warm_up` and :meth:`run_round`; :meth:`finish` runs the
    end-of-run checks.
    """

    seed: int
    work_dir: Path
    name = ""
    shape = (32, 32)
    round_frames = 1
    noisy_inputs = False
    engine: DecodeEngine | None = field(default=None, init=False)
    problems: list[str] = field(default_factory=list, init=False)
    _rmse_sum: float = field(default=0.0, init=False)
    _raw_sum: float = field(default=0.0, init=False)
    _scored: int = field(default=0, init=False)

    def make_inputs(self) -> None:
        """Generate every input frame from the seed (not part of set-up time)."""
        raise NotImplementedError

    def build(self) -> None:
        """Construct the program objects for one run."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Decode until the operator cache and any pool are filled."""
        raise NotImplementedError

    def run_round(self, index: int, traced: bool) -> RoundResult:
        """Run round ``index``; ``traced`` rounds also collect layer stats."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build on a fresh engine and warm up (one timed set-up)."""
        self.engine = DecodeEngine()
        with use_engine(self.engine):
            self.build()
            self.warm_up()

    def close(self) -> None:
        """Release what :meth:`setup` acquired (pools, journal files)."""

    def score(self, clean, reconstruction, raw=None) -> None:
        """Check one delivered frame and add it to the RMSE tally."""
        problem = checks.frame_problem(reconstruction, self.shape)
        if problem is not None:
            self.problems.append(f"frame {self._scored}: {problem}")
            return
        self._rmse_sum += checks.rmse(clean, reconstruction)
        if raw is not None:
            self._raw_sum += checks.rmse(clean, raw)
        self._scored += 1

    @property
    def rmse(self) -> float:
        """Mean RMSE of the delivered frames against their clean inputs."""
        return self._rmse_sum / self._scored if self._scored else float("nan")

    @property
    def raw_rmse(self) -> float | None:
        """Mean RMSE of the raw corrupted frames (workloads with errors)."""
        if not self.noisy_inputs or not self._scored:
            return None
        return self._raw_sum / self._scored

    def finish(self) -> list[str]:
        """End-of-run checks; returns every problem found in the run."""
        if not self._scored:
            self.problems.append("no frame was delivered")
        else:
            self.problems.extend(checks.rmse_problems(self.rmse, self.raw_rmse))
        return self.problems

    def layer_stats(self) -> dict:
        """Workload-specific per-layer metrics from the traced rounds."""
        return {}

    def record(self) -> dict:
        """Extra facts for the run record."""
        return {"raw_rmse": self.raw_rmse}


class Stream32(Workload):
    """``StreamingImager`` at the paper's operating point, frame by frame."""

    name = "stream-32"
    round_frames = 16
    noisy_inputs = True
    #: Transient sparse-error rate injected per frame.
    error_rate = 0.1
    #: Recent raw frames kept for RPCA screening.
    rpca_window = 5

    def make_inputs(self) -> None:
        """Thermal hand frames, plus two warm-up frames."""
        self.frames = ThermalHandGenerator(
            seed=derive_seed(self.seed, 1)
        ).frames(POOL_FRAMES)
        self.warm_frames = ThermalHandGenerator(
            seed=derive_seed(self.seed, 2)
        ).frames(2)

    def build(self) -> None:
        """One imager with errors, RPCA screening and a static policy."""
        self.imager = StreamingImager(
            encoder(self.shape, derive_seed(self.seed, 6)),
            sampling_fraction=SAMPLING_FRACTION,
            error_model=SparseErrorModel(
                transient_rate=self.error_rate, seed=derive_seed(self.seed, 3)
            ),
            rpca_window=self.rpca_window,
            policy=ResiliencePolicy(),
            seed=derive_seed(self.seed, 4),
        )

    def warm_up(self) -> None:
        """Two captures fill the operator cache."""
        for frame in self.warm_frames:
            self.imager.capture(frame)

    def run_round(self, index: int, traced: bool) -> RoundResult:
        """Capture ``round_frames`` frames one at a time."""
        latencies = []
        delivered = failed = 0
        for k in range(self.round_frames):
            clean = self.frames[(index * self.round_frames + k) % len(self.frames)]
            start = time.perf_counter()
            record = self.imager.capture(clean)
            latencies.append(time.perf_counter() - start)
            if record.status == "fallback":
                failed += 1
                continue
            delivered += 1
            self.score(clean, record.reconstructed, raw=record.corrupted)
        return RoundResult(latencies, sum(latencies), delivered, failed)


class Codes32(Workload):
    """Clean frames alternating between the dense and block code families."""

    name = "codes-32"
    round_frames = 8
    families = ("dense_codes", "block_sampling")

    def make_inputs(self) -> None:
        """Thermal hand frames, plus one warm-up frame per family."""
        self.frames = ThermalHandGenerator(
            seed=derive_seed(self.seed, 1)
        ).frames(POOL_FRAMES)
        self.warm_frames = ThermalHandGenerator(
            seed=derive_seed(self.seed, 2)
        ).frames(len(self.families))

    def build(self) -> None:
        """One imager per family over a shared encoder."""
        shared = encoder(self.shape, derive_seed(self.seed, 6))
        self.imagers = [
            StreamingImager(
                shared,
                sampling_fraction=SAMPLING_FRACTION,
                measurement=family,
                seed=derive_seed(self.seed, 4, k),
            )
            for k, family in enumerate(self.families)
        ]

    def warm_up(self) -> None:
        """One capture per family fills both cache entries."""
        for imager, frame in zip(self.imagers, self.warm_frames):
            imager.capture(frame)

    def run_round(self, index: int, traced: bool) -> RoundResult:
        """Capture ``round_frames`` frames, alternating families."""
        latencies = []
        for k in range(self.round_frames):
            clean = self.frames[(index * self.round_frames + k) % len(self.frames)]
            imager = self.imagers[k % len(self.imagers)]
            start = time.perf_counter()
            record = imager.capture(clean)
            latencies.append(time.perf_counter() - start)
            self.score(clean, record.reconstructed)
        return RoundResult(latencies, sum(latencies), len(latencies), 0)


class Sheet128(Workload):
    """128 x 128 frames streamed in windows of two over a 2-worker thread pool.

    Each round streams one of :attr:`variants` fixed input sets through a
    fresh imager and encoder seeded for that set (the readout chain's
    noise stream is encoder state), so every pooled round can be
    compared bit for bit with one serial re-decode of its set.
    """

    name = "sheet-128"
    shape = (128, 128)
    round_frames = 16
    window = 2
    workers = 2
    variants = 4

    def make_inputs(self) -> None:
        """Tactile e-skin frames for each variant, plus one warm-up window."""
        frames = tactile_frames(
            derive_seed(self.seed, 1),
            self.variants * self.round_frames + self.window,
            self.shape,
        )
        self.warm_frames = frames[: self.window]
        self.variant_frames = frames[self.window:].reshape(
            self.variants, self.round_frames, *self.shape
        )
        self.pooled: dict[int, list[list[str]]] = {}

    def _imager(self, variant: int) -> StreamingImager:
        return StreamingImager(
            encoder(self.shape, derive_seed(self.seed, 6, variant)),
            sampling_fraction=SAMPLING_FRACTION,
            seed=derive_seed(self.seed, 4, variant),
        )

    def build(self) -> None:
        """The thread pool (imagers are per round)."""
        self.executor = resolve_executor("thread", workers=self.workers)

    def warm_up(self) -> None:
        """One pooled window fills the cache and starts the pool's threads."""
        self._imager(self.variants).stream(
            self.warm_frames, batch_size=self.window, executor=self.executor
        )

    def close(self) -> None:
        """Shut the thread pool down."""
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()

    def run_round(self, index: int, traced: bool) -> RoundResult:
        """Stream one variant's frames a window at a time."""
        variant = index % self.variants
        frames = self.variant_frames[variant]
        imager = self._imager(variant)
        latencies = []
        program_s = 0.0
        digests = []
        for start_index in range(0, self.round_frames, self.window):
            window = frames[start_index:start_index + self.window]
            start = time.perf_counter()
            records = imager.stream(
                window, batch_size=self.window, executor=self.executor
            )
            elapsed = time.perf_counter() - start
            program_s += elapsed
            latencies.extend([elapsed] * len(window))
            for clean, record in zip(window, records):
                self.score(clean, record.reconstructed)
                digests.append(checks.digest(record.reconstructed))
        self.pooled.setdefault(variant, []).append(digests)
        return RoundResult(latencies, program_s, len(latencies), 0)

    def serial_reconstructions(self, variant: int) -> list[np.ndarray]:
        """Re-decode one variant serially (no pool, no batching)."""
        records = self._imager(variant).stream(self.variant_frames[variant])
        return [record.reconstructed for record in records]

    def finish(self) -> list[str]:
        """RMSE checks plus pooled-vs-serial bit identity for every round."""
        serial = {
            variant: [checks.digest(f) for f in self.serial_reconstructions(variant)]
            for variant in self.pooled
        }
        self.problems.extend(checks.bitwise_problems(self.pooled, serial))
        return super().finish()


class Service32(Workload):
    """Two tenants on a journalled ``DecodeService``, closed loop in waves.

    Each round ``icu`` submits a wave of :attr:`icu_wave` thermal frames
    and ``lab`` a wave of :attr:`lab_wave` tactile frames; then the
    client drains the service and waits for every verdict.  The cycle
    budget equals the ``icu`` wave, so ``icu`` (priority 2, supervised)
    decodes in the first cycle and ``lab`` (priority 0, shared code,
    coalesced multi-RHS FISTA) in the next two.  Queues and the backlog
    limit hold a whole round, so nothing is rejected or shed.
    """

    name = "service-32"
    round_frames = 24
    icu_wave = 8
    lab_wave = 16
    tenants = ("icu", "lab")

    def make_inputs(self) -> None:
        """Thermal frames for ``icu``, tactile frames for ``lab``."""
        self.icu_frames = ThermalHandGenerator(
            seed=derive_seed(self.seed, 1)
        ).frames(POOL_FRAMES + 1)
        self.lab_frames = tactile_frames(
            derive_seed(self.seed, 2), POOL_FRAMES + 1, self.shape
        )
        self._builds = 0
        self.tenant_stats = {t: {"queue": [], "verdict": []} for t in self.tenants}
        self.journal_bytes = 0
        self.traced_verdicts = 0

    def build(self) -> None:
        """Service, fsync-on journal, two tenants and their streams."""
        self._builds += 1
        self.journal_path = self.work_dir / f"journal-{self._builds}.jsonl"
        self.journal = VerdictJournal(self.journal_path, fsync=True)
        self.admitted: list[int] = []
        self.verdict_counts: Counter = Counter()
        self._answers: dict[int, tuple] = {}
        self.service = DecodeService(
            cycle_budget=self.icu_wave,
            max_batch=self.icu_wave,
            backlog_limit=self.round_frames,
            journal=self.journal,
            on_verdict=self._on_verdict,
        )
        self.service.register_tenant(TenantConfig("icu", priority=2))
        self.service.register_tenant(TenantConfig("lab", priority=0))
        plan = DecodeContext(shape=self.shape, sampling_fraction=SAMPLING_FRACTION)
        self.streams = {
            "icu": StreamConfig(
                name="icu/skin-0",
                tenant="icu",
                plan=plan,
                policy=ResiliencePolicy(),
                queue_limit=self.icu_wave,
                seed=derive_seed(self.seed, 4),
            ),
            "lab": StreamConfig(
                name="lab/skin-0",
                tenant="lab",
                plan=plan,
                shared_phi=True,
                queue_limit=self.lab_wave,
                seed=derive_seed(self.seed, 5),
            ),
        }
        for config in self.streams.values():
            self.service.register_stream(config)

    def _on_verdict(self, verdict) -> None:
        self.verdict_counts[verdict.seq] += 1
        self._answers[verdict.seq] = (time.perf_counter(), verdict)

    def _submit(self, tenant: str, frame: np.ndarray, sent: dict) -> bool:
        start = time.perf_counter()
        ticket = self.service.submit(self.streams[tenant].name, frame)
        if ticket.admitted:
            self.admitted.append(ticket.seq)
            sent[ticket.seq] = (start, tenant, frame)
        return ticket.admitted

    def warm_up(self) -> None:
        """One frame per tenant through the full submit/drain path."""
        sent: dict = {}
        self._submit("icu", self.icu_frames[-1], sent)
        self._submit("lab", self.lab_frames[-1], sent)
        self.service.drain()

    def close(self) -> None:
        """Close the journal and delete its file."""
        journal = getattr(self, "journal", None)
        if journal is not None:
            journal.close()
            self.journal_path.unlink(missing_ok=True)

    def run_round(self, index: int, traced: bool) -> RoundResult:
        """Submit one wave per tenant, then drain until every verdict is back."""
        sent: dict = {}
        failed = 0
        size_before = self.journal_path.stat().st_size
        start = time.perf_counter()
        for k in range(self.icu_wave):
            frame = self.icu_frames[(index * self.icu_wave + k) % POOL_FRAMES]
            failed += not self._submit("icu", frame, sent)
        for k in range(self.lab_wave):
            frame = self.lab_frames[(index * self.lab_wave + k) % POOL_FRAMES]
            failed += not self._submit("lab", frame, sent)
        self.service.drain()
        program_s = time.perf_counter() - start
        latencies = [program_s] * failed
        delivered = 0
        for seq, (submitted, tenant, clean) in sent.items():
            answered, verdict = self._answers.pop(seq, (None, None))
            if verdict is None or verdict.status not in ("decoded", "degraded"):
                failed += 1
                latencies.append(program_s)
                continue
            latency = answered - submitted
            latencies.append(latency)
            delivered += 1
            self.score(clean, verdict.delivered_frame)
            if traced:
                stats = self.tenant_stats[tenant]
                stats["queue"].append(verdict.queue_latency_s)
                stats["verdict"].append(latency)
        if traced:
            self.journal_bytes += self.journal_path.stat().st_size - size_before
            self.traced_verdicts += len(sent)
        return RoundResult(latencies, program_s, delivered, failed)

    def finish(self) -> list[str]:
        """Exactly one verdict per admitted frame, in memory and in the journal."""
        self.journal.close()
        self.problems.extend(
            checks.verdict_problems(self.admitted, self.verdict_counts)
        )
        self.problems.extend(
            checks.journal_problems(self.journal_path, self.admitted)
        )
        return super().finish()

    def layer_stats(self) -> dict:
        """Per-tenant queue wait and verdict medians, journal bytes per verdict."""
        out = {}
        for tenant in self.tenants:
            stats = self.tenant_stats[tenant]
            out[f"serve.queue_wait_ms.{tenant}"] = _median_ms(stats["queue"])
            out[f"serve.verdict_p50_ms.{tenant}"] = _median_ms(stats["verdict"])
        out["serve.journal_bytes"] = (
            self.journal_bytes / self.traced_verdicts if self.traced_verdicts else 0.0
        )
        return out

    def record(self) -> dict:
        """Journal facts for the run record."""
        return {
            "admitted": len(self.admitted),
            "journal_fsync": self.journal.fsync,
            "journal_sync_every": self.journal.sync_every,
        }


def _median_ms(values: list[float]) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


WORKLOADS = {cls.name: cls for cls in (Stream32, Codes32, Sheet128, Service32)}

#: Workloads that run by name but are left out of ``BENCHMARK.json``.
#: ``codes-32`` decodes ~5 frames/s, and three listed workloads at 36 s
#: runs already fill the time allowed for the full set of repeated runs;
#: its measurement, engine and operator layers are traced on ``stream-32``.
UNLISTED = ("codes-32",)
