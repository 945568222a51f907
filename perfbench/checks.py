"""Output checks, computed apart from the program under test.

Each check returns a list of problem strings; an empty list means the
outputs passed.  Nothing is compared against a saved copy of earlier
output: RMSE is computed here against the clean frames the benchmark
generated, pooled results are compared with a serial re-decode made in
the same run, and the service's journal is re-read from disk.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

import numpy as np

from repro.serve import JournalError, scan_journal

#: Post-CS RMSE the paper reports on clean frames (normalised units).
CLEAN_RMSE_LIMIT = 0.05


def rmse(clean: np.ndarray, estimate: np.ndarray) -> float:
    """Root-mean-square error of ``estimate`` against ``clean``."""
    diff = np.asarray(estimate, dtype=float) - np.asarray(clean, dtype=float)
    return float(np.sqrt(np.mean(diff * diff)))


def frame_problem(frame, shape: tuple) -> str | None:
    """Why ``frame`` is not a usable reconstruction of ``shape``, or ``None``."""
    if frame is None:
        return "no reconstruction"
    frame = np.asarray(frame)
    if frame.shape != tuple(shape):
        return f"shape {frame.shape} != {tuple(shape)}"
    if not np.all(np.isfinite(frame)):
        return "non-finite pixels"
    return None


def rmse_problems(
    mean_rmse: float, raw_rmse: float | None = None
) -> list[str]:
    """RMSE gate: beat the raw corrupted frames, or stay at the clean level.

    With ``raw_rmse`` (frames carried sparse errors) the reconstructions
    must sit strictly closer to the clean frames than the raw corrupted
    readings do -- the paper's robustness claim.  Without it (clean
    inputs) the mean RMSE must stay within :data:`CLEAN_RMSE_LIMIT`.
    """
    if not np.isfinite(mean_rmse):
        return [f"mean rmse is {mean_rmse}"]
    if raw_rmse is not None:
        if mean_rmse >= raw_rmse:
            return [
                f"reconstructions (rmse {mean_rmse:.4f}) do not beat the "
                f"raw corrupted frames (rmse {raw_rmse:.4f})"
            ]
        return []
    if mean_rmse > CLEAN_RMSE_LIMIT:
        return [
            f"mean rmse {mean_rmse:.4f} exceeds the clean-frame limit "
            f"{CLEAN_RMSE_LIMIT}"
        ]
    return []


def digest(frame: np.ndarray) -> str:
    """Content hash of a frame's exact bits (dtype, shape and values)."""
    frame = np.ascontiguousarray(frame)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(frame.dtype).encode())
    h.update(repr(frame.shape).encode())
    h.update(frame.tobytes())
    return h.hexdigest()


def bitwise_problems(pooled: dict, serial: dict) -> list[str]:
    """Every pooled round must equal the serial re-decode bit for bit.

    ``pooled`` maps an input variant to the list of rounds run on it,
    each a list of frame digests; ``serial`` maps the variant to the
    digests of its serial re-decode.
    """
    problems = []
    for variant, rounds in sorted(pooled.items()):
        reference = serial.get(variant)
        if reference is None:
            problems.append(f"variant {variant}: no serial reference")
            continue
        for number, digests in enumerate(rounds):
            if len(digests) != len(reference):
                problems.append(
                    f"variant {variant} round {number}: {len(digests)} "
                    f"frames vs {len(reference)} serial"
                )
                continue
            for index, (got, want) in enumerate(zip(digests, reference)):
                if got != want:
                    problems.append(
                        f"variant {variant} round {number} frame {index}: "
                        "pooled reconstruction differs from serial re-decode"
                    )
    return problems


def verdict_problems(admitted, verdict_counts: Counter) -> list[str]:
    """Each admitted frame gets exactly one terminal verdict, and no other does."""
    admitted = set(admitted)
    problems = []
    for seq in sorted(admitted):
        count = verdict_counts.get(seq, 0)
        if count != 1:
            problems.append(f"seq {seq}: {count} verdicts (want 1)")
    stray = sorted(set(verdict_counts) - admitted)
    if stray:
        problems.append(f"verdicts for frames never admitted: {stray[:5]}")
    return problems


def journal_problems(path: str | Path, admitted) -> list[str]:
    """Re-read the journal: no torn record, one verdict record per admitted frame."""
    try:
        scan = scan_journal(path)
    except JournalError as exc:
        return [f"journal unreadable: {exc}"]
    problems = []
    if scan.torn:
        problems.append(f"journal has {scan.torn} torn or corrupt record(s)")
    counts = Counter(
        record["seq"]
        for record in scan.records
        if record.get("type") == "verdict"
    )
    problems.extend(f"journal: {p}" for p in verdict_problems(admitted, counts))
    return problems
