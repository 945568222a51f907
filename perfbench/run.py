"""Benchmark entry point: run one workload and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-32 --seed 1 --seconds 36 --trace 0

Workloads: ``stream-32``, ``sheet-128``, ``service-32`` (the ones
``BENCHMARK.json`` lists) and ``codes-32`` (run by name only).
The program is imported from ``src/`` next to this directory.  The
second-to-last line of standard output is the run record (host facts,
set-up repeats, cache counters, problems found); the last line is the
result object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
split with ``--trace 1``.  Exits non-zero, printing no result, when the
program source is missing or a workload raises.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Fresh interpreters that repeat this process's import of the program;
#: ``setup_s`` counts the median of the three import times, because the
#: import is most of the set-up.
IMPORT_REPEATS = 2

_IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import perfbench.runner, perfbench.workloads; "
    "print(time.perf_counter() - start)"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse the command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def fresh_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import the program and benchmark."""
    path = os.pathsep.join([str(src), str(ROOT), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def main(argv: list[str] | None = None) -> int:
    """Run the requested workload; returns the exit code."""
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import runner
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import_runs = [import_s] + [fresh_import_s(src) for _ in range(IMPORT_REPEATS)]
    work_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        result, record = runner.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_dir,
            import_s=statistics.median(import_runs),
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    record["import_runs_s"] = import_runs
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
