"""Shared pieces of the benchmark: paths, host metadata, percentiles and
the result line every run ends with."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence

#: The checkout root: the benchmark runs from here and builds the
#: program under test from ``src/`` next to it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where runs leave their artifacts (span files); gitignored.
OUT_DIR = os.path.join(ROOT, ".perfbench")


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``, failing loudly when
    it is missing (a directory holding only the benchmark)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no program to benchmark: {SRC}/repro is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def benchmark_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  Failed operations enter as
    ``inf``, so they count as missing any limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


# -- host metadata ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def cpu_steal_seconds() -> Optional[float]:
    """Host-wide CPU time stolen from this machine by its hypervisor so
    far (``/proc/stat``); the difference over a run shows how contended
    the host was while it ran."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def host_metadata(seed: int, workload: str) -> Dict[str, object]:
    import numpy as np

    blas: Dict[str, object] = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- results ------------------------------------------------------------------


class Outcome:
    """Counts operations and output checks for one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def count(self, ok: bool, attempted: int = 1) -> None:
        self.attempted += attempted
        if not ok:
            self.failed += attempted

    def check(self, ok: bool, what: str) -> None:
        """An output check: a mismatch fails the run and is never a
        success, so it also counts as a failed operation."""
        if not ok:
            self.mismatches.append(what)
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.mismatches


def result_line(outcome: Outcome, metrics: Dict[str, float],
                names: Iterable[str]) -> Dict[str, object]:
    """The final JSON object; ``names`` fixes which metrics it carries."""
    units = {
        entry["name"]: entry["unit"]
        for key in ("end_to_end", "per_layer")
        for entry in benchmark_spec()[key]
    }
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"run produced no value for {missing}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in names
        },
    }
