"""Shared plumbing for the workload modules: paths, timing, spans, checks.

Nothing here touches the mining code.  Everything a workload writes goes
under three ignored directories at the checkout root: ``.bench_cache``
(seeded inputs and their reference outputs, reused across runs of the
same seed), ``.bench_work`` (per-run scratch, emptied at start and end)
and ``.bench_out`` (run records and span dumps).
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import shutil
import subprocess
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"


class CheckFailed(Exception):
    """An output disagreed with its reference."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1), linear between order statistics."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_quantile(count: int, preferred: float) -> float:
    """The highest quantile up to ``preferred`` with >= 10 samples beyond
    it; with fewer than 20 samples, the upper decile of what there is."""
    best = 1.0 - 10.0 / count if count > 0 else 0.9
    return min(preferred, max(best, 0.9))


class HostSpeed:
    """Host-speed calibration for timings taken on a shared machine.

    On a few vCPUs of a shared host the same work takes up to 1.6x longer
    for minutes at a time while neighbours are busy or the hypervisor
    runs other guests, and that, not the program, set the spread between
    runs.  ``mark()`` times a fixed reference task (the benchmark's own
    code, never the program's: lines parsed into frozensets, then a numpy
    ``unique``, the mix of work an ingest-and-scan op does) in thread CPU
    time, with the collector off so a large heap left by the workload
    does not slow it.  ``normalize`` rescales a timing taken at time
    ``at`` by the reference task's time on a quiet host over its median
    time in the ``SPAN`` marks on each side of it: a host-normalized timing,
    which is what the end-to-end metrics report.  A change to the program
    moves a normalized timing as it moves the raw one; the raw figures
    are printed beside them as notes.

    Given a ``scratch`` directory, each mark also times a file-system
    reference task (a directory made, three small files written, listed,
    removed): ``normalize_fs`` rescales a timing made of such calls by
    it, since the kernel's file-system speed drifts apart from the CPU's.
    """

    #: The reference task's median time a line on a quiet 2-vCPU Xeon host.
    REFERENCE_S_PER_LINE = 1e-6
    #: The file-system reference task's median time on the same host.
    FS_REFERENCE_S = 0.0004
    #: Marks on each side of a timing that set its scale.
    SPAN = 2

    def __init__(self, repeats: int = 3, scratch: Path | None = None,
                 lines: int = 4_000) -> None:
        self.repeats = repeats
        self.scratch = scratch
        self.reference_s = lines * self.REFERENCE_S_PER_LINE
        #: The file-system reference task's seconds at each mark.
        self.fs_marks: list[float] = []
        rng = np.random.default_rng(20_240_611)
        slots = [
            " ".join(sorted({f"f{int(x)}" for x in rng.integers(
                0, 100, int(rng.integers(0, 4)))}))
            for _ in range(lines)
        ]
        self._text = ("\n".join(slots) + "\n").encode("ascii")
        self._column = rng.integers(0, 1 << 20, 5 * lines).astype(np.uint64)
        #: (perf_counter at the mark, the reference task's seconds)
        self.marks: list[tuple[float, float]] = []
        self._times: list[float] = []

    def _task(self) -> float:
        started = time.thread_time()
        slots = []
        for raw in self._text.splitlines():
            line = raw.decode("utf-8")
            slots.append(frozenset(line.split()) if line.strip()
                         else frozenset())
        tuple(slots)
        np.unique(self._column, return_counts=True)
        return time.thread_time() - started

    def _fs_task(self) -> float:
        assert self.scratch is not None
        directory = self.scratch / "host-speed"
        started = time.perf_counter()
        directory.mkdir()
        for index in range(3):
            with open(directory / f"f{index}", "w", encoding="ascii") as out:
                out.write("reference\n")
        for name in os.listdir(directory):
            os.unlink(directory / name)
        directory.rmdir()
        return time.perf_counter() - started

    def mark(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            samples = sorted(self._task() for _ in range(self.repeats))
            if self.scratch is not None:
                self.fs_marks.append(median(
                    self._fs_task() for _ in range(2 * self.repeats + 1)
                ))
        finally:
            if enabled:
                gc.enable()
        self.marks.append((time.perf_counter(), samples[len(samples) // 2]))
        self._times.append(self.marks[-1][0])

    def factor(self, at: float) -> float:
        """The reference time on a quiet host over the median reference
        time of the marks around ``at`` (fewer at either end of the run)."""
        if not self.marks:
            raise RuntimeError("no host-speed mark taken")
        after = bisect.bisect_left(self._times, at)
        near = self.marks[max(0, after - self.SPAN):after + self.SPAN]
        return self.reference_s / median(m[1] for m in near)

    def normalize_fs(self, seconds: float, at: float) -> float:
        """A timing of file-system calls at the reference file-system
        speed of the marks around ``at``."""
        after = bisect.bisect_left(self._times, at)
        near = self.fs_marks[max(0, after - self.SPAN):after + self.SPAN]
        return seconds * self.FS_REFERENCE_S / median(near)

    def normalize(
        self, seconds: float, at: float, cpu: float | None = None
    ) -> float:
        """A timing at host speed.  With ``cpu``, the calling thread's
        CPU seconds within it, only that part is rescaled and the rest
        (waiting for the disk) is kept as measured."""
        if cpu is None:
            return seconds * self.factor(at)
        return cpu * self.factor(at) + max(0.0, seconds - cpu)

    def summary(self) -> dict[str, float]:
        times = [m[1] for m in self.marks]
        return {
            "marks": len(times),
            "reference_ms_median": round(median(times) * 1e3, 4),
            "reference_ms_min": round(min(times) * 1e3, 4),
            "reference_ms_max": round(max(times) * 1e3, 4),
            "fs_reference_ms_median": round(
                median(self.fs_marks) * 1e3, 4) if self.fs_marks else None,
        }


def clocks() -> tuple[float, float]:
    """(perf_counter, thread_time) now."""
    return time.perf_counter(), time.thread_time()


def interval(
    start: tuple[float, float], end: tuple[float, float]
) -> tuple[float, float, float]:
    """(wall seconds, perf_counter at the midpoint, thread CPU seconds)
    between two ``clocks()`` readings: the arguments of
    ``HostSpeed.normalize``."""
    return end[0] - start[0], (start[0] + end[0]) / 2, end[1] - start[1]


def slow_half_mean(values: list[float]) -> float:
    """Mean of the slower half of the samples: the tail of a run with too
    few ops for a percentile beyond the median to be steady."""
    slow = sorted(values, reverse=True)[:(len(values) + 1) // 2]
    return sum(slow) / len(slow)


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs so far, from /proc/stat: the
    share of a run's CPU time the hypervisor gave to other guests."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


# ----------------------------------------------------------------------
# Spans (traced runs only)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rid: int | None = None
    index: int = 0


@dataclass
class Tracer:
    """In-memory span recorder: spans nest through an explicit parent id
    (a stack for synchronous code; async callers pass ``parent``)."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(
        self, name: str, rid: int | None = None, parent: int | None = None
    ) -> Iterator[Span]:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = Span(name, time.perf_counter(), parent=parent, rid=rid,
                      index=len(self.spans))
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(
        self, name: str, start: float, end: float,
        parent: int | None = None, rid: int | None = None,
    ) -> Span:
        """Record an already-timed interval."""
        record = Span(name, start, end, parent, rid, len(self.spans))
        self.spans.append(record)
        return record

    def self_times(self) -> dict[int, float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end)
                )
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for start, end in sorted(children.get(span.index, [])):
                start, end = max(start, cursor), min(end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            result[span.index] = (span.end - span.start) - covered
        return result

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        selfs = self.self_times()
        origin = self.spans[0].start if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.index,
                    "name": span.name,
                    "start_s": round(span.start - origin, 9),
                    "end_s": round(span.end - origin, 9),
                    "self_s": round(selfs[span.index], 9),
                    "parent": span.parent,
                    "rid": span.rid,
                }) + "\n")


# ----------------------------------------------------------------------
# Run outcome
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Informational figures printed but not part of the JSON contract.
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


@contextmanager
def checked(outcome: Outcome, what: str) -> Iterator[None]:
    """Count one attempted op; a mismatch or an exception fails it."""
    outcome.attempted += 1
    try:
        yield
    except CheckFailed as error:
        outcome.fail(f"{what}: {error}")
    except Exception as error:  # the op boundary: record, keep measuring
        outcome.fail(f"{what}: {type(error).__name__}: {error}")


# ----------------------------------------------------------------------
# Directories, caching, environment
# ----------------------------------------------------------------------


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_json_atomic(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def git_state() -> dict[str, Any]:
    """HEAD sha and dirty flag, or nulls outside a git work tree."""
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=20,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": None, "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha.strip(),
        "git_dirty": None if status is None else bool(status.strip()),
    }


def environment(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "visible_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **git_state(),
        "seed": seed,
    }
