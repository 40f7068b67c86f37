"""Timing, memory and span helpers shared by the workloads.

Nothing here imports ``repro``: these helpers only observe the process
tree and the calls the benchmark makes into the library.
"""

from __future__ import annotations

import contextlib
import glob
import json
import math
import resource
import statistics
import threading
import time
from typing import Dict, List, Optional, Sequence

clock = time.perf_counter


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# process-tree memory
# ----------------------------------------------------------------------

def _read_kb(path: str, fields: Sequence[str]) -> Dict[str, int]:
    """``fields`` (kB values) from a ``/proc`` key-value file."""
    found: Dict[str, int] = {}
    try:
        with open(path) as handle:
            for line in handle:
                key, _, rest = line.partition(":")
                if key in fields:
                    found[key] = int(rest.split()[0])
    except (OSError, ValueError, IndexError):
        pass
    return found


def _children() -> List[int]:
    """Pids of this process's live children (from every thread)."""
    pids: List[int] = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError):
            continue
    return pids


def _forked_children() -> List[int]:
    """Live children forked from this process (pool workers).

    A forked worker runs this process's command line. Anything else —
    the native loader's ``cc --version`` probe, the compiler, the
    benchmark's own set-up probes — is not part of a job's footprint
    and is skipped.
    """
    try:
        with open("/proc/self/cmdline", "rb") as handle:
            own = handle.read()
    except OSError:
        return []
    workers = []
    for pid in _children():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if handle.read() == own:
                    workers.append(pid)
        except OSError:
            continue
    return workers


def self_peak_rss_mb() -> float:
    """This process's own high-water RSS (children excluded)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class TreeMemory:
    """Samples the memory of this process plus its Python workers.

    ``RUSAGE_CHILDREN`` would report the largest child ever waited
    for, which after a serial job is the compiler probe. Instead a
    thread polls ``/proc`` while a job runs:

    * ``peak_mb`` — the process's own high-water RSS, or the largest
      sampled sum of its current RSS and every forked worker's private
      pages (pages a worker still shares with its parent are counted
      once), whichever is larger;
    * ``worker_peak_mb`` — the largest high-water RSS of any one pool
      worker.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.tree_peak_kb = 0
        self.worker_peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "TreeMemory":
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-memory",
                                        daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        with self._lock:
            workers = _forked_children()
            if not workers:
                return
            own = _read_kb("/proc/self/status",
                           ("VmRSS",)).get("VmRSS", 0)
            private = 0
            for pid in workers:
                status = _read_kb(f"/proc/{pid}/status", ("VmHWM",))
                self.worker_peak_kb = max(self.worker_peak_kb,
                                          status.get("VmHWM", 0))
                rollup = _read_kb(f"/proc/{pid}/smaps_rollup",
                                  ("Private_Clean", "Private_Dirty"))
                private += sum(rollup.values())
            self.tree_peak_kb = max(self.tree_peak_kb, own + private)

    @contextlib.contextmanager
    def paused(self):
        """No sampling inside: a ``subprocess`` child between its
        vfork and exec shares this process's pages and command line,
        and would count them twice."""
        with self._lock:
            yield

    @property
    def peak_mb(self) -> float:
        return max(self_peak_rss_mb(), self.tree_peak_kb / 1024.0)

    @property
    def worker_peak_mb(self) -> float:
        return self.worker_peak_kb / 1024.0


def wait_for_children(timeout: float = 60.0) -> None:
    """Block until every child process of this one has exited."""
    import multiprocessing

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        multiprocessing.active_children()  # reaps finished workers
        if not _children():
            return
        time.sleep(0.05)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder, written out once when the run ends.

    A span has a name, start and end (seconds since the recorder was
    made), the id of the span that caused it, and the id of the trace
    (one per job or request) it belongs to.
    """

    def __init__(self) -> None:
        self.origin = clock()
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._trace = 0

    def new_trace(self) -> int:
        self._trace += 1
        return self._trace

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self, trace: int) -> Dict[str, float]:
        """Total duration per span name within one trace."""
        totals: Dict[str, float] = {}
        for record in self.records:
            if record["trace"] == trace:
                name = str(record["name"])
                totals[name] = totals.get(name, 0.0) + (
                    float(record["end"]) - float(record["start"]))
        return totals

    def child_sum(self, trace: int, parent_name: str) -> float:
        """Summed duration of the direct children of ``parent_name``."""
        parents = {record["id"] for record in self.records
                   if record["trace"] == trace
                   and record["name"] == parent_name}
        return sum(float(r["end"]) - float(r["start"])
                   for r in self.records if r["parent"] in parents)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.records}, handle, sort_keys=True)


class _Span:
    def __init__(self, spans: Spans, name: str) -> None:
        self.spans = spans
        self.name = name
        self.duration = 0.0

    def __enter__(self) -> "_Span":
        spans = self.spans
        self.id = len(spans.records)
        self.parent = spans._stack[-1] if spans._stack else None
        spans.records.append({"id": self.id, "name": self.name,
                              "parent": self.parent,
                              "trace": spans._trace,
                              "start": clock() - spans.origin,
                              "end": None})
        spans._stack.append(self.id)
        return self

    def __exit__(self, *exc) -> None:
        spans = self.spans
        spans._stack.pop()
        record = spans.records[self.id]
        record["end"] = clock() - spans.origin
        self.duration = float(record["end"]) - float(record["start"])
