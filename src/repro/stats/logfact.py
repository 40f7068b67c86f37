"""The log-factorial buffer ``Bf`` of Section 4.2.3.

The paper stores the factorials of ``0..n`` in a buffer to make each
hypergeometric probability O(1); because ``n!`` overflows any fixed-
width float long before the dataset sizes used here, the buffer holds
*logarithms* of factorials, exactly as the paper prescribes ("we store
the logarithm of the factorials in the buffer"). The buffer grows
incrementally and is shared process-wide through
:func:`default_buffer`. :meth:`LogFactorialBuffer.as_array` hands the
same values to the native p-value kernel as a float64 array.
"""

from __future__ import annotations

import math
import threading
from typing import List

import numpy as np

from ..errors import StatsError

__all__ = ["LogFactorialBuffer", "default_buffer", "log_binomial"]


class LogFactorialBuffer:
    """Incrementally grown table of ``ln(k!)`` for ``k = 0..capacity``.

    ``buffer[k]`` is ``ln(k!)``; extension is O(new entries) because
    ``ln((k+1)!) = ln(k!) + ln(k+1)``.
    """

    def __init__(self, initial_capacity: int = 1024) -> None:
        if initial_capacity < 0:
            raise StatsError("initial capacity must be non-negative")
        self._table: List[float] = [0.0]
        # Float64 copy of ``_table`` for the native kernels; replaced
        # (never mutated) under ``_grow_lock`` when it falls short.
        self._mirror = np.zeros(0)
        self._grow_lock = threading.Lock()
        self.ensure(initial_capacity)

    def __len__(self) -> int:
        return len(self._table)

    # Buffers travel to process workers inside pickled rulesets and
    # caches; the growth lock is process-local state, not data, and
    # the mirror is a derived copy rebuilt on demand.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_grow_lock"]
        del state["_mirror"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._mirror = np.zeros(0)
        self._grow_lock = threading.Lock()

    @property
    def capacity(self) -> int:
        """Largest ``k`` for which ``ln(k!)`` is currently tabulated."""
        return len(self._table) - 1

    def ensure(self, n: int) -> None:
        """Grow the table so that ``log_factorial(n)`` is O(1).

        Growth is serialized: the process-wide default buffer is hit
        concurrently by the thread fan-outs (``Pipeline.run_many``,
        the correct-stage fan-out, the experiment grid), and an
        unlocked read-of-``table[-1]``-then-append loop interleaves
        into silently wrong entries. Reads stay lock-free — the table
        is append-only, so any index below ``len`` is immutable.
        """
        table = self._table
        if n < len(table):
            return
        with self._grow_lock:
            for k in range(len(table), n + 1):
                table.append(table[-1] + math.log(k))

    def as_array(self, n: int) -> np.ndarray:
        """``ln(k!)`` for ``k = 0..capacity`` (at least ``n``) as float64.

        The values are the table's own floats, so a kernel reading
        them computes exactly what :meth:`log_binomial` does. The
        array is shared and must not be written to; it is rebuilt
        whole, under the growth lock, only when it falls short of
        ``n``.
        """
        self.ensure(n)
        mirror = self._mirror
        if len(mirror) > n:
            return mirror
        with self._grow_lock:
            if len(self._mirror) <= n:
                mirror = np.array(self._table, dtype=np.float64)
                mirror.flags.writeable = False
                self._mirror = mirror
            return self._mirror

    def log_factorial(self, k: int) -> float:
        """Return ``ln(k!)``, growing the table if needed."""
        if k < 0:
            raise StatsError(f"factorial of negative number {k}")
        if k > self.capacity:
            self.ensure(k)
        return self._table[k]

    def log_binomial(self, a: int, b: int) -> float:
        """Return ``ln(C(a, b))``; ``-inf`` when the coefficient is 0."""
        if b < 0 or b > a:
            return float("-inf")
        if a > self.capacity:
            self.ensure(a)
        table = self._table
        return table[a] - table[b] - table[a - b]


_DEFAULT = LogFactorialBuffer()


def default_buffer() -> LogFactorialBuffer:
    """Process-wide shared buffer (grown lazily by all callers)."""
    return _DEFAULT


def log_binomial(a: int, b: int) -> float:
    """Module-level convenience for ``ln(C(a, b))`` via the shared buffer."""
    return _DEFAULT.log_binomial(a, b)
