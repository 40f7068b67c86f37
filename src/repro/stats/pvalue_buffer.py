"""The p-value buffer ``B_supp(X)`` of Section 4.2.3 (Figure 2).

For fixed ``n`` (records), ``n_c`` (class support) and coverage
``supp(X)``, a rule's two-tailed Fisher p-value depends only on
``supp(R) = k``. The buffer precomputes the p-value for *every*
reachable ``k in [L, U]`` so that permutation testing can score a rule
on each permutation with a single table lookup.

Construction follows the paper exactly: the hypergeometric pmf is
unimodal, so its smallest values sit at the two ends of ``[L, U]``.
Starting from both ends and walking inward, pmf values are accumulated
in ascending order; after processing entry ``k`` the running sum is the
two-tailed p-value for ``supp(R) = k`` (the total mass of all outcomes
at most as probable as ``k``). Ties — outcomes on opposite flanks with
equal probability, inevitable when ``n_c = n/2`` — are grouped: every
member of a tie group receives the sum *including* the whole group,
which matches the definition ``E = {j : H(j) <= H(k)}``.

:func:`build_buffers` builds the buffers of many coverages in a few
calls of the native ``repro_pvalue_buffer`` kernel (:mod:`repro.
_native`), which repeats this module's construction op for op; when
the kernel is unavailable it falls back to one Python construction
per coverage. Both give the same bits.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .._native import load_suite
from ..errors import StatsError
from .hypergeom import pmf_table, support_bounds
from .logfact import LogFactorialBuffer, default_buffer

__all__ = ["BATCH_BYTES", "PValueBuffer", "RELATIVE_TIE_TOLERANCE",
           "build_buffers"]

# Two pmf values within this relative factor are treated as equal when
# deciding which outcomes are "at least as extreme". The same guard
# factor is used by scipy's two-tailed Fisher test; it absorbs the
# round-off difference between analytically identical flank values.
RELATIVE_TIE_TOLERANCE = 1.0 + 1e-7

#: Table bytes one native kernel call may fill (at least one coverage
#: per call): the paper's 16 MB static budget, so a whole static tier
#: is one call, while the coverages above it — about 200 MiB of tables
#: per class on adult — never sit in memory all at once.
BATCH_BYTES = 16 * 1024 * 1024

_INT64_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


class PValueBuffer:
    """All possible two-tailed p-values for one coverage value.

    Parameters
    ----------
    n, n_c, supp_x:
        Dataset size, class support and rule coverage; together they fix
        the hypergeometric null.
    buffer:
        Optional shared log-factorial buffer.
    midp:
        When true, store Lancaster mid-p values instead: each entry is
        the two-tailed p-value minus half the observed outcome's pmf.
        Mid-p is less conservative than the exact test (the discrete
        statistic makes the exact test over-cover); the buffer layout
        and lookup protocol are unchanged, so the whole permutation
        pipeline works with mid-p transparently.

    Attributes
    ----------
    low, high:
        The reachable range ``[L, U]`` of ``supp(R)``.
    values:
        The table ``[p(L), ..., p(U)]`` as a read-only float64 array —
        possibly a view into the flat array of the batch that built
        it (:func:`build_buffers`).
    """

    __slots__ = ("n", "n_c", "supp_x", "low", "high", "midp", "values")

    def __init__(self, n: int, n_c: int, supp_x: int,
                 buffer: Optional[LogFactorialBuffer] = None,
                 midp: bool = False) -> None:
        self.n = n
        self.n_c = n_c
        self.supp_x = supp_x
        self.midp = midp
        self.low, self.high = support_bounds(n, n_c, supp_x)
        pmf = pmf_table(n, n_c, supp_x, buffer)
        pvalues = _two_ends_sum_up(pmf)
        if midp:
            pvalues = [max(0.0, p - 0.5 * mass)
                       for p, mass in zip(pvalues, pmf)]
        self.values = _frozen(np.array(pvalues, dtype=np.float64))

    @classmethod
    def _adopt(cls, n: int, n_c: int, supp_x: int, midp: bool,
               values: np.ndarray) -> "PValueBuffer":
        """Wrap an already-built table (the native batch path)."""
        self = cls.__new__(cls)
        self.n = n
        self.n_c = n_c
        self.supp_x = supp_x
        self.midp = midp
        self.low, self.high = support_bounds(n, n_c, supp_x)
        self.values = _frozen(values)
        return self

    def __len__(self) -> int:
        return len(self.values)

    def p_value(self, supp_r: int) -> float:
        """Two-tailed p-value of a rule with support ``supp_r``.

        ``supp_r`` must lie in ``[L, U]``; anything else is impossible
        for this coverage and indicates a caller bug.
        """
        if supp_r < self.low or supp_r > self.high:
            raise StatsError(
                f"supp(R)={supp_r} outside reachable range "
                f"[{self.low}, {self.high}] for n={self.n}, "
                f"n_c={self.n_c}, supp(X)={self.supp_x}")
        return float(self.values[supp_r - self.low])

    def p_values(self) -> List[float]:
        """The full table ``[p(L), ..., p(U)]`` as a fresh list."""
        return self.values.tolist()

    @property
    def nbytes(self) -> int:
        """Memory held by the table: 8 bytes per float64 entry."""
        return self.values.nbytes

    def __repr__(self) -> str:
        return (f"PValueBuffer(n={self.n}, n_c={self.n_c}, "
                f"supp_x={self.supp_x}, range=[{self.low}, {self.high}])")


def _frozen(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


def build_buffers(n: int, n_c: int, coverages: Sequence[int],
                  logfact: Optional[LogFactorialBuffer] = None,
                  midp: bool = False) -> Iterator[PValueBuffer]:
    """The buffers of many coverages of one ``(n, n_c)`` null, in order.

    With the native suite loaded, each kernel call fills up to
    :data:`BATCH_BYTES` of tables back to back in one flat float64
    array, and each buffer is a view into it (so the array stays alive
    while any of its buffers does). Batches are built lazily as the
    iteration reaches them, so a consumer that drops its buffers holds
    one batch at a time however many coverages it asks for. Without
    the suite, each coverage runs the Python construction of
    :class:`PValueBuffer`. The two paths agree bit for bit.
    """
    logfact = logfact or default_buffer()
    n, n_c = int(n), int(n_c)
    coverages = [int(s) for s in coverages]
    suite = load_suite()
    if suite is None:
        for supp_x in coverages:
            yield PValueBuffer(n, n_c, supp_x, logfact, midp=midp)
        return
    lengths = [high - low + 1 for low, high in
               (support_bounds(n, n_c, s) for s in coverages)]
    start = 0
    while start < len(coverages):
        stop, size = start + 1, lengths[start]
        while stop < len(coverages) \
                and 8 * (size + lengths[stop]) <= BATCH_BYTES:
            size += lengths[stop]
            stop += 1
        yield from _native_batch(suite, n, n_c, coverages[start:stop],
                                 lengths[start:stop], logfact, midp)
        start = stop


def _native_batch(suite, n: int, n_c: int, coverages: List[int],
                  lengths: List[int], logfact: LogFactorialBuffer,
                  midp: bool) -> List[PValueBuffer]:
    """One ``repro_pvalue_buffer`` call for validated coverages."""
    starts = np.concatenate(([0], np.cumsum(lengths)))
    flat = np.empty(int(starts[-1]), dtype=np.float64)
    scratch = np.empty(max(lengths), dtype=np.float64)
    covs = np.array(coverages, dtype=np.int64)
    table = logfact.as_array(n)
    status = suite.pvalue_buffer(
        n, n_c, covs.ctypes.data_as(_INT64_P), len(covs),
        table.ctypes.data_as(_DOUBLE_P), int(midp),
        RELATIVE_TIE_TOLERANCE, flat.ctypes.data_as(_DOUBLE_P),
        scratch.ctypes.data_as(_DOUBLE_P))
    if status:
        raise StatsError("pmf table is not unimodal or contains NaN "
                         f"(coverage {coverages[status - 1]})")
    return [PValueBuffer._adopt(n, n_c, s, midp,
                                flat[starts[i]:starts[i + 1]])
            for i, s in enumerate(coverages)]


def _two_ends_sum_up(pmf: Sequence[float]) -> List[float]:
    """Figure 2's two-ends-inward accumulation with tie grouping.

    Walks a left pointer up and a right pointer down, always consuming
    the smaller pmf next. A *group* is the maximal run of entries (from
    either flank) whose pmf equals the group minimum within
    ``RELATIVE_TIE_TOLERANCE``; the running total after the whole group
    is assigned to every member, so tied outcomes include each other.

    Every sum is a plain left-to-right float addition (not ``sum()``,
    which compensates on Python 3.12+): this op order is the contract
    the native kernel repeats.
    """
    m = len(pmf)
    result = [0.0] * m
    left, right = 0, m - 1
    total = 0.0
    while left <= right:
        smallest = min(pmf[left], pmf[right])
        ceiling = smallest * RELATIVE_TIE_TOLERANCE
        group: List[int] = []
        while left <= right and pmf[left] <= ceiling:
            group.append(left)
            left += 1
        while left <= right and pmf[right] <= ceiling:
            group.append(right)
            right -= 1
        if not group:
            # Defensive: cannot happen (one flank always matches its
            # own minimum), but never loop forever on pathological NaN.
            raise StatsError("pmf table is not unimodal or contains NaN")
        group_sum = 0.0
        for i in group:
            group_sum += pmf[i]
        total += group_sum
        for i in group:
            result[i] = total
    # Clamp tiny floating point overshoot so callers can rely on p <= 1.
    return [p if p < 1.0 else 1.0 for p in result]
