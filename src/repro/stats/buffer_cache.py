"""Static + dynamic p-value buffer cache (Section 4.2.3).

Different rules share their p-value computation when they have the same
coverage, and one rule reuses its own buffer across all permutations.
The paper's cache has two tiers:

* a **static buffer** holding the :class:`~repro.stats.pvalue_buffer.
  PValueBuffer` of every coverage in ``[min_sup, max_sup]``, where
  ``max_sup`` is derived from a memory budget;
* a **dynamic buffer** holding exactly *one* buffer — that of the last
  rule whose coverage exceeded ``max_sup`` (tracked by the paper's
  ``sup_d`` variable).

Buffers are built lazily on first use. The cache also counts hits and
misses so the Figure 4 ablation can report the effectiveness of each
tier.

:meth:`BufferCache.buffer_for` is the paper's one-rule-at-a-time
lookup, kept for the Figure 4 arms. Production scoring knows every
coverage up front and goes through :meth:`BufferCache.buffers_for` —
or, for a whole rule set, :func:`grouped_buffers` /
:func:`batch_p_values` — which group rules by ``(class, coverage)``
and build each missing buffer once, in batches of native kernel calls
(:func:`~repro.stats.pvalue_buffer.build_buffers`): one for the static
tier and, for the coverages above it, one per
:data:`~repro.stats.pvalue_buffer.BATCH_BYTES` of tables.

Buffers are float64 arrays, so :attr:`BufferCache.static_nbytes` is
the real footprint of the static tier and the 16 MiB budget bounds
actual memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StatsError
from .logfact import LogFactorialBuffer, default_buffer
from .pvalue_buffer import PValueBuffer, build_buffers

__all__ = ["BufferCache", "CacheStats", "batch_p_values",
           "grouped_buffers"]


@dataclass
class CacheStats:
    """Hit/miss counters for the two cache tiers."""

    static_hits: int = 0
    static_misses: int = 0
    dynamic_hits: int = 0
    dynamic_misses: int = 0

    @property
    def total_lookups(self) -> int:
        return (self.static_hits + self.static_misses
                + self.dynamic_hits + self.dynamic_misses)

    @property
    def hit_rate(self) -> float:
        total = self.total_lookups
        if total == 0:
            return 0.0
        return (self.static_hits + self.dynamic_hits) / total


class BufferCache:
    """Coverage-keyed cache of p-value buffers for one ``(n, n_c)`` null.

    Parameters
    ----------
    n, n_c:
        Dataset size and class support; both are fixed for a whole
        mining run (and across permutations), so one cache serves an
        entire correction pipeline per class label.
    static_budget_bytes:
        Memory budget of the static tier. A coverage's buffer occupies
        ``8 * (U - L + 1)`` bytes; ``max_sup`` is the largest coverage
        whose cumulative footprint (for all coverages from ``min_sup``
        up) fits the budget. The paper uses 16 MB.
    min_sup:
        Smallest coverage the static tier may hold.
    use_static / use_dynamic:
        Ablation switches matching Figure 4's configurations: with both
        off every lookup rebuilds the buffer ("no optimization").
    midp:
        Build Lancaster mid-p buffers instead of exact two-tailed ones
        (the ``"fisher-midp"`` scorer).
    """

    def __init__(self, n: int, n_c: int,
                 static_budget_bytes: int = 16 * 1024 * 1024,
                 min_sup: int = 1,
                 use_static: bool = True,
                 use_dynamic: bool = True,
                 logfact: Optional[LogFactorialBuffer] = None,
                 midp: bool = False) -> None:
        if not 0 <= n_c <= n:
            raise StatsError(f"n_c={n_c} out of [0, {n}]")
        if min_sup < 1:
            raise StatsError("min_sup must be >= 1")
        self.n = n
        self.n_c = n_c
        self.min_sup = min_sup
        self.midp = midp
        self.use_static = use_static
        self.use_dynamic = use_dynamic
        self.stats = CacheStats()
        self._logfact = logfact or default_buffer()
        self._static: Dict[int, PValueBuffer] = {}
        self._dynamic: Optional[PValueBuffer] = None
        self._sup_d: Optional[int] = None
        self.max_sup = (self._derive_max_sup(static_budget_bytes)
                        if use_static else min_sup - 1)

    def _derive_max_sup(self, budget_bytes: int) -> int:
        """Largest coverage whose buffers cumulatively fit the budget.

        A buffer for coverage ``s`` spans ``min(n_c, s) - max(0, n_c +
        s - n) + 1`` doubles. Walk coverages upward until the budget is
        exhausted.
        """
        used = 0
        max_sup = self.min_sup - 1
        for s in range(self.min_sup, self.n + 1):
            low = max(0, self.n_c + s - self.n)
            high = min(self.n_c, s)
            used += 8 * (high - low + 1)
            if used > budget_bytes:
                break
            max_sup = s
        return max_sup

    def buffer_for(self, supp_x: int) -> PValueBuffer:
        """Return the p-value buffer for coverage ``supp_x``.

        Follows the paper's lookup protocol: static tier for coverages
        up to ``max_sup``, otherwise the single-slot dynamic tier keyed
        by ``sup_d``; a miss builds and installs the buffer.
        """
        if not 0 <= supp_x <= self.n:
            raise StatsError(f"coverage {supp_x} out of [0, {self.n}]")
        if self.use_static and supp_x <= self.max_sup:
            cached = self._static.get(supp_x)
            if cached is not None:
                self.stats.static_hits += 1
                return cached
            self.stats.static_misses += 1
            built = PValueBuffer(self.n, self.n_c, supp_x, self._logfact,
                                 midp=self.midp)
            self._static[supp_x] = built
            return built
        if self.use_dynamic:
            if self._sup_d == supp_x and self._dynamic is not None:
                self.stats.dynamic_hits += 1
                return self._dynamic
            self.stats.dynamic_misses += 1
            built = PValueBuffer(self.n, self.n_c, supp_x, self._logfact,
                                 midp=self.midp)
            self._dynamic = built
            self._sup_d = supp_x
            return built
        # No caching at all: the Figure 4 "no optimization" arm.
        self.stats.dynamic_misses += 1
        return PValueBuffer(self.n, self.n_c, supp_x, self._logfact,
                            midp=self.midp)

    def buffers_for(self, coverages: Sequence[int],
                    lookups: Optional[Sequence[int]] = None,
                    ) -> Iterator[PValueBuffer]:
        """The buffers of many distinct coverages, built in batches.

        Static-tier coverages missing from the cache are built with one
        :func:`~repro.stats.pvalue_buffer.build_buffers` batch and
        kept; coverages above ``max_sup`` come from a second batch,
        built lazily as the iteration reaches them and not kept. The
        batches stay separate so that the static tier's retained views
        never pin transient tables. The dynamic slot is neither read
        nor written: a batch builds every coverage it needs exactly
        once, which is what the slot approximates for one-at-a-time
        lookups.

        Yields one buffer per coverage, in order. ``lookups[i]`` is the
        number of rule lookups coverage ``i`` serves (default 1). The
        first counts as a hit or a miss of its tier, the rest as hits,
        so :class:`CacheStats` reads as if every rule had been looked
        up one by one in grouped order.
        """
        coverages = [int(s) for s in coverages]
        for supp_x in coverages:
            if not 0 <= supp_x <= self.n:
                raise StatsError(
                    f"coverage {supp_x} out of [0, {self.n}]")
        static = [self.use_static and s <= self.max_sup
                  for s in coverages]
        missing = [s for s, kept in zip(coverages, static)
                   if kept and s not in self._static]
        self._static.update(zip(missing, build_buffers(
            self.n, self.n_c, missing, self._logfact, self.midp)))
        transient = build_buffers(
            self.n, self.n_c,
            [s for s, kept in zip(coverages, static) if not kept],
            self._logfact, self.midp)
        built = set(missing)
        stats = self.stats
        for i, supp_x in enumerate(coverages):
            count = 1 if lookups is None else int(lookups[i])
            if not static[i]:
                stats.dynamic_misses += 1
                stats.dynamic_hits += count - 1
                yield next(transient)
                continue
            if supp_x in built:
                built.discard(supp_x)
                stats.static_misses += 1
                stats.static_hits += count - 1
            else:
                stats.static_hits += count
            yield self._static[supp_x]

    def p_value(self, supp_r: int, supp_x: int) -> float:
        """Two-tailed p-value for a rule via the cached buffer."""
        return self.buffer_for(supp_x).p_value(supp_r)

    @property
    def static_nbytes(self) -> int:
        """Current footprint of the static tier (its float64 tables)."""
        return sum(buf.nbytes for buf in self._static.values())

    def clear(self) -> None:
        """Drop all cached buffers (counters are preserved)."""
        self._static.clear()
        self._dynamic = None
        self._sup_d = None


def grouped_buffers(caches: Mapping[int, BufferCache],
                    classes: np.ndarray, coverages: np.ndarray,
                    ) -> Iterator[Tuple[np.ndarray, PValueBuffer]]:
    """``(rule indices, buffer)`` for every ``(class, coverage)`` group.

    ``classes[i]`` and ``coverages[i]`` describe rule ``i``. Each
    class's distinct coverages go to its cache as one
    :meth:`BufferCache.buffers_for` request, so no coverage is built
    twice and a pass makes one kernel call per class for the static
    tier plus one per :data:`~repro.stats.pvalue_buffer.BATCH_BYTES`
    of tables above it. Groups come out class by class in ascending
    coverage order, lazily; the indices within a group ascend.
    """
    classes = np.asarray(classes, dtype=np.int64)
    coverages = np.asarray(coverages, dtype=np.int64)
    for c in np.unique(classes).tolist():
        members = np.flatnonzero(classes == c)
        values, inverse, counts = np.unique(
            coverages[members], return_inverse=True, return_counts=True)
        buffers = caches[c].buffers_for(values.tolist(), counts.tolist())
        ordered = members[np.argsort(inverse, kind="stable")]
        groups = np.split(ordered, np.cumsum(counts)[:-1])
        yield from zip(groups, buffers)


def batch_p_values(caches: Mapping[int, BufferCache],
                   classes: np.ndarray, coverages: np.ndarray,
                   supports: np.ndarray) -> np.ndarray:
    """Every rule's p-value, scored in ``(class, coverage)`` groups.

    Entry ``i`` equals ``caches[classes[i]].p_value(supports[i],
    coverages[i])`` bit for bit; see :func:`grouped_buffers` for the
    batching.
    """
    supports = np.asarray(supports, dtype=np.int64)
    out = np.empty(len(supports), dtype=np.float64)
    for group, buffer in grouped_buffers(caches, classes, coverages):
        index = supports[group] - buffer.low
        if index.min() < 0 or index.max() >= len(buffer):
            raise StatsError(
                f"supp(R) outside reachable range [{buffer.low}, "
                f"{buffer.high}] for n={buffer.n}, n_c={buffer.n_c}, "
                f"supp(X)={buffer.supp_x}")
        out[group] = buffer.values[index]
    return out
