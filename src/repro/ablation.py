"""Figure 4 ablation arms: reference storage and serial scoring.

The production permutation pass (:class:`~repro.corrections.
permutation.PermutationEngine`) has one path: every pattern tidset is
a row of a packed :class:`~repro.bitmat.BitMatrix` and every p-value
comes from one vectorized buffer lookup. Figure 4 of the paper
measures what each of its optimisations saves, so the arms it compares
live here, outside production, where the Fig 4 bench and the identity
tests reach them:

* :class:`ReferenceForest` — record-id storage under the paper's
  policies: ``"full"`` (every node stores its full record-id list),
  ``"diffsets"`` (Section 4.2.2: a child keeping more than half of its
  parent's records stores only the difference, Zaki & Gouda 2003) and
  ``"bitset"`` (the tidset as an arbitrary-precision integer with
  per-node ``popcount``, the bigint baseline);
* :class:`ReferenceScorer` — one permutation at a time over a
  reference forest, with the p-value ``lookup`` as ``"vectorized"``
  (the production lookup), ``"cache"`` (the paper's static+dynamic
  buffer cache, Section 4.2.3, one Python lookup per rule) or
  ``"direct"`` (no buffering: every p-value recomputed, the "no
  optimization" arm).

Every arm counts exact integers and draws permutation ``t``'s
labelling from the ``t``-th spawned child of the same
``numpy.random.SeedSequence`` as the engine, so
:meth:`ReferenceScorer.statistics` equals
:meth:`PermutationEngine.statistics` bit for bit. Only tests and
benchmarks import this module (the ``bitset-quarantine`` lint rule
enforces that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import bitset as bs
from .bitmat import andnot_counts
from .corrections.permutation import _VectorizedLookup
from .errors import CorrectionError, MiningError
from .mining.patterns import Pattern
from .mining.rules import RuleSet
from .parallel import root_sequence, spawn_sequences
from .stats.fisher import fisher_two_tailed
from .tidvector import as_tidvector

__all__ = ["ForestStats", "LOOKUPS", "ReferenceForest",
           "ReferenceScorer", "STORAGES"]

STORAGES = ("full", "diffsets", "bitset")
LOOKUPS = ("vectorized", "cache", "direct")


@dataclass(frozen=True)
class ForestStats:
    """Storage accounting for one forest (drives the Fig 4 ablation)."""

    policy: str
    n_nodes: int
    full_nodes: int
    diff_nodes: int
    stored_ids: int
    full_policy_ids: int

    @property
    def compression_ratio(self) -> float:
        """ids stored under ``full`` divided by ids actually stored."""
        if self.stored_ids == 0:
            return 1.0
        return self.full_policy_ids / self.stored_ids


class ReferenceForest:
    """Record-id storage for an enumeration tree of patterns.

    Parameters
    ----------
    patterns:
        DFS-ordered pattern forest (parents precede children, child
        tidsets subsets of their parent's): a raw
        :func:`repro.mining.closed.mine_closed` list or a
        :class:`~repro.mining.patterns.PatternSet` from any registered
        miner — all-frequent sets arrive as prefix trees that satisfy
        the same contract.
    n_records:
        Number of records in the mined dataset.
    storage:
        One of :data:`STORAGES`.
    """

    def __init__(self, patterns: Sequence[Pattern], n_records: int,
                 storage: str) -> None:
        if storage not in STORAGES:
            raise MiningError(
                f"unknown storage {storage!r}; pick from {STORAGES}")
        for v, pattern in enumerate(patterns):
            if pattern.parent_id >= v:
                raise MiningError(
                    "patterns must be in DFS order (parent before child)")
        self.storage = storage
        self.n_records = n_records
        self.n_nodes = len(patterns)
        self._supports = np.array([p.support for p in patterns],
                                  dtype=np.int64)
        self._parents = np.array([p.parent_id for p in patterns],
                                 dtype=np.int64)
        self._tidsets: Optional[List[int]] = None
        self._id_lists: Optional[List[np.ndarray]] = None
        self._is_diff: Optional[np.ndarray] = None
        full_ids = int(self._supports.sum())
        if storage == "bitset":
            # The bigint arm materializes arbitrary-precision ints from
            # the packed rows (int() goes through TidVector.__index__).
            self._tidsets = [int(p.tidset) for p in patterns]
            stored = full_ids
            full_nodes, diff_nodes = self.n_nodes, 0
        else:
            self._id_lists, self._is_diff = self._build_id_lists(
                patterns, storage)
            self._build_segments()
            stored = sum(len(ids) for ids in self._id_lists)
            diff_nodes = int(self._is_diff.sum())
            full_nodes = self.n_nodes - diff_nodes
        self.stats = ForestStats(
            policy=storage, n_nodes=self.n_nodes, full_nodes=full_nodes,
            diff_nodes=diff_nodes, stored_ids=stored,
            full_policy_ids=full_ids,
        )

    #: Unpacked-bit budget per decode block (bytes); keeps the blocked
    #: id-list decode cache-resident regardless of forest size.
    _DECODE_BLOCK_BYTES = 2 ** 25

    def _build_id_lists(self, patterns: Sequence[Pattern],
                        storage: str):
        """Materialize the stored id list of every node, vectorized.

        The stored rows (full tidsets, or parent-minus-child diffs
        where the paper's rule applies) are assembled word-wise over
        the whole forest at once — the diff rows through one
        ``a & ~b`` arena pass sized by the
        :func:`~repro.bitmat.andnot_counts` kernel — then decoded to
        ascending int32 ids block by block.
        """
        is_diff = np.zeros(len(patterns), dtype=bool)
        n = self.n_records
        if not patterns:
            return [], is_diff
        arena = np.stack([as_tidvector(p.tidset, n).words
                          for p in patterns])
        supports = self._supports
        parents = self._parents
        if storage == "diffsets":
            has_parent = parents >= 0
            # The paper's rule: a child keeping more than half of its
            # parent's records stores only the difference.
            is_diff[has_parent] = (
                2 * supports[has_parent]
                > supports[parents[has_parent]])
        stored = arena
        counts = supports.astype(np.int64, copy=True)
        diff_rows = np.flatnonzero(is_diff)
        if diff_rows.size:
            stored = arena.copy()
            stored[diff_rows] = (arena[parents[diff_rows]]
                                 & ~arena[diff_rows])
            counts[diff_rows] = andnot_counts(
                arena[parents[diff_rows]], arena[diff_rows])
        id_lists: List[np.ndarray] = []
        row_bytes = max(1, stored.shape[1] * 64)
        block = max(1, self._DECODE_BLOCK_BYTES // row_bytes)
        for start in range(0, len(patterns), block):
            chunk = stored[start:start + block]
            flags = np.unpackbits(chunk.view(np.uint8), axis=1,
                                  bitorder="little")[:, :n]
            # nonzero is row-major, so ids come out grouped by node in
            # ascending record order; the per-row bit counts are the
            # split boundaries.
            ids = np.nonzero(flags)[1].astype(np.int32)
            bounds = np.cumsum(counts[start:start + chunk.shape[0]])
            id_lists.extend(np.split(ids, bounds[:-1]))
        return id_lists, is_diff

    def _build_segments(self) -> None:
        """Concatenate the id lists for one-reduceat class counting.

        ``indicator[concat][starts[v]:starts[v]+lengths[v]].sum()`` is
        node ``v``'s stored-id count; ``np.add.reduceat`` computes all
        of them in one C pass instead of a per-node Python loop.
        """
        assert self._id_lists is not None and self._is_diff is not None
        lengths = np.fromiter((len(ids) for ids in self._id_lists),
                              dtype=np.int64, count=self.n_nodes)
        starts = (np.concatenate(([0], np.cumsum(lengths)[:-1]))
                  if self.n_nodes else np.empty(0, dtype=np.int64))
        # Only non-empty segments reach reduceat: their starts are
        # strictly increasing and in range, which sidesteps both
        # reduceat quirks (an empty segment yields the element at its
        # start instead of zero, and a trailing empty segment's start
        # falls off the array — clipping it would silently truncate
        # the previous segment's sum). Empty segments scatter to 0.
        self._nonempty = lengths > 0
        self._nonempty_starts = starts[self._nonempty].astype(np.intp)
        self._concat_ids = (np.concatenate(self._id_lists)
                            if self.n_nodes and int(lengths.sum())
                            else np.empty(0, dtype=np.int32))
        self._diff_order = np.flatnonzero(self._is_diff)

    def _stored_counts(self, indicator: np.ndarray) -> np.ndarray:
        """Per-node count of stored ids hitting ``indicator`` (int64).

        One fancy index plus one ``np.add.reduceat`` over the
        concatenated id lists of the non-empty segments, scattered
        back to node positions (empty segments count zero).
        """
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        if self._concat_ids.size == 0:
            return counts
        values = indicator.astype(np.int64)[self._concat_ids]
        counts[self._nonempty] = np.add.reduceat(
            values, self._nonempty_starts)
        return counts

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def supports(self) -> np.ndarray:
        """Coverage of every node (int64 array, DFS order)."""
        return self._supports

    def class_supports(self, class_indicator: np.ndarray) -> np.ndarray:
        """``supp_c(X)`` for every node under one labelling.

        ``class_indicator`` is a boolean array of length ``n_records``
        marking the records of class ``c``. The labelling may be the
        original one or any permutation — item tidsets never change
        (Section 4.2.1), so only this argument varies across
        permutations.
        """
        indicator = np.asarray(class_indicator, dtype=bool)
        if indicator.shape != (self.n_records,):
            raise MiningError(
                f"class indicator must have shape ({self.n_records},)")
        if self.storage == "bitset":
            class_bits = bs.from_numpy_bool(indicator)
            assert self._tidsets is not None
            return np.fromiter(
                (bs.popcount(t & class_bits) for t in self._tidsets),
                dtype=np.int64, count=self.n_nodes)
        assert self._is_diff is not None
        out = self._stored_counts(indicator)
        # Diffset nodes store the complement relative to their parent:
        # supp_c(v) = supp_c(parent) - |diff ∩ c|. Parents precede
        # children, so resolving in index order sees final parents;
        # only the diff nodes need the (short) Python walk.
        parents = self._parents
        for v in self._diff_order:
            out[v] = out[parents[v]] - out[v]
        return out

    def class_supports_batch(self,
                             class_indicators: np.ndarray) -> np.ndarray:
        """``(B, n_nodes)`` class supports, one labelling per row.

        Row ``b`` equals ``class_supports(class_indicators[b])``.
        """
        indicators = np.asarray(class_indicators, dtype=bool)
        if indicators.ndim != 2 \
                or indicators.shape[1] != self.n_records:
            raise MiningError(
                f"class indicators must have shape "
                f"(B, {self.n_records})")
        if indicators.shape[0] == 0:
            return np.zeros((0, self.n_nodes), dtype=np.int64)
        return np.stack([self.class_supports(row)
                         for row in indicators])

    def tidset(self, node_id: int) -> int:
        """Reconstruct the tidset of one node as a bigint."""
        if self.storage == "bitset":
            assert self._tidsets is not None
            return self._tidsets[node_id]
        assert self._id_lists is not None and self._is_diff is not None
        bits = bs.bitset_from_indices(
            int(i) for i in self._id_lists[node_id])
        if not self._is_diff[node_id]:
            return bits
        return self.tidset(int(self._parents[node_id])) & ~bits


class ReferenceScorer:
    """Serial permutation scoring along one Figure 4 arm.

    Scores one labelling at a time over a :class:`ReferenceForest`
    built with ``storage``, resolving p-values through ``lookup`` (one
    of :data:`LOOKUPS`). The forest (and, for ``"vectorized"``, the
    flat buffer array) is built here, so timing :meth:`statistics`
    times the permutation pass alone, as the engine's ``run`` does.
    ``"cache"`` scores through ``ruleset.caches`` exactly as built by
    :func:`~repro.mining.rules.generate_rules` — which is how the Fig 4
    bench selects the static and dynamic buffer tiers.
    """

    def __init__(self, ruleset: RuleSet, storage: str = "full",
                 lookup: str = "vectorized") -> None:
        if lookup not in LOOKUPS:
            raise CorrectionError(
                f"unknown lookup {lookup!r}; pick from {LOOKUPS}")
        self.ruleset = ruleset
        self.lookup = lookup
        dataset = ruleset.dataset
        self.n = dataset.n_records
        self.forest = ReferenceForest(ruleset.patterns, self.n, storage)
        rules = ruleset.rules
        self._labels = np.array(dataset.class_labels, dtype=np.int64)
        self._node_ids = np.array([r.pattern_id for r in rules],
                                  dtype=np.int64)
        self._classes = np.array([r.class_index for r in rules],
                                 dtype=np.int64)
        self._coverages = np.array([r.coverage for r in rules],
                                   dtype=np.int64)
        self._observed_p = np.array([r.p_value for r in rules])
        self._class_sizes = [dataset.class_support(c)
                             for c in range(dataset.n_classes)]
        self._flat = (_VectorizedLookup(ruleset)
                      if lookup == "vectorized" else None)

    def rule_supports(self, labels: np.ndarray) -> np.ndarray:
        """``supp(R)`` for every rule under one labelling.

        Binary datasets need one forest pass (class-1 supports derive
        from coverage); multi-class datasets need one pass per class
        that actually appears on a rule RHS.
        """
        forest = self.forest
        node_supports: Dict[int, np.ndarray] = {}
        if self.ruleset.dataset.n_classes == 2:
            supp0 = forest.class_supports(labels == 0)
            node_supports[0] = supp0
            node_supports[1] = forest.supports - supp0
        else:
            for c in sorted(set(int(c) for c in self._classes)):
                node_supports[c] = forest.class_supports(labels == c)
        out = np.empty(len(self._node_ids), dtype=np.int64)
        for c, per_node in node_supports.items():
            mask = self._classes == c
            out[mask] = per_node[self._node_ids[mask]]
        return out

    def p_values(self, labels: np.ndarray) -> np.ndarray:
        """P-values of every rule under one labelling."""
        supports = self.rule_supports(labels)
        if self._flat is not None:
            return self._flat.p_values(supports)
        classes, coverages = self._classes, self._coverages
        if self.lookup == "cache":
            caches = self.ruleset.caches
            return np.array([
                caches[int(classes[i])].p_value(int(supports[i]),
                                                int(coverages[i]))
                for i in range(len(supports))
            ])
        return np.array([
            fisher_two_tailed(int(supports[i]), self.n,
                              self._class_sizes[int(classes[i])],
                              int(coverages[i]))
            for i in range(len(supports))
        ])

    def statistics(self, n_permutations: int, seed: Optional[int],
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The engine's three statistics, one permutation at a time.

        Returns the sorted per-permutation minimum p-values, the
        pooled rank counts and the step-down counts (both aligned with
        the ascending observed p-values) — the triple
        :meth:`~repro.corrections.permutation.PermutationEngine.
        statistics` returns for the same ``n_permutations`` and
        ``seed``.
        """
        order = np.argsort(self._observed_p, kind="stable")
        observed_sorted = self._observed_p[order]
        children = spawn_sequences(root_sequence(seed), n_permutations)
        min_p = np.empty(n_permutations)
        pooled = np.zeros(len(observed_sorted), dtype=np.int64)
        stepdown = np.zeros(len(observed_sorted), dtype=np.int64)
        for t, seq in enumerate(children):
            labels = np.random.default_rng(seq).permutation(self._labels)
            perm_p = self.p_values(labels)
            min_p[t] = perm_p.min() if len(perm_p) else 1.0
            pooled += np.searchsorted(np.sort(perm_p), observed_sorted,
                                      side="right")
            if len(perm_p):
                # Suffix minima in observed-rank order: entry i is the
                # minimum permutation p-value over rules ranked i..m-1,
                # the step-down minP statistic for rank i.
                suffix_min = np.minimum.accumulate(
                    perm_p[order][::-1])[::-1]
                stepdown += suffix_min <= observed_sorted
        return np.sort(min_p), pooled, stepdown
