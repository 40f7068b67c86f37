"""Closed frequent pattern mining (Section 3 of the paper).

The paper mines *closed* frequent patterns as rule left-hand sides: a
closed pattern is the unique longest pattern among all patterns
occurring in the same set of records, so using closed patterns removes
rules that are exact duplicates (same coverage, same confidence, same
p-value) of another rule.

The miner is a depth-first walk of the set-enumeration tree (Rymon
1992) using LCM-style *prefix-preserving closure extension* (Uno et
al.), which enumerates every closed frequent pattern exactly once with
no global duplicate checking:

* the closure of a tidset ``T`` is the set of all frequent items whose
  tidset contains ``T``;
* a closed pattern ``P`` with core position ``i`` is extended by each
  item position ``j > i`` not already in ``P``; the closure ``Q`` of
  ``P + {j}`` is kept only when its members below position ``j`` match
  ``P``'s — otherwise ``Q`` is reachable from a lexicographically
  earlier branch and is pruned here.

The enumeration runs directly on the packed vertical view: tidset
intersections are word-wise uint64 ops and each closure check is one
vectorized ``tids & ~row`` pass over the whole item matrix
(:meth:`~repro.mining.tidsets.VerticalView.superset_positions`)
instead of a per-item Python scan.

Every emitted node records its tree parent, which the Diffsets storage
arm (Section 4.2.2) and the permutation engine rely on.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import MiningError
from ..tidvector import TidVector
from .patterns import Pattern
from .tidsets import VerticalView, build_vertical_view

__all__ = ["ClosedPattern", "mine_closed", "mine_closed_from_view",
           "iter_pattern_tree"]


class ClosedPattern(Pattern):
    """One node of the closed-pattern enumeration tree.

    A :class:`~repro.mining.patterns.Pattern` whose ``items`` are
    additionally *closed*: the unique longest pattern among all
    patterns with the same tidset. Field semantics are inherited
    unchanged (dense DFS ``node_id``, ``parent_id`` of the tree
    parent, ``items``, ``tidset``, ``support``, ``depth``).
    """


def mine_closed(
    item_tidsets: Sequence,
    n_records: int,
    min_sup: int,
    max_length: Optional[int] = None,
    item_order: str = "support-ascending",
) -> List[ClosedPattern]:
    """Mine all closed frequent patterns from per-item tidsets.

    Parameters
    ----------
    item_tidsets:
        ``item_tidsets[i]`` is the packed record set
        (:class:`~repro.tidvector.TidVector`) of records containing
        item ``i``, as stored by :class:`repro.data.Dataset`; bigint
        bitsets are accepted for interop and coerced once.
    n_records:
        Number of records ``n``.
    min_sup:
        Minimum coverage; patterns below it are pruned (anti-monotone).
    max_length:
        Optional cap on pattern length; a closed pattern longer than
        the cap is not emitted and its branch is not explored.
    item_order:
        Mining order heuristic, see
        :func:`repro.mining.tidsets.build_vertical_view`.

    Returns
    -------
    list of :class:`ClosedPattern` in DFS order. The root node (the
    closure of the empty pattern — non-empty only when some item occurs
    in every record) is always first; rule generation skips patterns
    with no items.
    """
    view = build_vertical_view(item_tidsets, n_records, min_sup, item_order)
    return mine_closed_from_view(view, max_length=max_length)


def mine_closed_from_view(
    view: VerticalView,
    max_length: Optional[int] = None,
) -> List[ClosedPattern]:
    """Mine closed patterns from a prepared :class:`VerticalView`."""
    if max_length is not None and max_length < 0:
        raise MiningError("max_length must be non-negative")
    n = view.n_records
    min_sup = view.min_sup
    out: List[ClosedPattern] = []
    if n < min_sup:
        return out

    root_tids = TidVector.universe(n)
    root_positions = tuple(int(p)
                           for p in view.superset_positions(root_tids))
    if max_length is not None and len(root_positions) > max_length:
        return out
    root_items = frozenset(view.item_ids[p] for p in root_positions)
    out.append(ClosedPattern(
        node_id=0, parent_id=-1, items=root_items, tidset=root_tids,
        support=n, depth=0,
    ))

    # Iterative DFS. A stack entry describes a *not yet emitted* closed
    # pattern: (positions, tidset, core position, parent node id,
    # depth). Children are pushed in descending extension order so pops
    # explore ascending item positions, matching the recursive LCM.
    stack: List[Tuple[Tuple[int, ...], TidVector, int, int, int]] = []
    _push_children(stack, root_positions, root_tids, -1, 0, 0,
                   view, max_length)
    while stack:
        positions, tids, _core, parent_id, depth = stack.pop()
        node_id = len(out)
        items = frozenset(view.item_ids[p] for p in positions)
        out.append(ClosedPattern(
            node_id=node_id, parent_id=parent_id, items=items,
            tidset=tids, support=tids.count(), depth=depth,
        ))
        _push_children(stack, positions, tids, _core, node_id, depth,
                       view, max_length)
    return out


def _push_children(
    stack: List[Tuple[Tuple[int, ...], TidVector, int, int, int]],
    positions: Tuple[int, ...],
    tids: TidVector,
    core: int,
    node_id: int,
    depth: int,
    view: VerticalView,
    max_length: Optional[int],
) -> None:
    """Push every prefix-preserving closure extension of one node."""
    tidsets = view.tidsets
    m = view.n_items
    min_sup = view.min_sup
    member = set(positions)
    # One fused AND+popcount pass over the candidate block replaces the
    # per-candidate intersection_count loop; pruned branches never
    # allocate a tidset.
    counts = view.candidate_supports(tids, core + 1)
    for j in range(m - 1, core, -1):
        if j in member:
            continue
        if counts[j - core - 1] < min_sup:
            continue
        new_tids = tids & tidsets[j]
        closure = tuple(int(p)
                        for p in view.superset_positions(new_tids))
        if not _prefix_preserved(closure, positions, j):
            continue
        if max_length is not None and len(closure) > max_length:
            continue
        stack.append((closure, new_tids, j, node_id, depth + 1))


def _prefix_preserved(closure: Sequence[int], positions: Sequence[int],
                      j: int) -> bool:
    """LCM duplicate check: closure and parent agree below position j."""
    closure_prefix = [p for p in closure if p < j]
    parent_prefix = [p for p in positions if p < j]
    return closure_prefix == parent_prefix


def iter_pattern_tree(patterns: Sequence[ClosedPattern]
                      ) -> Iterator[Tuple[ClosedPattern, ClosedPattern]]:
    """Yield ``(parent, child)`` pairs of the enumeration tree."""
    for pattern in patterns:
        if pattern.parent_id >= 0:
            yield patterns[pattern.parent_id], pattern
