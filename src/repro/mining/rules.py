"""Class association rule generation (Sections 2.1 and 3).

Rules have the form ``X => c`` with ``X`` a (closed) frequent pattern
and ``c`` a class label. Following Section 3:

* with exactly two classes, testing ``X => c`` is equivalent to testing
  ``X => not-c`` (the two-tailed p-value is identical), so **one rule
  per pattern** is generated — by default on the class the pattern is
  positively associated with, or on a fixed ``rhs_class`` when the
  caller wants a single reporting convention (Table 4 uses
  ``class=good``);
* with ``m > 2`` classes, **m rules per pattern** are generated.

Every rule carries coverage, support, confidence and its two-tailed
Fisher p-value. Scoring is one batch: all class supports come from the
packed :class:`~repro.bitmat.BitMatrix` kernel, and p-values from the
shared :class:`~repro.stats.buffer_cache.BufferCache` grouped by
``(class, coverage)``, so every coverage's buffer is built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..bitmat import BitMatrix, words_per_row
from ..data.dataset import Dataset
from ..errors import MiningError
from ..stats.buffer_cache import BufferCache, batch_p_values
from ..stats.chi2 import chi2_rule_p_value
from ..tidvector import as_tidvector
from .closed import mine_closed
from .patterns import Pattern

__all__ = ["ClassRule", "RuleSet", "generate_rules", "mine_class_rules"]


@dataclass
class ClassRule:
    """One class association rule ``X => c`` with its statistics.

    ``pattern_id`` indexes the pattern list of the owning
    :class:`RuleSet`; ``items`` are catalog item ids.
    """

    pattern_id: int
    items: frozenset
    class_index: int
    coverage: int
    support: int
    confidence: float
    p_value: float

    @property
    def length(self) -> int:
        """Number of items on the left-hand side."""
        return len(self.items)

    def lift(self, n: int, n_c: int) -> float:
        """Confidence over the class prior ``n_c / n``."""
        if n_c == 0:
            return float("inf") if self.confidence > 0 else 1.0
        return self.confidence / (n_c / n)

    def describe(self, dataset: Dataset) -> str:
        """Render the rule with item and class names."""
        lhs = dataset.catalog.describe_pattern(self.items)
        rhs = dataset.class_names[self.class_index]
        return (f"{lhs} => {rhs}  "
                f"(coverage={self.coverage}, support={self.support}, "
                f"confidence={self.confidence:.3f}, p={self.p_value:.3g})")

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON form; floats round-trip exactly, items sorted."""
        return {
            "pattern_id": self.pattern_id,
            "items": sorted(int(i) for i in self.items),
            "class_index": self.class_index,
            "coverage": self.coverage,
            "support": self.support,
            "confidence": float(self.confidence),
            "p_value": float(self.p_value),
        }

    @classmethod
    def from_json(cls, payload) -> "ClassRule":
        """Rebuild a rule from :meth:`to_json` output."""
        return cls(
            pattern_id=int(payload["pattern_id"]),
            items=frozenset(int(i) for i in payload["items"]),
            class_index=int(payload["class_index"]),
            coverage=int(payload["coverage"]),
            support=int(payload["support"]),
            confidence=float(payload["confidence"]),
            p_value=float(payload["p_value"]),
        )


@dataclass
class RuleSet:
    """The outcome of one mining run: rules plus shared context.

    ``n_tests`` is the paper's ``Nt``: the number of hypotheses tested,
    i.e. ``len(rules)`` (one per pattern for two classes, ``m`` per
    pattern otherwise). Correction procedures consume this, not the
    pattern count.
    """

    dataset: Dataset
    patterns: List[Pattern]
    rules: List[ClassRule]
    min_sup: int
    scorer: str = "fisher"
    caches: Dict[int, BufferCache] = field(default_factory=dict, repr=False)

    @property
    def n_tests(self) -> int:
        """The multiple-testing denominator ``Nt``."""
        return len(self.rules)

    def p_values(self) -> List[float]:
        """P-values of all rules, in rule order."""
        return [rule.p_value for rule in self.rules]

    def sorted_by_p(self) -> List[ClassRule]:
        """Rules in ascending p-value order (stable)."""
        return sorted(self.rules, key=lambda r: r.p_value)

    def describe(self, limit: int = 20) -> str:
        """Multi-line listing of the most significant rules."""
        lines = [f"{len(self.rules)} rules (min_sup={self.min_sup}, "
                 f"scorer={self.scorer}) on {self.dataset.name}:"]
        for rule in self.sorted_by_p()[:limit]:
            lines.append("  " + rule.describe(self.dataset))
        if len(self.rules) > limit:
            lines.append(f"  ... and {len(self.rules) - limit} more")
        return "\n".join(lines)


def generate_rules(
    dataset: Dataset,
    patterns: Sequence[Pattern],
    min_sup: int,
    min_conf: float = 0.0,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
    caches: Optional[Dict[int, BufferCache]] = None,
    static_budget_bytes: int = 16 * 1024 * 1024,
    use_static: bool = True,
    use_dynamic: bool = True,
) -> RuleSet:
    """Turn mined patterns into scored class association rules.

    Parameters
    ----------
    patterns:
        Any forest-ordered pattern sequence — a raw
        :func:`~repro.mining.closed.mine_closed` list or a
        :class:`~repro.mining.patterns.PatternSet` from any registered
        miner. Patterns with empty ``items`` (forest roots) bear no
        rule and are skipped.
    min_conf:
        The domain-significance filter; the paper's experiments set it
        to 0 so statistical control is exercised alone.
    rhs_class:
        For binary data, force every rule onto this class index (the
        paper's Table 4 reports rules as ``=> good``); ``None`` picks
        the positively associated class per pattern. Ignored when the
        dataset has more than two classes.
    scorer:
        ``"fisher"`` (exact, the paper's choice), ``"fisher-midp"``
        (Lancaster mid-p, less conservative) or ``"chi2"``.
    caches:
        Optional per-class :class:`BufferCache` map to share across
        calls (the permutation engine passes the same caches for every
        permutation).
    """
    if scorer not in ("fisher", "fisher-midp", "chi2"):
        raise MiningError(f"unknown scorer {scorer!r}")
    if not 0.0 <= min_conf <= 1.0:
        raise MiningError("min_conf must be within [0, 1]")
    if rhs_class is not None and not 0 <= rhs_class < dataset.n_classes:
        raise MiningError(f"rhs_class {rhs_class} out of range")
    n = dataset.n_records
    class_supports = [dataset.class_support(c)
                      for c in range(dataset.n_classes)]
    if caches is None:
        caches = {}
    for c in range(dataset.n_classes):
        if c not in caches:
            caches[c] = BufferCache(
                n, class_supports[c],
                static_budget_bytes=static_budget_bytes,
                min_sup=min_sup, use_static=use_static,
                use_dynamic=use_dynamic,
                midp=(scorer == "fisher-midp"))
    rule_patterns = [p for p in patterns if p.items]  # roots bear no rule
    supports = _class_supports(dataset, rule_patterns).tolist()
    binary = dataset.n_classes == 2
    # (pattern row, class, support, confidence) of every rule, in
    # output order.
    picked: List[tuple] = []
    for row, pattern in enumerate(rule_patterns):
        coverage = pattern.support
        if binary:
            if rhs_class is not None:
                candidates = [rhs_class]
            else:
                candidates = [_positively_associated_class(
                    supports[row], coverage, class_supports, n)]
        else:
            candidates = range(dataset.n_classes)
        for c in candidates:
            support = supports[row][c]
            confidence = support / coverage if coverage else 0.0
            if confidence >= min_conf:
                picked.append((row, c, support, confidence))
    p_values = _score(scorer, caches, n, class_supports, rule_patterns,
                      picked)
    rules: List[ClassRule] = []
    for (row, c, support, confidence), p_value in zip(picked, p_values):
        pattern = rule_patterns[row]
        rules.append(ClassRule(
            pattern_id=pattern.node_id,
            items=pattern.items,
            class_index=c,
            coverage=pattern.support,
            support=support,
            confidence=confidence,
            p_value=p_value,
        ))
    return RuleSet(dataset=dataset, patterns=list(patterns), rules=rules,
                   min_sup=min_sup, scorer=scorer, caches=caches)


def mine_class_rules(
    dataset: Dataset,
    min_sup: int,
    min_conf: float = 0.0,
    max_length: Optional[int] = None,
    rhs_class: Optional[int] = None,
    scorer: str = "fisher",
    **kwargs,
) -> RuleSet:
    """Mine closed patterns and score their class rules in one call.

    This is the Section 3 pipeline: closed frequent pattern mining with
    class-frequency counting, producing one hypothesis per pattern (two
    classes) or ``m`` per pattern (``m > 2`` classes).
    """
    if min_sup < 1:
        raise MiningError(f"min_sup must be >= 1, got {min_sup}")
    if min_sup > dataset.n_records:
        raise MiningError(
            f"min_sup={min_sup} exceeds dataset size {dataset.n_records}")
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup, max_length=max_length)
    return generate_rules(dataset, patterns, min_sup, min_conf=min_conf,
                          rhs_class=rhs_class, scorer=scorer, **kwargs)


def _positively_associated_class(supports: Sequence[int], coverage: int,
                                 class_supports: Sequence[int],
                                 n: int) -> int:
    """Class with the largest lift within the pattern's records."""
    best_class = 0
    best_lift = float("-inf")
    for c, support in enumerate(supports):
        prior = class_supports[c] / n if n else 0.0
        confidence = support / coverage if coverage else 0.0
        lift = confidence / prior if prior > 0 else float("inf")
        if lift > best_lift:
            best_lift = lift
            best_class = c
    return best_class


#: Packed tidset bytes one support pass may hold at once; wider
#: pattern sets are scored in row chunks of this size.
_SUPPORT_CHUNK_BYTES = 16 * 1024 * 1024


def _class_supports(dataset: Dataset,
                    patterns: Sequence[Pattern]) -> np.ndarray:
    """``(n_patterns, n_classes)`` int64 matrix of ``|tidset ∩ class|``.

    Tidsets are packed into a :class:`~repro.bitmat.BitMatrix` (in row
    chunks bounded by ``_SUPPORT_CHUNK_BYTES``) and counted with the
    packed kernel; with two classes the class-1 column derives from
    the coverage.
    """
    n = dataset.n_records
    n_classes = dataset.n_classes
    out = np.empty((len(patterns), n_classes), dtype=np.int64)
    if not patterns:
        return out
    labels = np.asarray(dataset.class_labels, dtype=np.int64)
    counted = [0] if n_classes == 2 else list(range(n_classes))
    indicators = np.stack([labels == c for c in counted])
    chunk = max(1, _SUPPORT_CHUNK_BYTES // (8 * max(1, words_per_row(n))))
    for start in range(0, len(patterns), chunk):
        block = patterns[start:start + chunk]
        matrix = BitMatrix.from_tidsets(
            [as_tidvector(p.tidset, n) for p in block], n)
        out[start:start + len(block), counted] = \
            matrix.class_supports_batch(indicators).T
    if n_classes == 2:
        coverages = np.array([p.support for p in patterns], dtype=np.int64)
        out[:, 1] = coverages - out[:, 0]
    return out


def _score(scorer: str, caches: Dict[int, BufferCache], n: int,
           class_supports: Sequence[int], patterns: Sequence[Pattern],
           picked: Sequence[tuple]) -> List[float]:
    """P-values of the picked ``(row, class, support, _)`` rules."""
    if not picked:
        return []
    if scorer == "chi2":
        return [chi2_rule_p_value(support, n, class_supports[c],
                                  patterns[row].support)
                for row, c, support, _ in picked]
    # Mid-p vs exact is decided by how the caches were built; the
    # lookup path is identical.
    rows, classes, supports, _ = (np.array(column) for column
                                  in zip(*picked))
    coverages = np.array([p.support for p in patterns],
                         dtype=np.int64)[rows.astype(np.int64)]
    return batch_p_values(caches, classes, coverages, supports).tolist()
