"""Output checks that do not trust the library's own arithmetic.

* Coverage and support of every rule are recounted from the dataset's
  records with plain Python integers used as bitmasks.
* P-values come from scipy: two-sided Fisher p-values are computed
  per coverage group from ``scipy.special.gammaln`` by the rule
  ``scipy.stats.fisher_exact`` uses, and every run re-validates that
  vectorised form against ``fisher_exact`` itself on a seeded sample
  of rules.
* The Benjamini-Hochberg decision comes from
  ``scipy.stats.false_discovery_control``.

Nothing here depends on the workload seed except which rules are
sampled, so no expected digest is pinned anywhere.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

HEADER = ["rule", "class", "length", "coverage", "support",
          "confidence", "p_value"]
#: fisher_exact treats pmf values within this relative gap as equal.
_GAMMA = 1 + 1e-14
#: How far the vectorised oracle may sit from fisher_exact itself.
ORACLE_TOLERANCE = 1e-9
#: A p-value gap from scipy above this counts as a defect in the report.
DEFECT_GAP = 1e-6

Key = Tuple[str, str]  # (rule text, class name)


class OracleError(RuntimeError):
    """The benchmark's own oracle disagrees with scipy (a bench bug)."""


def parse_rule(text: str) -> List[Tuple[str, str]]:
    """``{A=v, B=w}`` -> ``[("A", "v"), ("B", "w")]``."""
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"malformed rule text {text!r}")
    body = text[1:-1]
    pairs = []
    for part in body.split(", ") if body else []:
        attribute, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed item {part!r} in {text!r}")
        pairs.append((attribute, value))
    return pairs


class RecordCounter:
    """Counts recomputed from a dataset's records, one bitmask per item."""

    def __init__(self, dataset) -> None:
        records = dataset.to_records()
        self.n = dataset.n_records
        self.masks: Dict[Tuple[str, str], int] = {}
        for j, attribute in enumerate(dataset.catalog.attributes):
            column = np.array([row[j] for row in records], dtype=object)
            for value in set(column.tolist()) - {None}:
                self.masks[(attribute, value)] = _to_int(column == value)
        labels = np.asarray(dataset.class_labels)
        self.class_masks = {name: _to_int(labels == index)
                            for index, name in enumerate(dataset.class_names)}
        self.class_sizes = {name: mask.bit_count()
                            for name, mask in self.class_masks.items()}
        self._all = (1 << self.n) - 1
        self._memo: Dict[Key, Tuple[int, int]] = {}

    def counts(self, key: Key) -> Tuple[int, int]:
        """(coverage, support) of rule ``key``; KeyError on an item
        that never occurs in the records."""
        found = self._memo.get(key)
        if found is None:
            covered = self._all
            for pair in parse_rule(key[0]):
                covered &= self.masks[pair]
            found = (covered.bit_count(),
                     (covered & self.class_masks[key[1]]).bit_count())
            self._memo[key] = found
        return found


def _to_int(bits: np.ndarray) -> int:
    packed = np.packbits(bits.astype(bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ----------------------------------------------------------------------
# CSV outputs
# ----------------------------------------------------------------------

def read_csv(data: bytes) -> List[List[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def csv_keys(data: bytes) -> Set[Key]:
    return {(row[0], row[1]) for row in read_csv(data)[1:]}


def check_csv_rows(data: bytes, counter: RecordCounter) -> List[str]:
    """Recount every row's coverage and support; check derived fields."""
    rows = read_csv(data)
    if not rows or rows[0] != HEADER:
        return [f"bad CSV header {rows[:1]!r}"]
    problems: List[str] = []
    previous = -1.0
    for row in rows[1:]:
        try:
            key = (row[0], row[1])
            coverage, support = counter.counts(key)
            length = len(parse_rule(row[0]))
            p_value = float(row[6])
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"unparseable row {row!r}: {exc}")
            continue
        if (int(row[3]), int(row[4]), int(row[2])) != (coverage, support,
                                                       length):
            problems.append(
                f"{key}: CSV says coverage/support/length "
                f"{row[3]}/{row[4]}/{row[2]}, records give "
                f"{coverage}/{support}/{length}")
        elif float(row[5]) != round(support / coverage, 6):
            problems.append(f"{key}: confidence {row[5]} != "
                            f"{support}/{coverage}")
        if p_value < previous:
            problems.append(f"{key}: rows not sorted by p-value")
        previous = p_value
    return problems


# ----------------------------------------------------------------------
# p-values and decisions
# ----------------------------------------------------------------------

def fisher_p_values(n: int, tables: Sequence[Tuple[int, int, int]],
                    ) -> np.ndarray:
    """Two-sided Fisher p-values for ``(n_c, coverage, support)`` tables.

    For each ``(n_c, coverage)`` group the hypergeometric pmf is built
    over the whole support range from ``scipy.special.gammaln``, with
    both tails as cumulative sums. Each observed support then takes its
    own tail plus the opposite tail where the pmf is at most its own,
    the rule ``scipy.stats.fisher_exact`` applies (its per-element
    ``hypergeom`` calls are too slow for ten thousand coverages).
    """
    from scipy.special import gammaln

    log_fact = gammaln(np.arange(n + 1, dtype=float) + 1)  # log k!
    out = np.ones(len(tables))
    groups: Dict[Tuple[int, int], List[int]] = {}
    for index, (n_c, coverage, _) in enumerate(tables):
        groups.setdefault((n_c, coverage), []).append(index)
    for (n_c, coverage), members in groups.items():
        if coverage in (0, n) or n_c in (0, n):
            continue  # a zero margin: fisher_exact returns 1
        lo, hi = max(0, n_c + coverage - n), min(coverage, n_c)
        x_all = np.arange(lo, hi + 1)
        log_pmf = (log_fact[coverage] - log_fact[x_all]
                   - log_fact[coverage - x_all]
                   + log_fact[n - coverage] - log_fact[n_c - x_all]
                   - log_fact[n - coverage - n_c + x_all]
                   - log_fact[n] + log_fact[n_c] + log_fact[n - n_c])
        pmf = np.exp(log_pmf)
        cdf = np.cumsum(pmf)                      # P(X <= x)
        tail = np.cumsum(pmf[::-1])[::-1]         # P(X >= x)
        sf = np.append(tail[1:], 0.0)             # P(X > x)
        mode = int((n_c + 1) * (coverage + 1) / (n + 2))
        rising = pmf[:mode - lo + 1]              # pmf on [lo, mode]
        falling_neg = -pmf[mode - lo:]            # -pmf on [mode, hi]
        pmf_top = pmf[n_c - lo] if n_c <= hi else 0.0
        pmf_zero = pmf[0] if lo == 0 else 0.0
        x = np.array([tables[i][2] for i in members])
        exact = pmf[x - lo]
        limit = exact * _GAMMA
        # Observed support below the mode: lower tail plus the upper
        # tail beyond the last point whose pmf is still >= the limit.
        last_high = mode + np.searchsorted(falling_neg, -limit,
                                           side="right") - 1
        below = cdf[x - lo] + np.where(
            pmf_top > limit, 0.0, sf[np.clip(last_high, lo, hi) - lo])
        # At or above the mode: upper tail plus the lower tail up to
        # the last point whose pmf is at most the limit.
        upper = tail[x - lo]
        last_low = lo + np.searchsorted(rising, limit, side="right") - 1
        above = upper + np.where(
            (pmf_zero > limit) | (last_low < lo), 0.0,
            cdf[np.clip(last_low, lo, hi) - lo])
        p = np.where(x < mode, below, above)
        pmode = pmf[mode - lo]
        near_mode = (np.abs(exact - pmode)
                     / np.maximum(exact, pmode)) <= 1e-14
        out[members] = np.minimum(np.where(near_mode, 1.0, p), 1.0)
    return out


def fisher_exact_p(n: int, n_c: int, coverage: int, support: int) -> float:
    from scipy.stats import fisher_exact

    table = [[support, coverage - support],
             [n_c - support, n - n_c - coverage + support]]
    return float(fisher_exact(table).pvalue)


def relative_gap(ours: float, reference: float) -> float:
    if ours == reference or max(abs(ours), abs(reference)) < 1e-300:
        return 0.0  # equal, or both at the edge of double range
    return abs(ours - reference) / max(abs(reference), 1e-300)


class ScoredRules:
    """A tested hypothesis set, recounted and scored by the oracle.

    ``rules`` are the library's :class:`ClassRule` objects; only their
    identity (items, class) is taken from them. Counts come from the
    records and p-values from scipy.
    """

    def __init__(self, dataset, rules: Sequence, counter: RecordCounter,
                 ) -> None:
        describe = dataset.catalog.describe_pattern
        names = dataset.class_names
        self.rules = list(rules)
        self.keys: List[Key] = [(describe(r.items), names[r.class_index])
                                for r in self.rules]
        self.problems: List[str] = []
        tables = []
        for rule, key in zip(self.rules, self.keys):
            coverage, support = counter.counts(key)
            if (coverage, support) != (rule.coverage, rule.support):
                self.problems.append(
                    f"{key}: library counted {rule.coverage}/"
                    f"{rule.support}, records give {coverage}/{support}")
            tables.append((counter.class_sizes[key[1]], coverage, support))
        self.n = counter.n
        self.tables = tables
        self.p_values = fisher_p_values(counter.n, tables)

    def bh_keys(self, alpha: float) -> Set[Key]:
        """Keys ``false_discovery_control`` declares significant."""
        from scipy.stats import false_discovery_control

        if not self.keys:
            return set()
        adjusted = false_discovery_control(self.p_values, method="bh")
        return {key for key, q in zip(self.keys, adjusted) if q <= alpha}

    def keys_below(self, alpha: float) -> Set[Key]:
        return {key for key, p in zip(self.keys, self.p_values)
                if p <= alpha}

    def audit_sample(self, rng: np.random.Generator, size: int,
                     ) -> Dict[str, float]:
        """Compare the library and the oracle with ``fisher_exact``.

        Raises :class:`OracleError` when the vectorised oracle drifts
        from ``fisher_exact``; the library's own gap is only reported.
        """
        if not self.rules:
            return {"sampled": 0, "p_max_rel_err": 0.0, "over_1e-6": 0}
        picks = rng.choice(len(self.rules), size=min(size, len(self.rules)),
                           replace=False)
        worst, over = 0.0, 0
        for i in sorted(int(p) for p in picks):
            n_c, coverage, support = self.tables[i]
            reference = fisher_exact_p(self.n, n_c, coverage, support)
            if relative_gap(float(self.p_values[i]),
                            reference) > ORACLE_TOLERANCE:
                raise OracleError(
                    f"oracle p {self.p_values[i]!r} != fisher_exact "
                    f"{reference!r} for n={self.n} n_c={n_c} "
                    f"coverage={coverage} support={support}")
            gap = relative_gap(float(self.rules[i].p_value), reference)
            worst = max(worst, gap)
            over += gap > DEFECT_GAP
        return {"sampled": len(picks), "p_max_rel_err": worst,
                "over_1e-6": over}


def merge_audits(audits: Iterable[Dict[str, float]]) -> Dict[str, float]:
    audits = list(audits)
    return {"sampled": sum(a["sampled"] for a in audits),
            "p_max_rel_err": max((a["p_max_rel_err"] for a in audits),
                                 default=0.0),
            "over_1e-6": sum(a["over_1e-6"] for a in audits)}


def compare_sets(expected: Set[Key], got: Set[Key], label: str,
                 ) -> List[str]:
    if expected == got:
        return []
    missing = sorted(expected - got)[:3]
    extra = sorted(got - expected)[:3]
    return [f"{label}: {len(expected - got)} rules missing (e.g. "
            f"{missing}), {len(got - expected)} unexpected (e.g. {extra})"]
