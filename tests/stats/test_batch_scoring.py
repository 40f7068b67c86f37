"""Batch scoring: few kernel calls per pass, each coverage built once.

Every ctypes call releases the GIL. A scorer that made one native call
per p-value buffer would hand the GIL back and forth thousands of
times per job and convoy behind the service's other threads, so each
scoring pass must group its rules by ``(class, coverage)`` and make
one ``repro_pvalue_buffer`` call per class for the missing static-tier
coverages and one per ``BATCH_BYTES`` (16 MiB) of tables above
``max_sup`` — two calls per class on these datasets, however many rules
the pass scores.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import _native
from repro.corrections.holdout import HoldoutRun
from repro.corrections.permutation import _VectorizedLookup
from repro.data import GeneratorConfig, generate, load_real_dataset
from repro.mining import generate_rules, mine_class_rules, mine_closed
from repro.stats import pvalue_buffer
from repro.stats.buffer_cache import BufferCache, batch_p_values

#: Small enough that german's coverages straddle ``max_sup``, so a
#: pass needs both the static and the transient call.
SPLIT_BUDGET = 64 * 1024


class _KernelSpy:
    """Stands in for the loaded suite and records every kernel call."""

    def __init__(self, suite) -> None:
        self._suite = suite
        self.calls: Counter = Counter()

    def pvalue_buffer(self, n, n_c, *args):
        self.calls[(n, n_c)] += 1
        return self._suite.pvalue_buffer(n, n_c, *args)


@pytest.fixture
def spy(monkeypatch):
    suite = _native.load_suite()
    if suite is None:
        pytest.skip("native kernel suite unavailable")
    kernel_spy = _KernelSpy(suite)
    monkeypatch.setattr(pvalue_buffer, "load_suite", lambda: kernel_spy)
    return kernel_spy


@pytest.fixture(scope="module")
def german():
    return load_real_dataset("german")


@pytest.fixture(scope="module")
def three_class():
    config = GeneratorConfig(
        n_records=360, n_attributes=10, n_classes=3,
        min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=70, max_coverage=70,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=33).dataset


def _scored(dataset, min_sup, **options):
    patterns = mine_closed(dataset.item_tidsets, dataset.n_records,
                           min_sup)
    return generate_rules(dataset, patterns, min_sup, **options)


class TestKernelCallsPerPass:
    @pytest.mark.parametrize("min_sup", [40, 120])
    def test_generate_rules(self, spy, german, min_sup):
        # 28,597 rules at min_sup 40, 1,485 at 120: the same four calls.
        ruleset = _scored(german, min_sup,
                          static_budget_bytes=SPLIT_BUDGET)
        assert len(ruleset.rules) > 1000
        assert spy.calls == {(1000, german.class_support(0)): 2,
                             (1000, german.class_support(1)): 2}

    def test_generate_rules_multiclass(self, spy, three_class):
        ruleset = _scored(three_class, 25,
                          static_budget_bytes=SPLIT_BUDGET // 16)
        assert {r.class_index for r in ruleset.rules} == {0, 1, 2}
        # The generator balances the classes, so all three share one
        # (n, n_c) key: count the calls of the whole pass.
        assert sum(spy.calls.values()) <= 2 * 3

    @pytest.mark.parametrize("min_sup", [40, 120])
    def test_vectorized_lookup(self, spy, german, min_sup):
        ruleset = _scored(german, min_sup,
                          static_budget_bytes=SPLIT_BUDGET)
        spy.calls.clear()
        _VectorizedLookup(ruleset)
        # The static tier is already warm: only the transient call.
        assert sum(spy.calls.values()) <= german.n_classes

    @pytest.mark.parametrize("min_sup", [40, 120])
    def test_holdout(self, spy, german, min_sup):
        run = HoldoutRun(german, min_sup, split="random", seed=0)
        assert len(run.candidates) > 10
        # Two passes (exploratory scoring, evaluation re-scoring), each
        # at most two calls per class.
        assert sum(spy.calls.values()) <= 2 * 2 * german.n_classes


class TestGroupedScoring:
    def test_mushroom_builds_each_coverage_once(self):
        ruleset = mine_class_rules(load_real_dataset("mushroom"), 600)
        stats = [cache.stats for cache in ruleset.caches.values()]
        builds = sum(s.static_misses + s.dynamic_misses for s in stats)
        hits = sum(s.static_hits + s.dynamic_hits for s in stats)
        # One build per (class, coverage) group; the one-rule-at-a-time
        # protocol rebuilt 24 dynamic-tier coverages (2,293 / 262).
        assert builds == 2269
        assert sum(s.dynamic_misses for s in stats) == 238
        assert builds + hits == len(ruleset.rules)

    def test_batch_matches_per_rule_lookup(self, german):
        ruleset = _scored(german, 40, static_budget_bytes=SPLIT_BUDGET)
        rules = ruleset.rules
        fresh = {c: BufferCache(german.n_records, german.class_support(c),
                                static_budget_bytes=SPLIT_BUDGET,
                                min_sup=40)
                 for c in range(german.n_classes)}
        one_by_one = [fresh[r.class_index].p_value(r.support, r.coverage)
                      for r in rules]
        assert [r.p_value for r in rules] == one_by_one
        assert all(type(r.p_value) is float for r in rules)
        batch = batch_p_values(
            ruleset.caches, np.array([r.class_index for r in rules]),
            np.array([r.coverage for r in rules]),
            np.array([r.support for r in rules]))
        assert batch.tolist() == one_by_one
