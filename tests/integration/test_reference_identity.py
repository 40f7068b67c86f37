"""The production permutation engine ≡ every Fig 4 arm, exactly.

The permutation pass has one production path — the packed
:class:`~repro.bitmat.BitMatrix` forest plus the vectorized p-value
lookup. :mod:`repro.ablation` keeps the paper's other storage arms
(full id-lists, Diffsets, the bigint bitset) as a serial reference
scorer. These cases pin the engine's three statistics — sorted min-p,
pooled rank counts, step-down counts — to that reference bit for bit:

* every permutation correction at 200 permutations on the determinism
  dataset, serial and on four process workers;
* every registered miner under ``Perm_FWER`` at 60 permutations on the
  identity dataset;
* every storage arm, with the native kernel suite on and off.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro._native as _native
from repro.ablation import STORAGES, ReferenceScorer
from repro.core.pipeline import Pipeline
from repro.corrections import PermutationEngine
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules

MINERS = ("closed", "apriori", "fpgrowth", "representative")

#: Which of the three statistics each permutation correction reads.
CORRECTIONS = {"Perm_FWER": 0, "Perm_FDR": 1, "Perm_FWER_SD": 2}

DETERMINISM = GeneratorConfig(
    n_records=600, n_attributes=12, n_rules=2,
    min_coverage=90, max_coverage=120,
    min_confidence=0.8, max_confidence=0.9)

IDENTITY = GeneratorConfig(
    n_records=400, n_attributes=10, n_rules=2,
    min_coverage=60, max_coverage=90,
    min_confidence=0.8, max_confidence=0.9)


@pytest.fixture(params=["1", "0"], ids=["native", "numpy"])
def native(request, monkeypatch):
    """Run the engine with the native kernel suite on, then off.

    ``load_suite`` memoises in a module global; resetting it makes the
    environment toggle take effect (forked workers inherit the state),
    and monkeypatch restores both afterwards.
    """
    monkeypatch.setenv("REPRO_NATIVE", request.param)
    monkeypatch.setattr(_native, "_kernel", "unset")
    return request.param


@pytest.fixture(scope="module")
def determinism():
    ruleset = mine_class_rules(generate(DETERMINISM, seed=99).dataset,
                               min_sup=40)
    references = {storage: ReferenceScorer(ruleset, storage=storage)
                  .statistics(200, 0) for storage in STORAGES}
    return ruleset, references


@pytest.fixture(scope="module")
def identity():
    dataset = generate(IDENTITY, seed=77).dataset
    out = {}
    for algorithm in MINERS:
        pipe = Pipeline(min_sup=30, corrections=("Perm_FWER",),
                        algorithm=algorithm, n_permutations=60, seed=0)
        ruleset = pipe.run(dataset).ruleset
        out[algorithm] = (ruleset, {
            storage: ReferenceScorer(ruleset, storage=storage)
            .statistics(60, 0) for storage in STORAGES})
    return out


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("jobs, backend",
                         [(1, "serial"), (4, "processes")],
                         ids=["serial", "processes4"])
@pytest.mark.parametrize("correction", sorted(CORRECTIONS))
def test_corrections_match_reference(determinism, native, correction,
                                     jobs, backend, storage):
    ruleset, references = determinism
    engine = PermutationEngine(ruleset, 200, seed=0, n_jobs=jobs,
                               backend=backend)
    index = CORRECTIONS[correction]
    assert np.array_equal(engine.statistics()[index],
                          references[storage][index]), \
        f"{correction}: engine differs from the {storage} arm"


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("algorithm", MINERS)
def test_miners_match_reference(identity, native, algorithm, storage):
    ruleset, references = identity[algorithm]
    got = PermutationEngine(ruleset, 60, seed=0).statistics()
    for mine, want in zip(got, references[storage]):
        assert np.array_equal(mine, want), \
            f"{algorithm}: engine differs from the {storage} arm"

