"""Packed-native substrate ≡ bigint baseline, end to end, per miner.

The multi-layer refactor retired bigint tidsets from every hot path;
these tests pin the two guarantees that made that safe:

* **representation identity** — a dataset ingested through the packed
  arena and the *same* dataset reconstructed from bigint tidsets (the
  interop path plugins use) produce byte-identical mine / holdout /
  permutation CSV output for every registered miner;
* **arm identity** — for every miner, the packed permutation engine
  and the bigint ``"bitset"`` ablation arm (:mod:`repro.ablation`)
  compute identical permutation statistics;
* **p-value kernel identity** — buffers built by the native
  ``repro_pvalue_buffer`` kernel and by its Python twin give
  byte-identical CSVs, for exact and mid-p scoring.
"""

from __future__ import annotations

import filecmp

import numpy as np
import pytest

from repro.ablation import ReferenceScorer
from repro.core.pipeline import Pipeline
from repro.corrections import PermutationEngine
from repro.data import Dataset, GeneratorConfig, generate
from repro.evaluation.export import rules_to_csv
from repro.stats import pvalue_buffer

MINERS = ("closed", "apriori", "fpgrowth", "representative")


@pytest.fixture(scope="module")
def data():
    config = GeneratorConfig(
        n_records=300, n_attributes=8, n_rules=1,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    return generate(config, seed=23).dataset


@pytest.fixture(scope="module")
def bigint_clone(data):
    """The same dataset rebuilt from bigint tidsets (interop input)."""
    return Dataset(
        data.n_records, data.catalog,
        [int(t) for t in data.item_tidsets],
        data.class_labels, data.class_names, name=data.name)


class TestBigintIngestIdentity:
    @pytest.mark.parametrize("algorithm", MINERS)
    @pytest.mark.parametrize("correction",
                             ["BH", "HD_BC", "Perm_FWER"])
    def test_mine_holdout_permutation_csv_identical(
            self, data, bigint_clone, tmp_path, algorithm, correction):
        paths = []
        for tag, dataset in (("packed", data), ("bigint", bigint_clone)):
            pipe = Pipeline(min_sup=30, corrections=(correction,),
                            algorithm=algorithm, n_permutations=40,
                            seed=0)
            result = pipe.run(dataset)
            out = tmp_path / f"{algorithm}_{correction}_{tag}.csv"
            rules_to_csv(result[correction].significant, dataset,
                         str(out))
            paths.append(out)
        assert filecmp.cmp(*paths, shallow=False), \
            f"{algorithm}/{correction}: packed-native != bigint ingest"

    def test_midp_bh_csv_identical(self, data, bigint_clone, tmp_path):
        paths = []
        for tag, dataset in (("packed", data), ("bigint", bigint_clone)):
            pipe = Pipeline(min_sup=30, corrections=("BH",),
                            scorer="fisher-midp")
            out = tmp_path / f"midp_bh_{tag}.csv"
            rules_to_csv(pipe.run(dataset)["BH"].significant, dataset,
                         str(out))
            paths.append(out)
        assert filecmp.cmp(*paths, shallow=False)


class TestPValueKernelIdentity:
    @pytest.mark.parametrize("scorer", ["fisher", "fisher-midp"])
    @pytest.mark.parametrize("correction", ["BH", "RH_BH", "Perm_FWER"])
    def test_kernel_and_python_twin_csv_identical(
            self, data, tmp_path, monkeypatch, scorer, correction):
        paths = []
        for tag in ("loaded", "twin"):
            if tag == "twin":
                # The twin runs whenever the suite is unavailable.
                monkeypatch.setattr(pvalue_buffer, "load_suite",
                                    lambda: None)
            pipe = Pipeline(min_sup=20, corrections=(correction,),
                            scorer=scorer, n_permutations=40, seed=0)
            out = tmp_path / f"{scorer}_{correction}_{tag}.csv"
            rules_to_csv(pipe.run(data)[correction].significant, data,
                         str(out))
            paths.append(out)
        assert filecmp.cmp(*paths, shallow=False), \
            f"{scorer}/{correction}: native kernel != Python twin"


class TestMinerPolicyIdentity:
    @pytest.mark.parametrize("algorithm", MINERS)
    def test_packed_policy_matches_bitset_arm(self, data, algorithm):
        pipe = Pipeline(min_sup=30, corrections=("Perm_FWER",),
                        algorithm=algorithm, n_permutations=40, seed=0)
        ruleset = pipe.run(data).ruleset
        packed = PermutationEngine(ruleset, 40, seed=0).statistics()
        bigint = ReferenceScorer(ruleset, storage="bitset").statistics(
            40, 0)
        for got, want in zip(packed, bigint):
            assert np.array_equal(got, want), \
                f"{algorithm}: packed engine differs from bigint arm"
