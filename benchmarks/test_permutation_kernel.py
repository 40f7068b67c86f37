"""Old-vs-new class-support kernels and the batched permutation pass.

The PR-4 tentpole replaced the permutation engine's counting kernel —
a Python loop over arbitrary-precision-int ``popcount(t & class_bits)``
per forest node (the ``"bitset"`` storage, now the bigint arm of
:mod:`repro.ablation`) — with the packed uint64
:class:`~repro.bitmat.BitMatrix`: the whole forest answers one
labelling, or a whole *batch* of labellings, through C-level
``bitwise_and`` + ``bitwise_count`` + row sums.

This bench times both kernels head-to-head on a 1000-pattern × 10k-
record forest (the acceptance gate: the batch kernel must be >= 5x the
bigint loop per labelling) and the end-to-end permutation pass of the
bigint reference arm against the packed engine, then rewrites the repo-root ``BENCH_permutation.json``
artifact with this run's numbers — the first entry of the repo's perf
trajectory; CI archives one per commit (``REPRO_BENCH_JSON``
overrides the path).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _scale import banner, bench_envelope, current_scale, write_bench
from repro import bitset as bs
from repro.ablation import ReferenceForest, ReferenceScorer
from repro.bitmat import BitMatrix
from repro.corrections import PermutationEngine
from repro.data import GeneratorConfig, generate
from repro.mining import mine_class_rules
from repro.mining.patterns import Pattern

KERNEL_PATTERNS = 1000
KERNEL_RECORDS = 10_000
KERNEL_BATCH = 64
SEED = 2024

DEFAULT_OUT = Path(__file__).resolve().parents[1] / \
    "BENCH_permutation.json"


def _synthetic_forest(n_patterns: int, n_records: int, seed: int):
    """A flat DFS forest of random ~10%-density tidsets.

    Kernel timing needs controlled shape, not mined structure: every
    node is a root, so both kernels store exactly ``n_patterns``
    tidsets of the same universe.
    """
    rng = np.random.default_rng(seed)
    patterns = []
    for node_id in range(n_patterns):
        flags = rng.random(n_records) < 0.1
        tidset = bs.from_numpy_bool(flags)
        patterns.append(Pattern(
            node_id=node_id, parent_id=-1,
            items=frozenset((node_id,)), tidset=tidset,
            support=int(flags.sum()), depth=0))
    indicator = rng.random(n_records) < 0.5
    return patterns, indicator


def _timed_repeat(fn, repeats: int = 3):
    """Best-of-N wall clock (seconds) and the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_permutation_kernel():
    scale = current_scale()

    # ------------------------------------------------------------- #
    # kernel head-to-head: 1000 patterns x 10k records               #
    # ------------------------------------------------------------- #
    patterns, indicator = _synthetic_forest(KERNEL_PATTERNS,
                                            KERNEL_RECORDS, SEED)
    bigint_forest = ReferenceForest(patterns, KERNEL_RECORDS, "bitset")
    packed_forest = BitMatrix.from_tidsets(
        [p.tidset for p in patterns], KERNEL_RECORDS)

    bigint_seconds, bigint_out = _timed_repeat(
        lambda: bigint_forest.class_supports(indicator))
    packed_seconds, packed_out = _timed_repeat(
        lambda: packed_forest.class_supports(indicator))
    assert (bigint_out == packed_out).all()

    rng = np.random.default_rng(SEED + 1)
    batch = np.stack([rng.permutation(indicator)
                      for _ in range(KERNEL_BATCH)])
    batch_seconds, batch_out = _timed_repeat(
        lambda: packed_forest.class_supports_batch(batch))
    batch_per_labelling = batch_seconds / KERNEL_BATCH
    assert (batch_out[0]
            == bigint_forest.class_supports(batch[0])).all()

    speedup_single = bigint_seconds / max(packed_seconds, 1e-12)
    speedup_batch = bigint_seconds / max(batch_per_labelling, 1e-12)

    # ------------------------------------------------------------- #
    # end-to-end permutation pass, bigint arm vs packed engine       #
    # ------------------------------------------------------------- #
    config = GeneratorConfig(
        n_records=scale.synth_records, n_attributes=24, n_rules=2,
        min_coverage=scale.synth_records // 5,
        max_coverage=scale.synth_records // 4,
        min_confidence=0.7, max_confidence=0.9)
    ruleset = mine_class_rules(generate(config, seed=SEED).dataset,
                               scale.synth_records // 5)
    n_perm = scale.runtime_permutations
    scorer = ReferenceScorer(ruleset, storage="bitset")
    engine = PermutationEngine(ruleset, n_permutations=n_perm, seed=SEED)
    bigint_seconds_e2e, reference = _timed_repeat(
        lambda: scorer.statistics(n_perm, SEED)[0], repeats=1)
    packed_seconds_e2e, _ = _timed_repeat(engine.run, repeats=1)
    # Hard guarantee: the two arms are bit-identical.
    assert (engine.min_p_distribution() == reference).all()
    end_to_end = {
        policy: {"seconds": seconds,
                 "ms_per_permutation": seconds * 1000 / n_perm}
        for policy, seconds in (("bitset", bigint_seconds_e2e),
                                ("packed", packed_seconds_e2e))
    }
    end_to_end_speedup = (end_to_end["bitset"]["seconds"]
                          / max(end_to_end["packed"]["seconds"], 1e-12))

    record = bench_envelope(
        "permutation_kernel",
        gates={
            "speedup_batch": {"value": speedup_batch, "min": 5.0},
        },
        metrics={
            "kernel": {
                "n_patterns": KERNEL_PATTERNS,
                "n_records": KERNEL_RECORDS,
                "batch_size": KERNEL_BATCH,
                "bigint_ms_per_labelling": bigint_seconds * 1000,
                "packed_ms_per_labelling": packed_seconds * 1000,
                "packed_batch_ms_per_labelling":
                    batch_per_labelling * 1000,
                "speedup_single": speedup_single,
                "speedup_batch": speedup_batch,
            },
            "end_to_end": {
                "n_permutations": n_perm,
                "n_rules": ruleset.n_tests,
                "n_records": scale.synth_records,
                "policies": end_to_end,
                "packed_speedup": end_to_end_speedup,
            },
        },
    )
    out_path = write_bench(record, str(DEFAULT_OUT))

    lines = [
        f"kernel ({KERNEL_PATTERNS} patterns x {KERNEL_RECORDS} "
        f"records):",
        f"  bigint loop:   {bigint_seconds * 1000:8.3f} ms/labelling",
        f"  packed single: {packed_seconds * 1000:8.3f} ms/labelling "
        f"({speedup_single:.1f}x)",
        f"  packed batch:  {batch_per_labelling * 1000:8.3f} "
        f"ms/labelling ({speedup_batch:.1f}x, B={KERNEL_BATCH})",
        f"end-to-end ({n_perm} permutations, {ruleset.n_tests} rules):",
        f"  bitset arm:    "
        f"{end_to_end['bitset']['ms_per_permutation']:8.3f} ms/perm",
        f"  packed engine: "
        f"{end_to_end['packed']['ms_per_permutation']:8.3f} ms/perm "
        f"({end_to_end_speedup:.1f}x)",
    ]
    print()
    print(banner("permutation kernel: bigint loop vs packed uint64",
                 "\n".join(lines)))
    print(f"wrote {out_path}")

    # The acceptance gate: on the 1000x10k forest the batched packed
    # kernel replaces ~n_patterns bigint AND+popcount calls per
    # labelling with a few array ops — anything under 5x means the
    # kernel regressed.
    assert speedup_batch >= 5.0, (
        f"packed batch kernel only {speedup_batch:.1f}x over the "
        f"bigint loop")
