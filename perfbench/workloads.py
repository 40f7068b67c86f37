"""Workload definitions and the set-up each run measures.

Importing this module imports nothing from ``repro``; :func:`setup`
does, so that a fresh interpreter can time imports, the native kernel
load and dataset loading together.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Fresh interpreters a run times its set-up in (``setup_s``), unless a
#: workload sets ``probes``; the first ``cold_probes`` of them also run
#: one cold job (``first_job_s``).
SETUP_SAMPLES = 4
#: Warm jobs every batch run measures at least, whatever ``--seconds``.
MIN_WARM_JOBS = 3
#: Rules sampled per run for the p-value gap against fisher_exact.
AUDIT_SAMPLE = 300
#: The paper's error budget, used by every workload.
ALPHA = 0.05


@dataclass(frozen=True)
class Batch:
    """One library job shape: ``mine_significant_rules`` + ``rules_to_csv``."""

    name: str
    dataset: str
    min_sup: int
    correction: str
    cold_probes: int
    options: Dict[str, object] = field(default_factory=dict)
    probes: int = SETUP_SAMPLES


@dataclass(frozen=True)
class Service:
    """Datasets registered with the service and their ``min_sup``.

    Measured fresh and repeated jobs run on ``fresh``; every other
    dataset gets one unmeasured job first, so rule queries read
    artifacts of more than one dataset.
    """

    name: str
    datasets: Dict[str, int]
    fresh: str
    cold_probes: int
    probes: int = SETUP_SAMPLES


WORKLOADS = {
    # Direct adjustment: 14,615 rules over n = 8,124, so many
    # coverages exceed the 16 MiB static buffer tier and scoring
    # dominates the job.
    "mushroom-bh": Batch("mushroom-bh", "mushroom", 600, "BH",
                         cold_probes=1),
    # Permutation approach: n = 1,000 keeps every coverage in the
    # static tier, so mining and the permutation pass dominate and the
    # process pool of repro.parallel runs.
    "german-permfwer": Batch(
        "german-permfwer", "german", 60, "permutation-fwer", cold_probes=4,
        options={"n_permutations": 1000, "n_jobs": 2,
                 "backend": "processes"}),
    # Holdout approach: mines and scores a half at min_sup 300, then
    # re-scores the candidates on the other half through a second
    # buffer cache.
    "mushroom-holdout": Batch("mushroom-holdout", "mushroom", 600,
                              "RH_BH", cold_probes=2),
    # The only workload through repro.service: fresh jobs (pipeline
    # plus a store write) beside cached jobs and indexed rule queries.
    # Fresh jobs use hypo: a fresh german job costs about 1 s, which
    # would leave too few requests in a run for a p95.
    "service-mixed": Service("service-mixed",
                             {"german": 60, "hypo": 2000}, fresh="hypo",
                             # Cold service jobs vary most within a run
                             # (store creation, thread hand-offs).
                             probes=5, cold_probes=5),
}


def setup(workload, work_dir: str, tag: str = "main") -> Dict[str, object]:
    """Imports, the native kernel load and dataset loading.

    Returns what the run needs next, with ``load_s``: the time spent
    loading datasets, or registering them with the service. A service
    set-up builds the app on an empty file-backed store
    (``<work_dir>/service-<tag>.db``) and registers its datasets over
    HTTP.
    """
    import time

    from repro._native import load_suite, native_status

    load_suite()
    if isinstance(workload, Batch):
        from repro import mine_significant_rules  # noqa: F401
        from repro.data.uci import load_real_dataset
        from repro.evaluation.export import rules_to_csv  # noqa: F401

        start = time.perf_counter()
        dataset = load_real_dataset(workload.dataset)
        return {"dataset": dataset, "native": native_status(),
                "load_s": time.perf_counter() - start}
    from repro.service import ServiceConfig, ServiceCore, create_app
    from repro.service.testing import ServiceClient

    db_path = os.path.join(work_dir, f"service-{tag}.db")
    remove_store(db_path)
    core = ServiceCore(ServiceConfig(db_path=db_path, workers=1))
    client = ServiceClient(create_app(core=core))
    start = time.perf_counter()
    for name in workload.datasets:
        response = client.post("/v1/datasets",
                               {"name": name, "source": f"builtin:{name}"})
        if response.status_code != 201:
            core.close()
            raise RuntimeError(f"registering {name} failed: "
                               f"{response.status_code} {response.text}")
    return {"core": core, "client": client, "db_path": db_path,
            "native": native_status(),
            "load_s": time.perf_counter() - start}


def remove_store(db_path: Optional[str]) -> None:
    """Delete a service store and its journal, WAL and shm files."""
    if not db_path:
        return
    for base in (db_path, db_path + ".jobs"):
        for suffix in ("", "-wal", "-shm", "-journal"):
            try:
                os.remove(base + suffix)
            except FileNotFoundError:
                pass
