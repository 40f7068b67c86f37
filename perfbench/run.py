"""End-to-end benchmark of the paper's three correction approaches.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mushroom-bh --seed 1 \\
        --seconds 12 --trace 0

Each run checks the native kernel is built, times several cold
set-ups in fresh interpreters (some also run a cold first job),
then runs the workload for ``--seconds`` and checks every output
against an independent oracle.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it, ``{"info": ...}``, records the environment (native kernel
status, core count, versions) and what the checks found.

Scratch files go to ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

import measure
from workloads import WORKLOADS, Batch, setup

#: name -> unit; the same lists as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "first_job_s": "s",
    "job_s": "s",
    "rules_per_s": "hypotheses/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "request_s_p50": "s",
    "request_s_p95": "s",
    "requests_per_s": "1/s",
}
PER_LAYER = {
    "data.load_s": "s",
    "mining.mine_s": "s",
    "mining.n_patterns": "count",
    "stats.score_s": "s",
    "stats.n_rules": "count",
    "stats.n_coverages": "count",
    "stats.buffer_builds": "count",
    "stats.dynamic_misses": "count",
    "stats.buffer_hit_rate": "fraction",
    "stats.p_max_rel_err": "fraction",
    "corrections.perm_build_s": "s",
    "corrections.perm_build_buffer_builds": "count",
    "corrections.perm_run_s": "s",
    "corrections.perms_per_s": "1/s",
    "corrections.holdout_s": "s",
    "corrections.holdout_candidates": "count",
    "corrections.holdout_buffer_builds": "count",
    "corrections.correct_s": "s",
    "parallel.worker_rss_mb": "MB",
    "parallel.breaker_state": "level",
    "evaluation.render_s": "s",
    "evaluation.csv_bytes": "bytes",
    "service.fresh_job_s": "s",
    "service.cached_job_s": "s",
    "service.rules_query_s": "s",
    "service.item_query_s": "s",
    "service.store_hit_rate": "fraction",
    "service.fresh_share": "fraction",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
    "trace.stage_sum_s": "s",
}


def _probe(args, timeout: float = 300.0) -> dict:
    """Run ``probe.py`` in a fresh interpreter; its JSON line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")), *args],
        capture_output=True, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class Probes:
    """A run's set-up probes, spread evenly over its measured loop.

    The host's speed drifts over tens of seconds; probes taken all at
    once would sample one moment of it, while the warm jobs they are
    compared with span the whole run.
    """

    def __init__(self, name: str, seed: int, count: int, cold: int) -> None:
        self.pending = [["setup", name, str(seed), "1" if i < cold else "0"]
                        for i in range(count)]
        self.count = count
        self.results = []

    def step(self, progress: float) -> float:
        """Run the probes due at ``progress`` (share of the loop done);
        return the seconds they took, which the loop leaves out."""
        start = measure.clock()
        due = int(progress * (self.count + 1))
        while self.pending and len(self.results) < due:
            self.results.append(_probe(self.pending.pop(0)))
        return measure.clock() - start

    def finish(self) -> None:
        self.step(1.0)  # every probe is due at the end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep every file the library or its workers write inside the
    # checkout, and run without fault injection or plugins.
    os.environ.update({
        "PERFBENCH_WORK": str(work),
        "REPRO_NATIVE_CACHE": str(work / "native"),
        "REPRO_SERVICE_FRAMEWORK": "builtin",
        "TMPDIR": str(work / "tmp"),
        "PYTHONPATH": os.pathsep.join(
            [str(src)] + [p for p in os.environ.get("PYTHONPATH", "")
                          .split(os.pathsep) if p]),
    })
    for name in ("REPRO_FAULTS", "REPRO_PLUGINS"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload]
    build = _probe(["build"], timeout=900.0)
    probes = Probes(args.workload, args.seed, workload.probes,
                    workload.cold_probes)
    state = setup(workload, str(work))
    import numpy
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {src}", file=sys.stderr)
        return 2
    if isinstance(workload, Batch):
        import batch as runner
    else:
        import svc as runner
    try:
        outcome = runner.run(workload, state, args.seed, args.seconds,
                             bool(args.trace), str(work), probes.step)
        probes.finish()
    finally:
        measure.wait_for_children()
    # Cold jobs in fresh interpreters count like the run's own cold
    # job: same output, and one more sample of first_job_s.
    reference = outcome["reference_csv"]
    digest = hashlib.sha256(reference).hexdigest() if reference else None
    colds = [p for p in probes.results if "cold_s" in p or "cold_error" in p]
    outcome["attempted"] += len(colds)
    outcome["failed"] += sum(p.get("csv_sha256") != digest for p in colds)
    e2e = outcome["e2e"]
    e2e["first_job_s"] = measure.median(
        [e2e["first_job_s"]] + [p["cold_s"] for p in colds if "cold_s" in p])
    e2e["setup_s"] = measure.median([p["setup_s"] for p in probes.results])
    e2e["ok_frac"] = 1.0 - outcome["failed"] / outcome["attempted"]

    table = PER_LAYER if args.trace else END_TO_END
    values = outcome["layers"] if args.trace else outcome["e2e"]
    # A layer the workload never calls reads 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in table.items()}
    info = {
        "workload": args.workload, "seed": args.seed,
        "native": state["native"], "native_build": build,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "setup_samples_s": [p["setup_s"] for p in probes.results],
        "cold_samples_s": [p.get("cold_s") for p in colds],
        "cold_errors": [p["cold_error"] for p in colds
                        if "cold_error" in p],
        "failed_frac": outcome["failed"] / outcome["attempted"],
        **outcome["info"],
    }
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({"correct": outcome["failed"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
