"""The three batch workloads: one library job after another.

An untraced job is exactly what ``repro mine ... --csv-out`` does:
``mine_significant_rules`` then ``rules_to_csv``. A traced job runs the
same configuration by stepping through ``Pipeline.stages()`` itself,
timing each call the benchmark makes into a layer.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List

import numpy as np

from measure import Spans, TreeMemory, clock, median
from workloads import ALPHA, AUDIT_SAMPLE, MIN_WARM_JOBS, Batch


def run(workload: Batch, state: Dict[str, object], seed: int,
        seconds: float, traced: bool, work_dir: str,
        between) -> Dict[str, object]:
    """Run the workload; ``between(progress)`` runs between jobs and
    returns the seconds it took, which the loop leaves out."""
    dataset = state["dataset"]
    csv_path = os.path.join(work_dir, f"{workload.name}-{os.getpid()}.csv")
    jobs: List[Dict[str, object]] = []
    spans = Spans()

    def attempt(kind: str) -> None:
        record: Dict[str, object] = {"kind": kind}
        start = clock()
        try:
            if kind == "traced":
                record.update(_traced_job(workload, dataset, seed,
                                          csv_path, spans))
            else:
                report = _job(workload, dataset, seed, csv_path)
                if not jobs:
                    # Only the first report is checked. Keeping every
                    # job's rules alive would grow the heap, and with
                    # it garbage-collection time, from job to job.
                    record["report"] = report
            record["seconds"] = clock() - start
            with open(csv_path, "rb") as handle:
                record["csv"] = handle.read()
        except Exception as exc:  # a failed job is counted, not fatal
            record["error"] = f"{type(exc).__name__}: {exc}"
        jobs.append(record)

    with TreeMemory() as memory:
        began = clock()
        paused = 0.0
        attempt("cold")
        warm = 0
        while warm < MIN_WARM_JOBS or clock() - began - paused < seconds:
            # Traced runs alternate so both kinds see the same drift.
            attempt("traced" if traced and warm % 2 == 0 else "untraced")
            warm += 1
            with memory.paused():
                paused += between((clock() - began - paused) / seconds)
        elapsed = clock() - began - paused
    peak_mb, worker_mb = memory.peak_mb, memory.worker_peak_mb

    check_start = clock()
    check = _check(workload, dataset, seed, jobs, csv_path)
    check["check_s"] = clock() - check_start
    failed = sum(1 for job in jobs if job.get("failed"))
    ok = [job for job in jobs if "seconds" in job]
    job_s = median([j["seconds"] for j in ok if j["kind"] == "untraced"])
    first = jobs[0].get("seconds", 0.0)
    reference = jobs[0].get("report")
    n_tested = reference.n_tested if reference is not None else 0
    n_hypotheses = (n_tested if reference is None
                    or reference.ruleset is not None
                    else _full_hypotheses(workload, dataset))
    result = {
        "reference_csv": jobs[0].get("csv"),
        "attempted": len(jobs),
        "failed": failed,
        "e2e": {
            "first_job_s": first,
            "job_s": job_s,
            "rules_per_s": n_hypotheses / job_s if job_s else 0.0,
            "peak_rss_mb": peak_mb,
            # Each job is one request. A run holds too few jobs for a
            # tail percentile with ten samples beyond it, so both
            # report the median.
            "request_s_p50": job_s,
            "request_s_p95": job_s,
            "requests_per_s": len(ok) / elapsed,
        },
        "info": {"jobs": [{k: v for k, v in j.items()
                           if k in ("kind", "seconds", "error", "failed")}
                          for j in jobs],
                 "n_tested": n_tested, "n_hypotheses": n_hypotheses,
                 **check},
        "layers": {},
    }
    if traced:
        result["layers"] = _layers(jobs, spans, job_s, worker_mb,
                                   state["load_s"], check)
        spans.write(os.path.join(
            work_dir, f"trace-{workload.name}-seed{seed}.json"))
    try:
        os.remove(csv_path)
    except FileNotFoundError:
        pass
    return result


def cold_job(workload: Batch, state, seed: int, work_dir: str):
    """The first job of a fresh process: (seconds, CSV bytes)."""
    csv_path = os.path.join(work_dir, f"{workload.name}-{os.getpid()}.csv")
    start = clock()
    _job(workload, state["dataset"], seed, csv_path)
    seconds = clock() - start
    with open(csv_path, "rb") as handle:
        data = handle.read()
    os.remove(csv_path)
    return seconds, data


def _job(workload: Batch, dataset, seed: int, csv_path: str):
    from repro import mine_significant_rules
    from repro.evaluation.export import rules_to_csv

    report = mine_significant_rules(dataset, min_sup=workload.min_sup,
                                    correction=workload.correction,
                                    alpha=ALPHA, seed=seed,
                                    **workload.options)
    rules_to_csv(report.significant, dataset, csv_path)
    return report


def _full_hypotheses(workload: Batch, dataset) -> int:
    """Rules direct adjustment would test on the whole dataset.

    A holdout job tests only its candidates, whose count moves by about
    20% with the split the seed draws; ``rules_per_s`` divides by this
    fixed count instead, so it tracks speed and not the split. Mining
    alone gives it: one rule per pattern with two classes, one per
    class otherwise.
    """
    from repro.mining.registry import resolve_miner

    patterns = resolve_miner("closed").mine(dataset, workload.min_sup)
    per_pattern = 1 if dataset.n_classes == 2 else dataset.n_classes
    return per_pattern * sum(1 for p in patterns.patterns if p.items)


def _cache_counts(caches) -> Dict[str, int]:
    stats = [cache.stats for cache in caches.values()]
    return {"builds": sum(s.static_misses + s.dynamic_misses
                          for s in stats),
            "dynamic_misses": sum(s.dynamic_misses for s in stats),
            "hits": sum(s.static_hits + s.dynamic_hits for s in stats)}


def _traced_job(workload: Batch, dataset, seed: int, csv_path: str,
                spans: Spans) -> Dict[str, object]:
    """One job stepped stage by stage, with a span around each call."""
    from repro import Pipeline
    from repro.core.pipeline import CorrectStage, PipelineState
    from repro.evaluation.export import rules_to_csv

    trace = spans.new_trace()
    counts: Dict[str, object] = {}
    with spans.span("job"):
        pipeline = Pipeline(min_sup=workload.min_sup,
                            corrections=(workload.correction,),
                            alpha=ALPHA, seed=seed, **workload.options)
        ctx = pipeline.context(dataset)
        state = PipelineState()
        specs = [resolved.spec for resolved in pipeline.resolved]
        holdout_only = all(spec.needs_holdout for spec in specs)
        for stage in pipeline.stages():
            if not isinstance(stage, CorrectStage):
                if holdout_only:
                    continue  # Pipeline.run skips the prefix too
                with spans.span(stage.name):
                    state = stage.run(ctx, state)
                if stage.name == "mine":
                    counts["n_patterns"] = state.n_patterns_mined
                if stage.name == "score":
                    rules = state.ruleset.rules
                    counts["score"] = _cache_counts(state.ruleset.caches)
                    counts["n_rules"] = len(rules)
                    counts["n_coverages"] = len({r.coverage for r in rules})
                continue
            with spans.span("correct"):
                if any(spec.needs_permutations for spec in specs):
                    before = _cache_counts(state.ruleset.caches)["builds"]
                    with spans.span("correct.perm_build"):
                        engine = ctx.permutation_engine(state.ruleset)
                    counts["perm_build_buffer_builds"] = (
                        _cache_counts(state.ruleset.caches)["builds"]
                        - before)
                    with spans.span("correct.perm_run"):
                        engine.run()
                    counts["n_permutations"] = engine.n_permutations
                if any(spec.needs_holdout for spec in specs):
                    with spans.span("correct.holdout"):
                        holdout = ctx.holdout_run()
                    counts["holdout_candidates"] = len(holdout.candidates)
                    counts["holdout_buffer_builds"] = _cache_counts(
                        holdout.exploratory_rules.caches)["builds"]
                with spans.span("correct.stage"):
                    state = stage.run(ctx, state)
        result = state.results[workload.correction]
        with spans.span("render"):
            rules_to_csv(result.significant, dataset, csv_path)
    counts["csv_bytes"] = os.path.getsize(csv_path)
    return {"trace": trace, "counts": counts}


def _check(workload: Batch, dataset, seed: int, jobs, csv_path: str,
           ) -> Dict[str, object]:
    """Mark failed jobs; return what the checks found, for the info line.

    Every job must reproduce the first job's CSV byte for byte, and
    that CSV must pass the oracle, or every job that produced it fails.
    """
    import oracle

    reference = jobs[0].get("csv")
    for job in jobs:
        if "error" in job or job.get("csv") != reference:
            job["failed"] = True
    if reference is None:
        return {"problems": ["the first job failed"]}
    rng = np.random.default_rng(seed)
    got = oracle.csv_keys(reference)
    report = jobs[0]["report"]
    if workload.correction == "RH_BH":
        audit, problems = _check_holdout(workload, dataset, seed,
                                         reference, got, csv_path, rng)
    else:
        counter = oracle.RecordCounter(dataset)
        problems = oracle.check_csv_rows(reference, counter)
        scored = oracle.ScoredRules(dataset, report.ruleset.rules, counter)
        problems += scored.problems
        audit = scored.audit_sample(rng, AUDIT_SAMPLE)
        if workload.correction == "BH":
            problems += oracle.compare_sets(scored.bh_keys(ALPHA), got,
                                            "BH set vs scipy")
    if workload.options.get("backend") == "processes":
        serial = replace(workload, options=dict(
            workload.options, n_jobs=1, backend="serial"))
        _job(serial, dataset, seed, csv_path)
        with open(csv_path, "rb") as handle:
            if handle.read() != reference:
                problems.append("processes and serial CSVs differ")
    if problems:
        for job in jobs:
            if job.get("csv") == reference:
                job["failed"] = True
    return {"problems": problems[:10], "audit": audit}


def _check_holdout(workload: Batch, dataset, seed: int, reference: bytes,
                   got, csv_path: str, rng):
    """Holdout-FDR: rebuild the split through the public context and
    check the candidate screen and the evaluation-half decision."""
    import oracle
    from repro import Pipeline
    from repro.evaluation.export import rules_to_csv

    problems: List[str] = []
    pipeline = Pipeline(min_sup=workload.min_sup,
                        corrections=(workload.correction,),
                        alpha=ALPHA, seed=seed)
    run = pipeline.context(dataset).holdout_run()
    rules_to_csv(run.benjamini_hochberg(ALPHA).significant, dataset,
                 csv_path)
    with open(csv_path, "rb") as handle:
        if handle.read() != reference:
            problems.append("job CSV differs from the rebuilt split's")
    explored = oracle.ScoredRules(run.exploratory,
                                  run.exploratory_rules.rules,
                                  oracle.RecordCounter(run.exploratory))
    problems += explored.problems
    describe = run.exploratory.catalog.describe_pattern
    names = run.exploratory.class_names
    candidates = {(describe(r.items), names[r.class_index])
                  for r in run.candidates}
    problems += oracle.compare_sets(explored.keys_below(ALPHA), candidates,
                                    "candidate screen vs scipy")
    evaluation_counter = oracle.RecordCounter(run.evaluation)
    evaluated = oracle.ScoredRules(run.evaluation,
                                   [scored for _, scored in run.evaluated],
                                   evaluation_counter)
    problems += evaluated.problems
    problems += oracle.check_csv_rows(reference, evaluation_counter)
    problems += oracle.compare_sets(evaluated.bh_keys(ALPHA), got,
                                    "holdout BH set vs scipy")
    return evaluated.audit_sample(rng, AUDIT_SAMPLE), problems


def _layers(jobs, spans: Spans, job_s: float, worker_mb: float,
            load_s: float, info: Dict[str, object]) -> Dict[str, float]:
    """Per-layer medians over the traced jobs."""
    from repro.parallel import global_breaker

    traced = [j for j in jobs if j["kind"] == "traced" and "seconds" in j]

    def span_median(name: str) -> float:
        return median([spans.durations(j["trace"]).get(name, 0.0)
                       for j in traced])

    def count(name: str, default: float = 0.0) -> float:
        values = [j["counts"][name] for j in traced if name in j["counts"]]
        return float(median(values)) if values else default

    score = [j["counts"]["score"] for j in traced if "score" in j["counts"]]
    builds = median([s["builds"] for s in score])
    hits = median([s["hits"] for s in score])
    perm_run_s = span_median("correct.perm_run")
    traced_s = median([j["seconds"] for j in traced])
    audit = info.get("audit", {})
    return {
        "data.load_s": load_s,
        "mining.mine_s": span_median("mine"),
        "mining.n_patterns": count("n_patterns"),
        "stats.score_s": span_median("score"),
        "stats.n_rules": count("n_rules"),
        "stats.n_coverages": count("n_coverages"),
        "stats.buffer_builds": builds,
        "stats.dynamic_misses": median([s["dynamic_misses"]
                                        for s in score]),
        "stats.buffer_hit_rate": (hits / (hits + builds)
                                  if hits + builds else 0.0),
        "stats.p_max_rel_err": audit.get("p_max_rel_err", 0.0),
        "corrections.perm_build_s": span_median("correct.perm_build"),
        "corrections.perm_build_buffer_builds":
            count("perm_build_buffer_builds"),
        "corrections.perm_run_s": perm_run_s,
        "corrections.perms_per_s": (count("n_permutations") / perm_run_s
                                    if perm_run_s else 0.0),
        "corrections.holdout_s": span_median("correct.holdout"),
        "corrections.holdout_candidates": count("holdout_candidates"),
        "corrections.holdout_buffer_builds": count("holdout_buffer_builds"),
        "corrections.correct_s": span_median("correct.stage"),
        "parallel.worker_rss_mb": worker_mb,
        "parallel.breaker_state": float(global_breaker().state()["level"]),
        "evaluation.render_s": span_median("render"),
        "evaluation.csv_bytes": count("csv_bytes"),
        "trace.job_s": traced_s,
        "trace.untraced_job_s": job_s,
        "trace.overhead_s": traced_s - job_s,
        "trace.stage_sum_s": median([spans.child_sum(j["trace"], "job")
                                     for j in traced]),
    }
