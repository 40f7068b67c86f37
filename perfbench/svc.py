"""The service workload: one client in a closed loop against the app.

The client sends its next request only after the previous one has
completed. A job request is one cycle: ``POST /v1/jobs``, polling
``GET /v1/jobs/<id>`` until the job leaves the queue, then
``GET /v1/jobs/<id>/result.csv``. The app runs in process with one job
worker thread, a file-backed WAL store and its journal, and every run
starts from an empty store.

Rule queries in the mix filter by class. A query by item is timed once
per traced run, for the commonest item on a store of fixed size
(``service.item_query_s``), and is not in the mix: its cost grows with
the square of the stored rule count (0.7 s at 9k stored rules, 25 s at
38k on a 2-core host), so in the mix it would set the length of the
run.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List
from urllib.parse import urlencode

import numpy as np

from measure import Spans, TreeMemory, clock, median, nearest_rank
from workloads import ALPHA, AUDIT_SAMPLE, Service

#: One block of requests; the seed shuffles each block and draws its
#: parameters. Sorted by latency the kinds form three modes: queries
#: (30%), repeated jobs (55%), fresh jobs (15%). The p50 falls inside
#: the repeated-job mode and the p95 inside the fresh-job mode, not on
#: the edge between two modes.
BLOCK = ("fresh",) * 3 + ("repeat",) * 11 + ("query",) * 6
#: A run sends ``--seconds / BLOCK_SECONDS`` blocks, a fixed amount of
#: work, because the store and the job table grow with every request:
#: a time-bounded loop would make memory and store size depend on
#: speed. A block takes 2-2.5 s on a 2-core host.
BLOCK_SECONDS = 1.2
MIN_BLOCKS = 2
QUERY_MAX_Q = 0.05
QUERY_TOP_K = 20


def run(workload: Service, state: Dict[str, object], seed: int,
        seconds: float, traced: bool, work_dir: str,
        between) -> Dict[str, object]:
    """Run the workload; ``between(progress)`` runs between blocks and
    returns the seconds it took, which the loop leaves out."""
    core, client = state["core"], state["client"]
    rng = np.random.default_rng(seed)
    registered = {name: core.registry.get(name).dataset
                  for name in workload.datasets}
    classes = sorted({(name, c) for name, ds in registered.items()
                      for c in ds.class_names})
    spans = Spans()
    requests: List[Dict[str, object]] = []
    fresh_done: List[int] = []
    alphas = set()

    def fresh_params(name: str) -> Dict[str, object]:
        alpha = ALPHA
        while (name, alpha) in alphas:
            alpha = round(float(rng.uniform(0.005, 0.1)), 6)
        alphas.add((name, alpha))
        return {"dataset": name, "min_sup": workload.datasets[name],
                "correction": "BH", "alpha": alpha}

    def query(record, params) -> None:
        record["query"] = params
        response = client.get(f"/v1/rules?{urlencode(params)}")
        _expect(response, 200, "rules query")
        record["rows"] = response.json()["rules"]

    def request(kind: str, on: bool, name: str = workload.fresh,
                params=None) -> Dict[str, object]:
        record: Dict[str, object] = {"kind": kind, "dataset": name,
                                     "traced": on}
        if on:
            record["trace"] = spans.new_trace()
        use = spans.span if on else _no_span
        start = clock()
        try:
            with use("request." + kind):
                if kind == "fresh":
                    record["params"] = fresh_params(name)
                    job_cycle(client, record["params"], record, use)
                elif kind == "repeat":
                    source = fresh_done[int(rng.integers(len(fresh_done)))]
                    record["source"] = source
                    record["params"] = requests[source]["params"]
                    job_cycle(client, record["params"], record, use)
                else:
                    if params is None:
                        _, label = classes[int(rng.integers(len(classes)))]
                        params = {"class": label, "correction": "BH",
                                  "max_q": QUERY_MAX_Q,
                                  "top_k": QUERY_TOP_K}
                    query(record, params)
            record["seconds"] = clock() - start
        except Exception as exc:  # a failed request is counted
            record["error"] = f"{type(exc).__name__}: {exc}"
        requests.append(record)
        if (kind == "fresh" and name == workload.fresh
                and "csv" in record):
            fresh_done.append(len(requests) - 1)
        return record

    try:
        with TreeMemory() as memory:
            request("fresh", False)  # the cold first job
            for name in workload.datasets:
                if name != workload.fresh:
                    request("fresh", False, name)  # store content
            item_query = None
            if traced:
                item_query = request("query", True, params={
                    "item": _commonest_item(registered), "correction": "BH",
                    "max_q": QUERY_MAX_Q, "top_k": QUERY_TOP_K})
            warmup = len(requests)
            began = clock()
            paused = 0.0
            blocks = max(MIN_BLOCKS, round(seconds / BLOCK_SECONDS))
            for block in range(blocks):
                on = traced and block % 2 == 0
                for index in rng.permutation(len(BLOCK)):
                    request(BLOCK[index], on)
                with memory.paused():
                    paused += between((block + 1) / blocks)
            elapsed = clock() - began - paused
        service_stats = client.get("/v1/service").json()
        first_payload = client.get(
            f"/v1/jobs/{requests[0].get('job_id')}/result").json()
    finally:
        core.close()

    check_start = clock()
    check = _check(workload, registered, requests, seed)
    check["check_s"] = clock() - check_start
    failed = sum(1 for r in requests if r.get("failed"))
    measured = [r for r in requests[warmup:] if "seconds" in r]
    plain = [r for r in measured if not r["traced"]]
    job_s = median([r["seconds"] for r in plain if r["kind"] == "fresh"])
    n_tested = first_payload.get("payload", {}).get("n_rules_tested", 0)
    latencies = [r["seconds"] for r in plain]
    result = {
        "attempted": len(requests),
        "failed": failed,
        "e2e": {
            "first_job_s": requests[0].get("seconds", 0.0),
            "job_s": job_s,
            "rules_per_s": n_tested / job_s if job_s else 0.0,
            "peak_rss_mb": memory.peak_mb,
            "request_s_p50": nearest_rank(latencies, 0.50),
            "request_s_p95": nearest_rank(latencies, 0.95),
            "requests_per_s": len(requests[warmup:]) / elapsed,
        },
        "reference_csv": requests[0].get("csv"),
        "info": {"requests": len(requests), "blocks": blocks,
                 "loop_s": elapsed,
                 "latency_samples": len(latencies), "n_tested": n_tested,
                 "errors": [r["error"] for r in requests
                            if "error" in r][:5],
                 **check},
        "layers": {},
    }
    if traced:
        result["layers"] = _layers(requests[warmup:], spans, job_s, state,
                                   service_stats, check, memory,
                                   item_query)
        spans.write(f"{work_dir}/trace-{workload.name}-seed{seed}.json")
    return result


def _no_span(name: str):
    return contextlib.nullcontext()


def job_cycle(client, params, record, span=_no_span) -> None:
    """Submit one mine job, poll until it leaves the queue, fetch its CSV."""
    with span("submit"):
        response = client.post("/v1/jobs", {"kind": "mine", "params": params})
    _expect(response, 201, "submit")
    job_id = response.json()["job_id"]
    record["job_id"] = job_id
    with span("wait"):
        submitted, delay = clock(), 0.0005
        while True:
            info = client.get(f"/v1/jobs/{job_id}").json()
            if info["state"] not in ("queued", "running"):
                break
            time.sleep(delay)
            # Poll finely while a cached job may finish (a coarse step
            # would quantise its latency), then back off so polling
            # takes little from a fresh job's worker thread.
            cap = 0.002 if clock() - submitted < 0.1 else 0.008
            delay = min(2 * delay, cap)
    if info["state"] != "done":
        raise RuntimeError(f"job {job_id} ended {info['state']}: "
                           f"{info.get('error')}")
    record["cached"] = info["cached"]
    with span("fetch"):
        response = client.get(f"/v1/jobs/{job_id}/result.csv")
    _expect(response, 200, "result.csv")
    record["csv"] = response.content


def cold_job(workload: Service, state, seed: int, work_dir: str):
    """The first fresh job of a fresh process: (seconds, CSV bytes)."""
    params = {"dataset": workload.fresh,
              "min_sup": workload.datasets[workload.fresh],
              "correction": "BH", "alpha": ALPHA}
    record: Dict[str, object] = {}
    start = clock()
    job_cycle(state["client"], params, record)
    return clock() - start, record["csv"]


def _commonest_item(registered) -> str:
    """The item with the largest support in any registered dataset."""
    return max((dataset.item_support(i), str(dataset.catalog.item(i)))
               for dataset in registered.values()
               for i in range(dataset.n_items))[1]


def _expect(response, status: int, what: str) -> None:
    if response.status_code != status:
        raise RuntimeError(f"{what} returned {response.status_code}: "
                           f"{response.text[:200]}")


def _check(workload: Service, registered, requests, seed: int,
           ) -> Dict[str, object]:
    """Mark failed requests; return the oracle's findings.

    A fresh job's CSV must pass the record recount and match the BH set
    scipy gives at its alpha; a repeated job must be a cache hit with
    the same bytes; a query must honour every filter it asked for.
    """
    import oracle
    from repro import mine_significant_rules

    rng = np.random.default_rng(seed)
    scored, counters, audits = {}, {}, []
    problems: List[str] = []
    for name, min_sup in workload.datasets.items():
        dataset = registered[name]
        counters[name] = oracle.RecordCounter(dataset)
        report = mine_significant_rules(dataset, min_sup=min_sup,
                                        correction="BH")
        scored[name] = oracle.ScoredRules(dataset, report.ruleset.rules,
                                          counters[name])
        audits.append(scored[name].audit_sample(
            rng, AUDIT_SAMPLE // len(workload.datasets)))
        problems += scored[name].problems
    for record in requests:
        found = [] if "error" in record else _problems(
            record, requests, scored, counters)
        if "error" in record or found:
            record["failed"] = True
        problems += found
    return {"problems": problems[:10], "audit": oracle.merge_audits(audits)}


def _problems(record, requests, scored, counters) -> List[str]:
    import oracle

    kind = record["kind"]
    if kind == "query":
        asked = record["query"]
        rows = record["rows"]
        found = []
        if len(rows) > QUERY_TOP_K:
            found.append(f"query returned {len(rows)} > {QUERY_TOP_K} rows")
        lifts = [row["lift"] for row in rows if row["lift"] is not None]
        if lifts != sorted(lifts, reverse=True):
            found.append("query rows not ordered by lift")
        for row in rows:
            pairs = ["=".join(p) for p in oracle.parse_rule(row["rule"])]
            if (row["correction"] != "bh" or row["q_value"] is None
                    or row["q_value"] > asked["max_q"]
                    or asked.get("class", row["class"]) != row["class"]
                    or asked.get("item", pairs[0]) not in pairs):
                found.append(f"query row {row['rule']} breaks {asked}")
        return found
    if kind == "repeat":
        source = requests[record["source"]]
        if not record["cached"] or record["csv"] != source["csv"]:
            return [f"repeated job {record['job_id']} was not the cached "
                    f"bytes of {source['job_id']}"]
        return []
    name = record["params"]["dataset"]
    found = [] if not record["cached"] else [
        f"fresh job {record['job_id']} came from the cache"]
    found += oracle.check_csv_rows(record["csv"], counters[name])
    found += oracle.compare_sets(
        scored[name].bh_keys(record["params"]["alpha"]),
        oracle.csv_keys(record["csv"]),
        f"{name} alpha={record['params']['alpha']} BH set vs scipy")
    return found


def _layers(measured, spans: Spans, job_s: float, state, service_stats,
            check, memory, item_query) -> Dict[str, float]:
    from repro.parallel import global_breaker

    traced = [r for r in measured if r["traced"] and "seconds" in r]

    def span_median(kinds, name: str) -> float:
        return median([spans.durations(r["trace"]).get(name, 0.0)
                       for r in traced if r["kind"] in kinds])

    jobs = service_stats["jobs"]
    served = jobs["cache_hits"] + jobs["executed"]
    traced_s = span_median(("fresh",), "request.fresh")
    return {
        "data.load_s": state["load_s"],
        "stats.p_max_rel_err": check["audit"]["p_max_rel_err"],
        "parallel.worker_rss_mb": memory.worker_peak_mb,
        "parallel.breaker_state": float(global_breaker().state()["level"]),
        "evaluation.render_s": span_median(("fresh", "repeat"), "fetch"),
        "evaluation.csv_bytes": median([len(r["csv"]) for r in traced
                                        if r["kind"] == "fresh"]),
        "service.fresh_job_s": traced_s,
        "service.cached_job_s": span_median(("repeat",), "request.repeat"),
        "service.rules_query_s": span_median(("query",), "request.query"),
        "service.item_query_s": item_query.get("seconds", 0.0),
        "service.store_hit_rate": (jobs["cache_hits"] / served
                                   if served else 0.0),
        "service.fresh_share": (sum(r["kind"] == "fresh" for r in measured)
                                / len(measured)),
        "trace.job_s": traced_s,
        "trace.untraced_job_s": job_s,
        "trace.overhead_s": traced_s - job_s,
        "trace.stage_sum_s": median([
            spans.child_sum(r["trace"], "request.fresh") for r in traced
            if r["kind"] == "fresh"]),
    }
