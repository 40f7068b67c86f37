"""One cold set-up in a fresh interpreter; prints its times as JSON.

``python3 perfbench/probe.py build`` loads (and on the first use in a
checkout compiles) the native kernel suite.

``python3 perfbench/probe.py setup <workload> <seed> <cold>`` times
imports, the native kernel load and dataset loading the way a fresh
``repro mine`` process pays them; with ``<cold>`` = 1 it then runs the
workload's first job and reports its time and a digest of its CSV.

The caller sets ``PYTHONPATH`` to the checkout's ``src`` and
``PERFBENCH_WORK`` to the scratch directory.
"""

import sys
import time

START = time.perf_counter()


def main(argv) -> int:
    import json
    import os

    work_dir = os.environ["PERFBENCH_WORK"]
    if argv[:1] == ["build"]:
        from repro._native import load_suite, native_status

        load_suite()
        print(json.dumps({"build_s": time.perf_counter() - START,
                          "native": native_status()}))
        return 0
    if len(argv) != 4 or argv[0] != "setup":
        print("usage: probe.py build | setup <workload> <seed> <cold>",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Batch, remove_store, setup

    workload = WORKLOADS[argv[1]]
    state = setup(workload, work_dir, tag=f"probe-{os.getpid()}")
    report = {"setup_s": time.perf_counter() - START,
              "native": state["native"]}
    try:
        if argv[3] == "1":
            import hashlib

            if isinstance(workload, Batch):
                from batch import cold_job
            else:
                from svc import cold_job
            try:
                seconds, data = cold_job(workload, state, int(argv[2]),
                                         work_dir)
                report["cold_s"] = seconds
                report["csv_sha256"] = hashlib.sha256(data).hexdigest()
            except Exception as exc:  # reported as a failed job
                report["cold_error"] = f"{type(exc).__name__}: {exc}"
    finally:
        if "core" in state:
            state["core"].close()
            remove_store(state["db_path"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
