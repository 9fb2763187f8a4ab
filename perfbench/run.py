"""End-to-end and per-layer benchmark of the mafre command line.

Run from the root of a mafre source checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): ``reference``, ``many-rhs``,
``big-lattice``.  One run:

1. pins BLAS/OpenMP threads to one (one client, one process, one thread);
2. times ``setup_s``: the median of fresh interpreters importing ``mafre.cli``
   from ``src/``, each corrected for host speed, half of them before the
   passes and half after;
3. generates the workload's problem files from the seed, with the expected
   exit code and output of every request;
4. runs the requests in one worker process through ``mafre.cli.main``
   (worker.py), closed loop, one client, each under a deadline;
5. checks every output and prints a report, then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run makes a fixed number of passes over the request
list: ``--seconds`` over the workload's nominal pass time (workloads.py), at
least one, the same for every version of the program.  Every time is
corrected for the host's speed at the moment it was taken (hostspeed.py), and
the report prints the raw median pass time beside it.  ``wall_s`` is the
median over the passes of a pass's summed request latencies.  Each request
counts with its median latency over the passes: ``req_p50_ms`` and
``req_tail_ms`` are percentiles over the requests, ``<command>_s`` the total
per command.  With ``--trace 1`` the run makes one untraced and one traced
pass and the metrics are the per-layer ones of the traced pass (spans.py, raw
times), with the tracing overhead (traced minus untraced pass time).

Files are written only under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# one thread for every numeric library, set before numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, HERE)

import check  # noqa: E402
import hostspeed  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 20
REQUEST_DEADLINE_S = 60.0
RUN_LIMIT_S = 165.0  # a run must end within 180 s, set-up samples included
COMMANDS = ("check", "solve", "reducts", "reduce", "approximate", "lattice", "oracle")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(env: dict, repeats: int) -> tuple:
    """(raw, corrected) wall times of ``repeats`` fresh interpreters running
    ``import mafre.cli``, each between two host-speed samples."""
    argv = [sys.executable, "-c", "import mafre.cli"]
    samples, starts, times = [hostspeed.sample()], [], []
    for _ in range(repeats):
        starts.append(time.perf_counter())
        subprocess.run(argv, env=env, check=True)
        times.append(time.perf_counter() - starts[-1])
        samples.append(hostspeed.sample())
    return times, [t * k for t, k in zip(times, hostspeed.scales(samples, starts))]


def command_line(req: dict, path: str) -> list:
    json_flag = [] if req["expect"]["kind"] == "dot" else ["--json"]
    return [req["cmd"], path, *json_flag, *req["flags"]]


def run_worker(spec: dict, work: str, env: dict, limit: float):
    """Runs worker.py on ``spec``; returns its result records and exit code."""
    spec_path = os.path.join(work, "spec.json")
    results_path = os.path.join(work, "results.jsonl")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, results_path], env=env
    )
    try:
        proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    records = []
    if os.path.exists(results_path):
        with open(results_path) as fh:
            records = [json.loads(line) for line in fh if line.endswith("\n")]
    return records, proc.returncode


def tail(latencies: list):
    """(value, percentile): highest percentile with at least 10 samples above it."""
    ordered = sorted(latencies)
    i = max(len(ordered) - 11, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mafre", "cli.py")):
        return fail(f"no mafre sources under {src}; run from the root of a mafre checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    nproc = len(os.sched_getaffinity(0))
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.workload == "reference" and not os.path.isdir(os.path.join(root, "examples_data")):
        return fail("examples_data/ is missing")

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    work = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        subprocess.run([sys.executable, "-c", "import mafre.cli"], env=env, check=True)  # compiles
        # half the set-up samples before the passes and half after, so that
        # setup_s sees the host in the same states as the passes
        raw_setup, setup_times = measure_setup(env, SETUP_REPEATS // 2)
        problems, requests = workloads.build(args.workload, args.seed, root)
        for name, problem in problems.items():
            with open(os.path.join(work, f"{name}.json"), "w") as fh:
                json.dump(problem, fh)
        spec = {
            "src": src,
            "requests": [
                {"id": r["id"], "argv": command_line(r, os.path.join(work, f"{r['problem']}.json"))}
                for r in requests
            ],
            "passes": 1 if args.trace else workloads.passes(args.workload, args.seconds),
            "deadline_s": REQUEST_DEADLINE_S,
            "budget_s": RUN_LIMIT_S - 10 - (time.perf_counter() - t0),
            "trace": bool(args.trace),
            "spans_out": os.path.join(work, "spans.json"),
        }
        limit = RUN_LIMIT_S - (time.perf_counter() - t0)
        records, worker_rc = run_worker(spec, work, env, limit)
        raw, corrected = measure_setup(env, SETUP_REPEATS - len(setup_times))
        raw_setup += raw
        setup_times += corrected
        setup_s = statistics.median(setup_times)
        traced = None
        if args.trace and os.path.exists(spec["spans_out"]):
            with open(spec["spans_out"]) as fh:
                traced = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # -- outcomes ----------------------------------------------------------------
    passes = [r for r in records if r["type"] == "pass"]
    done = {(r["pass"], r["index"]): r for r in records if r["type"] == "request"}
    started_passes = {p for p, _ in done} or {0}
    for p in started_passes:  # requests a killed worker never reached
        for index in range(len(requests)):
            done.setdefault((p, index), {"pass": p, "index": index, "latency": None,
                                         "status": "timeout", "note": "worker stopped"})
    # the worker writes each distinct output of a request once, with its digest
    verdicts = {
        (r["index"], r["digest"]): check.verify(
            requests[r["index"]]["cmd"], requests[r["index"]]["expect"], r["rc"], r["stdout"]
        )
        for r in done.values()
        if "stdout" in r
    }
    failures = []
    for (p, index), r in sorted(done.items()):
        if r["status"] != "ok":
            reason = r["status"] + (f" ({r['note']})" if "note" in r else "")
        else:
            reason = verdicts[index, r["digest"]]
        if reason:
            failures.append((p, requests[index]["id"], reason))
    attempted, failed = len(done), len(failures)

    end = [r for r in records if r["type"] == "end"]
    # a worker that was stopped reports nothing; its children-wide peak stands in
    peak_kb = end[0]["peak_rss_kb"] if end else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = peak_kb / 1024
    # Every latency is corrected for the host's speed around it.  wall_s is
    # the median over the untraced passes of their summed latencies; every
    # request counts with its median latency over those passes.  The number
    # of passes does not depend on the program's speed (see workloads.passes).
    host = [(r["start"], r["duration"]) for r in records if r["type"] == "host"]
    timed = [r for r in done.values() if r["latency"] is not None]
    for r, k in zip(timed, hostspeed.scales(host, [r["start"] for r in timed])):
        r["corrected"] = r["latency"] * k

    def pass_time(number: int, key: str) -> float:
        return sum(done[number, i].get(key) or RUN_LIMIT_S for i in range(len(requests)))

    untraced = [p["pass"] for p in passes if not p["traced"]]
    pass_walls = [pass_time(p, "corrected") for p in untraced] or [RUN_LIMIT_S]
    raw_walls = [pass_time(p, "latency") for p in untraced] or [RUN_LIMIT_S]
    median_latency = []
    for index in range(len(requests)):
        samples = [done[p, index].get("corrected") for p in untraced]
        samples = [t for t in samples if t is not None]
        median_latency.append(statistics.median(samples) if samples else None)
    latencies = [t for t in median_latency if t is not None] or [RUN_LIMIT_S]
    tail_value, tail_pct = tail(latencies)
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_walls),
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_tail_ms": 1000 * tail_value,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / attempted,
    }
    for req, t in zip(requests, median_latency):
        e2e[f"{req['cmd']}_s"] = e2e.get(f"{req['cmd']}_s", 0.0) + (t or 0.0)

    # -- report --------------------------------------------------------------------
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(requests)} requests per pass, {len(untraced)} untraced pass(es), "
        f"closed loop, 1 client, 1 worker process"
    )
    print(
        f"env: Python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {nproc}, BLAS/OpenMP threads 1"
    )
    host_median = statistics.median(d for _, d in host) if host else float("nan")
    print(
        f"host speed: {len(host)} kernel samples, median {1000 * host_median:.2f} ms "
        f"against {1000 * hostspeed.NOMINAL_S:.2f} ms nominal; times below are corrected"
    )
    print(
        f"  {'setup_s':<14} {setup_s:10.4f} s    median of {SETUP_REPEATS} fresh `import mafre.cli` "
        f"(raw {statistics.median(raw_setup):.4f} s)"
    )
    print(
        f"  {'wall_s':<14} {e2e['wall_s']:10.4f} s    median of the untraced passes: "
        + " ".join(f"{t:.3f}" for t in pass_walls)
        + f" (raw median {statistics.median(raw_walls):.3f} s)"
    )
    print(f"  {'req_p50_ms':<14} {e2e['req_p50_ms']:10.3f} ms")
    print(
        f"  {'req_tail_ms':<14} {e2e['req_tail_ms']:10.3f} ms   "
        f"p{tail_pct:.1f} of {len(latencies)} requests per pass"
    )
    print(f"  {'peak_rss_mb':<14} {peak_rss_mb:10.2f} MB")
    print(f"  {'failed_frac':<14} {e2e['failed_frac']:10.4f}      {failed} failed of {attempted} attempted")
    for cmd in COMMANDS:
        if f"{cmd}_s" in e2e:
            print(f"  {cmd + '_s':<14} {e2e[cmd + '_s']:10.4f} s    total latency of {cmd} requests per pass")
    for p, rid, reason in failures[:20]:
        print(f"  FAILED pass {p} {rid}: {reason}")
    if worker_rc != 0:
        print(f"  worker exit code {worker_rc}")

    if args.trace:
        if traced is None:
            return fail("the traced pass left no spans")
        commands = {r["id"]: r["cmd"] for r in requests}
        layer = spans.summarize(traced, commands)
        walls = {x["traced"]: pass_time(x["pass"], "corrected") for x in passes}
        walls.setdefault(False, RUN_LIMIT_S)
        walls.setdefault(True, RUN_LIMIT_S)
        layer["trace.overhead_s"] = walls[True] - walls[False]
        print(
            f"  traced pass {walls[True]:.4f} s vs untraced {walls[False]:.4f} s: "
            f"tracing overhead {layer['trace.overhead_s']:+.4f} s, {layer['trace.spans']} spans"
        )
        for name in sorted(layer):
            unit = units.get(name) or ("s" if name.endswith("_s") else "count")
            print(f"  {name:<28} {layer[name]:14.6g} {unit}")
        if args.workload == "reference":
            counts = spans.request_counts(traced, "squares_unsolvable:approximate")
            print(f"  primal approximate squares_unsolvable: {counts}")
        metrics = {m["name"]: layer[m["name"]] for m in declared["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in declared["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
