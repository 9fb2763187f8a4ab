"""One benchmark run's passes, issued in this process through mafre.cli.main.

Usage: python3 worker.py SPEC RESULTS

SPEC is a JSON file written by run.py: the source directory to import mafre
from, the request command lines, the number of passes, the per-request
deadline, the run's time budget and whether to trace.  One client issues the
requests in order, each after the previous one returned (closed loop).  A pass
is one sweep over the list; the run makes the given number of passes, however
long they take.  With tracing, the run makes one untraced pass and then one
traced pass, and writes the spans at the end.  Between requests, at most every
``hostspeed.INTERVAL_S``, the worker times the host-speed kernel.

Each finished request appends one JSON line to RESULTS at once, so a run that
has to be killed still leaves what it measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time

import hostspeed


class RequestTimeout(Exception):
    """Raised in the request by SIGALRM when its deadline passes."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


def issue(main, argv, deadline: float):
    """(latency s, exit code, status, stdout) of one request."""
    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "ok"
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = int(main(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        status = "timeout"
    except SystemExit as exc:  # argparse rejects a command line
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash of the program is a failed request
        status = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, status, out.getvalue()


def main() -> int:
    spec_path, results_path = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    started = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import mafre.cli

    if not os.path.abspath(mafre.cli.__file__).startswith(spec["src"] + os.sep):
        print(f"worker: mafre imported from {mafre.cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    requests = spec["requests"]
    budget_end = started + spec["budget_s"]
    tracer = None
    emitted = set()  # (request index, output digest) already written in full
    with open(results_path, "w") as results:

        def record(entry):
            results.write(json.dumps(entry) + "\n")
            results.flush()

        last_sample = float("-inf")

        def host_sample():
            nonlocal last_sample
            last_sample, duration = hostspeed.sample()
            record({"type": "host", "start": last_sample, "duration": duration})

        def run_pass(number):
            for index, req in enumerate(requests):
                if time.perf_counter() - last_sample >= hostspeed.INTERVAL_S:
                    host_sample()
                left = budget_end - time.perf_counter()
                if left <= 0:
                    record({"type": "request", "pass": number, "index": index, "latency": None,
                            "rc": None, "status": "timeout", "note": "run budget spent, not issued"})
                    continue
                if tracer is not None:
                    tracer.request = req["id"]
                start = time.perf_counter()
                latency, rc, status, stdout = issue(
                    mafre.cli.main, req["argv"], min(spec["deadline_s"], left)
                )
                digest = hashlib.sha256(stdout.encode()).hexdigest()
                entry = {"type": "request", "pass": number, "index": index, "start": start,
                         "latency": latency, "rc": rc, "status": status, "digest": digest}
                if (index, digest) not in emitted:
                    emitted.add((index, digest))
                    entry["stdout"] = stdout
                record(entry)
            record({"type": "pass", "pass": number, "traced": tracer is not None})

        run_pass(0)
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
            run_pass(1)
        else:
            for number in range(1, spec["passes"]):
                run_pass(number)
        host_sample()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record({"type": "end", "peak_rss_kb": peak_kb})
    if tracer is not None:
        with open(spec["spans_out"], "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
