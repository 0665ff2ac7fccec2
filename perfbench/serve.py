"""Launch ``repro serve`` in this process, optionally with layer tracing.

    python3 perfbench/serve.py --report PATH [--trace] -- <serve arguments>

The benchmark starts the service through this launcher so that, in a
traced run, the layer wrappers of :mod:`tracing` are installed in the
server process before it builds its scheduler.  ``SIGUSR1`` clears the
collected spans (the benchmark sends it after priming the read set) and
acknowledges by creating ``PATH.reset``.  When the server stops, the
launcher writes ``PATH``: its peak resident memory and, when tracing,
the span aggregates plus the queue wait of every job the scheduler
dispatched.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Installed, Tracer, install, subclasses  # noqa: E402


def _track_queue_wait(handle: Installed, waits: List[float]) -> None:
    """Time each queued job from submission to the start of its dispatch.

    Submissions are matched to dispatches by content digest: a run job's
    digest is its canonical spec's, a graph job's the graph digest.
    """
    from repro.engine.executor import Executor
    from repro.service.scheduler import JobScheduler
    from repro.service.specs import spec_digest
    from repro.service.tasks import TaskGraphRunner, graph_digest

    queued: Dict[str, float] = {}

    def submitted(tracer: Tracer, args: tuple, kwargs: dict, job: Any) -> None:
        if job.status == "queued":
            queued.setdefault(job.digest, time.perf_counter())

    def dispatched(digest: str) -> None:
        start = queued.pop(digest, None)
        if start is not None:
            waits.append(time.perf_counter() - start)

    def runs_dispatched(tracer: Tracer, args: tuple, kwargs: dict, _: Any) -> None:
        for spec in args[1]:
            cell_spec = getattr(spec.adversary, "cell_spec", None)
            if cell_spec is not None:
                dispatched(spec_digest(cell_spec(spec.n, spec.max_rounds, spec.backend)))

    def graph_dispatched(tracer: Tracer, args: tuple, kwargs: dict, _: Any) -> None:
        outputs = args[2] if len(args) > 2 else kwargs.get("outputs")
        if outputs is not None:
            dispatched(graph_digest(args[1], outputs))

    for attr in ("submit_run", "submit_tasks"):
        handle.wrap_method(JobScheduler, attr, None, after=submitted)
    handle.wrap_method(TaskGraphRunner, "run", None, before=graph_dispatched)
    for cls in subclasses(Executor):
        if "run_many_settled" in cls.__dict__:
            handle.wrap_method(cls, "run_many_settled", None, before=runs_dispatched)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    tracer = Tracer() if args.trace else None
    handle = None
    waits: List[float] = []
    if tracer is not None:
        handle = install(tracer)
        _track_queue_wait(handle, waits)

        def reset(signum: int, frame: Any) -> None:
            tracer.reset()
            waits.clear()
            with open(args.report + ".reset", "w", encoding="utf-8") as fh:
                fh.write("reset\n")

        signal.signal(signal.SIGUSR1, reset)

    from repro.cli import main as cli_main

    code = 1
    try:
        code = cli_main(["serve", *serve_args])
    finally:
        report: Dict[str, Any] = {
            "exit_code": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None and handle is not None:
            handle.restore()
            report["trace"] = tracer.snapshot()
            report["queue_waits_s"] = list(waits)
        tmp = args.report + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        os.replace(tmp, args.report)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
