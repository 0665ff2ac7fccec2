"""Command-line interface: ``repro-broadcast``.

Subcommands
-----------
``bounds``    print every Figure 1 / Theorem 3.1 formula for given n
``simulate``  run one adversary and report t* (optionally save a trace)
``sweep``     run the adversary portfolio over a range of n
``exact``     exhaustive game solve for small n
``lemmas``    spot-check the executable lemmas on random configurations
``experiment``run a registered experiment (E1..E8) through the task API
``serve``     start the simulation service (HTTP/JSON API over the executors)
``submit``    submit one declarative run spec to a running service
``task``      submit/inspect task graphs on a running service (submit | status)
``cache``     inspect or clear a persistent result cache (stats | clear)
``obs``       export or summarize span trace files (export | top)

Examples
--------
::

    repro-broadcast bounds -n 64
    repro-broadcast --backend bitset simulate -n 256 --adversary cyclic
    repro-broadcast experiment E1
    repro-broadcast simulate -n 12 --adversary cyclic --trace out.json
    repro-broadcast sweep --ns 6 8 10 12
    repro-broadcast sweep --ns 16 24 32 --workers 4
    repro-broadcast simulate -n 128 --adversary static-path --engine batch
    repro-broadcast sweep --ns 8 10 --engine sequential --out sweep.json
    repro-broadcast sweep --ns 8 10 12 --cache sweep-cache.jsonl
    repro-broadcast exact -n 4
    repro-broadcast experiment E2 --cache results.jsonl
    repro-broadcast experiment E5 --engine sharded --workers 4
    repro-broadcast serve --port 8642 --cache results.jsonl
    repro-broadcast submit --url http://127.0.0.1:8642 -n 64 \
        --adversary rotating-path --param shift=2 --wait
    repro-broadcast task submit --url http://127.0.0.1:8642 \
        --file graph.json --wait
    repro-broadcast task status job-000001 --url http://127.0.0.1:8642
    repro-broadcast cache stats --path results.jsonl
    repro-broadcast serve --trace spans.jsonl
    repro-broadcast obs export --chrome --path spans.jsonl --out trace.json
    repro-broadcast obs top --path spans.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from repro._version import __version__


def _warn_ignored_workers(args: argparse.Namespace) -> None:
    """Tell the user when ``--workers`` has no effect on this engine."""
    if args.workers != 1 and args.engine != "sharded":
        print(
            f"warning: --workers {args.workers} is ignored with "
            f"--engine {args.engine} (only the sharded engine uses a "
            "worker pool)",
            file=sys.stderr,
        )


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print all bound formulas at one ``n``."""
    from repro.analysis.tables import format_table
    from repro.core.bounds import all_bounds

    rows = [(name, value) for name, value in all_bounds(args.n, k=args.k).items()]
    print(format_table(["bound", "value"], rows, title=f"Bounds at n={args.n}"))
    return 0


def _print_graph_stats(label: str, stats: Dict[str, int]) -> None:
    """One task-graph run's work counters, on stderr."""
    print(
        f"[{label}] task graph: {stats['tasks']} tasks, "
        f"{stats['cached']} cached, {stats['computed']} computed, "
        f"runs computed: {stats['runs_computed']}",
        file=sys.stderr,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one registered adversary, print the sandwich report, optionally trace."""
    from dataclasses import replace

    from repro.core.theorem import sandwich
    from repro.engine.executor import get_executor
    from repro.errors import SpecError
    from repro.service.specs import to_run_spec

    try:
        spec = to_run_spec(
            {
                "adversary": args.adversary,
                "n": args.n,
                "params": _parse_param_pairs(args.param),
            }
        )
    except SpecError as exc:  # unknown name or bad param: lists the registry
        print(exc, file=sys.stderr)
        return 2
    _warn_ignored_workers(args)
    executor = get_executor(args.engine, workers=args.workers)
    # Full instrumentation on the sequential engine (and whenever a trace
    # was requested -- instrumented specs fall back to sequential inside
    # batch/sharded executors); the bare engines report t* only, riding
    # the compiled fast path where the adversary supports it.
    instrumentation = (
        "trace" if args.trace or args.engine == "sequential" else "none"
    )
    report = executor.run(replace(spec, instrumentation=instrumentation))
    assert report.t_star is not None
    print(sandwich(args.n, report.t_star))
    if report.metrics is not None:
        print(f"tree shapes played: {report.metrics.shape_histogram}")
    else:
        print(
            f"engine: {executor.name}; compiled schedule: "
            f"{'yes' if report.compiled else 'no'}"
        )
    if args.trace:
        report.trace.save(args.trace)
        print(f"trace written to {args.trace}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Portfolio sweep over a range of ``n``, run as a task graph.

    Every grid cell is a ``run`` task (``--engine``/``--workers`` pick
    the executor the cells batch/shard through); ``--cache`` makes each
    cell a cache entry, so a warm rerun computes zero runs and an
    enlarged grid computes only its new cells.
    """
    from repro.analysis.tables import format_table
    from repro.engine.executor import get_executor
    from repro.service.specs import portfolio_handles
    from repro.service.tasks import run_graph, sweep_graph

    handles = portfolio_handles()
    graph, output = sweep_graph(
        {
            "adversaries": [
                {"adversary": h.adversary, "params": h.params, "label": label}
                for label, h in handles.items()
            ],
            "ns": args.ns,
        }
    )
    cache = None
    if args.cache:
        from repro.service.cache import ResultCache

        cache = ResultCache(path=args.cache)
    _warn_ignored_workers(args)
    executor = get_executor(args.engine, workers=args.workers)
    run = run_graph(graph, executor=executor, cache=cache)
    _print_graph_stats("sweep", run.stats)
    result = run.decoded(graph, output)
    best = result.best_per_n()
    rows = []
    for n in args.ns:
        point = best.get(n)
        if point is None:  # pragma: no cover - portfolio always completes
            continue
        # Re-instantiate the winner so the table shows its self-reported
        # name (e.g. "CyclicFamily[stride=2]"), not just the factory key.
        display = getattr(handles[point.adversary](n), "name", point.adversary)
        rows.append(
            (
                n,
                point.lower,
                point.t_star,
                point.upper,
                f"{point.normalized:.3f}",
                display,
            )
        )
    print(
        format_table(
            ["n", "LB formula", "best t*", "UB formula", "t*/n", "best adversary"],
            rows,
            title="Theorem 3.1 sandwich: measured vs formulas",
        )
    )
    if args.out:
        result.save(args.out)
        print(f"sweep results written to {args.out}")
    if args.engine == "sharded" and args.workers != 1:
        print(f"(sweep sharded over {executor.workers} worker processes)")
    return 0


def cmd_exact(args: argparse.Namespace) -> int:
    """Exhaustive solve for small ``n``."""
    from repro.adversaries.exact import ExactGameSolver
    from repro.core.bounds import lower_bound, upper_bound
    from repro.errors import SearchBudgetExceeded

    try:
        solver = ExactGameSolver(args.n, max_states=args.max_states)
        result = solver.solve()
        sequence = solver.optimal_sequence() if args.show_sequence else []
    except SearchBudgetExceeded as exc:  # n too large, or --max-states hit
        print(f"{exc} (states explored: {exc.states_explored})", file=sys.stderr)
        return 2
    print(
        f"t*(T_{args.n}) = {result.t_star} exactly "
        f"(formulas: LB={lower_bound(args.n)}, UB={upper_bound(args.n)})"
    )
    rate = result.states_explored / max(result.elapsed_seconds, 1e-9)
    print(
        f"states explored: {result.states_explored}; trees per state: "
        f"{result.tree_count}; solve time: {result.elapsed_seconds:.2f}s "
        f"({rate:,.0f} states/s)"
    )
    print(f"level sizes: {' '.join(map(str, result.level_sizes))}")
    for i, tree in enumerate(sequence, start=1):
        print(f"round {i}: parents={list(tree.parents)}")
    return 0


def cmd_lemmas(args: argparse.Namespace) -> int:
    """Spot-check the executable lemmas on random configurations."""
    import numpy as np

    from repro.analysis.stalling import verify_lemmas_on_round
    from repro.core.state import BroadcastState
    from repro.trees.generators import random_tree

    rng = np.random.default_rng(args.seed)
    failures = 0
    for trial in range(args.trials):
        state = BroadcastState.initial(args.n)
        warmup = int(rng.integers(0, 2 * args.n))
        for _ in range(warmup):
            state.apply_tree_inplace(random_tree(args.n, rng))
        tree = random_tree(args.n, rng)
        r, s1, s2 = verify_lemmas_on_round(state, tree)
        if not (r and s1 and s2):
            failures += 1
            print(f"trial {trial}: lemma failure (R={r}, S={s1}/{s2})")
    print(
        f"{args.trials} random configurations checked, {failures} failures"
    )
    return 0 if failures == 0 else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one registered experiment (or all) and print its table.

    Experiments execute through the task API (declarative unit grid +
    pure aggregation): ``--engine``/``--workers`` pick the executor the
    run tasks batch/shard through, ``--cache`` content-addresses every
    task so a warm rerun computes zero runs and reproduces the table
    byte-identically.
    """
    from repro.experiments import get_experiment, list_experiments, run_experiment

    if args.id == "list":
        for spec in list_experiments():
            print(f"{spec.experiment_id}: {spec.title} ({spec.paper_artifact})")
        return 0

    from repro.engine.executor import get_executor

    _warn_ignored_workers(args)
    executor = get_executor(args.engine, workers=args.workers)
    cache = None
    if args.cache:
        from repro.service.cache import ResultCache

        cache = ResultCache(path=args.cache)

    def run_one(spec) -> "object":
        table, graph_run = run_experiment(
            spec.experiment_id, executor=executor, cache=cache
        )
        _print_graph_stats(spec.experiment_id, graph_run.stats)
        return table

    if args.id == "all":
        ok = True
        for spec in list_experiments():
            table = run_one(spec)
            print(table.render())
            print()
            ok = ok and table.checks_passed
        return 0 if ok else 1
    try:
        spec = get_experiment(args.id)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    table = run_one(spec)
    print(table.render())
    return 0 if table.checks_passed else 1


def _parse_param_pairs(pairs: Optional[Sequence[str]]) -> Dict[str, object]:
    """``key=value`` pairs -> params dict (values parsed as JSON literals)."""
    import json

    params: Dict[str, object] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value  # bare strings need no quotes
    return params


def _build_auth(args: argparse.Namespace):
    """``(authenticator, per-tenant limits)`` from --auth-token/--auth-file."""
    from repro.service.tenancy import TenantLimits, TokenAuthenticator

    tokens: Dict[str, str] = {}
    limits: Dict[str, TenantLimits] = {}
    if args.auth_file:
        authenticator, limits = TokenAuthenticator.from_file(args.auth_file)
        tokens = authenticator.token_map()
    for pair in args.auth_token or []:
        token, sep, tenant = pair.partition(":")
        if not token:
            raise SystemExit(f"--auth-token expects TOKEN[:TENANT], got {pair!r}")
        tokens[token] = tenant if sep and tenant else "default"
    if not tokens:
        return None, limits
    return TokenAuthenticator(tokens), limits


def cmd_serve(args: argparse.Namespace) -> int:
    """Start the simulation service and block until interrupted."""
    import signal

    from repro.errors import ServiceError
    from repro.service.server import ServiceServer
    from repro.service.tenancy import TenantLimits, TenantRegistry

    if args.trace:
        # Enable before the server exists so startup work (recovery,
        # cache load) is traced too.
        from repro.obs import trace as obs_trace

        obs_trace.enable(args.trace)
    try:
        auth, per_tenant = _build_auth(args)
        default_limits = TenantLimits(
            rate=args.rate_limit,
            burst=args.burst,
            max_bytes=args.tenant_max_bytes,
            max_jobs=args.tenant_max_jobs,
        )
        tenancy = None
        if auth is not None or per_tenant or not default_limits.unlimited:
            tenancy = TenantRegistry(
                default_limits=default_limits, per_tenant=per_tenant
            )
        server = ServiceServer(
            host=args.host,
            port=args.port,
            executor=args.engine,
            cache_path=args.cache,
            cache_capacity=args.cache_capacity,
            cache_max_bytes=args.cache_max_bytes,
            scheduler_workers=args.jobs,
            journal=args.journal,
            auth=auth,
            tenancy=tenancy,
            max_queue_depth=args.max_queue_depth,
            request_timeout=args.request_timeout,
            access_log=not args.no_access_log,
            fleet=args.fleet,
            lease_ttl=args.lease_ttl,
            claim_deadline=args.claim_deadline,
        )
    except ServiceError as exc:  # bad auth file / limit values
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:  # bind failure: port in use, bad host, ...
        print(f"cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(f"repro simulation service listening on {server.url}")
    if auth is not None:
        print(
            f"bearer-token auth enabled ({len(auth.tenants)} tenant(s)); "
            "requests without a valid token get 401"
        )
    print(
        "endpoints: POST /v1/runs, POST /v1/runs:batch, POST /v1/sweeps, "
        "POST /v1/tasks, GET /v1/runs/<id>, GET /v1/tasks/<id>, "
        "GET /v1/specs, GET /healthz, GET /metrics, POST /v1/shutdown"
    )
    if args.fleet:
        print(
            f"worker fleet enabled: lease TTL {args.lease_ttl}s, local "
            f"fallback after {args.claim_deadline}s; attach workers with "
            f"'repro-broadcast worker --url {server.url}'"
        )
    if args.cache:
        print(f"result cache persisted to {args.cache}")
    if args.trace:
        print(
            f"tracing enabled: spans appended to {args.trace} "
            f"(view with 'repro-broadcast obs export --chrome --path {args.trace}')"
        )
    if args.journal:
        # Recover eagerly (idempotent -- start() would otherwise do it)
        # so the banner can report how much of the journal came back.
        recovered = server.scheduler.recover()
        print(f"job journal at {args.journal} ({recovered} jobs recovered)")
    # SIGTERM (systemd, CI, `kill`) stops as gracefully as Ctrl-C; SIGINT
    # keeps its KeyboardInterrupt default, which serve_forever handles.
    signal.signal(signal.SIGTERM, lambda signum, frame: server.stop_async())
    server.serve_forever()
    print("service stopped")
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one declarative run spec to a running service."""
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    spec: Dict[str, object] = {
        "adversary": args.adversary,
        "n": args.n,
        "seed": args.seed,
        "params": _parse_param_pairs(args.param),
    }
    if args.max_rounds is not None:
        spec["max_rounds"] = args.max_rounds
    if args.backend is not None:
        spec["backend"] = args.backend
    try:
        client = ServiceClient.from_url(
            args.url, token=args.token, retry_rate_limited=args.retry_rate_limited
        )
        doc = client.submit_run(spec)
        print(
            f"job {doc['job_id']}: status={doc['status']} "
            f"cached={doc['cached']} digest={doc['digest'][:16]}..."
        )
        if not args.wait:
            return 0
        doc = client.wait(doc["job_id"], timeout=args.timeout)
    except ServiceError as exc:  # unreachable server, rejected spec, timeout
        print(str(exc), file=sys.stderr)
        return 2
    if doc["status"] == "failed":
        print(f"job failed: {doc['error']}", file=sys.stderr)
        return 1
    result = doc["result"]
    if result["t_star"] is None:
        print(
            f"{result['adversary_name']}: truncated by max_rounds after "
            f"{result['rounds']} rounds (no broadcast at n = {result['n']})"
        )
        return 0
    print(
        f"{result['adversary_name']}: t* = {result['t_star']} at "
        f"n = {result['n']} (t*/n = {result['t_star'] / result['n']:.3f}, "
        f"executor = {result['executor']})"
    )
    return 0


def _print_task_job(doc: Dict[str, object]) -> None:
    """One-line envelope + per-node state counts for a task-graph job."""
    nodes = doc.get("tasks") or {}
    by_state: Dict[str, int] = {}
    for node in nodes.values():
        by_state[node["status"]] = by_state.get(node["status"], 0) + 1
    states = ", ".join(f"{k}={v}" for k, v in sorted(by_state.items()))
    print(
        f"job {doc['job_id']}: status={doc['status']} cached={doc['cached']} "
        f"digest={str(doc['digest'])[:16]}... nodes[{states or 'none'}]"
    )
    if doc.get("error"):
        print(f"error: {doc['error']}", file=sys.stderr)


def _print_task_outputs(doc: Dict[str, object]) -> None:
    """Render each finished graph output through its kind's natural form."""
    from repro.experiments import table_from_doc

    result = doc.get("result") or {}
    nodes = doc.get("tasks") or {}
    stats = result.get("stats")
    if stats:
        print(
            f"stats: {stats['tasks']} tasks, {stats['cached']} cached, "
            f"{stats['computed']} computed, runs computed: "
            f"{stats['runs_computed']}"
        )
    for digest, out in (result.get("outputs") or {}).items():
        kind = nodes.get(digest, {}).get("kind", "?")
        if out is None:
            print(f"output {digest[:16]}... ({kind}): <not completed>")
        elif kind == "experiment":
            print(table_from_doc(out).render())
        elif kind == "run":
            print(f"output {digest[:16]}... (run): t* = {out['t_star']} at n = {out['n']}")
        elif kind == "sweep-agg":
            print(f"output {digest[:16]}... (sweep): {len(out['points'])} grid points")
        else:
            import json

            print(f"output {digest[:16]}... ({kind}): {json.dumps(out)}")


def cmd_task_submit(args: argparse.Namespace) -> int:
    """Submit a task-graph JSON document to a running service."""
    import json

    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    try:
        if args.file == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read task graph from {args.file!r}: {exc}", file=sys.stderr)
        return 2
    if not isinstance(doc, dict):
        print("task graph document must be a JSON object", file=sys.stderr)
        return 2
    try:
        client = ServiceClient.from_url(args.url, token=args.token)
        envelope = client.submit_tasks(doc.get("tasks", []), outputs=doc.get("outputs"))
        if args.wait:
            envelope = client.wait(envelope["job_id"], timeout=args.timeout)
    except ServiceError as exc:  # unreachable server, rejected graph, timeout
        print(str(exc), file=sys.stderr)
        return 2
    _print_task_job(envelope)
    if envelope["status"] == "done":
        _print_task_outputs(envelope)
    return 1 if envelope["status"] == "failed" else 0


def cmd_task_status(args: argparse.Namespace) -> int:
    """Per-node status (and results when done) of a task-graph job.

    With ``--watch`` the command long-polls the service and reprints the
    status on every update (node transitions included) until the job is
    terminal -- push updates, not sampling.
    """
    from repro.errors import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient.from_url(
        args.url, token=args.token, retry_connect=args.retry_connect
    )
    try:
        if args.watch:
            doc = None
            for doc in client.watch(args.job_id, timeout=args.timeout):
                _print_task_job(doc)
            assert doc is not None  # watch always yields at least once
        else:
            doc = client.task_job(args.job_id)
            _print_task_job(doc)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if doc["status"] == "done":
        _print_task_outputs(doc)
    return 1 if doc["status"] == "failed" else 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run a pull-based fleet worker against a ``serve --fleet`` service.

    The worker long-polls ``/v1/work:claim``, executes each claimed batch
    through the ordinary executor stack, and pushes encoded reports back
    via ``/v1/work:complete``.  SIGINT/SIGTERM request a graceful stop:
    the in-flight batch finishes (or its lease expires and the server
    reclaims it) and the final per-worker stats are printed.
    """
    import signal

    from repro.service.client import ServiceClient
    from repro.service.worker import FleetWorker

    client = ServiceClient.from_url(args.url, token=args.token)
    worker = FleetWorker(
        client,
        name=args.name,
        procs=args.procs,
        batch=args.batch,
        engine=args.engine,
        poll=args.poll,
        delay=args.delay,
        max_batches=args.max_batches,
    )

    def _stop(signum: int, frame: object) -> None:
        worker.stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(f"worker {worker.name} pulling from {args.url} (Ctrl-C to stop)")
    worker.run()
    stats = ", ".join(f"{k}={v}" for k, v in sorted(worker.stats.items()))
    print(f"worker {worker.name} stopped: {stats}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (``stats``), rewrite (``compact``), or truncate (``clear``)
    a persistent cache."""
    from repro.analysis.tables import format_table
    from repro.service.cache import ResultCache

    cache = ResultCache(path=args.path)
    if args.action == "clear":
        before = len(cache)
        cache.clear()
        print(f"cleared {before} entries from {args.path}")
        return 0
    if args.action == "compact":
        report = cache.compact()
        print(
            f"compacted {args.path}: {report['before_bytes']} -> "
            f"{report['after_bytes']} bytes ({report['entries']} live entries)"
        )
        return 0
    rows = sorted(cache.stats().items())
    print(format_table(["counter", "value"], rows, title=f"Cache {args.path}"))
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Export a span JSONL file as raw spans or Chrome trace-event JSON."""
    import json
    from pathlib import Path

    from repro.obs import trace as obs_trace

    spans = obs_trace.read_spans(args.path)
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    if args.chrome:
        doc = obs_trace.chrome_trace(spans)
    else:
        doc = {"spans": spans, "trees": obs_trace.span_trees(spans)}
    text = json.dumps(doc, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {len(spans)} spans to {args.out}")
    else:
        print(text)
    return 0


def n_bucket(n: int) -> str:
    """Power-of-two size bucket label for ``n`` (``n<=64``, ``n<=128``...)."""
    if n <= 1:
        return "n<=1"
    return f"n<={1 << (int(n) - 1).bit_length()}"


def cmd_obs_top(args: argparse.Namespace) -> int:
    """Summarize a span file: hottest kernels, per-executor phase split."""
    from repro.analysis.tables import format_table
    from repro.obs import trace as obs_trace

    spans = obs_trace.read_spans(args.path)
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1

    kernels: Dict[str, List[float]] = {}
    phases: Dict[str, List[float]] = {}
    for span in spans:
        attrs = span.get("attrs", {})
        if span.get("name") == "kernel":
            bucket = n_bucket(int(attrs.get("n", 0)))
            key = f"{attrs.get('backend', '?')}/{attrs.get('kernel', '?')}/{bucket}"
            cell = kernels.setdefault(key, [0.0, 0.0])
            cell[0] += 1
            cell[1] += float(span.get("dur", 0.0))
        elif "decision_s" in attrs and "kernel_s" in attrs:
            executor = str(attrs.get("executor", "?"))
            cell = phases.setdefault(executor, [0.0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += float(attrs["decision_s"])
            cell[2] += float(attrs["kernel_s"])

    if kernels:
        rows = sorted(
            (
                (key, int(calls), f"{seconds:.6f}")
                for key, (calls, seconds) in kernels.items()
            ),
            key=lambda row: -float(row[2]),
        )[: args.limit]
        print(
            format_table(
                ["backend/kernel/bucket", "calls", "seconds"],
                rows,
                title=f"Kernels ({args.path})",
            )
        )
    if phases:
        rows = [
            (
                executor,
                int(runs),
                f"{dec:.6f}",
                f"{ker:.6f}",
                f"{(dec / (dec + ker) * 100.0) if dec + ker > 0 else 0.0:.1f}%",
            )
            for executor, (runs, dec, ker) in sorted(phases.items())
        ]
        print(
            format_table(
                ["executor", "runs", "decision_s", "kernel_s", "decision_share"],
                rows,
                title="Executor phase split (adversary decisions vs matrix kernels)",
            )
        )
    if not kernels and not phases:
        print(
            "no kernel or phase spans found (was the server started with "
            "--trace, and did it serve any runs?)",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.engine.executor import EXECUTOR_NAMES

    parser = argparse.ArgumentParser(
        prog="repro-broadcast",
        description=(
            "Broadcast in dynamic rooted trees (PODC 2022 reproduction)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--backend",
        choices=["dense", "bitset"],
        default=None,
        help=(
            "matrix backend for all kernels (default: $REPRO_BACKEND or "
            "'dense'; 'bitset' packs rows 64-to-a-word)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print bound formulas at one n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=3, help="k for restricted rows")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run one adversary")
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--adversary",
        default="cyclic",
        help="registered adversary name (the service registry, /v1/specs)",
    )
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="adversary param (repeatable; values parsed as JSON literals)",
    )
    p.add_argument("--trace", default=None, help="write a JSON trace here")
    p.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default="sequential",
        help=(
            "execution engine (all are decision-equivalent; 'sequential' "
            "adds full trace/metrics instrumentation; default: sequential)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --engine sharded (default: 1)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="portfolio sweep over n")
    p.add_argument("--ns", type=int, nargs="+", default=[6, 8, 10, 12])
    p.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default="sharded",
        help=(
            "execution engine; results are identical across engines "
            "(default: sharded, which runs inline at --workers 1)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "shard the sweep grid over this many worker processes "
            "(results are bit-identical to --workers 1; default: 1)"
        ),
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the sweep grid as JSON here (SweepResult.to_json)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=(
            "opt-in content-addressed result cache (JSONL): every grid "
            "cell is a cached run task, so rerunning an enlarged grid "
            "only computes the new cells, bit-identical to a cold sweep"
        ),
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("exact", help="exhaustive game solve (small n)")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--max-states", type=int, default=5_000_000)
    p.add_argument("--show-sequence", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("lemmas", help="spot-check executable lemmas")
    p.add_argument("-n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser(
        "experiment",
        help="run a registered experiment (E1..E8, list, all) via the task API",
    )
    p.add_argument("id", help="experiment id, 'list', or 'all'")
    p.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default="sequential",
        help=(
            "executor the experiment's run tasks dispatch through "
            "(results are identical across engines; default: sequential)"
        ),
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --engine sharded (default: 1)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help=(
            "content-addressed task cache (JSONL): a warm rerun computes "
            "zero runs and reproduces the table byte-identically"
        ),
    )
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "serve", help="start the simulation service (HTTP/JSON over the executors)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    p.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default="batch",
        help="executor the scheduler dispatches on (default: batch)",
    )
    p.add_argument(
        "--cache",
        default=None,
        metavar="PATH",
        help="persist the result cache to this JSONL file",
    )
    p.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        help="in-memory LRU capacity (default: 4096 entries)",
    )
    p.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        help=(
            "byte budget for the in-memory cache tier (LRU eviction past "
            "it; totals visible in /metrics under cache.bytes)"
        ),
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="scheduler worker threads (default: 1; batching is the lever)",
    )
    p.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "persist a job journal to this JSONL file and recover from it "
            "on startup (pair with --cache so resumed task graphs "
            "recompute only never-finished nodes)"
        ),
    )
    p.add_argument(
        "--auth-token",
        action="append",
        metavar="TOKEN[:TENANT]",
        help=(
            "require bearer-token auth; repeatable.  Each flag adds one "
            "accepted token, optionally mapped to a tenant id (default "
            "tenant 'default').  Requests without a valid token get 401"
        ),
    )
    p.add_argument(
        "--auth-file",
        default=None,
        metavar="PATH",
        help=(
            "JSON file mapping tokens to tenant ids, or to objects "
            "{'tenant', 'rate', 'burst', 'max_bytes', 'max_jobs'} with "
            "per-tenant limit overrides"
        ),
    )
    p.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="REQ_PER_S",
        help=(
            "per-tenant token-bucket rate limit on submissions "
            "(429 + Retry-After past it; default: unlimited)"
        ),
    )
    p.add_argument(
        "--burst",
        type=int,
        default=None,
        help="token-bucket burst size (default: max(1, int(rate)))",
    )
    p.add_argument(
        "--tenant-max-bytes",
        type=int,
        default=None,
        help=(
            "per-tenant cache byte quota: a tenant whose charged cache "
            "bytes exceed this gets 429/quota on new submissions"
        ),
    )
    p.add_argument(
        "--tenant-max-jobs",
        type=int,
        default=None,
        help="per-tenant cap on concurrently active (queued/running) jobs",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help=(
            "global backpressure: reject submissions with 429 while this "
            "many jobs are already queued (default: unlimited)"
        ),
    )
    p.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help=(
            "per-connection socket timeout; a client that stalls "
            "mid-request gets 408 and is dropped (default: 30)"
        ),
    )
    p.add_argument(
        "--no-access-log",
        action="store_true",
        help="disable the structured JSON request log on stderr",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "append spans (JSONL) to this file; one HTTP request yields "
            "one span tree (request -> job -> node -> executor -> kernel), "
            "and run spans carry the decision/kernel phase split.  Inspect "
            "with 'obs export' / 'obs top'"
        ),
    )
    p.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "enable the pull-based worker fleet: jobs are queued as leased "
            "work items that remote 'worker' processes claim over HTTP; "
            "anything unclaimed past --claim-deadline runs locally"
        ),
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help=(
            "work lease time-to-live; a worker that stops heartbeating for "
            "this long has its items reclaimed (default: 15)"
        ),
    )
    p.add_argument(
        "--claim-deadline",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help=(
            "how long queued work waits for a worker claim before falling "
            "back to local execution (default: 2; only applies while "
            "workers look alive)"
        ),
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="pull-based fleet worker: claim, execute, and push work batches",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    p.add_argument(
        "--token", default=None, help="bearer token sent as Authorization header"
    )
    p.add_argument(
        "--name",
        default=None,
        help="worker id reported to the server (default: worker-<host>-<pid>)",
    )
    p.add_argument(
        "--procs",
        type=int,
        default=1,
        help="local executor processes; >1 switches to the sharded executor",
    )
    p.add_argument(
        "--batch",
        type=int,
        default=4,
        help="max work items claimed per lease (default: 4)",
    )
    p.add_argument(
        "--engine",
        choices=EXECUTOR_NAMES,
        default=None,
        help="override the server's executor hint",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="long-poll wait per claim request when the queue is idle",
    )
    p.add_argument(
        "--delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="artificial per-item execution delay (chaos/testing aid)",
    )
    p.add_argument(
        "--max-batches",
        type=int,
        default=None,
        help="exit after this many non-empty claims (default: run forever)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "submit", help="submit one declarative run spec to a running service"
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    p.add_argument("-n", type=int, required=True)
    p.add_argument(
        "--adversary",
        default="cyclic",
        help="registered spec name (see GET /v1/specs)",
    )
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="adversary param (repeatable; values parsed as JSON literals)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    p.add_argument(
        "--timeout", type=float, default=300.0, help="--wait deadline in seconds"
    )
    p.add_argument(
        "--token", default=None, help="bearer token sent as Authorization header"
    )
    p.add_argument(
        "--retry-rate-limited",
        type=int,
        default=0,
        metavar="N",
        help="retry up to N times on 429, honouring the server's Retry-After",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "task", help="submit or inspect task graphs on a running service"
    )
    tsub = p.add_subparsers(dest="task_cmd", required=True)
    ps = tsub.add_parser(
        "submit", help="submit a task-graph JSON document ({'tasks': [...]})"
    )
    ps.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    ps.add_argument(
        "--file",
        required=True,
        metavar="PATH",
        help="task-graph JSON document ('-' reads stdin)",
    )
    ps.add_argument(
        "--wait", action="store_true", help="poll until the graph finishes"
    )
    ps.add_argument(
        "--timeout", type=float, default=600.0, help="--wait deadline in seconds"
    )
    ps.add_argument(
        "--token", default=None, help="bearer token sent as Authorization header"
    )
    ps.set_defaults(func=cmd_task_submit)
    ps = tsub.add_parser(
        "status", help="per-node status of a task-graph job"
    )
    ps.add_argument("job_id", help="job id returned by task submit")
    ps.add_argument(
        "--url", default="http://127.0.0.1:8642", help="service base URL"
    )
    ps.add_argument(
        "--watch",
        action="store_true",
        help="long-poll and reprint on every update until the job finishes",
    )
    ps.add_argument(
        "--timeout", type=float, default=600.0, help="--watch deadline in seconds"
    )
    ps.add_argument(
        "--token", default=None, help="bearer token sent as Authorization header"
    )
    ps.add_argument(
        "--retry-connect",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry idempotent reads up to N times (with jittered backoff) "
            "when the service is unreachable, e.g. across a restart"
        ),
    )
    ps.set_defaults(func=cmd_task_status)

    p = sub.add_parser(
        "cache", help="inspect, compact, or clear a persistent result cache"
    )
    p.add_argument("action", choices=["stats", "compact", "clear"])
    p.add_argument("--path", required=True, help="JSONL cache file")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "obs", help="observability: export or summarize a span trace file"
    )
    osub = p.add_subparsers(dest="obs_command", required=True)
    pe = osub.add_parser(
        "export",
        help="export a span JSONL file (raw span tree or Chrome trace-event JSON)",
    )
    pe.add_argument(
        "--path",
        required=True,
        metavar="PATH",
        help="span JSONL file (written by 'serve --trace' or $REPRO_TRACE)",
    )
    pe.add_argument(
        "--chrome",
        action="store_true",
        help=(
            "emit Chrome trace-event JSON instead of raw spans "
            "(load in Perfetto or chrome://tracing)"
        ),
    )
    pe.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write to this file instead of stdout",
    )
    pe.set_defaults(func=cmd_obs_export)
    pt = osub.add_parser(
        "top",
        help="per-kernel and per-executor time summary aggregated from spans",
    )
    pt.add_argument(
        "--path",
        required=True,
        metavar="PATH",
        help="span JSONL file (written by 'serve --trace' or $REPRO_TRACE)",
    )
    pt.add_argument(
        "--limit", type=int, default=20, help="kernel rows to show (default: 20)"
    )
    pt.set_defaults(func=cmd_obs_top)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-broadcast`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.core.backend import get_backend, set_default_backend

    from repro.errors import BackendError

    if args.backend is not None:
        set_default_backend(args.backend)
    else:
        try:
            get_backend()  # fail fast on a bogus $REPRO_BACKEND
        except BackendError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
