"""Command-line interface.

::

    python -m repro run --problem folded_cascode --method moheco --seed 7 \
        --out result.json
    python -m repro run --spec run.json --progress
    python -m repro sweep --problem sphere --method moheco \
        --method fixed_budget --runs 10 --workers 4 --out store.jsonl
    python -m repro list

``run`` executes one optimization described by flags or a
:class:`~repro.api.spec.RunSpec` JSON file and writes
``{"spec": ..., "result": ...}`` JSON; ``sweep`` executes a replicated
methods × problems × seeds grid (:class:`~repro.sweep.spec.SweepSpec`),
shards whole runs across ``--workers`` processes, persists records to a
resumable JSONL store (``--out`` + ``--resume``) and prints the paper's
aggregate tables; ``list`` prints the registries so you can see what
plugs in.  Both ``run`` and ``sweep`` take ``--json`` to emit the result
as machine-readable JSON on stdout (progress lines move to stderr).

The service family turns the same specs into long-lived jobs:
``serve`` starts the HTTP job server (:mod:`repro.service`), and the thin
client commands — ``submit``, ``status``, ``result``, ``cancel`` — talk
to the service over ``urllib`` (``--url``, or ``REPRO_SERVICE_URL``)::

    repro serve --port 8032 --data-dir service-data &
    repro submit --problem sphere --seed 7 --follow
    repro status <job-id>
    repro result <job-id> --out result.json
    repro cancel <job-id>

Installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import os
import sys

from repro.api.driver import optimize
from repro.api.registries import (
    list_caches,
    list_engines,
    list_methods,
    list_problems,
    list_samplers,
)
from repro.api.spec import RunSpec
from repro.core.callbacks import ProgressCallback, SweepProgressCallback
from repro.sweep import MethodSpec, ProblemSpec, SweepSpec, run_sweep
from repro.sweep.store import StoreMismatchError

__all__ = ["main", "build_parser"]


def _parse_value(text: str):
    """Best-effort literal parsing: ``"20"`` -> 20, ``"true"`` -> True."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_assignments(pairs: list[str], flag: str) -> dict:
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"{flag} expects KEY=VALUE, got {pair!r}")
        out[key] = _parse_value(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOHECO analog-circuit yield optimization (DATE 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one optimization run")
    run.add_argument("--spec", help="RunSpec JSON file (flags override it)")
    run.add_argument("--problem", help="problem registry name")
    run.add_argument("--method", help="method registry name (default: moheco)")
    run.add_argument("--seed", type=int, help="root seed of the run")
    run.add_argument(
        "--engine",
        help="execution backend for the refinement rounds: 'serial' (fused "
        "single-process dispatch, the default), 'process' (fused rounds "
        "sharded across worker processes) or 'auto' (measures the per-"
        "simulation cost on a pilot, then commits to serial or process); "
        "all backends produce the identical seeded result",
    )
    run.add_argument(
        "--engine-param",
        dest="engine_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="engine factory parameter (repeatable), e.g. --engine-param workers=4",
    )
    run.add_argument(
        "--cache",
        help="warm-start evaluation cache for the refinement rounds: 'lru' "
        "(content-addressed LRU with a byte budget and an optional JSONL "
        "spill file shared across runs).  Ledger-faithful: "
        "replayed rows are still charged, so results and simulation "
        "totals match a cache-off run",
    )
    run.add_argument(
        "--cache-param",
        dest="cache_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="cache factory parameter (repeatable), e.g. "
        "--cache-param spill_path=cache.jsonl --cache-param max_bytes=67108864",
    )
    run.add_argument("--out", help="write {'spec', 'result'} JSON here")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method/config override (repeatable), e.g. --set pop_size=20",
    )
    run.add_argument(
        "--problem-param",
        dest="problem_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="problem factory parameter (repeatable), e.g. --problem-param sigma=0.2",
    )
    run.add_argument(
        "--progress", action="store_true", help="stream per-generation progress"
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    run.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print {'spec', 'result'} JSON on stdout instead of the "
        "summary (progress lines move to stderr)",
    )

    sweep = sub.add_parser(
        "sweep", help="execute a replicated methods x problems x seeds grid"
    )
    sweep.add_argument("--spec", help="SweepSpec JSON file (flags override it)")
    sweep.add_argument(
        "--problem",
        dest="problems",
        action="append",
        default=[],
        metavar="NAME",
        help="problem registry name (repeatable: one grid row each)",
    )
    sweep.add_argument(
        "--method",
        dest="methods",
        action="append",
        default=[],
        metavar="NAME",
        help="method registry name (repeatable: one grid column each)",
    )
    sweep.add_argument(
        "--runs", type=int, help="independent replications per grid cell"
    )
    sweep.add_argument("--base-seed", type=int, help="root seed of the sweep")
    sweep.add_argument(
        "--reference-n", type=int, help="reference-MC sample count per run"
    )
    sweep.add_argument(
        "--max-generations", type=int, help="generation cap for every method"
    )
    sweep.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override applied to every method (repeatable)",
    )
    sweep.add_argument(
        "--problem-param",
        dest="problem_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="factory parameter applied to every problem (repeatable)",
    )
    sweep.add_argument(
        "--engine",
        help="per-run execution backend (serial/process/auto); "
        "seed-equivalent, combines with --workers sharding whole runs",
    )
    sweep.add_argument(
        "--engine-param",
        dest="engine_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="engine factory parameter (repeatable)",
    )
    sweep.add_argument(
        "--cache",
        help="per-run warm-start cache (lru); with a spill_path cache "
        "parameter the runs of the sweep share one warm cache file",
    )
    sweep.add_argument(
        "--cache-param",
        dest="cache_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="cache factory parameter (repeatable)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        help="process count sharding whole runs (default: spec's, else 1); "
        "every count produces bit-identical records",
    )
    sweep.add_argument(
        "--out", help="JSONL result store (one RunRecord line per run)"
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="continue a partial --out store: completed runs are replayed, "
        "only missing ones execute",
    )
    sweep.add_argument(
        "--progress", action="store_true", help="stream one line per run"
    )
    sweep.add_argument(
        "--no-tables",
        action="store_true",
        help="suppress the aggregate tables on stdout",
    )
    sweep.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    sweep.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print the sweep outcome (spec, per-run records, counters) as "
        "JSON on stdout instead of tables (progress lines move to stderr)",
    )

    serve_parser = sub.add_parser(
        "serve", help="start the long-lived HTTP optimization service"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8032, help="TCP port (default 8032; 0 = ephemeral)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="jobs simulating concurrently (default 2)",
    )
    serve_parser.add_argument(
        "--data-dir",
        help="directory for job persistence and the shared cache spill "
        "(default: a private temporary directory)",
    )
    serve_parser.add_argument(
        "--no-shared-cache",
        action="store_true",
        help="disable the multi-tenant warm cache (jobs may still bring "
        "their own via the spec's cache fields)",
    )

    def add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--url",
            default=None,
            help="service base URL (default: $REPRO_SERVICE_URL, else "
            "http://127.0.0.1:8032)",
        )

    submit = sub.add_parser(
        "submit", help="submit a run or sweep spec to the service"
    )
    add_url(submit)
    submit.add_argument(
        "--spec",
        help="RunSpec or SweepSpec JSON file (sweeps are recognised by "
        "their 'methods'/'problems' keys)",
    )
    submit.add_argument("--problem", help="problem registry name (run jobs)")
    submit.add_argument("--method", help="method registry name (default: moheco)")
    submit.add_argument("--seed", type=int, help="root seed of the run")
    submit.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="method/config override (repeatable)",
    )
    submit.add_argument(
        "--problem-param",
        dest="problem_params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="problem factory parameter (repeatable)",
    )
    submit.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's NDJSON events until it finishes",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its final status",
    )

    status = sub.add_parser("status", help="show a service job's status")
    add_url(status)
    status.add_argument("job", help="job id (from submit)")
    status.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's NDJSON events until it finishes",
    )

    result_parser = sub.add_parser(
        "result", help="fetch a finished service job's result"
    )
    add_url(result_parser)
    result_parser.add_argument("job", help="job id (from submit)")
    result_parser.add_argument("--out", help="write the result JSON here")

    cancel = sub.add_parser("cancel", help="cancel a queued or running job")
    add_url(cancel)
    cancel.add_argument("job", help="job id (from submit)")

    lister = sub.add_parser("list", help="show the plugin registries")
    lister.add_argument(
        "category",
        nargs="?",
        choices=["methods", "problems", "samplers", "engines", "caches"],
        help="one registry (default: all)",
    )
    return parser


def _apply_engine_flags(spec, args: argparse.Namespace):
    """Merge ``--engine``/``--engine-param`` into a Run- or SweepSpec.

    One rule for both subcommands: switching backends invalidates the
    spec's ``engine_params`` (they belong to the old backend); fresh
    ``--engine-param`` values re-fill them.
    """
    if args.engine:
        spec = dataclasses.replace(spec, engine=args.engine, engine_params={})
    if args.engine_params:
        if spec.engine is None:
            raise SystemExit("--engine-param requires --engine (or a spec engine)")
        spec = dataclasses.replace(
            spec,
            engine_params={
                **spec.engine_params,
                **_parse_assignments(args.engine_params, "--engine-param"),
            },
        )
    return spec


def _apply_cache_flags(spec, args: argparse.Namespace):
    """Merge ``--cache``/``--cache-param`` into a Run- or SweepSpec.

    Same semantics as the engine flags: switching caches invalidates the
    spec's ``cache_params``; fresh ``--cache-param`` values re-fill them.
    """
    if args.cache:
        spec = dataclasses.replace(spec, cache=args.cache, cache_params={})
    if args.cache_params:
        if spec.cache is None:
            raise SystemExit("--cache-param requires --cache (or a spec cache)")
        spec = dataclasses.replace(
            spec,
            cache_params={
                **spec.cache_params,
                **_parse_assignments(args.cache_params, "--cache-param"),
            },
        )
    return spec


def _command_run(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = RunSpec.from_dict(json.load(handle))
        flag_fields = {
            key: value
            for key, value in (
                ("problem", args.problem),
                ("method", args.method),
                ("seed", args.seed),
            )
            if value is not None
        }
        if flag_fields:
            spec = dataclasses.replace(spec, **flag_fields)
    elif args.problem:
        spec = RunSpec(
            problem=args.problem,
            method=args.method or "moheco",
            seed=args.seed,
        )
    else:
        raise SystemExit("run requires --problem or --spec")
    spec = _apply_engine_flags(spec, args)
    spec = _apply_cache_flags(spec, args)
    if args.overrides:
        spec = spec.with_overrides(**_parse_assignments(args.overrides, "--set"))
    if args.problem_params:
        spec = dataclasses.replace(
            spec,
            problem_params={
                **spec.problem_params,
                **_parse_assignments(args.problem_params, "--problem-param"),
            },
        )

    # With --json, stdout belongs to the payload; progress moves to stderr.
    progress_print = _stderr_print if args.json_output else print
    callbacks = [ProgressCallback(print_fn=progress_print)] if args.progress else []
    try:
        result = optimize(spec, callbacks=callbacks)
    except (ValueError, TypeError) as error:
        # User errors (unknown registry names, bad overrides) get the
        # message without a traceback; genuine bugs still raise elsewhere.
        raise SystemExit(f"error: {error}") from error

    payload = {"spec": spec.to_dict(), "result": result.to_dict()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    if args.json_output:
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    if not args.quiet:
        throughput = (
            f", {result.elapsed_seconds:.2f}s at "
            f"{result.sims_per_second:,.0f} sims/s"
            if result.elapsed_seconds > 0.0
            else ""
        )
        print(
            f"{spec.method} on {spec.problem}: yield {result.best_yield:.2%} "
            f"in {result.n_simulations} simulations "
            f"({result.generations} generations, {result.reason}{throughput})"
            + (f"; wrote {args.out}" if args.out else "")
        )
        if result.engine_decision is not None:
            decision = result.engine_decision
            crossover = decision["crossover_cost_seconds"]
            crossover_text = (
                f"{crossover * 1e6:.0f}us" if crossover is not None else "inf"
            )
            print(
                f"engine[auto]: chose {decision['chosen']} (measured "
                f"{decision['pilot_cost_seconds'] * 1e6:.0f}us/row vs "
                f"crossover {crossover_text} at "
                f"{decision['mean_rows_per_round']:.0f} rows/round, "
                f"workers={decision['workers']})"
            )
        if result.cache_stats is not None:
            stats = result.cache_stats
            print(
                f"cache[{spec.cache}]: hits={stats['hits']} "
                f"misses={stats['misses']} rows_replayed={stats['hit_rows']} "
                f"rows_simulated={stats['miss_rows']} "
                f"entries={stats['entries']} bytes={stats['bytes']}"
            )
    return 0


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    """Assemble the SweepSpec from ``--spec`` and/or flags.

    Raises the registry/validation ``ValueError``s of the spec layer; the
    caller converts them to the CLI's ``error: ...`` form.
    """
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            spec = SweepSpec.from_dict(json.load(handle))
        # Grid flags override the file's axes wholesale (a bare name entry
        # per flag), matching the scalar flags' override semantics.
        if args.methods:
            spec = dataclasses.replace(
                spec, methods=tuple(MethodSpec(name) for name in args.methods)
            )
        if args.problems:
            spec = dataclasses.replace(
                spec, problems=tuple(ProblemSpec(name) for name in args.problems)
            )
    elif args.problems and args.methods:
        spec = SweepSpec(
            methods=tuple(MethodSpec(name) for name in args.methods),
            problems=tuple(ProblemSpec(name) for name in args.problems),
        )
    else:
        raise SystemExit("sweep requires --spec, or --problem plus --method")

    flag_fields = {
        key: value
        for key, value in (
            ("runs", args.runs),
            ("base_seed", args.base_seed),
            ("reference_n", args.reference_n),
            ("max_generations", args.max_generations),
            ("workers", args.workers),
        )
        if value is not None
    }
    if flag_fields:
        spec = dataclasses.replace(spec, **flag_fields)
    if args.overrides:
        overrides = _parse_assignments(args.overrides, "--set")
        spec = dataclasses.replace(
            spec,
            methods=tuple(
                dataclasses.replace(m, overrides={**m.overrides, **overrides})
                for m in spec.methods
            ),
        )
    if args.problem_params:
        params = _parse_assignments(args.problem_params, "--problem-param")
        spec = dataclasses.replace(
            spec,
            problems=tuple(
                dataclasses.replace(
                    p, problem_params={**p.problem_params, **params}
                )
                for p in spec.problems
            ),
        )
    return _apply_cache_flags(_apply_engine_flags(spec, args), args)


def _stderr_print(*print_args, **print_kwargs) -> None:
    print(*print_args, file=sys.stderr, **print_kwargs)


def _command_sweep(args: argparse.Namespace) -> int:
    progress_print = _stderr_print if args.json_output else print
    callbacks = (
        [SweepProgressCallback(print_fn=progress_print)] if args.progress else []
    )
    try:
        # Spec assembly validates the grid (duplicate labels, runs >= 1,
        # unknown keys, ...) — user errors, not tracebacks.
        spec = _build_sweep_spec(args)
        result = run_sweep(
            spec,
            store=args.out,
            resume=args.resume,
            callbacks=callbacks,
        )
    except (ValueError, TypeError, FileExistsError, StoreMismatchError) as error:
        raise SystemExit(f"error: {error}") from error

    if args.json_output:
        payload = {
            "spec": spec.to_dict(),
            "records": [record.to_dict() for record in result.records],
            "executed": result.executed,
            "reused": result.reused,
            "cancelled": result.cancelled,
            "elapsed_seconds": result.elapsed_seconds,
            "workers": result.workers,
            "store_path": result.store_path,
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
        return 0
    if not args.no_tables:
        print(result.tables())
    if not args.quiet:
        wrote = f"; store: {result.store_path}" if result.store_path else ""
        print(
            f"\n{result.executed} run(s) executed, {result.reused} resumed "
            f"in {result.elapsed_seconds:.2f}s with {result.workers} "
            f"worker(s){wrote}"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    try:
        server = serve(
            args.host,
            args.port,
            workers=args.workers,
            data_dir=args.data_dir,
            shared_cache=not args.no_shared_cache,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: {error}") from error
    print(
        f"repro service listening on {server.url} "
        f"({args.workers} worker(s), data: {server.manager.data_dir})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    url = args.url or os.environ.get("REPRO_SERVICE_URL") or "http://127.0.0.1:8032"
    return ServiceClient(url)


def _service_errors(call):
    """Run one client call, mapping service/transport failures to exits."""
    import urllib.error

    from repro.service.client import ServiceError

    try:
        return call()
    except ServiceError as error:
        raise SystemExit(f"error: {error}") from error
    except urllib.error.URLError as error:
        raise SystemExit(
            f"error: cannot reach the service ({error.reason}); is "
            "`repro serve` running, and is --url/$REPRO_SERVICE_URL right?"
        ) from error


def _print_events(client, job_id: str) -> None:
    """Stream one NDJSON line per event until the job is terminal."""
    for event in client.events(job_id):
        print(json.dumps(event), flush=True)


def _command_submit(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise SystemExit("error: the spec file must hold a JSON object")
        # A sweep spec is unmistakable: it has grid axes.
        is_sweep = "methods" in payload or "problems" in payload
    elif args.problem:
        payload = {
            "problem": args.problem,
            "method": args.method or "moheco",
            "seed": args.seed,
        }
        is_sweep = False
    else:
        raise SystemExit("submit requires --spec or --problem")
    if not args.spec:
        if args.overrides:
            payload["overrides"] = _parse_assignments(args.overrides, "--set")
        if args.problem_params:
            payload["problem_params"] = _parse_assignments(
                args.problem_params, "--problem-param"
            )

    client = _service_client(args)
    job = _service_errors(
        lambda: client.submit_sweep(payload)
        if is_sweep
        else client.submit_run(payload)
    )
    print(json.dumps(job), flush=True)
    if args.follow:
        _service_errors(lambda: _print_events(client, job["id"]))
    if args.wait or args.follow:
        final = _service_errors(lambda: client.wait(job["id"]))
        print(json.dumps(final), flush=True)
        return 0 if final["state"] == "succeeded" else 1
    return 0


def _command_status(args: argparse.Namespace) -> int:
    client = _service_client(args)
    print(json.dumps(_service_errors(lambda: client.status(args.job))))
    if args.follow:
        _service_errors(lambda: _print_events(client, args.job))
    return 0


def _command_result(args: argparse.Namespace) -> int:
    client = _service_client(args)
    payload = _service_errors(lambda: client.result(args.job))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0 if payload["state"] in ("succeeded", "cancelled") else 1


def _command_cancel(args: argparse.Namespace) -> int:
    client = _service_client(args)
    print(json.dumps(_service_errors(lambda: client.cancel(args.job))))
    return 0


def _print_methods() -> None:
    """One line per method: name, description, composed-config summary.

    The description comes from the runner's ``description`` attribute and
    the config summary from ``compose_config`` — both attached by the
    method registrations, so third-party methods opt in the same way.
    """
    from repro.api.registries import get_method

    print("methods:")
    names = list_methods()
    width = max(len(name) for name in names)
    for name in names:
        runner = get_method(name)
        description = getattr(runner, "description", "") or "(no description)"
        compose = getattr(runner, "compose_config", None)
        if compose is not None:
            parts = " ".join(
                f"{field}={compose[field]}"
                for field in ("screener", "proposer", "selection", "backbone")
            )
            description = f"{description} [{parts}]"
        print(f"  {name:<{width}}  {description}")


def _command_list(args: argparse.Namespace) -> int:
    sections = {
        "methods": list_methods,
        "problems": list_problems,
        "samplers": list_samplers,
        "engines": list_engines,
        "caches": list_caches,
    }
    chosen = [args.category] if args.category else list(sections)
    for name in chosen:
        if name == "methods":
            _print_methods()
        else:
            print(f"{name}: {', '.join(sections[name]())}")
    return 0


_COMMANDS = {
    "run": _command_run,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "submit": _command_submit,
    "status": _command_status,
    "result": _command_result,
    "cancel": _command_cancel,
    "list": _command_list,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro`` and the ``repro`` script."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Piped into `head` & co.; die quietly like standard Unix tools.
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
