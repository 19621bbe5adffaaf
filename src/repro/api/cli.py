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

Flags override a ``--spec`` file the same way for ``run``, ``sweep`` and
``submit`` (:func:`build_spec`): ``--problem``/``--method`` replace the
names (a sweep's whole axis), and ``--set`` and ``--problem-param`` merge
into the overrides and problem parameters (of every method and problem of
a sweep).  A flag the spec has no field for, such as ``submit --seed``
with a sweep file, is an error, never dropped.  ``run`` and
``sweep`` then check the spec at the service's door
(:func:`~repro.api.errors.validate_run_spec` /
:func:`~repro.api.errors.validate_sweep_spec`) before anything runs, so a
bad spec prints the service's ``SpecError`` as one line::

    $ repro run --problem sphere --set pop_size=2
    error: RunSpec.overrides: pop_size must be >= 4 for DE, got 2

The service family turns the same specs into long-lived jobs:
``serve`` starts the HTTP job server (:mod:`repro.service`), and the thin
client commands — ``submit``, ``status``, ``result``, ``cancel`` — talk
to the service over ``urllib`` (``--url``, or ``REPRO_SERVICE_URL``)::

    repro serve --port 8032 --data-dir service-data &
    repro submit --problem sphere --seed 7 --follow
    repro status <job-id>
    repro result <job-id> --out result.json
    repro cancel <job-id>

``submit`` posts the built spec and leaves the registry checks to the
server.  Installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import replace

from repro.api.driver import optimize
from repro.api.errors import SpecError, validate_run_spec
from repro.api.registries import list_methods, list_problems, list_samplers
from repro.api.spec import RunSpec
from repro.core.callbacks import ProgressCallback, SweepProgressCallback
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.store import StoreMismatchError

__all__ = ["main", "build_parser", "build_spec"]


def _assignment(text: str) -> tuple:
    """One ``KEY=VALUE`` flag value, the value parsed as a literal where it
    is one: ``"pop_size=20"`` -> ``("pop_size", 20)``, ``"x=true"`` ->
    ``("x", True)``."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    lowered = value.lower()
    if lowered in ("true", "false"):
        return key, lowered == "true"
    try:
        return key, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return key, value


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOHECO analog-circuit yield optimization (DATE 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups shared by several commands, each defined once.
    spec_flags = argparse.ArgumentParser(add_help=False)
    spec_flags.add_argument(
        "--spec",
        help="RunSpec or SweepSpec JSON file; the flags override it (submit "
        "reads a file with 'methods' or 'problems' keys as a sweep)",
    )
    spec_flags.add_argument(
        "--problem",
        dest="problems",
        action="append",
        default=[],
        metavar="NAME",
        help="problem registry name (a sweep takes several: one grid row each)",
    )
    spec_flags.add_argument(
        "--method",
        dest="methods",
        action="append",
        default=[],
        metavar="NAME",
        help="method registry name, default moheco (a sweep takes several: "
        "one grid column each)",
    )
    spec_flags.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        type=_assignment,
        metavar="KEY=VALUE",
        help="method/config override, applied to every method of a sweep "
        "(repeatable), e.g. --set pop_size=20",
    )
    spec_flags.add_argument(
        "--problem-param",
        dest="problem_params",
        action="append",
        default=[],
        type=_assignment,
        metavar="KEY=VALUE",
        help="problem factory parameter, applied to every problem of a sweep "
        "(repeatable), e.g. --problem-param sigma=0.2",
    )

    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument(
        "--progress",
        action="store_true",
        help="stream progress: one line per generation of a run, one line "
        "per finished run of a sweep",
    )
    output_flags.add_argument(
        "--quiet", action="store_true", help="suppress the summary line"
    )
    output_flags.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="print the outcome as JSON on stdout instead of the summary: "
        "{'spec', 'result'} for a run; the spec, per-run records and "
        "counters for a sweep (progress lines move to stderr)",
    )

    url_flag = argparse.ArgumentParser(add_help=False)
    url_flag.add_argument(
        "--url",
        default=None,
        help="service base URL (default: $REPRO_SERVICE_URL, else "
        "http://127.0.0.1:8032)",
    )

    run = sub.add_parser(
        "run",
        parents=[spec_flags, output_flags],
        help="execute one optimization run",
    )
    run.add_argument("--out", help="write {'spec', 'result'} JSON here")

    sweep = sub.add_parser(
        "sweep",
        parents=[spec_flags, output_flags],
        help="execute a replicated methods x problems x seeds grid",
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
        "--no-tables",
        action="store_true",
        help="suppress the aggregate tables on stdout",
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
        help="directory for job persistence (default: a private temporary "
        "directory)",
    )

    submit = sub.add_parser(
        "submit",
        parents=[url_flag, spec_flags],
        help="submit a run or sweep spec to the service",
    )
    for command in (run, submit):
        command.add_argument("--seed", type=int, help="root seed of the run")
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

    status = sub.add_parser(
        "status", parents=[url_flag], help="show a service job's status"
    )
    status.add_argument("job", help="job id (from submit)")
    status.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's NDJSON events until it finishes",
    )

    result_parser = sub.add_parser(
        "result", parents=[url_flag], help="fetch a finished service job's result"
    )
    result_parser.add_argument("job", help="job id (from submit)")
    result_parser.add_argument("--out", help="write the result JSON here")

    cancel = sub.add_parser(
        "cancel", parents=[url_flag], help="cancel a queued or running job"
    )
    cancel.add_argument("job", help="job id (from submit)")

    lister = sub.add_parser("list", help="show the plugin registries")
    lister.add_argument(
        "category",
        nargs="?",
        choices=["methods", "problems", "samplers"],
        help="one registry (default: all)",
    )
    return parser


def build_spec(args: argparse.Namespace) -> "RunSpec | SweepSpec":
    """The spec a ``run``, ``sweep`` or ``submit`` command line describes.

    The ``--spec`` file is a :class:`SweepSpec` for ``sweep`` (and for
    ``submit`` when it has ``methods`` or ``problems`` keys), else a
    :class:`RunSpec`; without a file the name flags make the spec.  Every
    flag then overrides it the same way whichever command it came from.
    A spec that does not parse raises :class:`SpecError`; a flag the spec
    has no field for exits with an ``error:`` line naming it.  Registry
    names are not resolved here: that is the validators' job.
    """
    payload = {}
    if args.spec:
        try:
            with open(args.spec, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: --spec {args.spec}: {error}") from error
    is_object = isinstance(payload, dict)
    sweep = args.command == "sweep" or (
        args.command == "submit"
        and is_object
        and ("methods" in payload or "problems" in payload)
    )
    if is_object:  # anything else fails in from_dict, which says so
        payload = {**payload, **_flag_fields(args, sweep)}
    spec = (SweepSpec if sweep else RunSpec).from_dict(payload)
    if args.overrides:
        spec = _merged(spec, "overrides", dict(args.overrides), axis="methods")
    if args.problem_params:
        params = dict(args.problem_params)
        spec = _merged(spec, "problem_params", params, axis="problems")
    return spec


def _flag_fields(args: argparse.Namespace, sweep: bool) -> dict:
    """The top-level spec fields the name and number flags set."""
    if sweep:
        if getattr(args, "seed", None) is not None:
            raise SystemExit(
                "error: --seed sets a run's seed; a sweep's root seed is its "
                "base_seed"
            )
        # Grid flags replace the file's axes wholesale, one bare name each.
        names = {"methods": args.methods, "problems": args.problems}
        fields = {axis: given for axis, given in names.items() if given}
        numbers = ("runs", "base_seed", "reference_n", "max_generations", "workers")
    else:
        names = {"problem": args.problems, "method": args.methods}
        for key, given in names.items():
            if len(given) > 1:
                raise SystemExit(f"error: a run takes one --{key}, got {given}")
        fields = {key: given[0] for key, given in names.items() if given}
        numbers = ("seed",)
    for name in numbers:
        if getattr(args, name, None) is not None:  # submit has no sweep numbers
            fields[name] = getattr(args, name)
    return fields


def _merged(spec, field: str, extra: dict, axis: str):
    """``spec`` with ``extra`` merged over its ``field`` dict; for a sweep,
    over that dict of every entry of ``axis``."""

    def merge(entry):
        return replace(entry, **{field: {**getattr(entry, field), **extra}})

    if isinstance(spec, SweepSpec):
        return replace(spec, **{axis: tuple(map(merge, getattr(spec, axis)))})
    return merge(spec)


def _check_out(path: str | None) -> None:
    """Exit with one ``error:`` line unless ``--out`` can be created, before
    anything runs: a bad path must not cost a finished run."""
    if path is None:
        return
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(directory):
        reason = f"directory {directory} does not exist"
    elif not os.access(directory, os.W_OK):
        reason = f"directory {directory} is not writable"
    else:
        return
    raise SystemExit(f"error: --out {path}: {reason}")


def _command_run(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    validate_run_spec(spec)
    _check_out(args.out)
    # With --json, stdout belongs to the payload; progress moves to stderr.
    progress_print = _stderr_print if args.json_output else print
    callbacks = [ProgressCallback(print_fn=progress_print)] if args.progress else []
    try:
        result = optimize(spec, callbacks=callbacks)
    except (ValueError, TypeError) as error:
        # What the door cannot see (a third-party problem factory without
        # a validate_params hook) still gets one line; genuine bugs still
        # raise elsewhere.
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
    return 0


def _stderr_print(*print_args, **print_kwargs) -> None:
    print(*print_args, file=sys.stderr, **print_kwargs)


def _command_sweep(args: argparse.Namespace) -> int:
    spec = build_spec(args)
    _check_out(args.out)
    progress_print = _stderr_print if args.json_output else print
    callbacks = (
        [SweepProgressCallback(print_fn=progress_print)] if args.progress else []
    )
    try:
        # run_sweep checks the spec at the service's door (validate_sweep_spec)
        # before it opens the store.
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
    spec = build_spec(args)
    client = _service_client(args)
    submit = client.submit_sweep if isinstance(spec, SweepSpec) else client.submit_run
    job = _service_errors(lambda: submit(spec.to_dict()))
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
    """One line per method: name and description.

    The description comes from the runner's ``description`` attribute,
    attached by the method registrations, so third-party methods opt in
    the same way.
    """
    from repro.api.registries import get_method

    print("methods:")
    names = list_methods()
    width = max(len(name) for name in names)
    for name in names:
        runner = get_method(name)
        description = getattr(runner, "description", "") or "(no description)"
        print(f"  {name:<{width}}  {description}")


def _command_list(args: argparse.Namespace) -> int:
    sections = {
        "methods": list_methods,
        "problems": list_problems,
        "samplers": list_samplers,
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
    except SpecError as error:
        # A spec that does not parse or fails the door: the service's line.
        raise SystemExit(f"error: {error}") from error
    except BrokenPipeError:
        # Piped into `head` & co.; die quietly like standard Unix tools.
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the dead pipe cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
