"""Command-line front end.

Flat subcommands (analyze, generate, sweep, nulltest, optimize, decay) with
long-form flags only. A JSON file passed via --config supplies defaults for
any flag; explicit flags win. Outputs are deterministic for a fixed seed
and independent of --workers. Each command's handler returns bare
artifacts: a report's fields, a graph, or a CSV's lines. ``main`` alone
loads the input, and embeds the run manifest in every artifact it writes.

Exit codes: 0 success, 1 unreadable or malformed input, 2 infeasible or
degenerate request (including out-of-range thresholds), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import os
import sys
from collections.abc import Iterable

from . import __version__
from .coverage import coverage_report, normalize_delta
from .errors import DegenerateError, InfeasibleError, ParseError
from .generators import GeneratorConfig, generate_powerlaw, run_sweep, SWEEP_KINDS
from .graph import FrozenGraph
from .io import (
    csv_pieces,
    file_format,
    json_pieces,
    load_edge_list,
    person_label,
    write_text,
)
from .optimize import (
    AnnealingConfig,
    NullModelConfig,
    anneal_restarts,
    calibrate_pvalues,
    permutation_test,
)
from .reporting import (
    canonical_json,
    decay_csv,
    digest_file,
    paired_decay_csv,
    sweep_csv,
    trace_csv,
)
from .robustness import bus_factor_greedy

# Built-in defaults of the flags, by destination: the config classes' field
# defaults, plus literals for the flags that no config field defaults.
DEFAULTS = {
    f.name: f.default
    for config in (GeneratorConfig, NullModelConfig, AnnealingConfig)
    for f in dataclasses.fields(config)
    if f.default is not dataclasses.MISSING
} | {
    "delta": "0.5",
    "workers": 1,
    "people": 750,
    "tasks": 1000,
    "steps": 5000,
    "stride": 100,
    "samples": 1000,
    "include_null_values": False,
    "restarts": 1,
    "adaptive": False,
}

# Flags that cannot influence result bytes (worker counts, file locations)
# stay out of manifests; input identity is pinned by the digest instead.
_NON_REPRODUCIBLE = {
    "workers",
    "config",
    "input",
    "output",
    "output_prefix",
    "decay_output",
}


def _delta_flag(text: str) -> str:
    try:
        normalize_delta(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _positive_flag(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed_flag(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busfactor",
        description="Bus factor analysis of person-task bipartite graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, graph_input: bool = True) -> None:
        p.add_argument("--config", help="JSON file of flag defaults")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            help="graph file format (default: by file extension)",
        )
        if graph_input:
            p.add_argument("--input", help="graph file to analyze")

    p = sub.add_parser("analyze", help="coverage and robustness report")
    common(p)
    p.add_argument("--delta", type=_delta_flag, help="coverage threshold in (0,1]")
    p.add_argument("--output", help="JSON report path")
    p.add_argument("--decay-output", help="decay CSV path (default <output>.decay.csv)")

    p = sub.add_parser("generate", help="synthetic power-law graph")
    common(p, graph_input=False)
    p.add_argument("--people", type=int)
    p.add_argument("--tasks", type=int)
    p.add_argument("--exponent-people", type=float)
    p.add_argument("--exponent-tasks", type=float)
    p.add_argument("--min-degree", type=int)
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument("--output", help="graph file path")

    p = sub.add_parser("sweep", help="perturbation sweep of the metrics")
    common(p)
    p.add_argument("--kind", choices=SWEEP_KINDS)
    p.add_argument("--steps", type=int, help="total modifications")
    p.add_argument("--stride", type=int, help="modifications between checkpoints")
    p.add_argument("--delta", type=_delta_flag)
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument("--output", help="sweep CSV path")

    p = sub.add_parser("nulltest", help="degree-preserving permutation test")
    common(p)
    p.add_argument("--workers", type=_positive_flag, help="parallel workers (default 1)")
    p.add_argument("--samples", type=int, help="null ensemble size")
    p.add_argument("--swaps-per-edge", type=int)
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument(
        "--calibrate",
        type=int,
        metavar="TRIALS",
        help="instead of testing, emit p-values for null-drawn observations",
    )
    p.add_argument(
        "--include-null-values", action="store_true", default=None,
        help="embed the full null sample in the report",
    )
    p.add_argument("--output", help="JSON result path")

    p = sub.add_parser("optimize", help="simulated-annealing rewiring")
    common(p)
    p.add_argument("--workers", type=_positive_flag, help="parallel workers (default 1)")
    p.add_argument("--seed", type=_seed_flag)
    p.add_argument("--initial-temperature", type=float)
    p.add_argument("--cooling-rate", type=float)
    p.add_argument("--steps-per-temperature", type=int)
    p.add_argument("--min-temperature", type=float)
    p.add_argument("--restarts", type=int, help="independent chains, best kept")
    p.add_argument("--output-prefix", help="writes <prefix>.graph.*, .trace.csv, .decay.csv")

    p = sub.add_parser("decay", help="greedy decay curve CSV")
    common(p)
    p.add_argument(
        "--adaptive", action="store_true", default=None,
        help="accepted; the static degree order is used (re-ranking gives the same)",
    )
    p.add_argument("--output", help="decay CSV path")

    return parser


def _flag_actions(parser: argparse.ArgumentParser) -> dict[str, dict]:
    """Each subcommand's flag actions, by destination."""
    (commands,) = (a for a in parser._actions if a.dest == "command")
    return {
        command: {a.dest: a for a in sub._actions if a.dest != "help"}
        for command, sub in commands.choices.items()
    }


def _config_value(action: argparse.Action, key: str, value):
    """A --config value given the checks its flag's text would get."""
    try:
        if action.nargs == 0:  # a switch such as --adaptive
            if not isinstance(value, bool):
                raise ValueError(f"expected true or false, got {value!r}")
        elif action.type is not None:
            value = action.type(str(value))
        elif not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"{value!r} is not one of {sorted(action.choices)}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"--config key {key!r}: {exc}") from exc
    return value


def _merge_params(args: argparse.Namespace, actions: dict[str, dict]) -> dict:
    """Built-in defaults, overridden by --config values, overridden by flags.

    Only this subcommand's flags are kept, and their config values pass
    through the flag's converter and choices (``actions``, by subcommand
    and destination); config keys belonging to other subcommands are
    tolerated (shared pipeline configs), unknown keys are rejected.
    """
    own = actions[args.command]
    params = {k: DEFAULTS.get(k) for k in own}
    given = {k: v for k, v in vars(args).items() if v is not None and k != "command"}
    config_path = given.pop("config", None)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (RecursionError, ValueError) as exc:
                raise ParseError(f"--config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParseError("--config file must contain a JSON object")
        for key, value in loaded.items():
            norm = key.replace("-", "_")
            if norm in own:
                params[norm] = _config_value(own[norm], key, value)
            elif not any(norm in flags for flags in actions.values()):
                raise ParseError(f"unknown --config key {key!r}")
    params.update(given)
    return params


def _call(fn, params: dict, *args, **renames: str):
    """``fn(*args, ...)`` with each later parameter of ``fn`` taking the flag
    of the same name, or of its name in ``renames``."""
    names = list(inspect.signature(fn).parameters)[len(args):]
    return fn(*args, **{name: params[renames.get(name, name)] for name in names})


def _manifest(command: str, params: dict, input_digest: str | None) -> dict:
    """Everything needed to replay the command bit for bit."""
    return {
        "command": command,
        "parameters": {
            k: v for k, v in sorted(params.items())
            if k not in _NON_REPRODUCIBLE and v is not None
        },
        "seed": params.get("seed"),
        "input_sha256": input_digest,
        "version": __version__,
    }


Artifact = dict | FrozenGraph | Iterable[str]


def _stamped(
    path: str, artifact: Artifact, manifest: dict, fmt: str | None
) -> str | Iterable[str]:
    """The text of the file at ``path``, or its pieces as they are rendered:
    ``artifact`` with ``manifest`` embedded, as a ``manifest`` key of a JSON
    file or a ``# manifest:`` line at the head of a CSV file."""
    if isinstance(artifact, dict):
        return canonical_json({"manifest": manifest, **artifact})
    if isinstance(artifact, FrozenGraph):
        if file_format(path, fmt) == "json":
            return json_pieces(artifact, canonical_json(manifest))
        artifact = csv_pieces(artifact)
    comment = "# manifest: " + canonical_json(manifest, indent=None) + "\n"
    return itertools.chain([comment], artifact)


# -- command handlers ---------------------------------------------------------
# Each takes the flags and the --input graph (None for `generate`), and
# returns its bare artifacts by path, in the order `main` writes them.


def _cmd_analyze(params: dict, graph: FrozenGraph) -> dict[str, Artifact]:
    decay_path = params["decay_output"] or f"{params['output']}.decay.csv"
    if os.path.realpath(decay_path) == os.path.realpath(params["output"]):
        raise ParseError(f"--decay-output {decay_path} names the --output file")
    report = coverage_report(graph, params["delta"])
    result = bus_factor_greedy(graph)
    fields = {
        **report.to_dict(),
        "robustness": result.value,
        "removal_sequence": [person_label(p) for p in result.sequence],
        "curve": list(result.curve),
        "decay_curve": str(decay_path),
    }
    return {decay_path: decay_csv(result), params["output"]: fields}


def _cmd_generate(params: dict, graph: None) -> dict[str, Artifact]:
    config = _call(GeneratorConfig, params, n_people="people", n_tasks="tasks")
    return {params["output"]: generate_powerlaw(config)}


def _cmd_sweep(params: dict, graph: FrozenGraph) -> dict[str, Artifact]:
    table = _call(run_sweep, params, graph, total_steps="steps")
    return {params["output"]: sweep_csv(table)}


def _cmd_nulltest(params: dict, graph: FrozenGraph) -> dict[str, Artifact]:
    config = _call(NullModelConfig, params, n_samples="samples")
    if params["calibrate"] is not None:
        pvalues = calibrate_pvalues(
            graph, config, trials=params["calibrate"], workers=params["workers"]
        )
        fields = {
            "trials": params["calibrate"],
            "n_samples": config.n_samples,
            "p_values": pvalues,
        }
    else:
        result = permutation_test(graph, config, workers=params["workers"])
        fields = result.to_dict(include_null_values=bool(params["include_null_values"]))
    return {params["output"]: fields}


def _cmd_optimize(params: dict, graph: FrozenGraph) -> dict[str, Artifact]:
    best_graph, best_trace = anneal_restarts(
        graph, _call(AnnealingConfig, params), params["restarts"], params["workers"]
    )
    prefix = params["output_prefix"]
    curves = bus_factor_greedy(graph).curve, bus_factor_greedy(best_graph).curve
    return {
        f"{prefix}.graph.{params['format'] or 'csv'}": best_graph,
        f"{prefix}.trace.csv": trace_csv(best_trace),
        f"{prefix}.decay.csv": paired_decay_csv(*curves),
    }


def _cmd_decay(params: dict, graph: FrozenGraph) -> dict[str, Artifact]:
    return {params["output"]: decay_csv(bus_factor_greedy(graph))}


_HANDLERS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
    "nulltest": _cmd_nulltest,
    "optimize": _cmd_optimize,
    "decay": _cmd_decay,
}

# The flags a command needs and has no default for, checked in this order
# before any input is read.
_REQUIRED = ("input", "output", "output_prefix", "kind")


def main(argv: list[str] | None = None) -> int:
    # No command calls BLAS, so numpy's idle thread pool is pure start-up
    # cost; a value the user sets wins, and pool workers inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _merge_params(args, _flag_actions(parser))
        for name in _REQUIRED:
            if name in params and params[name] is None:
                raise ParseError(f"missing required flag --{name.replace('_', '-')}")
        graph = digest = None
        if "input" in params:
            graph = load_edge_list(params["input"], params["format"])
            digest = digest_file(params["input"])
        manifest = _manifest(args.command, params, digest)
        for path, artifact in _HANDLERS[args.command](params, graph).items():
            write_text(path, _stamped(path, artifact, manifest, params["format"]))
        return 0
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        print(f"busfactor: input error: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleError, DegenerateError) as exc:
        print(f"busfactor: infeasible: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"busfactor: invalid request: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # invariant violation or bug
        print(f"busfactor: internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
