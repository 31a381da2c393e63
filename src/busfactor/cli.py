"""Command-line front end.

Flat subcommands (analyze, generate, sweep, nulltest, optimize, decay) with
long-form flags only. A JSON file passed via --config supplies defaults for
any flag; explicit flags win. Outputs are deterministic for a fixed seed
and independent of --workers.

Exit codes: 0 success, 1 unreadable or malformed input, 2 infeasible or
degenerate request (including out-of-range thresholds), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .coverage import coverage_report, normalize_delta
from .errors import DegenerateError, InfeasibleError, ParseError
from .generators import GeneratorConfig, generate_powerlaw, run_sweep, SWEEP_KINDS
from .graph import FrozenGraph, GraphLike
from .io import file_format, graph_object, load_edge_list, person_label, render_edge_list
from .optimize import (
    AnnealingConfig,
    NullModelConfig,
    anneal_restarts,
    calibrate_pvalues,
    compare_decay,
    permutation_test,
)
from .reporting import (
    RunManifest,
    canonical_json,
    decay_csv,
    digest_file,
    paired_decay_csv,
    sweep_csv,
    trace_csv,
    write_text,
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
    "command",
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
            "--workers", type=_positive_flag, help="parallel workers (default 1)"
        )
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
    params.pop("config", None)
    return params


def _require(params: dict, *names: str) -> None:
    for name in names:
        if params.get(name) is None:
            raise ParseError(f"missing required flag --{name.replace('_', '-')}")


def _load_graph(params: dict) -> tuple[FrozenGraph, str]:
    _require(params, "input")
    path = params["input"]
    graph = load_edge_list(path, params.get("format")).freeze()
    return graph, digest_file(path)


def _manifest(command: str, params: dict, input_digest: str | None) -> RunManifest:
    recorded = {
        k: v for k, v in sorted(params.items())
        if k not in _NON_REPRODUCIBLE and v is not None
    }
    return RunManifest(
        command=command,
        parameters=recorded,
        seed=params.get("seed"),
        input_sha256=input_digest,
        version=__version__,
    )


# -- command handlers ---------------------------------------------------------


def _cmd_analyze(params: dict) -> int:
    graph, digest = _load_graph(params)
    _require(params, "output")
    delta = normalize_delta(params["delta"])
    decay_path = params["decay_output"] or f"{params['output']}.decay.csv"
    params = {**params, "decay_output": str(decay_path)}
    manifest = _manifest("analyze", params, digest)

    report = coverage_report(graph, delta)
    result = bus_factor_greedy(graph)
    write_text(decay_path, decay_csv(result, manifest))
    payload = {
        "manifest": manifest.to_dict(),
        **report.to_dict(),
        "robustness": result.value,
        "removal_sequence": [person_label(p) for p in result.sequence],
        "curve": list(result.curve.values),
        "decay_curve": str(decay_path),
    }
    write_text(params["output"], canonical_json(payload))
    return 0


def _cmd_generate(params: dict) -> int:
    _require(params, "output")
    config = GeneratorConfig(
        n_people=params["people"],
        n_tasks=params["tasks"],
        exponent_people=params["exponent_people"],
        exponent_tasks=params["exponent_tasks"],
        min_degree=params["min_degree"],
        seed=params["seed"],
    )
    graph = generate_powerlaw(config).freeze()
    manifest = _manifest("generate", params, None)
    _write_graph(graph, params["output"], params.get("format"), manifest)
    return 0


def _write_graph(
    graph: GraphLike, path: str, fmt: str | None, manifest: RunManifest
) -> None:
    if file_format(path, fmt) == "csv":
        write_text(path, manifest.comment_line() + "\n" + render_edge_list(graph, "csv"))
    else:
        payload = {"manifest": manifest.to_dict(), **graph_object(graph)}
        write_text(path, canonical_json(payload))


def _cmd_sweep(params: dict) -> int:
    graph, digest = _load_graph(params)
    _require(params, "output", "kind")
    table = run_sweep(
        graph,
        kind=params["kind"],
        total_steps=params["steps"],
        stride=params["stride"],
        delta=params["delta"],
        seed=params["seed"],
    )
    manifest = _manifest("sweep", params, digest)
    write_text(params["output"], sweep_csv(table, manifest))
    return 0


def _cmd_nulltest(params: dict) -> int:
    graph, digest = _load_graph(params)
    _require(params, "output")
    config = NullModelConfig(
        n_samples=params["samples"],
        swaps_per_edge=params["swaps_per_edge"],
        seed=params["seed"],
    )
    manifest = _manifest("nulltest", params, digest)
    if params["calibrate"] is not None:
        pvalues = calibrate_pvalues(
            graph, config, trials=params["calibrate"], workers=params["workers"]
        )
        payload = {
            "manifest": manifest.to_dict(),
            "trials": params["calibrate"],
            "n_samples": config.n_samples,
            "p_values": pvalues,
        }
    else:
        result = permutation_test(graph, config, workers=params["workers"])
        payload = {
            "manifest": manifest.to_dict(),
            **result.to_dict(include_null_values=bool(params["include_null_values"])),
        }
    write_text(params["output"], canonical_json(payload))
    return 0


def _cmd_optimize(params: dict) -> int:
    graph, digest = _load_graph(params)
    _require(params, "output_prefix")
    config = AnnealingConfig(
        initial_temperature=params["initial_temperature"],
        cooling_rate=params["cooling_rate"],
        steps_per_temperature=params["steps_per_temperature"],
        min_temperature=params["min_temperature"],
        seed=params["seed"],
    )
    best_graph, best_trace = anneal_restarts(
        graph, config, params["restarts"], params["workers"]
    )
    best_graph = best_graph.freeze()
    manifest = _manifest("optimize", params, digest)
    prefix = params["output_prefix"]
    fmt = params.get("format") or "csv"
    _write_graph(best_graph, f"{prefix}.graph.{fmt}", fmt, manifest)
    write_text(f"{prefix}.trace.csv", trace_csv(best_trace, manifest))
    paired = compare_decay(graph, best_graph)
    write_text(f"{prefix}.decay.csv", paired_decay_csv(paired, manifest))
    return 0


def _cmd_decay(params: dict) -> int:
    graph, digest = _load_graph(params)
    _require(params, "output")
    result = bus_factor_greedy(graph)
    manifest = _manifest("decay", params, digest)
    write_text(params["output"], decay_csv(result, manifest))
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "generate": _cmd_generate,
    "sweep": _cmd_sweep,
    "nulltest": _cmd_nulltest,
    "optimize": _cmd_optimize,
    "decay": _cmd_decay,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _merge_params(args, _flag_actions(parser))
        return _HANDLERS[args.command](params)
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
