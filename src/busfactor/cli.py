"""Command-line front end.

Flat subcommands (analyze, generate, sweep, nulltest, optimize, decay) with
long-form flags only. Two tables, ``_FLAGS`` (each flag's parser keywords)
and ``_COMMANDS`` (each command's handler, help line and flags), build the
parser and the checks of --config values. A JSON file passed via --config
supplies defaults for any flag; explicit flags win. Outputs are
deterministic for a fixed seed and independent of --workers. Each command's
handler returns bare artifacts: a report's fields, a graph, or a CSV's
lines. ``main`` alone loads the input, and embeds the run manifest in every
artifact it writes.

Exit codes: 0 success, 1 unreadable or malformed input, 2 infeasible or
degenerate request (including out-of-range thresholds), 3 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
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
    FORMATS,
    csv_pieces,
    file_format,
    graph_fields,
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


# Each flag's add_argument keywords, by destination (its name, dashed).
_SWITCH = {"action": "store_true", "default": None}
_FLAGS = {
    "config": {"help": "JSON file of flag defaults"},
    "format": {"choices": FORMATS, "help": "graph file format (default: by file extension)"},
    "input": {"help": "graph file to analyze"},
    "delta": {"type": _delta_flag, "help": "coverage threshold in (0,1]"},
    "output": {"help": "output file path"},
    "decay_output": {"help": "decay CSV path (default <output>.decay.csv)"},
    "people": {"type": int},
    "tasks": {"type": int},
    "exponent_people": {"type": float},
    "exponent_tasks": {"type": float},
    "min_degree": {"type": int},
    "seed": {"type": _seed_flag},
    "kind": {"choices": SWEEP_KINDS},
    "steps": {"type": int, "help": "total modifications"},
    "stride": {"type": int, "help": "modifications between checkpoints"},
    "workers": {"type": _positive_flag, "help": "parallel workers (default 1)"},
    "samples": {"type": int, "help": "null ensemble size"},
    "swaps_per_edge": {"type": int},
    "calibrate": {"type": int, "metavar": "TRIALS",
                  "help": "instead of testing, emit p-values for null-drawn observations"},
    "include_null_values": {**_SWITCH, "help": "embed the full null sample in the report"},
    "initial_temperature": {"type": float},
    "cooling_rate": {"type": float},
    "steps_per_temperature": {"type": int},
    "min_temperature": {"type": float},
    "restarts": {"type": int, "help": "independent chains, best kept"},
    "output_prefix": {"help": "writes <prefix>.graph.*, .trace.csv, .decay.csv"},
    "adaptive": {**_SWITCH,
                 "help": "accepted; the static degree order is used (re-ranking gives the same)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busfactor",
        description="Bus factor analysis of person-task bipartite graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for dest in ("config", "format", *flags):
            p.add_argument("--" + dest.replace("_", "-"), **_FLAGS[dest])
    return parser


def _config_value(flag: dict, key: str, value):
    """A --config value given the checks its flag's text would get."""
    try:
        if flag.get("action") == "store_true":  # a switch such as --adaptive
            if not isinstance(value, bool):
                raise ValueError(f"expected true or false, got {value!r}")
        elif "type" in flag:
            value = flag["type"](str(value))
        elif not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        if "choices" in flag and value not in flag["choices"]:
            raise ValueError(f"{value!r} is not one of {sorted(flag['choices'])}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"--config key {key!r}: {exc}") from exc
    return value


def _merge_params(args: argparse.Namespace) -> dict:
    """Built-in defaults, overridden by --config values, overridden by flags.

    Only this subcommand's flags (the destinations its parser set) are
    kept, and their config values pass through the flag's converter and
    choices; config keys belonging to other subcommands are tolerated
    (shared pipeline configs), unknown keys are rejected.
    """
    params = {k: DEFAULTS.get(k) for k in vars(args) if k != "command"}
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
            if norm in params:
                params[norm] = _config_value(_FLAGS[norm], key, value)
            elif norm not in _FLAGS:
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
            return json_pieces({"manifest": manifest, **graph_fields(artifact)})
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


# Each command's handler, help line and flags (after the --config and
# --format that every command takes), in --help order.
_COMMANDS = {
    "analyze": (_cmd_analyze, "coverage and robustness report",
                ("input", "delta", "output", "decay_output")),
    "generate": (_cmd_generate, "synthetic power-law graph",
                 ("people", "tasks", "exponent_people", "exponent_tasks", "min_degree",
                  "seed", "output")),
    "sweep": (_cmd_sweep, "perturbation sweep of the metrics",
              ("input", "kind", "steps", "stride", "delta", "seed", "output")),
    "nulltest": (_cmd_nulltest, "degree-preserving permutation test",
                 ("input", "workers", "samples", "swaps_per_edge", "seed", "calibrate",
                  "include_null_values", "output")),
    "optimize": (_cmd_optimize, "simulated-annealing rewiring",
                 ("input", "workers", "seed", "initial_temperature", "cooling_rate",
                  "steps_per_temperature", "min_temperature", "restarts", "output_prefix")),
    "decay": (_cmd_decay, "greedy decay curve CSV", ("input", "adaptive", "output")),
}

# The flags a command needs and has no default for, checked in this order
# before any input is read.
_REQUIRED = ("input", "output", "output_prefix", "kind")


def main(argv: list[str] | None = None) -> int:
    # No command calls BLAS, so numpy's idle thread pool is pure start-up
    # cost; a value the user sets wins, and pool workers inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    temporaries: dict[str, str] = {}  # each temporary file to its output's path
    writing = None  # the output being written, as its flag names it
    try:
        params = _merge_params(args)
        for name in _REQUIRED:
            if name in params and params[name] is None:
                raise ParseError(f"missing required flag --{name.replace('_', '-')}")
        graph = digest = None
        if "input" in params:
            graph = load_edge_list(params["input"], params["format"])
            digest = digest_file(params["input"])
        manifest = _manifest(args.command, params, digest)
        handler, _, _ = _COMMANDS[args.command]
        artifacts = handler(params, graph)
        targets = {path: os.path.realpath(path) for path in artifacts}
        if "input" in params and os.path.realpath(params["input"]) in targets.values():
            raise ParseError(f"an output names the --input file {params['input']}")
        # Each artifact is written beside its target and moved into place
        # once all are complete, so that a failed run writes no file. An
        # output that exists and is not a regular file (a FIFO, a device, a
        # pipe as /dev/stdout) cannot be replaced: it is written in place,
        # after the rest.
        in_place = {p for p in artifacts if os.path.exists(p) and not os.path.isfile(p)}
        for writing in sorted(artifacts, key=in_place.__contains__):
            path = writing
            if writing not in in_place:
                path = f"{targets[writing]}.{os.getpid()}.tmp"
                open(path, "x").close()  # a file already there is left alone
                temporaries[path] = writing
            write_text(path, _stamped(writing, artifacts[writing], manifest, params["format"]))
        while temporaries:
            temporary, writing = temporaries.popitem()
            os.replace(temporary, targets[writing])
        return 0
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        if writing is not None and isinstance(exc, OSError) and exc.filename is not None:
            exc = OSError(exc.errno, exc.strerror, writing)  # not the temporary's name
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
    finally:
        for temporary in temporaries:
            with contextlib.suppress(OSError):
                os.remove(temporary)


if __name__ == "__main__":
    sys.exit(main())
