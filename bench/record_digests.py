"""Record the reference sha256 of every artifact, for every workload variant.

    python3 bench/record_digests.py

Runs each variant's command chain once through the CLI and rewrites
``digests.json``. Run it only when an output format changes on purpose;
a performance change must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import DIGESTS, WORK, cli_pass, setup, sha256
from workloads import VARIANTS, WORKLOADS, criterion9


def record(workload) -> dict:
    work = WORK / f"record-{workload.name}"
    setup(workload, work)
    result = cli_pass(workload, work, perf_counter(), reference=None)
    if result.problems:
        raise SystemExit(f"{workload.name} variant {workload.variant}: {result.problems}")
    names = [a for c in workload.commands for a in c.artifacts]
    if workload.prepared_input:
        names.append(workload.prepared_input[1])
    return {name: sha256(work / name) for name in sorted(names)}


def main() -> int:
    digests = {"criterion-9": {"0": record(criterion9())}}
    for name, make in WORKLOADS.items():
        digests[name] = {}
        for variant in range(VARIANTS):
            digests[name][str(variant)] = record(make(variant))
            print(f"{name} variant {variant} recorded", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
