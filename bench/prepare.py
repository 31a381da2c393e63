"""Set-up step run in a child interpreter with the checkout's ``src`` on
PYTHONPATH: import the package, optionally write a fixture graph, and print
where the package was imported from.

    python bench/prepare.py                      # import check only
    python bench/prepare.py silo silo.csv        # criterion-8 two-silo graph
    python bench/prepare.py criterion-9 f.csv    # criterion-9 two-silo graph
"""

import json
import sys

import numpy

import busfactor.cli  # noqa: F401  (the import cost every CLI command pays)
from busfactor import GeneratorConfig, disjoint_union, generate_powerlaw, save_edge_list

# (people, tasks, seed of each silo), as in acceptance criteria 8 and 9
FIXTURES = {
    "silo": (50, 65, (501, 502)),
    "criterion-9": (15, 20, (61, 62)),
}


def build(fixture: str):
    people, tasks, seeds = FIXTURES[fixture]
    first, second = (
        generate_powerlaw(GeneratorConfig(n_people=people, n_tasks=tasks, seed=s))
        for s in seeds
    )
    return disjoint_union(first, second)


if __name__ == "__main__":
    if len(sys.argv) == 3:
        save_edge_list(build(sys.argv[1]), sys.argv[2])
    print(json.dumps({
        "busfactor": busfactor.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }))
