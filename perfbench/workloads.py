"""The three benchmark workloads, built from the benchmark's seed.

Each workload is one cold `paraflux` CLI run.  The benchmark writes the
audit manifest (or builds the `decompose` argv) from the seed, and the
program receives only those inputs.  README.md in this directory records
why each workload was chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 811

# The six multiplication sets of manifests/multiplication.json, copied here
# so that the workload stays fixed if that file is edited later.
MULTIPLICATIONS = [
    {"mode": "positive", "params": [[0.4, 2.0], [1.0, 2.0]], "q": 2.0,
     "tuples": 10},
    {"mode": "positive", "params": [[0.3, 1.5], [0.8, 4.0]], "q": 1.0,
     "tuples": 10},
    {"mode": "positive", "params": [[0.4, 2.0], [0.9, 3.0], [1.1, 3.0]],
     "q": 2.0, "tuples": 10},
    {"mode": "negative", "params": [[-0.25, 2.0], [0.5, 2.0]], "q": 2.0,
     "tuples": 10},
    {"mode": "negative", "params": [[-0.1, 1.25], [0.6, 3.0]], "q": 3.0,
     "tuples": 10},
    {"mode": "negative", "params": [[-0.2, 2.0], [0.7, 2.5], [0.9, 2.5]],
     "q": 1.5, "tuples": 10},
]


def _space(family, s, p, q):
    return {"family": family, "s": s, "p": p, "q": q}


# Embeddings valid at n = 3.  The 1-D pairs of manifests/multiplication.json
# are refused by the diffdim condition at n = 3.
EMBEDDINGS_3D = [
    {"source": _space("B", 1.0, 2.0, 2.0),
     "target": _space("B", 0.5, 2.0, 2.0)},
    {"source": _space("B", 1.5, 1.0, 1.0),
     "target": _space("F", 0.0, 2.0, 2.0)},
    {"source": _space("F", 1.0, 2.0, 2.0),
     "target": _space("B", 0.25, 4.0, 4.0)},
]

NAMES = ("mult-audit-2d", "embed-audit-3d", "decompose-dump-2d")

# Grid sizes of each workload; decompose-dump-2d runs on one grid.
RESOLUTIONS = {"mult-audit-2d": [64, 128], "embed-audit-3d": [32, 64],
               "decompose-dump-2d": [256]}


@dataclass
class Workload:
    """One prepared workload.

    argv is what `paraflux.cli.main` receives; dim and resolutions are the
    grids the set-up phase builds; out is the path the run writes (a CSV
    file for audits, a directory for decompose); readback is set when every
    written .fld is read back as part of the run.
    """

    name: str
    argv: list
    dim: int
    resolutions: list
    out: str
    readback: bool


def build(name, seed, workdir):
    """Write the workload's inputs under workdir and return its Workload."""
    if name not in NAMES:
        raise ValueError("unknown workload %r (have %s)"
                         % (name, ", ".join(NAMES)))
    resolutions = RESOLUTIONS[name]
    if name == "decompose-dump-2d":
        out = os.path.join(workdir, "out")
        argv = ["decompose", "--dim", "2", "--grid", str(resolutions[0]),
                "--m", "3", "--seed", str(seed), "--dump-bands", "--out", out]
        return Workload(name, argv, 2, resolutions, out, True)

    if name == "mult-audit-2d":
        dim = 2
        manifest = {"n": dim, "resolutions": resolutions, "seed": seed,
                    "embeddings": [], "multiplications": MULTIPLICATIONS}
    else:
        dim = 3
        manifest = {"n": dim, "resolutions": resolutions, "seed": seed,
                    "embeddings": EMBEDDINGS_3D, "multiplications": []}
    path = os.path.join(workdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    out = os.path.join(workdir, "out.csv")
    argv = ["audit", "--manifest", path, "--out", out]
    return Workload(name, argv, dim, resolutions, out, False)
