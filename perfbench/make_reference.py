#!/usr/bin/env python3
"""Record perfbench/reference.json: the outputs every benchmark op is checked against.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the check then holds
later commits to them. Train workloads keep the first blocks'
``loss_total`` and ``L_TD``; the eval workload keeps the ``(length,
won)`` pair of every episode in its cycle.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workload  # noqa: E402  (pins the BLAS threads before numpy loads)

# Development seeds, plus one held-out seed for checking a change on a
# seed not used while it was written.
HELDOUT_SEED = 100003
SEEDS = list(range(128)) + [HELDOUT_SEED]


def main():
    table = {
        name: {str(seed): workload.reference_outputs(name, seed) for seed in SEEDS}
        for name in workload.WORKLOADS
    }
    out = {
        "heldout_seed": HELDOUT_SEED,
        "train_checked_blocks": workload.TRAIN_CHECKED,
        "eval_cycle": workload.EVAL_CYCLE,
        "environment": workload.environment(),
        "workloads": table,
    }
    with open(workload.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
