"""A fixed job that times the host, not the program.

Usage::

    python3 perfbench/reference.py

The host this benchmark runs on drifts: for minutes at a time every
process runs 20-40% faster or slower. ``run.py`` times this job in a
fresh process beside the workload's passes and scales the workload's
times by ``REFERENCE_S`` over the job's median time, so that a run
during a slow spell reads like one during a fast spell.

The job uses only the standard library and numpy, never ``repro``, so
no change to the program moves it. Its parts mirror what a pass does:
start an interpreter and import numpy, churn Python objects, draw
lognormal variates, stream and sort large arrays.
"""

import json

import numpy as np


def main() -> None:
    rows = [
        {"k": i, "v": (i * 7919) % 1000, "s": str(i)} for i in range(200_000)
    ]
    rows.sort(key=lambda row: (row["v"], row["k"]))
    json.dumps(rows[:50_000])
    draws = np.random.default_rng(1).lognormal(size=4_000_000)
    stream = np.ones(8_000_000)
    stream *= 1.0001
    stream += draws.sum()
    np.sort(draws)


if __name__ == "__main__":
    main()
