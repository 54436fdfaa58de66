"""Record the reference fingerprints of every workload into fingerprints.json.

    python3 benchmarks/record_fingerprints.py

Run it only at a commit whose outputs are known good: the benchmark fails
every repetition whose reference differs from the recording at a recorded
seed.  Full-size workloads are recorded at seeds 0..15, the ``--tiny``
sizes at seed 0.
"""

from __future__ import annotations

import json

from worker import FINGERPRINTS, fingerprint_key, import_rmrec

FULL_SEEDS = range(16)
TINY_SEEDS = range(1)


def reference(workload, seed: int, tiny: bool) -> dict:
    state = workload.prepare(seed, tiny)
    workload.warm_up(state)
    return workload.reference(state)


def main() -> None:
    import_rmrec()
    from workloads import WORKLOADS

    table = {}
    for tiny, seeds in ((False, FULL_SEEDS), (True, TINY_SEEDS)):
        table[fingerprint_key(tiny)] = {
            name: {str(seed): reference(workload, seed, tiny) for seed in seeds}
            for name, workload in WORKLOADS.items()}
    with open(FINGERPRINTS, "w") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
