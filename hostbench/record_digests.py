"""Regenerate ``digests.json``: every pool unit's output digests.

Run from the repository root when a change alters outputs on purpose
(the change must say why)::

    python3 hostbench/record_digests.py [workload ...]

Each unit of the default seed's pass is run once; a unit's digests do
not depend on the seed's order.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, import_program


def record(workload_names):
    _, workloads = import_program()
    payload = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in workload_names:
        workload = workloads.WORKLOADS[name]()
        state = workload.setup()
        try:
            units = workload.order(state, 0)
            digests = {}
            for unit in units:
                result = workload.run_unit(state, unit)
                if result.problems:
                    raise SystemExit(f"{name} {unit!r}: {result.problems}")
                digests.update(result.digests)
        finally:
            workload.close(state)
        payload[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record(sys.argv[1:] or ["fleet_cnn", "ct_sweep_oracle", "daemon_cnn",
                            "static_eval"])
