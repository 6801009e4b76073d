"""Regenerate the ops-dashboard fixture run and its golden responses.

Usage::

    PYTHONPATH=src python tests/ops/regen_fixture.py

Writes ``tests/ops/fixtures/run/`` (a seeded 12-session fleet run left
as four 3-session shard part file sets, plus the ``daemon.json`` /
``drain.json`` of a zero-shed daemon pass over the same fleet, plus a
``baseline.profile.json`` folded from the same spans under a 20%
cheaper cost model so ``/api/flame/diff`` has a real regression to
rank) and ``tests/ops/goldens/`` (one canonical-JSON file per
dashboard route, exactly the bytes ``repro dash --once`` dumps).

Everything here is seeded, so reruns are byte-identical; regenerate
ONLY when the artifact schema or the route payloads intentionally
change, and commit the diff together with the code that changed them.
"""

import dataclasses
import os
import shutil
import tempfile
from unittest import mock

from repro.android import device
from repro.bench.experiments import build_runtime_fleet, run_darpa_over_fleet
from repro.bench.parallel import _write_shard_artifacts
from repro.core.daemon import DaemonConfig, DarpaDaemon
from repro.ops.artifacts import load_run
from repro.ops.routes import dump_routes, golden_name, route_paths
from repro.profiling import profile_from_results

#: Fixture workload: 12 sessions, 5 s each, seed 0 — big enough that
#: every route has real content (alerts, exemplars, nested spans),
#: small enough to commit.
N_SESSIONS = 12
SEED = 0
DURATION_MS = 5_000.0
CT_MS = 200.0
SHARD_SIZE = 3

#: In-capacity daemon config (mirrors the daemon tests' zero-shed
#: setup): nothing sheds or degrades, so daemon.json stays coherent
#: with the shard telemetry written by the plain fleet pass.
DAEMON_CONFIG = dict(inter_arrival_ms=120.0, workers=2, batch_max=3,
                     admission_rate_per_s=50.0, admission_burst=16,
                     batch_service_ms=250.0, shed_deadline_ms=0.0,
                     background_every=3)

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, "fixtures", "run")
GOLDEN_DIR = os.path.join(HERE, "goldens")
#: The profiling goldens (canonical profile.json + folded stacks) are
#: folded from this same fixture run, so one regen keeps them in sync.
PROFILE_GOLDEN_DIR = os.path.join(os.path.dirname(HERE), "profiling",
                                  "goldens")


def regenerate() -> None:
    fleet = build_runtime_fleet(n_apps=N_SESSIONS, seed=SEED,
                                duration_ms=DURATION_MS)
    results = run_darpa_over_fleet(fleet, "oracle", ct_ms=CT_MS,
                                   mode="full", trace=True)

    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    pairs = list(enumerate(results))
    for lo in range(0, N_SESSIONS, SHARD_SIZE):
        _write_shard_artifacts(RUN_DIR, pairs[lo:lo + SHARD_SIZE])

    # A synthetic "last known good" profile: the same spans folded
    # under a 20% cheaper capture/inference cost model, so the current
    # run reads as a seeded regression and /api/flame/diff ranks the
    # screenshot path as its top positive delta.
    cheaper = dataclasses.replace(
        device.PROFILE,
        screenshot_cpu_ms=device.PROFILE.screenshot_cpu_ms * 0.8,
        inference_cpu_ms=device.PROFILE.inference_cpu_ms * 0.8)
    with mock.patch.object(device, "PROFILE", cheaper):
        baseline = profile_from_results(results)
    with open(os.path.join(RUN_DIR, "baseline.profile.json"), "w") as fp:
        fp.write(baseline.to_json())

    # Scheduling artifacts from a daemon pass over the same fleet.  The
    # run lands in a scratch dir; only daemon.json/drain.json move into
    # the fixture — the shard parts above stay the telemetry source.
    scratch = tempfile.mkdtemp(prefix="ops-fixture-daemon-")
    try:
        DarpaDaemon(fleet, "oracle", config=DaemonConfig(**DAEMON_CONFIG),
                    ct_ms=CT_MS, out_dir=scratch, trace=False,
                    keep_results=False).run()
        for name in ("daemon.json", "drain.json"):
            shutil.copyfile(os.path.join(scratch, name),
                            os.path.join(RUN_DIR, name))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    model = load_run(RUN_DIR, ct_ms=CT_MS)
    dumped = dump_routes(model)
    shutil.rmtree(GOLDEN_DIR, ignore_errors=True)
    os.makedirs(GOLDEN_DIR)
    for path in route_paths(model):
        with open(os.path.join(GOLDEN_DIR, golden_name(path)), "wb") as fp:
            fp.write(dumped[path])

    shutil.rmtree(PROFILE_GOLDEN_DIR, ignore_errors=True)
    os.makedirs(PROFILE_GOLDEN_DIR)
    run_profile = profile_from_results(results)
    with open(os.path.join(PROFILE_GOLDEN_DIR, "profile.json"), "w") as fp:
        fp.write(run_profile.to_json())
    with open(os.path.join(PROFILE_GOLDEN_DIR, "profile.folded"), "w") as fp:
        fp.write(run_profile.folded_text())

    print(f"fixture: {len(os.listdir(RUN_DIR))} files in {RUN_DIR}")
    print(f"goldens: {len(dumped)} routes in {GOLDEN_DIR}")
    print(f"profile goldens: {len(os.listdir(PROFILE_GOLDEN_DIR))} files "
          f"in {PROFILE_GOLDEN_DIR}")


if __name__ == "__main__":
    regenerate()
