"""The per-session counter record, pinned end to end.

``DarpaStats.metrics()`` feeds every metrics export (``SessionResult``,
``repro metrics``, fleet telemetry) and ``SessionResult.resilience``
feeds the hostbench session digests, so their keys, key order, value
types and values are pinned here by sha256.  The hashes were recorded
from the registry-backed record this one replaced; a change to the
naming table, the gauge rules or any counter's accounting shows here
first.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import fields

import pytest

from repro.android import Device
from repro.bench import (
    STORM_DARPA_KWARGS,
    build_runtime_fleet,
    run_darpa_over_fleet,
    storm_fault_plan,
)
from repro.cli import main
from repro.core import BreakerState, DarpaStats
from repro.core.observability import COUNTER_METRICS

from tests.core.test_pipeline import make_session
from tests.core.test_pipeline_resilience import (
    CrashingDetector,
    launch,
    service_for,
)


def sha(payload) -> str:
    # No sort_keys: insertion order is part of the record, and json
    # keeps int counters ("2") apart from float gauges ("2.0").
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


#: (storm, sha of [r.metrics], sha of [r.resilience]) for a traced
#: 8-app seed-0 oracle fleet at ct 200.
FLEET_PINS = [
    (False,
     "6cd6a1dc393535a4da317d5bfa72a36d7686ef591661cc6a69f9cfbe7c543581",
     "03bdf9aa3b1460120c833bd4edcbdb2cadcf8644f05e2297917562ca89522bf5"),
    (True,
     "97f20b54048f2f09c3e08269b40e83ff2a772a01438024f98333e8c8ce8b5dc3",
     "d2703f7ce0c215eb9c1e06938c167c641afb4a43d1bc88b31e339bd4f70d456c"),
]

#: sha of the whole stdout of ``repro metrics --apps 8 --storm --workers 1``.
METRICS_CLI_PIN = \
    "2b61f133e6c5b1dc4fc31ceb0f83aa95d5442a338cf5b120ca003b8edb03770c"

#: sha of one screen-cached session's metrics() before start(), after
#: start() and after 2 s and 6 s of replay: no gauge until the first
#: analysis, then the breaker state and the cache size.
SESSION_PIN = \
    "0b463d0281959f95a9ca62232d97bd978bef05f865ad4797a7c192c3f13f410f"


@pytest.mark.parametrize("storm,metrics_pin,resilience_pin", FLEET_PINS,
                         ids=["zero-fault", "storm"])
def test_fleet_record_is_pinned(storm, metrics_pin, resilience_pin):
    results = run_darpa_over_fleet(
        build_runtime_fleet(n_apps=8, seed=0), "oracle", ct_ms=200.0,
        mode="full", fault_plan=storm_fault_plan(0) if storm else None,
        darpa_kwargs=STORM_DARPA_KWARGS if storm else None, trace=True)
    assert sha([r.metrics for r in results]) == metrics_pin
    assert sha([r.resilience for r in results]) == resilience_pin


def test_metrics_cli_text_is_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["metrics", "--apps", "8", "--storm",
                     "--workers", "1"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() \
        == METRICS_CLI_PIN


def test_session_metrics_are_pinned():
    device, app, _, service = make_session()
    seen = [service.stats.metrics()]
    service.start()
    seen.append(service.stats.metrics())
    app.launch()
    device.clock.advance(2000)
    seen.append(service.stats.metrics())
    device.clock.advance(4000)
    seen.append(service.stats.metrics())
    assert seen[1]["gauges"] == {}
    assert sha(seen) == SESSION_PIN


def test_counter_fields_follow_the_naming_table():
    counters = [f.name for f in fields(DarpaStats) if f.type == "int"]
    assert counters == list(COUNTER_METRICS)


def test_reset_zeroes_every_counter_and_keeps_the_gauges():
    device = Device(seed=0)
    service = service_for(device, CrashingDetector(),
                          breaker_failure_threshold=1,
                          breaker_cooldown_ms=10**9)
    launch(device, ["white", "dark_gray"])
    device.clock.advance(3000)
    assert service.breaker.state is BreakerState.OPEN
    before = service.stats.metrics()
    assert before["counters"]["darpa.resilience.breaker_opened"] == 1
    assert before["counters"]["darpa.pipeline.breaker_opens"] == 1
    service.reset_stats()
    after = service.stats.metrics()
    assert set(after["counters"].values()) == {0}
    assert service.stats.records == []
    assert after["gauges"] == before["gauges"] == {
        "darpa.breaker.state": 2.0, "darpa.cache.entries": 0.0}
