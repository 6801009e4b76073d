"""Tests for the deterministic serving daemon (:mod:`repro.core.daemon`)."""

import filecmp
import json
import os

import pytest

from repro.android import SimulatedClock
from repro.android.faults import FaultPlan
from repro.bench.experiments import build_runtime_fleet
from repro.bench.parallel import run_darpa_over_fleet_parallel
from repro.core.daemon import (
    CoalescingCoordinator,
    DaemonConfig,
    DarpaDaemon,
    JournalError,
    LaneConfig,
    OUTCOMES,
    TokenBucket,
)

ARTIFACTS = ("trace.jsonl", "metrics.jsonl", "telemetry.json",
             "telemetry.prom")


@pytest.fixture(scope="module")
def fleet():
    return build_runtime_fleet(n_apps=5, seed=3)


def artifacts_equal(dir_a, dir_b, names=ARTIFACTS):
    return all(filecmp.cmp(os.path.join(dir_a, name),
                           os.path.join(dir_b, name), shallow=False)
               for name in names)


def in_capacity_config(**overrides):
    base = dict(inter_arrival_ms=120.0, workers=2, batch_max=3,
                admission_rate_per_s=50.0, admission_burst=16,
                batch_service_ms=250.0, shed_deadline_ms=0.0)
    base.update(overrides)
    return DaemonConfig(**base)


class TestTokenBucket:
    def test_starts_full_and_drains_per_token(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=3, clock=clock)
        assert bucket.tokens == 3.0
        assert bucket.try_take() and bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()

    def test_refills_from_simulated_time_only(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=2, clock=clock)
        bucket.try_take(), bucket.try_take()
        assert not bucket.try_take()       # no time passed, no refill
        clock.advance(100.0)               # 10/s -> exactly one token
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = SimulatedClock()
        bucket = TokenBucket(rate_per_s=1000.0, burst=2, clock=clock)
        clock.advance(60_000.0)
        assert bucket.tokens == 2.0

    def test_integer_state_no_drift(self):
        # 3/s is not representable in binary floats; integer
        # micro-tokens keep 1000 x 1ms == 1 x 1000ms exactly.
        clock_a, clock_b = SimulatedClock(), SimulatedClock()
        a = TokenBucket(rate_per_s=3.0, burst=5, clock=clock_a)
        b = TokenBucket(rate_per_s=3.0, burst=5, clock=clock_b)
        for _ in range(5):
            a.try_take(), b.try_take()
        for _ in range(1000):
            clock_a.advance(1.0)
            a.tokens  # refill at every 1ms step
        clock_b.advance(1000.0)
        b.tokens   # one 1000ms refill
        assert a.tokens_micro == b.tokens_micro == 3 * TokenBucket.SCALE

    def test_rejects_bad_parameters(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0, clock=clock)


class TestDaemonConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            DaemonConfig(workers=0)
        with pytest.raises(ValueError):
            DaemonConfig(lanes=())
        with pytest.raises(ValueError):
            DaemonConfig(lanes=(LaneConfig("a"), LaneConfig("a")))
        with pytest.raises(ValueError):
            DaemonConfig(lanes=(LaneConfig("solo"),), background_every=2)
        with pytest.raises(ValueError):
            LaneConfig("x", capacity=0)

    def test_lane_routing_is_deterministic(self):
        config = DaemonConfig(background_every=3)
        lanes = [config.lane_of(i) for i in range(6)]
        assert lanes == ["interactive", "interactive", "background",
                        "interactive", "interactive", "background"]


class TestDaemonServing:
    def test_zero_fault_equals_sequential_any_config(self, fleet, tmp_path):
        seq = tmp_path / "seq"
        run_darpa_over_fleet_parallel(fleet, "oracle", n_workers=1,
                                      trace_dir=str(seq))
        for workers, batch_max in ((1, 1), (3, 4)):
            out = tmp_path / f"daemon-{workers}-{batch_max}"
            config = in_capacity_config(workers=workers, batch_max=batch_max,
                                        background_every=2)
            DarpaDaemon(fleet, "oracle", config=config,
                        out_dir=str(out)).run()
            assert artifacts_equal(str(seq), str(out)), (workers, batch_max)

    def test_fifo_within_lane(self, fleet, tmp_path):
        config = in_capacity_config(workers=1, batch_max=2,
                                    background_every=2)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        by_lane: dict = {}
        for batch in report.batches:
            if batch.fault == "crash":
                continue
            by_lane.setdefault(batch.lane, []).extend(batch.indices)
        arrivals: dict = {}
        for entry in report.schedules:
            arrivals.setdefault(entry.lane, []).append(entry.index)
        for lane, served in by_lane.items():
            admitted = [i for i in arrivals[lane] if i in set(served)]
            assert served == admitted, f"lane {lane} broke FIFO"

    def test_bounded_lane_occupancy_and_typed_rejections(self, fleet,
                                                        tmp_path):
        config = DaemonConfig(
            inter_arrival_ms=5.0, workers=1, batch_max=1,
            admission_rate_per_s=1000.0, admission_burst=100,
            lanes=(LaneConfig("interactive", capacity=2),),
            batch_service_ms=500.0, shed_deadline_ms=0.0)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        assert report.counters["shed_queue_full"] > 0
        for rejection in report.rejections:
            assert rejection.kind in ("rate_limited", "queue_full", "drained")
        # Capacity 2 + 1 in service: admitted backlog never exceeded it.
        assert report.counters["admitted"] <= 3 + report.counters[
            "batches_completed"]

    def test_rate_limit_rejections(self, fleet, tmp_path):
        config = in_capacity_config(inter_arrival_ms=1.0,
                                    admission_rate_per_s=10.0,
                                    admission_burst=1)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        assert report.counters["shed_rate_limited"] > 0

    def test_outcome_trichotomy_under_overload(self, fleet, tmp_path):
        config = DaemonConfig(
            inter_arrival_ms=10.0, workers=1, batch_max=2,
            admission_rate_per_s=20.0, admission_burst=2,
            batch_service_ms=400.0, shed_deadline_ms=50.0)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        c = report.counters
        assert c["shed"] > 0 and c["degraded"] > 0
        assert c["decorated"] + c["degraded"] + c["shed"] == c["offered"]
        assert set(report.outcomes.values()) <= set(OUTCOMES)
        assert len(report.outcomes) == c["offered"]

    def test_backpressure_surfaces_as_deferral(self, fleet, tmp_path):
        config = in_capacity_config(inter_arrival_ms=20.0, workers=1,
                                    batch_max=1, batch_service_ms=300.0)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        assert report.counters["deferred_sessions"] > 0
        deferred = [e for e in report.schedules if e.deferred_ms > 0]
        assert deferred and all(e.outcome in OUTCOMES for e in deferred)

    def test_degraded_sessions_skip_the_cnn(self, fleet, tmp_path):
        config = DaemonConfig(
            inter_arrival_ms=10.0, workers=1, batch_max=1,
            admission_rate_per_s=1000.0, admission_burst=100,
            batch_service_ms=300.0, shed_deadline_ms=1.0)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out")).run()
        degraded = [e.index for e in report.schedules
                    if e.outcome == "degraded"]
        assert degraded
        for index in degraded:
            result = report.results[index]
            counters = result.metrics["counters"]
            # No CNN inference ran; every analysis went through the
            # FraudDroid fallback.
            names = {span["name"] for span in result.spans}
            assert "fallback" in names and "inference" not in names
            assert counters["darpa.pipeline.fallback_detections"] \
                == counters["darpa.pipeline.screens_analyzed"]

    def test_graceful_drain_flushes_and_rejects(self, fleet, tmp_path):
        out = tmp_path / "out"
        config = in_capacity_config()
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(out)).run(drain_at_ms=150.0)
        assert report.drained_early
        assert report.counters["shed_drained"] > 0
        assert report.counters["completed"] == report.counters["admitted"]
        with open(out / "drain.json") as fp:
            manifest = json.load(fp)
        assert manifest["forced"] and manifest["queues_flushed"]
        assert manifest["completed"] == report.counters["completed"]

    def test_drain_manifest_written_on_normal_exit_too(self, fleet,
                                                       tmp_path):
        out = tmp_path / "out"
        DarpaDaemon(fleet, "oracle", config=in_capacity_config(),
                    out_dir=str(out)).run()
        with open(out / "drain.json") as fp:
            manifest = json.load(fp)
        assert not manifest["forced"]
        assert manifest["completed"] == len(list(range(5)))


class TestKillResume:
    def test_kill_then_resume_is_byte_identical(self, fleet, tmp_path):
        full, kr = tmp_path / "full", tmp_path / "kr"
        config = in_capacity_config()
        DarpaDaemon(fleet, "oracle", config=config, out_dir=str(full)).run()
        killed = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(kr)).run(max_batches=1)
        assert killed.killed and not killed.completed
        assert not (kr / "telemetry.json").exists()   # no premature merge
        resumed = DarpaDaemon(fleet, "oracle", config=config,
                              out_dir=str(kr)).run(resume=True)
        assert resumed.completed
        assert len(resumed.resumed_indices) >= 1
        assert artifacts_equal(str(full), str(kr),
                               names=ARTIFACTS + ("daemon.json",
                                                  "drain.json"))

    def test_resume_executes_each_session_exactly_once(self, fleet,
                                                       tmp_path):
        out = tmp_path / "out"
        config = in_capacity_config()
        DarpaDaemon(fleet, "oracle", config=config,
                    out_dir=str(out)).run(max_batches=1)
        DarpaDaemon(fleet, "oracle", config=config,
                    out_dir=str(out)).run(resume=True)
        with open(out / "journal.jsonl") as fp:
            lines = [json.loads(line) for line in fp if line.strip()]
        indices = [line["index"] for line in lines[1:]]
        assert sorted(indices) == list(range(5))
        assert len(indices) == len(set(indices)), "double-counted a session"

    def test_torn_journal_tail_resumes_byte_identical(self, fleet,
                                                      tmp_path):
        full, kr = tmp_path / "full", tmp_path / "kr"
        config = in_capacity_config()
        DarpaDaemon(fleet, "oracle", config=config, out_dir=str(full)).run()
        killed = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(kr)).run(max_batches=1)
        assert killed.killed
        journal = kr / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        assert len(lines) >= 2, "no session was journaled before the kill"
        # The kill landed mid-append: the last entry lost its tail and
        # its newline.  That session must re-run, not crash the resume.
        journal.write_text("".join(lines[:-1]) + lines[-1][:5])
        resumed = DarpaDaemon(fleet, "oracle", config=config,
                              out_dir=str(kr)).run(resume=True)
        assert resumed.completed
        assert artifacts_equal(str(full), str(kr),
                               names=ARTIFACTS + ("daemon.json",
                                                  "drain.json"))
        # The torn fragment was cut off, so later appends started on a
        # fresh line and every session is journaled exactly once.
        with open(journal) as fp:
            records = [json.loads(line) for line in fp if line.strip()]
        indices = [record["index"] for record in records[1:]]
        assert sorted(indices) == list(range(len(fleet)))

    @pytest.mark.parametrize("line", ['{"ind\n', '{"idx": 0}\n', '[0]\n'],
                             ids=["torn", "no-index", "not-an-object"])
    def test_malformed_interior_journal_line_raises(self, fleet, tmp_path,
                                                    line):
        out = tmp_path / "out"
        config = in_capacity_config()
        DarpaDaemon(fleet, "oracle", config=config,
                    out_dir=str(out)).run(max_batches=1)
        journal = out / "journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + line + "".join(lines[1:]))
        with pytest.raises(JournalError):
            DarpaDaemon(fleet, "oracle", config=config,
                        out_dir=str(out)).run(resume=True)

    def test_resume_refuses_foreign_journal(self, fleet, tmp_path):
        out = tmp_path / "out"
        DarpaDaemon(fleet, "oracle", config=in_capacity_config(),
                    out_dir=str(out)).run(max_batches=1)
        other = in_capacity_config(batch_max=2)
        with pytest.raises(JournalError):
            DarpaDaemon(fleet, "oracle", config=other,
                        out_dir=str(out)).run(resume=True)

    def test_resume_without_journal_fails(self, fleet, tmp_path):
        with pytest.raises(JournalError):
            DarpaDaemon(fleet, "oracle", config=in_capacity_config(),
                        out_dir=str(tmp_path / "void")).run(resume=True)


class TestWorkerFaults:
    def test_crash_reenqueues_without_double_counting(self, fleet,
                                                      tmp_path):
        base, fault = tmp_path / "base", tmp_path / "fault"
        config = in_capacity_config()
        plan = FaultPlan(seed=99, worker_crash_rate=0.5,
                         worker_stall_rate=0.3)
        DarpaDaemon(fleet, "oracle", config=config, out_dir=str(base)).run()
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(fault), fault_plan=plan).run()
        assert report.counters["worker_crashes"] >= 1
        assert report.counters["completed"] == 5
        assert report.counters["batches_formed"] \
            > report.counters["batches_completed"]
        # Crashed batches left no telemetry fingerprint.
        assert artifacts_equal(str(base), str(fault))
        # FIFO survived the head re-enqueue.
        served = [i for b in report.batches if b.fault != "crash"
                  for i in b.indices]
        assert served == sorted(served)

    def test_stall_delays_completion(self, fleet, tmp_path):
        config = in_capacity_config(workers=1, batch_max=5)
        plan = FaultPlan(seed=5, worker_stall_rate=1.0,
                         worker_stall_ms=7000.0)
        report = DarpaDaemon(fleet, "oracle", config=config,
                             out_dir=str(tmp_path / "out"),
                             fault_plan=plan).run()
        assert report.counters["worker_stalls"] >= 1
        stalled = [b for b in report.batches if b.fault == "stall"]
        assert stalled
        for batch in stalled:
            assert batch.finish_ms - batch.formed_ms \
                == config.batch_service_ms + batch.fault_delay_ms

    def test_crash_looping_plan_fails_loudly(self, fleet, tmp_path):
        config = in_capacity_config()
        plan = FaultPlan(seed=1, worker_crash_rate=1.0, worker_restart_ms=1.0)
        with pytest.raises(RuntimeError, match="runaway"):
            DarpaDaemon(fleet, "oracle", config=config,
                        out_dir=str(tmp_path / "out"),
                        fault_plan=plan).run()


class _CountingDetector:
    """Shared fake detector: batched answers must equal per-image ones."""

    def __init__(self):
        self.single_calls = 0
        self.batch_calls = 0
        self.batch_sizes = []

    @staticmethod
    def _answer(image, conf_threshold):
        from repro.geometry.nms import ScoredBox
        from repro.geometry.rect import Rect
        # Image-dependent but cheap: flag "UPO" when the screen is dark.
        mean = float(image.mean())
        if mean < 0.5:
            return [ScoredBox(rect=Rect(4, 4, 20, 12), label="UPO",
                              score=0.9)]
        return []

    def detect_screen(self, image, conf_threshold=None):
        self.single_calls += 1
        return self._answer(image, conf_threshold)

    def detect_screens(self, images, conf_threshold=None):
        self.batch_calls += 1
        self.batch_sizes.append(len(images))
        return [self._answer(image, conf_threshold) for image in images]


class TestCoalescing:
    def test_coordinator_folds_concurrent_requests(self):
        detector = _CountingDetector()
        coordinator = CoalescingCoordinator(detector)

        def make_job(n_calls, value):
            def job(proxy):
                out = []
                import numpy as np
                image = np.full((8, 8), value)
                for _ in range(n_calls):
                    out.append(proxy.detect_screen(image))
                return len(out)
            return job

        results = coordinator.run_batch(
            [make_job(3, 0.1), make_job(2, 0.9), make_job(3, 0.1)])
        assert results == [3, 2, 3]
        # Rounds: 3 sessions, then 3, then 2 (one finished early).
        assert coordinator.occupancies == [3, 3, 2]
        assert detector.batch_calls == 3
        assert detector.single_calls == 0

    def test_coordinator_propagates_session_errors(self):
        coordinator = CoalescingCoordinator(_CountingDetector())

        def bad_job(proxy):
            raise RuntimeError("session exploded")

        with pytest.raises(RuntimeError, match="session exploded"):
            coordinator.run_batch([bad_job])

    def test_coordinator_rejects_mixed_settings(self):
        coordinator = CoalescingCoordinator(_CountingDetector())
        import numpy as np
        image = np.zeros((4, 4))

        def job_with(conf):
            def job(proxy):
                return proxy.detect_screen(image, conf_threshold=conf)
            return job

        with pytest.raises(ValueError, match="mismatched"):
            coordinator.run_batch([job_with(0.3), job_with(0.7)])

    def test_daemon_coalesced_run_matches_solo(self, tmp_path):
        # Small fleet so the rendered (non-stub) screenshots stay cheap.
        sessions = build_runtime_fleet(n_apps=3, seed=11)
        config = DaemonConfig(
            inter_arrival_ms=0.0, workers=1, batch_max=3,
            admission_rate_per_s=1000.0, admission_burst=100,
            batch_service_ms=100.0, shed_deadline_ms=0.0)
        shared = _CountingDetector()
        coalesced = DarpaDaemon(sessions, shared, config=config,
                                trace=False).run()
        assert coalesced.coalesced_occupancies
        assert max(coalesced.coalesced_occupancies) > 1
        # Multi-session batches fold through detect_screens; only
        # singleton batches (first arrival) may call detect_screen.
        assert shared.batch_calls > 0

        solo_detector = _CountingDetector()
        solo = DarpaDaemon(sessions, solo_detector, config=config,
                           trace=False, coalesce=False).run()
        assert solo_detector.batch_calls == 0
        for index in range(3):
            a, b = coalesced.results[index], solo.results[index]
            assert a.screen_verdicts == b.screen_verdicts
            assert a.auis_flagged == b.auis_flagged
            assert a.metrics == b.metrics
