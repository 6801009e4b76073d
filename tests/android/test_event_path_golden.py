"""Golden for the simulated event path.

Pins, by sha256, what the first 20 seed-0 fleet sessions do under the
oracle detector at ct 50, 200 and 500 (full mode, monkey seed
``1000 + index``, as the ct sweep replays them):

- each session's digest fields: verdicts, analyses, events, the perf
  report and the resilience counters;
- the device event log as (type, package, timestamp, window id), with
  window ids renumbered by first appearance because window and view ids
  come from process-wide counters;
- each monkey tap's hit, as the hit view's bounds and resource id;
- the rects of every mounted decoration.

Four of the sessions are replayed again under the storm fault plan
(which duplicates, drops and storms event deliveries and rejects
overlay mounts), and three traced sessions pin the exported spans
byte for byte.  Floats are serialised with ``float.hex``, so every
check is bitwise.

Regenerate (only for an intended change to the event path, and say why
in the change log)::

    PYTHONPATH=src python tests/android/test_event_path_golden.py
"""

import hashlib
import json
from dataclasses import asdict
from typing import Dict, List

import pytest

from repro.android.device import Device
from repro.android.window import WindowManager
from repro.bench import (
    STORM_DARPA_KWARGS,
    build_runtime_fleet,
    run_darpa_session,
    storm_fault_plan,
)
from repro.core.decorator import ViewDecorator

SESSIONS = 20
CT_VALUES = (50.0, 200.0, 500.0)
STORM_SESSIONS = 4
TRACED_SESSIONS = 3

GOLDEN: Dict[str, str] = {
    "ct50/digest": "44c968accb62b70bfb9050742080d068516b5c873c6b294f9e6a4658955905a0",
    "ct50/events": "82f6b08ce55ffcb2dbc1a92e283c901a21a61b066024e524dab209022b92a4af",
    "ct50/hits": "ad47decec924436e1e9b1aa37f2aecc5dea6170eec1346644881307f5d8e2585",
    "ct50/decorations": "15e2633aa35c2553ef59373b9d5efe937aad784de685ced7c47b60493af6619c",
    "ct200/digest": "b57560492d22fb870b5da75a92de715664ba4b4d2802cdb70638504587435746",
    "ct200/events": "82f6b08ce55ffcb2dbc1a92e283c901a21a61b066024e524dab209022b92a4af",
    "ct200/hits": "ad47decec924436e1e9b1aa37f2aecc5dea6170eec1346644881307f5d8e2585",
    "ct200/decorations": "e6ecb1a2eb809a7c62d63eb099b2befe140e3c699b7bcaaee41262b1c0262180",
    "ct500/digest": "f2cb33a9c9da0fb1dc113bb35de176deb90536eb2c45a6a381c138b41152a57b",
    "ct500/events": "82f6b08ce55ffcb2dbc1a92e283c901a21a61b066024e524dab209022b92a4af",
    "ct500/hits": "ad47decec924436e1e9b1aa37f2aecc5dea6170eec1346644881307f5d8e2585",
    "ct500/decorations": "5d948756603206a5fba10d77bebde3caf0b91f46b4d4ecc521b5c24cb07f6477",
    "storm/digest": "c243e73a3b527733b49315b1728818871a8643606c1611685a8bfd250416773b",
    "storm/events": "bf4bcfc1d340b046cd381ec17be30e04342eeb89db9d4543f01c501cd494908d",
    "storm/hits": "7ec1ddb30f8633e7596ca88d1252bf5e0561b8db8ac0f85bd215fa504fb6850f",
    "storm/decorations": "02a7c100a0c045658a4a68c63ec9df279aa71bff4875cc0834f9bd28adaae42e",
    "traced/spans": "e2e7fb281bbde65a7de76dcf7c06c3480629a89fa17198bc25404f529987615a",
}


def _num(v) -> str:
    if isinstance(v, bool) or v is None:
        return repr(v)
    if isinstance(v, int):
        return str(v)
    return float(v).hex()


def _rect(r) -> List[str]:
    return [_num(r.x), _num(r.y), _num(r.w), _num(r.h)]


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _Recorder:
    """Wraps the event path's observable calls for one session."""

    def __init__(self, monkeypatch):
        self.devices: List[Device] = []
        self.hits: List[object] = []
        self.decorations: List[object] = []
        init = Device.__init__
        dispatch = WindowManager.dispatch_click
        decorate = ViewDecorator.decorate
        recorder = self

        def device_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            recorder.devices.append(self)

        def dispatch_click(self, x, y):
            hit = dispatch(self, x, y)
            recorder.hits.append(None if hit is None else [
                _rect(hit.bounds),
                None if hit.resource_id is None else str(hit.resource_id)])
            return hit

        def decorate_and_record(self, detections):
            applied = decorate(self, detections)
            recorder.decorations.append(
                [_rect(a.view.bounds) for a in applied])
            return applied

        monkeypatch.setattr(Device, "__init__", device_init)
        monkeypatch.setattr(WindowManager, "dispatch_click", dispatch_click)
        monkeypatch.setattr(ViewDecorator, "decorate", decorate_and_record)

    def run(self, session, **kwargs) -> Dict[str, object]:
        del self.devices[:], self.hits[:], self.decorations[:]
        result = run_darpa_session(session, "oracle", mode="full", **kwargs)
        (device,) = self.devices
        window_ids: Dict[int, int] = {}
        events = []
        for e in device.event_log:
            wid = e.window_id
            if wid is not None:
                wid = window_ids.setdefault(wid, len(window_ids))
            events.append([e.event_type.name, e.package,
                           _num(e.timestamp_ms), wid])
        return {
            "digest": {
                "verdicts": [list(v) for v in result.screen_verdicts],
                "screens_analyzed": result.screens_analyzed,
                "events_total": result.events_total,
                "perf": asdict(result.perf),
                "resilience": result.resilience,
            },
            "events": events,
            "hits": list(self.hits),
            "decorations": list(self.decorations),
            "spans": result.spans,
        }


def _pins(monkeypatch) -> Dict[str, str]:
    fleet = build_runtime_fleet(100, seed=0)[:SESSIONS]
    recorder = _Recorder(monkeypatch)
    pins: Dict[str, str] = {}
    for ct in CT_VALUES:
        runs = [recorder.run(session, ct_ms=ct, monkey_seed=1000 + i)
                for i, session in enumerate(fleet)]
        for part in ("digest", "events", "hits", "decorations"):
            pins[f"ct{int(ct)}/{part}"] = _sha([r[part] for r in runs])
    storm = [recorder.run(session, ct_ms=200.0, monkey_seed=1000 + i,
                          fault_plan=storm_fault_plan(0),
                          darpa_kwargs=STORM_DARPA_KWARGS)
             for i, session in enumerate(fleet[:STORM_SESSIONS])]
    for part in ("digest", "events", "hits", "decorations"):
        pins[f"storm/{part}"] = _sha([r[part] for r in storm])
    traced = [recorder.run(session, ct_ms=200.0, monkey_seed=1000 + i,
                           trace=True)
              for i, session in enumerate(fleet[:TRACED_SESSIONS])]
    pins["traced/spans"] = _sha([r["spans"] for r in traced])
    return pins


def test_event_path_is_pinned(monkeypatch):
    assert _pins(monkeypatch) == GOLDEN


if __name__ == "__main__":
    mp = pytest.MonkeyPatch()
    try:
        for name, value in _pins(mp).items():
            print(f'    "{name}": "{value}",')
    finally:
        mp.undo()
