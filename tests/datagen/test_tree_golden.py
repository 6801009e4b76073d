"""Golden for the generated view trees.

Pins a sha256 of a canonical serialisation of every tree the seed-0
corpus and the seed-0 100-app Table VI fleet build: every negative,
every sample screen and every session screen, with each view's bounds,
text, colours, resource id, role and styling, each screen's label boxes
and each session's timeline.  Any change to a draw of the generators in
``repro.datagen`` (an extra draw, a different pick, a different clamp)
moves it.  Floats are serialised with ``float.hex``, so the check is
bitwise.

Regenerate (only for an intended change to the generated data, and say
why in the change log)::

    PYTHONPATH=src python tests/datagen/test_tree_golden.py
"""

import hashlib
import json
from typing import Dict, Iterable, List

import pytest

from repro.android.apps import ScreenState
from repro.android.view import View
from repro.bench.experiments import build_runtime_fleet
from repro.datagen import build_corpus

GOLDEN: Dict[str, str] = {
    "corpus": "9312d00b786c443e6ea15a447e6f60f6ceef12474a9a56c28d1ce3a060e53a38",
    "fleet": "c61eb53e08c71be1ea07b96fb293039525ff628e5a8bb47842d906b95219de46",
}


def _num(v) -> str:
    if isinstance(v, bool) or v is None:
        return repr(v)
    if isinstance(v, int):
        return str(v)
    return float(v).hex()


def _rect(r) -> str:
    return ",".join(_num(v) for v in (r.x, r.y, r.w, r.h))


def _color(c) -> str:
    return "-" if c is None else ",".join(_num(v) for v in (c.r, c.g, c.b))


def _view_lines(view: View, depth: int, out: List[str]) -> None:
    rid = "-" if view.resource_id is None else str(view.resource_id)
    out.append("|".join((
        str(depth), type(view).__name__, _rect(view.bounds), rid,
        repr(view.clickable), view.visibility.name, view.role.name,
        view.shape.name, _color(view.bg_color), _num(view.bg_alpha),
        _num(view.corner_radius), _color(view.border_color),
        _num(view.border_width), repr(view.text), _num(view.text_size),
        _color(view.text_color), _num(view.text_alpha), repr(view.icon),
        _color(view.icon_color), _num(view.icon_alpha),
        repr(view.on_click is not None),
    )))
    for child in view.children:
        _view_lines(child, depth + 1, out)


def _screen_lines(tag: str, state: ScreenState, out: List[str]) -> None:
    out.append(f"screen {tag} {state.name!r} {state.fullscreen} {state.is_aui}")
    for role, rect in state.label_boxes:
        out.append(f"label {role} {_rect(rect)}")
    _view_lines(state.root, 0, out)


def _digest(lines: Iterable[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def corpus_digest() -> str:
    corpus = build_corpus(seed=0)
    out: List[str] = []
    for app in corpus.apps:
        out.append(f"app {app.package} {app.category} {app.id_policy.name} "
                   f"{app.from_google_play}")
    for i, sample in enumerate(corpus.samples):
        out.append(f"sample {sample.app.package} {sample.source} {sample.spec!r}")
        _screen_lines(f"sample-{i}", sample.screen, out)
    for i, state in enumerate(corpus.negatives):
        _screen_lines(f"negative-{i}", state, out)
    return _digest(out)


def fleet_digest() -> str:
    sessions = build_runtime_fleet(100, seed=0)
    out: List[str] = []
    for i, session in enumerate(sessions):
        spec = session.spec
        out.append(f"session {i} {spec.package} {spec.category} "
                   f"{spec.id_policy.name}")
        for step in spec.timeline.steps:
            offsets = step.update_offsets
            out.append(" ".join((
                "step", _num(step.at_ms), step.screen.name,
                _num(step.minor_updates), _num(step.minor_spacing_ms),
                "-" if offsets is None else ",".join(_num(t) for t in offsets),
            )))
        for k, state in enumerate(session.aui_screens):
            _screen_lines(f"aui-{i}-{k}", state, out)
        for k, state in enumerate(session.non_aui_screens):
            _screen_lines(f"non-aui-{i}-{k}", state, out)
    return _digest(out)


def tree_digests() -> Dict[str, str]:
    return {"corpus": corpus_digest(), "fleet": fleet_digest()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trees_match_golden(name):
    digest = corpus_digest() if name == "corpus" else fleet_digest()
    assert digest == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps(tree_digests(), indent=4, sort_keys=True))
