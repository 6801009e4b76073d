"""Profile goldens: the committed bytes of the fixture run's profile.

``tests/ops/fixtures/run`` (regenerated by ``tests/ops/regen_fixture.py``,
which also rewrites these goldens) folds to exactly the committed
``goldens/profile.json`` / ``goldens/profile.folded`` — from the shard
parts, from any merge order over them, and through the ``repro
profile`` CLI.  CI's goldens job diffs the same bytes.
"""

import json
import os
import random

import pytest

from repro.profiling import Profile, load_profile, run_profile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")
FIXTURE_RUN = os.path.join(os.path.dirname(HERE), "ops", "fixtures", "run")


@pytest.fixture(scope="module")
def golden_json():
    with open(os.path.join(GOLDEN_DIR, "profile.json")) as fp:
        return fp.read()


@pytest.fixture(scope="module")
def golden_folded():
    with open(os.path.join(GOLDEN_DIR, "profile.folded")) as fp:
        return fp.read()


class TestGoldenBytes:
    def test_fixture_parts_fold_to_the_golden(self, golden_json):
        assert load_profile(FIXTURE_RUN).to_json() == golden_json, (
            "fixture profile drifted from its golden; if intentional, "
            "rerun tests/ops/regen_fixture.py")

    def test_any_part_merge_order_gives_the_golden(self, golden_json):
        names = [n for n in os.listdir(FIXTURE_RUN)
                 if n.startswith("shard-") and n.endswith(".profile.json")]
        assert len(names) == 4
        rng = random.Random(2026)
        for _ in range(5):
            rng.shuffle(names)
            merged = Profile()
            for name in names:
                with open(os.path.join(FIXTURE_RUN, name)) as fp:
                    merged.merge(Profile.from_dict(json.load(fp)))
            assert merged.to_json() == golden_json

    def test_cli_fold_emits_the_golden(self, golden_folded, capsys):
        assert run_profile(source=FIXTURE_RUN, fold=True) == 0
        captured = capsys.readouterr()
        assert captured.out == golden_folded
        assert captured.err == ""  # fixture run drops nothing

    def test_cli_json_emits_the_golden(self, golden_json, tmp_path):
        out = tmp_path / "profile.json"
        assert run_profile(source=FIXTURE_RUN, json_out=str(out)) == 0
        assert out.read_text() == golden_json


class TestGoldenSanity:
    """Stable AND meaningful: an emptied fixture must not freeze
    vacuous bytes into the contract."""

    def test_golden_profile_has_real_content(self, golden_json):
        profile = Profile.from_dict(json.loads(golden_json))
        assert profile.sessions == 12
        assert profile.dropped_spans == 0 and profile.orphan_spans == 0
        assert profile.total_cpu_us > 0
        assert any(stack[-1] == "inference" for stack in profile.frames)

    def test_folded_golden_is_sorted_and_matches_json(self, golden_json,
                                                      golden_folded):
        profile = Profile.from_dict(json.loads(golden_json))
        assert profile.folded_text() == golden_folded
        lines = golden_folded.splitlines()
        assert lines == sorted(lines)
