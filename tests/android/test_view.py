"""Tests for views and view trees."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.android import ResourceId, SemanticRole, View, ViewGroup, Visibility
from repro.geometry import Rect


def small_tree():
    root = ViewGroup(bounds=Rect(0, 0, 360, 568))
    card = root.add_child(View(bounds=Rect(30, 100, 300, 360)))
    ago = card.add_child(
        View(bounds=Rect(80, 300, 200, 56), clickable=True,
             role=SemanticRole.AGO,
             resource_id=ResourceId("com.demo", "btn_subscribe"))
    )
    upo = root.add_child(
        View(bounds=Rect(320, 70, 20, 20), clickable=True,
             role=SemanticRole.UPO,
             resource_id=ResourceId("com.demo", "iv_close"))
    )
    return root, card, ago, upo


class TestTreeOps:
    def test_iter_tree_preorder(self):
        root, card, ago, upo = small_tree()
        assert [v.view_id for v in root.iter_tree()] == [
            root.view_id, card.view_id, ago.view_id, upo.view_id
        ]

    def test_gone_subtree_skipped(self):
        root, card, ago, upo = small_tree()
        card.visibility = Visibility.GONE
        ids = [v.view_id for v in root.iter_tree()]
        assert ago.view_id not in ids and card.view_id not in ids

    def test_invisible_in_tree_but_not_visible(self):
        root, card, ago, _ = small_tree()
        ago.visibility = Visibility.INVISIBLE
        assert ago in list(root.iter_tree())
        assert ago not in list(root.iter_visible())

    def test_find_by_role(self):
        root, _, ago, upo = small_tree()
        assert root.find_by_role(SemanticRole.AGO) == [ago]
        assert root.find_by_role(SemanticRole.UPO) == [upo]

    def test_find_by_resource_entry(self):
        root, _, _, upo = small_tree()
        assert root.find_by_resource_entry("close") == [upo]
        assert root.find_by_resource_entry("nonexistent") == []

    def test_count_and_depth(self):
        root, *_ = small_tree()
        assert root.count() == 4
        assert root.depth() == 3

    def test_unique_view_ids(self):
        root, *_ = small_tree()
        ids = [v.view_id for v in root.iter_tree()]
        assert len(set(ids)) == len(ids)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            View(bounds=Rect(0, 0, 1, 1), bg_alpha=1.5)


class TestHitTest:
    def test_hits_deepest_clickable(self):
        root, _, ago, _ = small_tree()
        assert root.hit_test(150, 320) is ago

    def test_nonclickable_parent_not_hit(self):
        root, *_ = small_tree()
        # Point inside card but outside any clickable child.
        assert root.hit_test(50, 150) is None

    def test_later_sibling_wins_overlap(self):
        root = ViewGroup(bounds=Rect(0, 0, 100, 100))
        under = root.add_child(View(bounds=Rect(0, 0, 50, 50), clickable=True))
        over = root.add_child(View(bounds=Rect(0, 0, 50, 50), clickable=True))
        assert root.hit_test(25, 25) is over
        assert under is not over

    def test_invisible_view_not_hit(self):
        root, _, ago, _ = small_tree()
        ago.visibility = Visibility.INVISIBLE
        assert root.hit_test(150, 320) is None

    def test_out_of_bounds_misses(self):
        root, *_ = small_tree()
        assert root.hit_test(-5, -5) is None

    def test_click_runs_handler(self):
        calls = []
        v = View(bounds=Rect(0, 0, 10, 10), clickable=True,
                 on_click=lambda: calls.append(1))
        assert v.click()
        assert calls == [1]

    def test_click_without_handler_returns_false(self):
        assert not View(bounds=Rect(0, 0, 10, 10), clickable=True).click()


def reference_hit_test(view, x, y):
    """The recursive hit test that ``View.hit_test`` replaced."""
    if view.visibility is not Visibility.VISIBLE:
        return None
    if not view.bounds.contains_point(x, y):
        return None
    for child in reversed(view.children):
        hit = reference_hit_test(child, x, y)
        if hit is not None:
            return hit
    return view if view.clickable else None


def _node(bounds, clickable, visibility, children=()):
    view = View(bounds=bounds, clickable=clickable, visibility=visibility)
    view.children.extend(children)
    return view


def _all_views(view):
    """Every node, GONE subtrees included."""
    yield view
    for child in view.children:
        yield from _all_views(child)


# Small integer bounds make overlaps and shared edges common.
_rects = st.builds(Rect, st.integers(0, 8), st.integers(0, 8),
                   st.integers(0, 8), st.integers(0, 8))
_visibility = st.sampled_from([Visibility.VISIBLE] * 4
                              + [Visibility.INVISIBLE, Visibility.GONE])
_trees = st.recursive(
    st.builds(_node, _rects, st.booleans(), _visibility),
    lambda kids: st.builds(_node, _rects, st.booleans(), _visibility,
                           st.lists(kids, max_size=4)),
    max_leaves=30)


@st.composite
def _trees_and_points(draw):
    """A tree and points on every view's left, right, top and bottom
    edge, and in between."""
    root = draw(_trees)
    views = list(_all_views(root))
    xs = sorted({v.bounds.x for v in views}
                | {v.bounds.x + v.bounds.w for v in views})
    ys = sorted({v.bounds.y for v in views}
                | {v.bounds.y + v.bounds.h for v in views})
    points = draw(st.lists(
        st.tuples(st.one_of(st.sampled_from(xs), st.floats(-1, 18)),
                  st.one_of(st.sampled_from(ys), st.floats(-1, 18))),
        min_size=1, max_size=8))
    return root, points


def _two_clickable_siblings():
    """The later sibling wins, on its right and bottom edges too."""
    root = _node(Rect(0, 0, 8, 8), False, Visibility.VISIBLE)
    for _ in range(2):
        root.add_child(_node(Rect(2, 2, 4, 4), True, Visibility.VISIBLE))
    return root, [(6, 6), (2, 2), (6.5, 6)]


def _clickable_parent():
    """A non-clickable leaf does not shadow the clickable sibling under
    it; GONE and INVISIBLE children pass the tap to their parent."""
    root = _node(Rect(0, 0, 16, 16), True, Visibility.VISIBLE)
    root.add_child(_node(Rect(0, 0, 4, 4), True, Visibility.VISIBLE))
    root.add_child(_node(Rect(0, 0, 4, 4), False, Visibility.VISIBLE))
    root.add_child(_node(Rect(8, 8, 4, 4), False, Visibility.GONE, [
        _node(Rect(8, 8, 4, 4), True, Visibility.VISIBLE)]))
    root.add_child(_node(Rect(12, 0, 4, 4), True, Visibility.INVISIBLE))
    return root, [(2, 2), (4, 4), (10, 10), (14, 2), (16.5, 2)]


@settings(max_examples=200, deadline=None)
@example(case=_two_clickable_siblings())
@example(case=_clickable_parent())
@given(_trees_and_points())
def test_hit_test_matches_recursive_reference(case):
    """Same view (by identity) as the recursive walk, GONE and INVISIBLE
    subtrees and non-clickable leaves included."""
    root, points = case
    for x, y in points:
        assert root.hit_test(x, y) is reference_hit_test(root, x, y)
