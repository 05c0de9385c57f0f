"""Span nesting, state-machine tracks, and unclosed-span detection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import TelemetryHub, UnclosedSpanError
from repro.telemetry.digest import canonical_json
from repro.telemetry.spans import Span, _plain


def make_hub(clock=None):
    times = iter(range(100))
    hub = TelemetryHub(clock=clock or (lambda: float(next(times))), run_id="t")
    hub.enable()
    return hub


def test_disabled_hub_is_a_null_object():
    hub = TelemetryHub()
    with hub.span("a", "b") as sp:
        assert sp is None
    hub.transition("a", "lane", "STATE")
    hub.instant("a", "mark")
    assert hub.spans == [] and hub.instants == []
    hub.require_closed()  # nothing open, nothing raised


def test_span_nesting_sets_parent_from_the_stack():
    hub = make_hub()
    with hub.span("outer", "parent") as outer:
        with hub.span("inner", "child") as inner:
            assert inner.parent == outer.sid
        with hub.span("inner", "sibling") as sibling:
            assert sibling.parent == outer.sid
    with hub.span("outer", "next") as top:
        assert top.parent is None
    assert [s.closed for s in hub.spans] == [True] * 4
    assert all(s.t1 >= s.t0 for s in hub.spans)


def test_out_of_order_close_does_not_corrupt_the_stack():
    hub = make_hub()
    a = hub.span("x", "a")
    sa = a.__enter__()
    b = hub.span("x", "b")
    b.__enter__()
    a.__exit__(None, None, None)  # close parent before child
    with hub.span("x", "c") as sc:
        # b is still the top of the stack, so c nests under it
        assert sc.parent is not None and sc.parent != sa.sid
    b.__exit__(None, None, None)
    hub.require_closed()


def test_require_closed_raises_with_span_names():
    hub = make_hub()
    hub.span("execution", "gather-information").__enter__()
    with pytest.raises(UnclosedSpanError, match="execution/gather-information"):
        hub.require_closed()
    assert hub.close_open_spans() == 1
    hub.require_closed()


def test_transition_closes_the_previous_state_span():
    hub = make_hub(clock=None)
    hub.transition("pilot", "pilot.1", "NEW")
    hub.transition("pilot", "pilot.1", "LAUNCHING")
    hub.transition("pilot", "pilot.1", "ACTIVE")
    new, launching, active = hub.spans
    assert new.closed and new.t1 == launching.t0
    assert launching.closed and launching.t1 == active.t0
    assert not active.closed
    assert hub.open_spans() == [active]


def test_final_transition_is_zero_duration_and_leaves_track_closed():
    hub = make_hub()
    hub.transition("unit", "unit.1", "EXECUTING")
    hub.transition("unit", "unit.1", "DONE", final=True)
    done = hub.spans[-1]
    assert done.closed and done.t0 == done.t1
    hub.require_closed()


def test_tracks_are_independent_per_category_and_lane():
    hub = make_hub()
    hub.transition("pilot", "pilot.1", "NEW")
    hub.transition("pilot", "pilot.2", "NEW")
    hub.transition("pilot", "pilot.1", "ACTIVE")
    # pilot.2 is untouched by pilot.1's progress
    assert len(hub.open_spans()) == 2
    by_track = {s.track: s.name for s in hub.open_spans()}
    assert by_track == {"pilot.1": "ACTIVE", "pilot.2": "NEW"}


def test_span_attrs_survive_into_the_canonical_dict():
    hub = make_hub()
    with hub.span("cluster", "pass", track="cluster/alpha", pending=(1, 2)):
        pass
    d = hub.spans[0].as_dict()
    assert d["attrs"]["pending"] == [1, 2]  # tuples coerced for JSON
    assert "w0" not in d  # wall time excluded from canonical form
    dw = hub.spans[0].as_dict(wall=True)
    assert "w0" in dw and "w1" in dw


def test_flat_attrs_render_as_a_copy():
    attrs = {"policy": "easy", "pending": 3, "load": 0.5, "ok": True,
             "note": None}
    span = Span(1, None, "cluster", "scheduler-pass", "cluster/a", 0.0, 0.0,
                attrs=attrs)
    rendered = span.as_dict()["attrs"]
    assert rendered == _plain(attrs)
    assert rendered is not attrs


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    st.integers(-5, 5).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.booleans().map(np.bool_),
)
_keys = st.one_of(
    st.text(max_size=5),
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    st.text(max_size=3).map(np.str_),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.dictionaries(st.text(max_size=5), _values, max_size=5),
    st.dictionaries(_keys, _values, max_size=5),
))
@example({"pending": (1, 2)})
@example({"nested": {"a": 1, 2: None}})
@example({1: "one", None: 0})
@example({"n": np.int64(3), "x": np.float64("nan"), "b": np.bool_(True)})
@example({"ok": True, "none": None, "nan": float("nan"),
          "inf": float("inf"), "ninf": float("-inf")})
def test_as_dict_renders_attrs_like_the_recursive_coercion(attrs):
    span = Span(7, 3, "cluster", "scheduler-pass", "cluster/a", 1.5, 0.0,
                t1=2.5, attrs=attrs)
    reference = span.as_dict()
    reference["attrs"] = _plain(attrs)
    assert canonical_json(span.as_dict()) == canonical_json(reference)
