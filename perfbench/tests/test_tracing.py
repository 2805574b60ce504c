"""Self-time arithmetic and profile attribution on synthetic inputs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tracing import (  # noqa: E402
    Patcher,
    SpanRecorder,
    package_of,
    package_self_times,
    self_times,
)


def test_self_time_is_duration_minus_child_coverage():
    # root [0, 10] holds a [1, 4] and b [3, 6] (overlapping: union 1..6)
    # and c [8, 9]; a holds a1 [2, 3].
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),
        ("c", 8.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["c"] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent_and_sums_names():
    spans = [
        ("x", 0.0, 2.0, None),
        ("y", 1.5, 3.0, 0),  # sticks out of its parent: only 0.5 counts
        ("x", 5.0, 6.0, None),
    ]
    own = self_times(spans)
    assert own["x"] == pytest.approx(1.5 + 1.0)
    assert own["y"] == pytest.approx(1.5)


def test_recorder_nests_spans_and_patcher_restores():
    class Owner:
        @staticmethod
        def inner():
            return 1

        @classmethod
        def outer(cls):
            return cls.inner() + 1

    recorder = SpanRecorder()
    patcher = Patcher()
    patcher.wrap(Owner, "inner", lambda fn: recorder.wrap("inner", fn))
    patcher.wrap(Owner, "outer", lambda fn: recorder.wrap("outer", fn))
    assert Owner.outer() == 2
    patcher.restore()
    assert Owner.outer() == 2
    names = [(name, parent) for name, _s, _e, parent in recorder.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert isinstance(Owner.__dict__["inner"], staticmethod)
    assert isinstance(Owner.__dict__["outer"], classmethod)


def test_package_of():
    root = os.path.join(os.sep, "x", "src", "repro")
    engine = os.path.join(root, "netsim", "engine.py")
    assert package_of(engine, root) == "netsim"
    assert package_of(os.path.join(root, "cli.py"), root) == "cli"
    assert package_of("~", root) is None
    stdlib = os.path.join(os.sep, "usr", "lib", "random.py")
    assert package_of(stdlib, root) is None


def test_stdlib_self_time_goes_to_calling_packages():
    root = os.path.join(os.sep, "src", "repro")
    engine = (os.path.join(root, "netsim", "engine.py"), 1, "run")
    stub = (os.path.join(root, "dns", "stub.py"), 1, "query")
    lognorm = (os.path.join(os.sep, "lib", "random.py"), 1, "lognormvariate")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        engine: (1, 1, 2.0, 9.0, {}),
        stub: (1, 1, 1.0, 3.0, {}),
        # lognormvariate: 3 s of its own, called 1 s from engine and 3 s
        # from stub (edge tt), so engine gets 1/4 and stub 3/4.
        lognorm: (4, 4, 3.0, 4.0, {
            engine: (1, 1, 1.0, 1.0), stub: (3, 3, 3.0, 3.0),
        }),
        # heappush: edge tt all zero, so split by call count (1:1).
        heappush: (2, 2, 0.5, 0.5, {
            engine: (1, 1, 0.0, 0.0), lognorm: (1, 1, 0.0, 0.0),
        }),
    }
    totals = package_self_times(stats, root)
    # heappush: 0.25 to engine, 0.25 through lognorm (1/4 netsim, 3/4 dns).
    assert totals["netsim"] == pytest.approx(2.0 + 0.75 + 0.25 + 0.0625)
    assert totals["dns"] == pytest.approx(1.0 + 2.25 + 0.1875)
    assert sum(totals.values()) == pytest.approx(6.5)


def test_unreachable_stdlib_time_is_other():
    root = os.path.join(os.sep, "src", "repro")
    orphan = (os.path.join(os.sep, "lib", "json.py"), 1, "dumps")
    totals = package_self_times({orphan: (1, 1, 0.4, 0.4, {})}, root)
    assert totals == {"other": pytest.approx(0.4)}
