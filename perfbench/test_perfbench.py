"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

from stats import interval_union, percentile, self_times, tail_level  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


# -- host-speed scaling ---------------------------------------------------


def test_host_factor_is_mean_loop_time_over_reference_without_preemptions():
    from common import REFERENCE_MS, HostSpeed

    host = HostSpeed()
    ms = REFERENCE_MS / 1000.0
    # Half the samples at twice the reference time, and one preempted.
    host.samples = [ms] * 5 + [2 * ms] * 5 + [40 * ms]
    assert host.factor() == pytest.approx(1.5)


def test_host_tick_runs_the_loop_once_per_interval():
    from common import HostSpeed

    host = HostSpeed()
    host.tick()
    host.tick()
    assert len(host.samples) == 1
    assert host.spent_s >= host.samples[0] > 0


# -- the percentile rule -------------------------------------------------


def test_tail_level_needs_ten_samples_beyond():
    assert tail_level(1000) == 99.0    # rank 990: exactly 10 beyond
    assert tail_level(999) == 95.0     # rank 990 leaves only 9 beyond
    assert tail_level(200) == 95.0     # rank 190: 10 beyond
    assert tail_level(199) == 90.0
    assert tail_level(100) == 90.0
    assert tail_level(20) == 50.0
    assert tail_level(19) is None


def test_percentile_is_nearest_rank():
    # 0.999 * 10000 is not exactly 9990 in floating point.
    assert percentile(list(range(1, 10_001)), 99.9) == 9990
    samples = list(range(1, 1001))
    assert percentile(samples, 99) == 990
    assert sum(1 for s in samples if s > percentile(samples, 99)) == 10
    assert percentile(samples, 50) == 500
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time -----------------------------------------------------------


def test_union_merges_overlaps_and_clips():
    assert interval_union([(0, 2), (1, 3)], 0, 10) == 3
    assert interval_union([(0, 1), (2, 3)], 0, 10) == 2
    assert interval_union([(-5, 1), (9, 20)], 0, 10) == 2
    assert interval_union([(1, 4), (2, 3)], 0, 10) == 3  # nested
    assert interval_union([], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    # root [0, 10]; children [1, 5] and [3, 7] overlap -> union 6.
    # child 1 has a grandchild [2, 4] -> its self time is 4 - 2.
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 5.0, 7.0, 4.0]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 4.0, 2.0]


def test_self_time_ignores_child_time_outside_the_parent():
    # A child that outlives its parent (an asynchronous callee) only
    # covers the part of it that lies inside the parent.
    assert self_times([0.0, 8.0], [10.0, 15.0], [-1, 0]) == [8.0, 7.0]


# -- wrappers ------------------------------------------------------------


class Engine:
    def work(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @staticmethod
    def helper(x):
        return x

    @classmethod
    def build(cls):
        return cls()


def test_wrappers_record_nested_spans_and_restore_originals():
    originals = {name: Engine.__dict__[name]
                 for name in ("work", "inner", "helper", "build")}
    tracer = Tracer()
    tracer.wrap(Engine, "work", "engine.work", root=lambda args: "select")
    tracer.wrap(Engine, "inner", "engine.inner")
    tracer.wrap(Engine, "helper", "engine.helper")
    tracer.wrap(Engine, "build", "engine.build")
    for name, original in originals.items():
        assert Engine.__dict__[name] is not original
    engine = Engine.build()
    assert engine.work(3) == 7
    assert Engine.helper(5) == 5
    tracer.unwrap_all()
    for name, original in originals.items():
        assert Engine.__dict__[name] is original
    assert not tracer._patches

    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["engine.build", "engine.work", "engine.inner",
                     "engine.helper"]
    assert list(tracer.parent) == [-1, -1, 1, -1]
    assert tracer.stmt_kinds == {0: "select"}
    assert list(tracer.stmt) == [-1, 0, 0, -1]
    rows = {(row[0], row[1], row[2]): row[3] for row in aggregate(tracer)["rows"]}
    assert rows[("engine.inner", "engine.work", "select")] == 1
    # Untraced calls after removal record nothing.
    engine.work(1)
    assert len(tracer) == 4


def test_context_manager_wrapper_times_enter_and_exit():
    import contextlib

    class Obs:
        @contextlib.contextmanager
        def span(self):
            yield "inside"

    original = Obs.__dict__["span"]
    tracer = Tracer()
    tracer.wrap(Obs, "span", "obs.span", context_manager=True)
    with Obs().span() as value:
        assert value == "inside"
    tracer.unwrap_all()
    assert Obs.__dict__["span"] is original
    assert [tracer.names[i] for i in tracer.name_id] == ["obs.span"] * 2


def test_engine_wrappers_restore_every_attribute():
    """The full engine target list round-trips by identity, so an
    untraced run executes exactly the shipped functions."""
    from layers import install_client, install_engine

    for install in (install_engine, install_client):
        tracer = Tracer()
        install(tracer)
        patched = list(tracer._patches)
        assert patched
        tracer.unwrap_all()
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is original, f"{owner}.{attr}"
