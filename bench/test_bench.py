"""Self-tests of the benchmark's instruments: `python3 -m pytest bench -q`."""
from __future__ import annotations

import threading

import pytest

import run
from spans import Span, Tracer, patched, self_times

run.import_package()

import workloads  # noqa: E402  (needs the package path set above)
import zeroext  # noqa: E402


def span(name, start, end, parent=None, thread=1):
    s = Span(name, thread, start, parent)
    s.end = end
    return s


def test_self_time_of_nested_spans_and_overlapping_thread_children():
    spans = [
        span("outer", 0.0, 10.0),               # 0
        span("a", 1.0, 4.0, parent=0),          # 1: same-thread child
        span("a.inner", 2.0, 3.0, parent=1),    # 2: grandchild
        span("row", 5.0, 8.0, parent=0, thread=2),  # 3: pool thread
        span("row", 6.0, 9.5, parent=0, thread=3),  # 4: overlaps 3
        span("row.inner", 6.5, 7.0, parent=4, thread=3),
    ]
    got = self_times(spans)
    # outer: 10 - |[1,4]| - |[5,9.5]| = 10 - 3 - 4.5
    assert got == pytest.approx([2.5, 2.0, 1.0, 3.0, 3.0, 0.5])


def test_child_spans_clipped_to_parent_interval():
    spans = [span("p", 0.0, 2.0), span("c", 1.5, 3.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_attributes_pool_thread_spans_to_the_open_home_span():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def row():
        index = tracer.open("row")
        barrier.wait(timeout=10)
        inner = tracer.open("row.inner")
        tracer.close(inner)
        tracer.close(index)

    outer = tracer.open("outer")
    workers = [threading.Thread(target=row) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
        assert not w.is_alive()
    tracer.close(outer)

    by_name = {}
    for index, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append((index, s))
    assert all(s.parent == outer for _, s in by_name["row"])
    rows = {index for index, _ in by_name["row"]}
    assert {s.parent for _, s in by_name["row.inner"]} == rows
    assert len({s.thread for _, s in by_name["row"]}) == 2
    summary = tracer.summary()
    own = self_times(tracer.spans)
    assert summary["outer"]["self_s"] == pytest.approx(own[outer])
    assert 0.0 <= own[outer] <= summary["outer"]["total_s"]
    assert summary["row"]["calls"] == 2


def test_patcher_wraps_every_binding_and_restores_them():
    original = zeroext.graphs.single_source_shortest_paths
    holders = [zeroext.graphs, zeroext.split, zeroext.certificate]
    assert all(m.single_source_shortest_paths is original for m in holders)
    tracer = Tracer()
    with patched(tracer, ["graphs.single_source_shortest_paths"]) as undo:
        wrapper = zeroext.graphs.single_source_shortest_paths
        assert wrapper is not original
        assert all(m.single_source_shortest_paths is wrapper for m in holders)
        assert {mod.__name__ for mod, _, _ in undo} >= {m.__name__ for m in holders}
        build = zeroext.instance.default_gap_instance(6, 4, 0)
        x = build.extension
        f = zeroext.split.per_cloud_labeling(build.instance, x, 0)
        cand = zeroext.split.build_split_candidate(build.instance, x, f, 1e9, 0.1, 0.9)
        zeroext.split.verify_split(cand, x)
    assert all(m.single_source_shortest_paths is original for m in holders)
    calls = tracer.summary()["graphs.single_source_shortest_paths"]["calls"]
    assert calls >= 2  # trees built in both build_split_candidate and verify_split


class TwoItems(workloads.Instances):
    per_round = 2
    sizes = (8,)


def test_forced_bad_output_counts_as_failed(monkeypatch):
    real = zeroext.relaxation.canonical_fractional

    def off_by_one(inst):
        delta, cost = real(inst)
        return delta, cost + 1.0

    monkeypatch.setattr(zeroext.relaxation, "canonical_fractional", off_by_one)
    phase = run.timed_phase(TwoItems(0, "."), seconds=0)
    assert phase["attempted"] == 2
    assert phase["failed"] == 2
    assert "canonical cost" in phase["errors"][0]


def test_raising_item_counts_as_failed_and_run_continues(monkeypatch):
    def boom(*args, **kwargs):
        raise SystemExit("error: forced")

    monkeypatch.setattr(zeroext.instance, "default_gap_instance", boom)
    phase = run.timed_phase(TwoItems(0, "."), seconds=0)
    assert (phase["attempted"], phase["failed"]) == (2, 2)


def test_good_outputs_pass_and_digest_repeats():
    first = run.timed_phase(TwoItems(0, "."), seconds=0)
    again = run.timed_phase(TwoItems(0, "."), seconds=0)
    assert first["failed"] == 0
    assert first["digest"] == again["digest"]
    assert first["counters"]["instances"] == 2


def test_metric_names_match_benchmark_json():
    import json

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    layer = run.layer_metrics(Tracer(), {"attempted": 1, "counters": {}})
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in layer.values()]
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "item_p50_s", "setup_s", "peak_rss_mb"]
