"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import os
import re
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_percentile_reports_samples_beyond():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50.0) == (50, 50)
    assert tracing.percentile(values, 95.0) == (95, 5)
    assert tracing.percentile([7.0], 99.0) == (7.0, 0)
    with pytest.raises(ValueError):
        tracing.percentile([], 50.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracing.tail(list(range(1, 101))) == (90.0, 90, 100)
    assert tracing.tail(list(range(1, 1001))) == (99.0, 990, 1000)
    assert tracing.tail(list(range(19))) is None
    assert tracing.tail(list(range(20))) == (50.0, 9, 20)


def test_pass_metrics_scale_each_call():
    procs = [run.Proc(2.0, 3.0, 40.0, ""), run.Proc(1.0, 1.0, 50.0, "")]
    raw = run.pass_metrics(procs, [1.0, 1.0], 300)
    assert raw == {"wall_s": 3.0, "cpu_s": 4.0, "throughput": 100.0, "peak_rss_mb": 50.0}
    scaled = run.pass_metrics(procs, [0.5, 2.0], 300)
    assert scaled == {"wall_s": 3.0, "cpu_s": 3.5, "throughput": 100.0, "peak_rss_mb": 50.0}
    assert run.pass_metrics(procs, [1.0, 0.5], 300)["throughput"] == 120.0


def _span(id, parent, start, end, name="x"):
    return tracing.Span(id, parent, name, start, end)


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 40, 70),
        _span(3, 2, 45, 50),  # grandchild: counts against span 2 only
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(50e-9)
    assert own[1] == pytest.approx(20e-9)
    assert own[2] == pytest.approx(25e-9)
    assert own[3] == pytest.approx(5e-9)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0, 100), _span(1, 0, 10, 60), _span(2, 0, 40, 120)]
    assert tracing.self_times(spans)[0] == pytest.approx(10e-9)


def test_instrument_wraps_public_functions_and_restores_them():
    mod = types.ModuleType("fakepkg.layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def _private(x):
        return x

    for fn in (inner, outer, _private):
        fn.__module__ = mod.__name__
        setattr(mod, fn.__name__, fn)
    alias = types.ModuleType("fakepkg.front")
    alias.outer = outer  # bound by name, as cli binds harness functions

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, [mod, alias]):
        assert alias.outer(1) == 4
        assert mod._private(3) == 3
    assert [s.name for s in tracer.spans] == ["layer.outer", "layer.inner"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert mod.outer is outer and alias.outer is outer and mod.inner is inner


def test_benchmark_json_matches_the_metric_catalogues():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        entry[:3] for entry in tracing.LAYER_METRICS
    ]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_graph_is_simple_connected_ring_plus_chords(tmp_path):
    path = tmp_path / "g.txt"
    workloads.write_graph(str(path), 50, 100, seed=3)
    edges = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    keys = {(min(u, v), max(u, v)) for u, v in edges}
    assert len(edges) == 150 and len(keys) == 150
    assert all(u != v for u, v in edges)
    assert {u for e in edges for u in e} == set(range(50))
    again = tmp_path / "h.txt"
    workloads.write_graph(str(again), 50, 100, seed=3)
    assert again.read_text() == path.read_text()
    workloads.write_graph(str(again), 50, 100, seed=4)
    assert again.read_text() != path.read_text()


def test_check_outputs_rejects_stale_and_corrupt_files(tmp_path):
    (tmp_path / "a.csv").write_text("x\n")
    digest = workloads.sha256_file(str(tmp_path / "a.csv"))
    (tmp_path / "manifest.json").write_text(json.dumps({"files": {"a.csv": digest}}))
    good = workloads.check_outputs(str(tmp_path))
    (tmp_path / "stale.csv").write_text("old\n")
    with pytest.raises(workloads.CheckError):
        workloads.check_outputs(str(tmp_path))
    (tmp_path / "stale.csv").unlink()
    (tmp_path / "a.csv").write_text("y\n")
    with pytest.raises(workloads.CheckError):
        workloads.check_outputs(str(tmp_path))
    (tmp_path / "a.csv").write_text("x\n")
    assert workloads.check_outputs(str(tmp_path)) == good


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run_emits_every_metric(workload, trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--size", "tiny", "--seconds", "0",
                         "--trace", str(trace)])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = tracing.LAYER_METRICS if trace else run.END_TO_END
    assert sorted(result["metrics"]) == sorted(entry[0] for entry in expected)
    for entry in expected:
        assert result["metrics"][entry[0]]["unit"] == entry[1]
