"""Tests of the benchmark's own metric arithmetic and bookkeeping.

    python3 -m pytest -q benchmarks
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, expected", [(1, None), (19, None), (20, 50.0), (39, 50.0),
                                         (40, 75.0), (100, 90.0), (200, 95.0),
                                         (1000, 99.0), (10000, 99.9)])
def test_supported_percentile_leaves_ten_samples_beyond(n, expected):
    assert metrics.supported_percentile(n) == expected


def test_summarize_reports_median_count_and_percentile():
    small = metrics.summarize([3.0, 1.0, 5.0])
    assert small == {"median": 3.0, "mean": 3.0, "n": 3, "percentile": None,
                     "percentile_value": None, "value": 3.0}
    assert metrics.summarize([1.0, 1.0, 4.0], "mean")["value"] == 2.0
    assert metrics.summarize([1.0, 1.0, 4.0])["value"] == 1.0
    values = list(range(1, 101))
    big = metrics.summarize(values)
    assert big["n"] == 100 and big["median"] == 50.5 and big["value"] == 50.5
    assert big["percentile"] == 90.0 and big["percentile_value"] == 90
    assert sum(v > big["percentile_value"] for v in values) == 10
    with pytest.raises(ValueError):
        metrics.summarize([])


def test_self_time_subtracts_nested_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert metrics.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(metrics.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_by_their_union():
    spans = [("pool", 0.0, 10.0, -1), ("t1", 1.0, 6.0, 0), ("t2", 4.0, 8.0, 0),
             ("late", 9.5, 12.0, 0)]
    # children cover [1, 8] and [9.5, 10] inside the parent
    assert metrics.self_times(spans)[0] == pytest.approx(2.5)


def test_parallel_eff():
    assert metrics.parallel_eff(4.4, 2, 8.3) == pytest.approx(4.4 / 16.6)
    assert metrics.parallel_eff(4.0, 2, 2.0) == pytest.approx(1.0)
    assert metrics.parallel_eff(1.0, 2, 0.0) == 0.0


def test_exit_zero_with_missing_output_counts_as_failed(tmp_path):
    runner = run.Runner(ROOT, tmp_path)
    calls = workloads.density_calls(0, tmp_path / "out")
    # the program ran (attempted) and exited 0, but wrote no density.csv
    runner.attempted += 1
    assert not runner.gate(calls, "density-call00")
    assert any("missing output" in reason for _, reason in runner.failures)
    assert runner.failed == 1
    assert metrics.error_rate(runner.failed, runner.attempted) == 1.0
    runner.attempted += 3
    assert metrics.error_rate(runner.failed, runner.attempted) == 0.25
    with pytest.raises(ValueError):
        metrics.error_rate(0, 0)


def test_density_gate_rejects_a_cdf_that_is_not_monotone(tmp_path):
    call, = workloads.density_calls(0, tmp_path, labels=("delta1_c0.25",))
    rows = ["x,f,F", "0.5,0.1,0", "1,0.2,0.6", "1.5,0.1,0.5", "2,0,1"]
    Path(call.outputs[0]).write_text("\n".join(rows) + "\n")
    assert workloads.check_call(call) == ["F is not monotone"]


def test_normalized_bytes_blanks_only_the_timing_field(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text('{\n  "R": 2,\n  "wall_time": 1.25\n}\n')
    b.write_text('{\n  "R": 2,\n  "wall_time": 10.125\n}\n')
    assert workloads.normalized_bytes(a) == workloads.normalized_bytes(b)
    b.write_text('{\n  "R": 3,\n  "wall_time": 1.25\n}\n')
    assert workloads.normalized_bytes(a) != workloads.normalized_bytes(b)


def test_tracer_records_nested_spans_and_counts_then_uninstalls():
    from tracing import Tracer

    import covspec.model as model
    from covspec.eigen import eig_decompose

    original = model.build_sample_cov
    cfg = model.ModelConfig(n=5, N=10, entry_dist="real-gaussian",
                            population=model.PopulationSpec.identity(),
                            direction=model.DirectionSpec.basis(0))
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        model.build_sample_cov(cfg, replicate=0)
    finally:
        tracer.uninstall()
    assert model.build_sample_cov is original
    eig_decompose(original(cfg))  # untraced after uninstall
    names = [s[0] for s in tracer.spans]
    assert names[0] == "model.build_sample_cov"
    assert "model.draw_entries" in names and "model.replicate_rng" in names
    assert all(parent == 0 for _, _, _, parent in tracer.spans[1:])
    assert tracer.counts["model.entries"] == 50
    assert tracer.counts["model.gram_gflop"] == pytest.approx(2 * 5 * 5 * 10 / 1e9)
    assert "eigen.calls" not in tracer.counts


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.E2E_METRICS), ("per_layer", run.LAYER_METRICS)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
