"""The library calls that benchmarks/ makes, pinned with the signatures it uses.

The benchmark replays the ``clt`` replicates layer by layer, gates the
``clt`` report through ``compare_report``, and counts calls by wrapping
public functions by name; a rename or a dropped keyword here breaks it.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from covspec import (DirectionSpec, FunctionalSpec, MCReport, ModelConfig, PopulationSpec,
                     SpectralMeasure, Tolerances, build_sample_cov, compare_report,
                     draw_entries, eig_decompose, mean_functional, realize_direction,
                     realized_law, replicate_rng, run_clt, run_replications, w_statistic,
                     weighted_spectrum)

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _cfg(dist="real-gaussian", atoms=((1.0, 1.0),), n=40, N=80):
    pop = PopulationSpec(SpectralMeasure([t for t, _ in atoms], [w for _, w in atoms]))
    return ModelConfig(n=n, N=N, entry_dist=dist, population=pop,
                       direction=DirectionSpec.basis(0), seed=3)


def test_eig_decompose_without_checks_matches_checked():
    a = build_sample_cov(_cfg())
    fast, checked = eig_decompose(a, check=False), eig_decompose(a)
    assert fast.lambdas.tobytes() == checked.lambdas.tobytes()
    assert fast.vectors.tobytes() == checked.vectors.tobytes()
    assert w_statistic(fast) == w_statistic(checked)


@pytest.mark.parametrize("dist", ["real-gaussian", "complex-gaussian"])
def test_build_from_entries_matches_drawn_matrix(dist):
    cfg = _cfg(dist, atoms=((1.0, 0.5), (3.0, 0.5)))
    for r in range(3):
        x = draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, r))
        a = build_sample_cov(cfg, entries=x)
        assert a.tobytes() == build_sample_cov(cfg, replicate=r).tobytes()
        y = np.sqrt(np.repeat([1.0, 3.0], cfg.n // 2))[:, None] * x
        np.testing.assert_allclose(a, y @ y.conj().T / cfg.N, rtol=0, atol=1e-12)


def test_serial_replay_matches_run_replications():
    # the benchmark's clt replay: eig_decompose and weighted_spectrum on each
    # drawn matrix, against the values run_replications returns on one worker
    cfg = _cfg(n=60, N=120)
    gs = [FunctionalSpec.parse(s) for s in ("poly:0,1", "poly:0,0,1", "log")]
    law = realized_law(cfg)
    means = np.array([mean_functional(law, g) for g in gs])
    x = realize_direction(cfg.direction, cfg.n)
    replayed = []
    for r in range(4):
        entries = draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, r))
        ws = weighted_spectrum(eig_decompose(build_sample_cov(cfg, entries=entries)), x)
        replayed.append([np.sqrt(cfg.N) * (np.dot(ws.weights, g(ws.lambdas)) - m)
                         for g, m in zip(gs, means)])
    got = run_replications(cfg, gs, 4, workers=1)
    np.testing.assert_allclose(got, replayed, rtol=1e-9, atol=1e-9)


def test_report_gate_without_theory_err(monkeypatch):
    # the clt gate rebuilds the report from report.json without theory_err
    monkeypatch.setenv("COVSPEC_WORKERS", "1")
    doc = json.loads(json.dumps(run_clt(_cfg(), [FunctionalSpec.monomial(1)], 20).to_dict()))
    report = MCReport(
        R=doc["R"], functionals=doc["functionals"],
        sample_mean=np.array(doc["sample_mean"]), sample_cov=np.array(doc["sample_cov"]),
        theory_cov_contour=np.array(doc["theory_cov_contour"]),
        theory_cov_simplified=np.array(doc["theory_cov_simplified"]),
        standard_errors=np.array(doc["standard_errors"]), n=doc["n"], N=doc["N"],
        seed=doc["seed"], entry_dist=doc["entry_dist"], wall_time=doc["wall_time"])
    assert report.theory_err is None
    verdict = compare_report(report, Tolerances.monte_carlo(report.R))
    assert isinstance(verdict.passed, bool)
    assert isinstance(verdict.failures, list)
    assert verdict.passed == (not verdict.failures)


def test_tracer_counters_name_public_functions():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCHMARKS / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.COUNTERS
    for key in tracing.COUNTERS:
        short, name = key.split(".")
        assert short in tracing.TRACED_MODULES, key
        module = importlib.import_module(f"covspec.{short}")
        obj = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(obj), key
        assert obj.__module__ == module.__name__, key
