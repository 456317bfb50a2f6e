"""One fresh interpreter of a benchmark run; ``run.py`` starts it.

    python3 benchmarks/child.py call  --root DIR --plan PLAN --result OUT --spawned T [--setup-only] [--env]
    python3 benchmarks/child.py trace --root DIR --plan PLAN --result OUT [--replay]
    python3 benchmarks/child.py blas  --root DIR --seed S --result OUT

``call`` imports ``covspec.cli``, parses every config of the plan (the
set-up, timed from the parent's spawn time ``T`` on CLOCK_MONOTONIC), then
runs the plan's CLI calls and times them with the interpreter already warm.
``trace`` runs the same calls with ``tracing.Tracer`` installed and, with
``--replay``, replays the replicates serially layer by layer.  ``blas`` runs
``run_replications`` once and reports a hash of its bytes.  Each mode writes
one JSON object to ``OUT``; the exit code is the first nonzero CLI code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_covspec(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import covspec.cli

    if Path(covspec.cli.__file__).resolve().parents[1] != src.resolve():
        raise ImportError(f"covspec imported from {covspec.cli.__file__}, not {src}")
    return covspec.cli


def _peak_rss_mb() -> float:
    """High-water resident set of this process image, from /proc/self/status.

    Not ru_maxrss: after the parent's vfork and exec it also holds the
    parent's resident set at the time of the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in
           ("COVSPEC_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_call(args) -> int:
    plan = json.loads(Path(args.plan).read_text())
    cli = _import_covspec(Path(args.root))
    for call in plan["calls"]:
        cli.parse_config(Path(call["config"]).read_text())
    ready = _monotonic()
    out = {"setup_s": ready - args.spawned, "exit_codes": []}
    if not args.setup_only:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for call in plan["calls"]:
            out["exit_codes"].append(cli.main(list(call["argv"])))
        out["wall_s"] = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    out["peak_rss_mb"] = _peak_rss_mb()
    if args.env:
        out["env"] = environment()
    Path(args.result).write_text(json.dumps(out))
    return next((code for code in out["exit_codes"] if code), 0)


def _replay_replicates(cfg, stat, reps):
    """Serial replicate loop split by layer; returns (timings, statistic values).

    eig_decompose runs with and without its self-checks on the same matrix;
    the order alternates so neither call always meets a warm cache.
    """
    import numpy as np
    from covspec.eigen import eig_decompose
    from covspec.model import build_sample_cov, draw_entries, replicate_rng

    t = dict.fromkeys(("draw_s", "gram_s", "eigh_s", "eig_checked_s", "stat_s"), 0.0)
    vals = []
    clock = time.perf_counter
    for r in range(reps):
        t0 = clock()
        x = draw_entries(cfg.entry_dist, cfg.n, cfg.N, replicate_rng(cfg.seed, r))
        t1 = clock()
        a = build_sample_cov(cfg, entries=x)
        t2 = clock()
        if r % 2:
            eig_decompose(a, check=False)
            t3 = clock()
            es = eig_decompose(a)
            t4 = clock()
            t["eigh_s"] += t3 - t2
            t["eig_checked_s"] += t4 - t3
        else:
            es = eig_decompose(a)
            t3 = clock()
            eig_decompose(a, check=False)
            t4 = clock()
            t["eig_checked_s"] += t3 - t2
            t["eigh_s"] += t4 - t3
        vals.append(stat(es))
        t5 = clock()
        t["draw_s"] += t1 - t0
        t["gram_s"] += t2 - t1
        t["stat_s"] += t5 - t4
    return t, np.array(vals)


def _replay_clt(config_text, kept):
    import numpy as np
    from covspec.cli import parse_config
    from covspec.harness import realized_law
    from covspec.law import mean_functional
    from covspec.model import realize_direction
    from covspec.weighted import weighted_spectrum

    rc = parse_config(config_text)
    cfg, gs = rc.model, rc.functionals
    law = realized_law(cfg)
    means = np.array([mean_functional(law, g) for g in gs])
    x = realize_direction(cfg.direction, cfg.n)
    root_n = np.sqrt(cfg.N)

    def stat(es):
        ws = weighted_spectrum(es, x)
        return [root_n * (np.dot(ws.weights, np.asarray(g(ws.lambdas), dtype=float)) - m)
                for g, m in zip(gs, means)]

    timings, vals = _replay_replicates(cfg, stat, rc.reps)
    cli_vals = np.asarray(kept[0])
    return timings, vals, cli_vals


def _replay_figures(config_text, output):
    import numpy as np
    from covspec.cli import FIGURE_ONE_SIZES, parse_config
    from covspec.kde import kde, silverman_bandwidth
    from covspec.model import ModelConfig
    from covspec.weighted import w_statistic
    from workloads import read_csv

    rc = parse_config(config_text)
    base, reps = rc.model, rc.reps or 1000  # the CLI's default for figures
    timings, series = None, []
    for N in FIGURE_ONE_SIZES:
        cfg = ModelConfig(n=int(round(0.2 * N)), N=N, entry_dist=base.entry_dist,
                          population=base.population, direction=base.direction, seed=base.seed)
        t, vals = _replay_replicates(cfg, w_statistic, reps)
        timings = t if timings is None else {k: timings[k] + t[k] for k in t}
        series.append(vals)
    allv = np.concatenate(series)
    h = max(silverman_bandwidth(v) for v in series)
    xs = np.linspace(allv.min() - 4 * h, allv.max() + 4 * h, 512)
    replayed = np.column_stack([xs] + [kde(v, xs) for v in series])
    _, rows = read_csv(output)
    return timings, replayed, rows


def run_trace(args) -> int:
    from tracing import Tracer

    plan = json.loads(Path(args.plan).read_text())
    cli = _import_covspec(Path(args.root))
    tracer = Tracer()
    wrapped = tracer.install()
    codes = [cli.main(list(call["argv"])) for call in plan["calls"]]
    tracer.uninstall()
    out = {"exit_codes": codes, "wrapped": wrapped, "spans": tracer.spans,
           "counts": dict(tracer.counts)}
    if args.replay and not any(codes) and plan["workload"] in ("clt", "figures"):
        import numpy as np

        call = plan["calls"][0]
        text = Path(call["config"]).read_text()
        if plan["workload"] == "clt":
            timings, replayed, cli_vals = _replay_clt(text, tracer.kept)
        else:
            timings, replayed, cli_vals = _replay_figures(text, call["outputs"][0])
        same = np.isclose(replayed, cli_vals, rtol=1e-9, atol=1e-9)
        out["replay"] = {**timings, "values": int(same.size),
                         "mismatches": int(same.size - np.count_nonzero(same)),
                         "bitwise_equal": bool(np.array_equal(replayed, cli_vals))}
    Path(args.result).write_text(json.dumps(out))
    return next((code for code in codes if code), 0)


def run_blas(args) -> int:
    _import_covspec(Path(args.root))
    from covspec.functionals import FunctionalSpec
    from covspec.harness import run_replications
    from covspec.model import DirectionSpec, ModelConfig, PopulationSpec
    from workloads import CLT_FUNCTIONALS

    cfg = ModelConfig(n=300, N=600, entry_dist="real-gaussian",
                      population=PopulationSpec.identity(), direction=DirectionSpec.basis(0),
                      seed=args.seed)
    values = run_replications(cfg, [FunctionalSpec.parse(g) for g in CLT_FUNCTIONALS], 8,
                              workers=1)
    Path(args.result).write_text(json.dumps({"sha256": hashlib.sha256(values.tobytes()).hexdigest()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("call", "trace", "blas"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--spawned", type=float)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--replay", action="store_true")
    args = parser.parse_args(argv)
    return {"call": run_call, "trace": run_trace, "blas": run_blas}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
