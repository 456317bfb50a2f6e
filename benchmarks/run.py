"""covspec benchmark: run one workload from a checkout and report its metrics.

    python3 benchmarks/run.py --workload clt --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 60

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` runs the workload's CLI calls back to back, each in a fresh
interpreter, for about ``--seconds`` seconds and reports the end-to-end
metrics.  ``--trace 1`` makes one untraced call and two traced calls, replays
the replicates serially, probes determinism, and reports the per-layer
metrics.  ``--workload all`` runs every workload both ways and prints every
metric.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import metrics  # noqa: E402
import workloads  # noqa: E402

# name: (unit, better)
E2E_METRICS = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "theory_gap": ("abs", "lower"),
    "density_max_err": ("abs", "lower"),
}
LAYER_METRICS = {
    "model.draw_s": ("s", "lower"),
    "model.gram_s": ("s", "lower"),
    "model.entries": ("count", "lower"),
    "model.gram_gflop": ("GFLOP", "lower"),
    "eigen.eigh_s": ("s", "lower"),
    "eigen.check_s": ("s", "lower"),
    "eigen.calls": ("count", "lower"),
    "weighted.stat_s": ("s", "lower"),
    "harness.replicates_s": ("s", "lower"),
    "harness.parallel_eff": ("ratio", "higher"),
    "harness.contour_s": ("s", "lower"),
    "harness.simplified_s": ("s", "lower"),
    "harness.blas_thread_mismatch": ("count", "lower"),
    "kernels.nodes_s": ("s", "lower"),
    "kernels.kernel_evals": ("count", "lower"),
    "mp.solve_s": ("s", "lower"),
    "mp.points": ("count", "lower"),
    "mp.iters_total": ("count", "lower"),
    "mp.iters_max": ("count", "lower"),
    "mp.max_residual": ("abs", "lower"),
    "law.density_s": ("s", "lower"),
    "law.grid_s": ("s", "lower"),
    "law.cdf_s": ("s", "lower"),
    "law.mean_s": ("s", "lower"),
    "kde.kde_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.top_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.self_coverage": ("ratio", "higher"),
    "repeat.output_diff": ("count", "lower"),
    "repeat.count_mismatch": ("count", "lower"),
    "replay.mismatch": ("count", "lower"),
    "error_rate": ("ratio", "lower"),
}
# count metrics that must repeat exactly between two traced calls
REPEAT_COUNTS = ("model.entries", "eigen.calls", "kernels.kernel_evals", "mp.points",
                 "mp.iters_total", "mp.iters_max", "cli.bytes_out")
# span self times summed into each per-layer time metric
SPAN_GROUPS = {
    "harness.replicates_s": ("harness.run_replications",),
    "harness.contour_s": ("harness.theoretical_cov_contour", "kernels.kernel_from_mbar"),
    "harness.simplified_s": ("harness.theoretical_cov_simplified",),
    "law.density_s": ("law.density",),
    "law.grid_s": ("law.LimitLaw.ensure_grids",),
    "law.cdf_s": ("law.cdf_limit", "law.LimitLaw.continuous_cdf"),
    "law.mean_s": ("law.mean_functional", "law.limit_moments", "law.mean_functional_density"),
    "cli.parse_s": ("cli.parse_config",),
}
# whole modules whose spans' self times form one metric (minus names above)
MODULE_GROUPS = {"kernels.nodes_s": "kernels.", "mp.solve_s": "mp.", "kde.kde_s": "kde."}
# the CLI's own code around the layers: argument parsing, dispatch, file writing
GLUE_SPANS = ("cli.main", "cli.dispatch")
# Per-call times on a shared 2-core host are bimodal, so the median of a run's
# 2-7 calls flips between modes; the mean (total time / calls) varies less
# from run to run.  Both are recorded; these metrics report the mean.
REPORT_MEAN = ("wall_s", "cpu_s")
MIN_SELF_COVERAGE = 0.9
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 170


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts child interpreters for one run and keeps their outcomes.

    Every program invocation counts as attempted; one that exits nonzero,
    writes no result, or whose outputs fail a gate counts as failed.
    """

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.attempted = 0
        self.failures = []       # (invocation label, reason)

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures})

    def fail(self, label, reason):
        self.failures.append((label, reason))

    def spawn(self, mode, label, *extra, env=None):
        """Run child.py in ``mode``; returns (result dict or None, seconds)."""
        self.attempted += 1
        result = self.work / f"result-{label}.json"
        spawned = _monotonic()
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, "--root", str(self.root),
               "--result", str(result), *extra]
        if mode == "call":
            cmd += ["--spawned", repr(spawned)]
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT, cwd=self.root)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = None, f"timed out after {CHILD_TIMEOUT} s"
        seconds = _monotonic() - spawned
        if code != 0:
            self.fail(label, f"exit code {code}: {stderr.strip()[-500:]}")
            return None, seconds
        if not result.is_file():
            self.fail(label, "exit code 0 but no result written")
            return None, seconds
        return json.loads(result.read_text()), seconds

    def invoke(self, mode, calls, label, *extra):
        """One program invocation running ``calls``; returns (result or None, seconds)."""
        plan = self.work / f"plan-{label}.json"
        plan.write_text(json.dumps({"workload": calls[0].argv[0],
                                    "calls": [vars(c) for c in calls]}))
        return self.spawn(mode, label, "--plan", str(plan), *extra)

    def gate(self, calls, label) -> bool:
        """Check the outputs of an invocation; records and returns the verdict."""
        reasons = [r for call in calls for r in workloads.check_call(call)]
        for reason in reasons:
            self.fail(label, reason)
        return not reasons

    def outputs_present(self, calls, label) -> bool:
        missing = [p for c in calls for p in c.outputs if not Path(p).is_file()]
        for p in missing:
            self.fail(label, f"missing output {p}")
        return not missing


def _accuracy(runner, wl, seed, calls):
    """theory_gap and density_max_err, from the workload's outputs or one probe call."""
    probe_dir = runner.work / "probe"
    theory = calls if wl.gives_theory_gap else workloads.theory_probe_calls(seed, probe_dir)
    dens = calls if wl.gives_density_err else workloads.density_probe_calls(seed, probe_dir)
    probe = [c for c in theory + dens if c not in calls]
    if probe:
        data, _ = runner.invoke("call", probe, "probe")
        if data is None or not runner.outputs_present(probe, "probe"):
            return {}
    return {"theory_gap": workloads.theory_gap(theory[0].outputs[0]),
            "density_max_err": workloads.density_max_err(dens)}


def timed_run(runner: Runner, wl, seed: int, seconds: float) -> dict:
    """Fresh-interpreter calls back to back until the next would pass ``seconds``."""
    start = _monotonic()
    records, durations, setups, env = [], [], [], None
    while True:
        label = f"{wl.name}-call{len(durations):02d}"
        calls = wl.make_calls(seed, runner.work / label)
        data, took = runner.invoke("call", calls, label, *(["--env"] if env is None else []))
        durations.append(took)
        if data is None:
            break  # the program did not run; repeating it measures nothing
        env = env or data.get("env")
        setups.append(data["setup_s"])
        if runner.gate(calls, label):
            records.append((calls, data))
        if _monotonic() - start + statistics.median(durations) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        label = f"{wl.name}-setup{len(setups):02d}"
        data, _ = runner.invoke("call", wl.make_calls(seed, runner.work / label), label,
                                "--setup-only")
        if data is None:
            break
        setups.append(data["setup_s"])
    if not records:
        raise RuntimeError("no call of the workload succeeded")
    samples = {name: [d[name] for _, d in records] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    found = {name: metrics.summarize(vals, "mean" if name in REPORT_MEAN else "median")
             for name, vals in samples.items()}
    for name, value in _accuracy(runner, wl, seed, records[0][0]).items():
        found[name] = metrics.summarize([value])
    return {"metrics": found, "env": env, "calls": [d for _, d in records]}


def _self_time_metrics(spans) -> dict:
    selfs = metrics.self_times(spans)
    by_name = defaultdict(float)
    for (name, *_), s in zip(spans, selfs):
        by_name[name] += s
    out = {metric: sum(by_name[n] for n in names) for metric, names in SPAN_GROUPS.items()}
    named = {n for names in SPAN_GROUPS.values() for n in names}
    for metric, prefix in MODULE_GROUPS.items():
        out[metric] = sum(v for n, v in by_name.items() if n.startswith(prefix) and n not in named)
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    glue = sum(by_name[n] for n in GLUE_SPANS)
    out["trace.top_s"] = top
    out["trace.self_coverage"] = (top - glue) / top if top > 0 else 0.0
    return out


def _bytes_out(calls) -> int:
    return sum(len(workloads.normalized_bytes(p)) for c in calls for p in c.outputs)


def traced_run(runner: Runner, wl, seed: int) -> dict:
    """One untraced call, two traced calls, the serial replay and the probes."""
    outputs, env = [], None
    ref_calls = wl.make_calls(seed, runner.work / f"{wl.name}-ref")
    ref, _ = runner.invoke("call", ref_calls, f"{wl.name}-ref", "--env")
    if ref is not None and runner.gate(ref_calls, f"{wl.name}-ref"):
        outputs.append(ref_calls)
        env = ref.get("env")
    passes = []
    for k, extra in enumerate((["--replay"], [])):
        label = f"{wl.name}-trace{k + 1}"
        calls = wl.make_calls(seed, runner.work / label)
        data, _ = runner.invoke("trace", calls, label, *extra)
        if data is not None and runner.gate(calls, label):
            outputs.append(calls)
            data["counts"]["cli.bytes_out"] = _bytes_out(calls)
            passes.append(data)
    if ref is None or len(passes) < 2:
        raise RuntimeError("the untraced or a traced call failed")
    first, second = passes
    found = {name: 0.0 for name in LAYER_METRICS}
    found.update(_self_time_metrics(first["spans"]))
    for name in LAYER_METRICS:
        if name in first["counts"]:
            found[name] = first["counts"][name]
    found["trace.overhead_s"] = found["trace.top_s"] - ref["wall_s"]
    found["repeat.count_mismatch"] = sum(
        first["counts"].get(n, 0) != second["counts"].get(n, 0) for n in REPEAT_COUNTS)
    found["repeat.output_diff"] = sum(
        len({workloads.normalized_bytes(calls[i].outputs[j]) for calls in outputs}) > 1
        for i, call in enumerate(outputs[0]) for j in range(len(call.outputs)))
    replay = first.get("replay")
    if replay is not None:
        found["model.draw_s"] = replay["draw_s"]
        found["model.gram_s"] = replay["gram_s"]
        found["eigen.eigh_s"] = replay["eigh_s"]
        found["eigen.check_s"] = max(0.0, replay["eig_checked_s"] - replay["eigh_s"])
        found["weighted.stat_s"] = replay["stat_s"]
        found["replay.mismatch"] = replay["mismatches"]
        if replay["mismatches"]:
            runner.fail(f"{wl.name}-trace1", f"replay: {replay['mismatches']} of "
                        f"{replay['values']} values differ from the CLI's")
        if found["harness.replicates_s"] > 0:
            serial = replay["draw_s"] + replay["gram_s"] + replay["eig_checked_s"] + replay["stat_s"]
            found["harness.parallel_eff"] = metrics.parallel_eff(
                serial, _workers(env), found["harness.replicates_s"])
    if found["repeat.count_mismatch"]:
        runner.fail(f"{wl.name}-trace2", "count metrics differ from the first traced call")
    if found["trace.self_coverage"] < MIN_SELF_COVERAGE:
        runner.fail(f"{wl.name}-trace1", f"self times cover {found['trace.self_coverage']:.3f} "
                    f"of the top-level time, below {MIN_SELF_COVERAGE}")
    found["harness.blas_thread_mismatch"] = _blas_thread_mismatch(runner, seed)
    found["error_rate"] = metrics.error_rate(runner.failed, runner.attempted)
    return {"metrics": {k: metrics.summarize([float(v)]) for k, v in found.items()}, "env": env,
            "wrapped": first["wrapped"], "spans": len(first["spans"]), "replay": replay}


def _workers(env) -> int:
    """The pool size covspec.harness picks: COVSPEC_WORKERS, else the CPU count."""
    env = env or {}
    return max(1, int(env["COVSPEC_WORKERS"])) if env.get("COVSPEC_WORKERS") else env.get("cpu_count") or 1


def _blas_thread_mismatch(runner: Runner, seed: int) -> int:
    """1 if run_replications' bytes change between 1 and 2 OpenBLAS threads."""
    hashes = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        data, _ = runner.spawn("blas", f"blas{threads}", "--seed", str(seed), env=env)
        if data is None:
            return 0
        hashes.add(data["sha256"])
    return int(len(hashes) > 1)


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True,
                                text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit or None, "dirty": bool(status.strip())}


def run_one(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = workloads.WORKLOADS[name]
    out_dir = root / ".bench_out"
    work = out_dir / f"work-{name}-s{seed}-t{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work)
    try:
        body = traced_run(runner, wl, seed) if trace else timed_run(runner, wl, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wanted = LAYER_METRICS if trace else E2E_METRICS
    missing = [n for n in wanted if n not in body["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    env = body.pop("env") or {}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**env, "workers": _workers(env), "git": _git(root)},
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": [f"{label}: {reason}" for label, reason in runner.failures], **body,
    }
    for n, (unit, better) in wanted.items():
        record["metrics"][n].update(unit=unit, better=better)
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    path = out_dir / "results" / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def _print_table(records):
    print(f"{'workload':9} {'metric':30} {'value':>12} {'unit':6} {'median':>12} {'n':>3}  percentile")
    for rec in records:
        for name, m in rec["metrics"].items():
            pct = "-" if m["percentile"] is None else f"p{m['percentile']:g}={m['percentile_value']:.6g}"
            print(f"{rec['workload']:9} {name:30} {m['value']:12.6g} {m['unit']:6} "
                  f"{m['median']:12.6g} {m['n']:3d}  {pct}")
        for reason in rec["failures"]:
            print(f"{rec['workload']:9} FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="covspec benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("seed must be a 64-bit unsigned integer")
    root = Path.cwd()
    if not (root / "src" / "covspec" / "__init__.py").is_file():
        print(f"covspec sources not found under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the gates use covspec's own compare_report
    if args.workload == "all":
        plan = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    try:
        records = [run_one(root, w, args.seed, args.seconds, t) for w, t in plan]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    _print_table(records)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(not r["failures"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{n}" if prefix else n):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in records for n, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
