"""Benchmark workloads: generated configs, CLI calls, correctness gates, accuracy.

A workload is a list of ``covspec`` command calls.  Each call gets a JSON
config written from the run's seed and its own output directory.  The gates
read the files the calls wrote, so a call that exits 0 but leaves no output
counts as failed.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLT_FUNCTIONALS = ("poly:0,1", "poly:0,0,1", "log")
CLT_REPS = 400

# (label, population atoms (t, w), n, N): dimension ratio c = n / N
DENSITY_CASES = (
    ("delta1_c0.25", ((1.0, 1.0),), 100, 400),
    ("delta1_c0.9", ((1.0, 1.0),), 90, 100),
    ("atoms1-3_c2", ((1.0, 0.5), (3.0, 0.5)), 200, 100),
    ("atoms5_c0.5", ((0.5, 0.2), (1.0, 0.2), (2.0, 0.2), (4.0, 0.2), (8.0, 0.2)), 100, 200),
)
# the cases with a closed-form Marchenko-Pastur density (H = delta_1)
DENSITY_CLOSED_FORM = ("delta1_c0.25", "delta1_c0.9")

WALL_TIME_FIELD = re.compile(rb'"wall_time": [^,\n}]*')


@dataclass(frozen=True)
class Call:
    """One ``covspec.cli.main`` invocation and the files it must write."""

    argv: tuple
    config: str
    outputs: tuple


def _config(n, N, seed, atoms=((1.0, 1.0),), **extra) -> dict:
    doc = {"n": n, "N": N, "entries": "real-gaussian",
           "population": {"atoms": [{"t": t, "w": w} for t, w in atoms]},
           "direction": {"kind": "e", "index": 0}, "seed": seed}
    doc.update(extra)
    return doc


def _call(command, doc, outdir: Path, outputs, *flags) -> Call:
    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir / "config.json"
    config.write_text(json.dumps(doc, indent=2))
    argv = (command, "--config", str(config), "--out", str(outdir)) + tuple(flags)
    return Call(argv=argv, config=str(config),
                outputs=tuple(str(outdir / name) for name in outputs))


def clt_calls(seed: int, outdir: Path, reps: int = CLT_REPS) -> list:
    doc = _config(200, 400, seed, reps=reps, functionals=list(CLT_FUNCTIONALS))
    return [_call("clt", doc, outdir, ["report.json"])]


def figures_calls(seed: int, outdir: Path) -> list:
    return [_call("figures", _config(100, 500, seed), outdir, ["fig1.csv"], "--which", "1")]


def density_calls(seed: int, outdir: Path, labels=None) -> list:
    calls = []
    for label, atoms, n, N in DENSITY_CASES:
        if labels is None or label in labels:
            calls.append(_call("density", _config(n, N, seed, atoms), outdir / label,
                               ["density.csv"]))
    return calls


def serial_calls(seed: int, outdir: Path) -> list:
    """``figures --which 1`` and then the four density calls, in one interpreter."""
    return figures_calls(seed, outdir / "figures") + density_calls(seed, outdir)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    return header, rows


def _gate_clt(call: Call) -> list:
    from covspec.harness import MCReport, Tolerances, compare_report

    doc = json.loads(Path(call.outputs[0]).read_text())
    report = MCReport(
        R=doc["R"], functionals=doc["functionals"],
        sample_mean=np.array(doc["sample_mean"]), sample_cov=np.array(doc["sample_cov"]),
        theory_cov_contour=np.array(doc["theory_cov_contour"]),
        theory_cov_simplified=np.array(doc["theory_cov_simplified"]),
        standard_errors=np.array(doc["standard_errors"]), n=doc["n"], N=doc["N"],
        seed=doc["seed"], entry_dist=doc["entry_dist"], wall_time=doc["wall_time"])
    failures = []
    verdict = compare_report(report, Tolerances.monte_carlo(report.R))
    if not verdict.passed:
        failures.append(f"compare_report failed: {verdict.failures}")
    for label, mean, se in zip(report.functionals, report.sample_mean, report.standard_errors):
        if not abs(mean) <= 3.0 * se:
            failures.append(f"|mean| of {label} is {abs(mean):.4g} > 3 SE = {3 * se:.4g}")
    return failures


def _gate_figures(call: Call) -> list:
    header, rows = read_csv(call.outputs[0])
    xs = rows[:, 0]
    failures, modes = [], []
    for j, name in enumerate(header[1:], start=1):
        mass = float(np.trapezoid(rows[:, j], xs))
        if not abs(mass - 1.0) <= 0.02:
            failures.append(f"{name} integrates to {mass:.4f}, not 1 +/- 0.02")
        modes.append(float(xs[np.argmax(rows[:, j])]))
    if not all(b < a for a, b in zip(modes, modes[1:])):
        failures.append(f"modes {modes} do not strictly decrease")
    return failures


def _gate_density(call: Call) -> list:
    doc = json.loads(Path(call.config).read_text())
    atom_at_zero = max(0.0, 1.0 - doc["N"] / doc["n"])
    _, rows = read_csv(call.outputs[0])
    F = rows[:, 2]
    failures = []
    if np.any(np.diff(F) < 0):
        failures.append("F is not monotone")
    if not abs(F[0] - atom_at_zero) <= 1e-4:
        failures.append(f"F at the left end is {F[0]!r}, atom mass at zero {atom_at_zero!r}")
    if not abs(F[-1] - 1.0) <= 1e-4:
        failures.append(f"F at the right end is {F[-1]!r}, not 1")
    return failures


GATES = {"clt": _gate_clt, "figures": _gate_figures, "density": _gate_density}


def check_call(call: Call) -> list:
    """Reasons the call's outputs are wrong; empty when every gate passes."""
    missing = [p for p in call.outputs if not Path(p).is_file()]
    if missing:
        return [f"missing output {p}" for p in missing]
    try:
        return GATES[call.argv[0]](call)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def theory_gap(report_path) -> float:
    """max |contour - simplified| over the covariance entries of a clt report."""
    doc = json.loads(Path(report_path).read_text())
    contour = np.array(doc["theory_cov_contour"])
    simplified = np.array(doc["theory_cov_simplified"])
    return float(np.max(np.abs(contour - simplified)))


def mp_density(x, c: float):
    """Closed-form Marchenko-Pastur density for H = delta_1, 0 < c <= 1."""
    a, b = (1.0 - np.sqrt(c)) ** 2, (1.0 + np.sqrt(c)) ** 2
    return np.sqrt(np.maximum(0.0, (b - x) * (x - a))) / (2.0 * np.pi * c * x)


def density_max_err(calls) -> float:
    """max |f - closed form| over the delta_1 density calls' grids."""
    ratios = {label: n / N for label, _, n, N in DENSITY_CASES}
    worst = None
    for call in calls:
        label = Path(call.outputs[0]).parent.name
        if label in DENSITY_CLOSED_FORM:
            _, rows = read_csv(call.outputs[0])
            err = float(np.max(np.abs(rows[:, 1] - mp_density(rows[:, 0], ratios[label]))))
            worst = err if worst is None else max(worst, err)
    if worst is None:
        raise ValueError("no closed-form density case among the calls")
    return worst


def normalized_bytes(path) -> bytes:
    """File bytes with the timing field's value blanked, for equality checks."""
    return WALL_TIME_FIELD.sub(b'"wall_time": null', Path(path).read_bytes())


@dataclass(frozen=True)
class Workload:
    name: str
    make_calls: object
    # which accuracy metrics the workload's own outputs provide
    gives_theory_gap: bool = False
    gives_density_err: bool = False


# why each workload exists: BENCHMARK.json and README.md.  The figures and
# density calls share one workload: on a shared 2-core VM, speed drifts by up
# to 1.7x over minutes, and two workloads leave room in the time budget for
# runs long enough to average over more of that drift.
WORKLOADS = {
    "clt": Workload("clt", clt_calls, gives_theory_gap=True),
    "serial": Workload("serial", serial_calls, gives_density_err=True),
}


def theory_probe_calls(seed: int, outdir: Path) -> list:
    """The clt config's theory at 2 replicates: theory_gap without the Monte Carlo."""
    return clt_calls(seed, outdir, reps=2)


def density_probe_calls(seed: int, outdir: Path) -> list:
    return density_calls(seed, outdir, labels=DENSITY_CLOSED_FORM)
