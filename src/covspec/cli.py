"""Command-line front end: parse config, dispatch experiments, write CSV/JSON.

Commands
--------
simulate   one replicate: spectrum.csv + summary.json
density    limiting density/CDF on a grid: density.csv
clt        Monte Carlo covariance verification: report.json
bridge     partial-sum process covariance check: bb.json
figures    kernel-density data for the log-determinant statistic: figN.csv

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Replicates (clt, bridge, figures) run on COVSPEC_WORKERS pool threads
(default: machine parallelism), each with one OpenBLAS thread while the
replicates run, also when COVSPEC_WORKERS=1; simulate builds and
decomposes its one matrix on one OpenBLAS thread too.  Outputs are bitwise
independent of the worker count and of OPENBLAS_NUM_THREADS.

Run as ``covspec <command> ...`` or ``python -m covspec.cli <command> ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eigen import eig_decompose, quad_form_power
from .functionals import FunctionalSpec
from .harness import _BLAS, Statistic, bb_covariance, bb_target, map_replicates, run_clt
from .kde import default_grid, kde, silverman_bandwidth
from .law import LimitLaw, cdf_limit, density
from .model import (ENTRY_DISTS, DirectionSpec, ModelConfig, PopulationSpec,
                    build_sample_cov, realize_direction)
from .mp import ConvergenceError
from .spectrum import SpectralMeasure
from .weighted import WeightedSpectrum, w_statistic, weighted_spectrum

COMMANDS = ("simulate", "density", "clt", "bridge", "figures")

FIGURE_ONE_SIZES = (20, 100, 200, 500)   # n = 0.2 N
FIGURE_SMALL = {2: (5, 50), 3: (10, 50)}  # (n, N), statistic sqrt(N/n) W_n


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    model: ModelConfig
    functionals: tuple = ()
    reps: Optional[int] = None
    out: str = "."
    grid: Optional[tuple] = None
    which: Optional[int] = None


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _reject_unknown(obj: dict, allowed: set, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key!r}")


def _parse_population(obj, path="population.") -> PopulationSpec:
    _require(isinstance(obj, dict), "population must be an object")
    _reject_unknown(obj, {"atoms"}, path)
    _require("atoms" in obj, f"missing required field {path}atoms")
    atoms_spec = obj["atoms"]
    _require(isinstance(atoms_spec, list) and atoms_spec, f"{path}atoms must be a nonempty list")
    ts, ws = [], []
    for i, entry in enumerate(atoms_spec):
        _require(isinstance(entry, dict), f"{path}atoms[{i}] must be an object")
        _reject_unknown(entry, {"t", "w"}, f"{path}atoms[{i}].")
        _require("t" in entry and "w" in entry, f"{path}atoms[{i}] needs fields t and w")
        ts.append(float(entry["t"]))
        ws.append(float(entry["w"]))
    try:
        return PopulationSpec(SpectralMeasure(ts, ws))
    except ValueError as exc:
        raise ConfigError(f"population: {exc}") from exc


def _parse_direction(obj, path="direction.") -> DirectionSpec:
    _require(isinstance(obj, dict), "direction must be an object")
    _reject_unknown(obj, {"kind", "index", "vector"}, path)
    _require("kind" in obj, f"missing required field {path}kind")
    kind = obj["kind"]
    if kind in ("e", "basis"):
        return DirectionSpec.basis(int(obj.get("index", 0)))
    if kind == "uniform":
        _require("index" not in obj and "vector" not in obj,
                 "uniform direction takes no index or vector")
        return DirectionSpec.uniform()
    if kind == "custom":
        _require("vector" in obj, f"missing required field {path}vector")
        vec = obj["vector"]
        _require(isinstance(vec, list) and vec, f"{path}vector must be a nonempty list")
        try:
            return DirectionSpec.custom([float(v) for v in vec])
        except ValueError as exc:
            raise ConfigError(f"direction: {exc}") from exc
    raise ConfigError(f"direction.kind must be one of 'e', 'uniform', 'custom' (got {kind!r})")


_TOP_KEYS = {"command", "n", "N", "entries", "population", "direction",
             "seed", "reps", "functionals", "grid", "which", "out"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Unknown keys are rejected.  Defaults: command 'simulate', seed 0;
    reps defaults per command at dispatch time (100, or 1000 for figures).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "")
    for name in ("n", "N", "entries", "population", "direction"):
        _require(name in doc, f"missing required field {name}")
    n, N = doc["n"], doc["N"]
    _require(isinstance(n, int) and n >= 1, "n must be >= 1")
    _require(isinstance(N, int) and N >= 1, "N must be >= 1")
    _require(doc["entries"] in ENTRY_DISTS,
             f"entries must be one of {ENTRY_DISTS} (got {doc['entries']!r})")
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int) and 0 <= seed < 2 ** 64, "seed must be a 64-bit unsigned integer")
    population = _parse_population(doc["population"])
    direction = _parse_direction(doc["direction"])
    if direction.kind == "basis":
        _require(0 <= direction.index < n, f"direction.index {direction.index} out of range")
    try:
        model = ModelConfig(n=n, N=N, entry_dist=doc["entries"],
                            population=population, direction=direction, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    command = doc.get("command", "simulate")
    _require(command in COMMANDS, f"command must be one of {COMMANDS}")
    reps = doc.get("reps")
    if reps is not None:
        _require(isinstance(reps, int) and reps >= 1, "reps must be >= 1")
    functionals = []
    for i, spec in enumerate(doc.get("functionals", [])):
        try:
            functionals.append(FunctionalSpec.parse(spec))
        except ValueError as exc:
            raise ConfigError(f"functionals[{i}]: {exc}") from exc
    grid = doc.get("grid")
    if grid is not None:
        _require(isinstance(grid, list) and grid, "grid must be a nonempty list of numbers")
        grid = tuple(float(v) for v in grid)
    which = doc.get("which")
    if which is not None:
        _require(which in (1, 2, 3), "which must be 1, 2 or 3")
    return RunConfig(command=command, model=model, functionals=tuple(functionals),
                     reps=reps, out=doc.get("out", "."), grid=grid, which=which)


def serialize_config(rc: RunConfig) -> str:
    """JSON text that parse_config maps back to an equal RunConfig."""
    model = rc.model
    doc = {
        "command": rc.command,
        "n": model.n,
        "N": model.N,
        "entries": model.entry_dist,
        "population": {"atoms": [{"t": float(t), "w": float(w)}
                                 for t, w in zip(model.population.spectrum.atoms,
                                                 model.population.spectrum.weights)]},
        "seed": model.seed,
        "out": rc.out,
    }
    d = model.direction
    if d.kind == "basis":
        doc["direction"] = {"kind": "e", "index": d.index}
    elif d.kind == "uniform":
        doc["direction"] = {"kind": "uniform"}
    else:
        doc["direction"] = {"kind": "custom", "vector": [float(v) for v in d.vector]}
    if rc.reps is not None:
        doc["reps"] = rc.reps
    if rc.functionals:
        doc["functionals"] = [g.label for g in rc.functionals]
    if rc.grid is not None:
        doc["grid"] = list(rc.grid)
    if rc.which is not None:
        doc["which"] = rc.which
    return json.dumps(doc, indent=2)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, columns):
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(col[i]) for col in columns) + "\n")


def _cmd_simulate(rc: RunConfig, outdir) -> None:
    cfg = rc.model
    x = realize_direction(cfg.direction, cfg.n)
    with _BLAS.pinned():  # one BLAS thread, as for every replicate
        a = build_sample_cov(cfg)
        es = eig_decompose(a)
        ws = weighted_spectrum(es, x)
        moments_power = [float(np.real(quad_form_power(a, x, m))) for m in range(1, 5)]
    uni = WeightedSpectrum.uniform(es.lambdas)
    _write_csv(outdir / "spectrum.csv",
               ["lambda", "weight", "uniform_weight"],
               [ws.lambdas, ws.weights, uni.weights])
    try:
        wn = w_statistic(es)
    except ValueError:
        wn = None
    moments_weighted = [float(np.dot(ws.weights, ws.lambdas ** m)) for m in range(1, 5)]
    summary = {
        "n": cfg.n, "N": cfg.N, "c_n": cfg.ratio, "seed": cfg.seed,
        "entry_dist": cfg.entry_dist, "W_n": wn,
        "moments_weighted": moments_weighted,
        "moments_power": moments_power,
    }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def _cmd_density(rc: RunConfig, outdir) -> None:
    cfg = rc.model
    law = LimitLaw(c=cfg.ratio, H=cfg.population.spectrum)
    if rc.grid is not None:
        xs = np.asarray(rc.grid, dtype=float)
    else:
        lo, hi = law.bulk_window()
        xs = np.linspace(lo, hi, 400)
    fs = density(xs, law)
    Fs = cdf_limit(xs, law)
    _write_csv(outdir / "density.csv", ["x", "f", "F"], [xs, fs, Fs])


def _cmd_clt(rc: RunConfig, outdir) -> None:
    gs = rc.functionals or (FunctionalSpec.monomial(1),)
    report = run_clt(rc.model, gs, rc.reps or 100)
    (outdir / "report.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def _cmd_bridge(rc: RunConfig, outdir) -> None:
    grid = rc.grid or (0.25, 0.5, 0.75)
    R = rc.reps or 100
    cov = bb_covariance(rc.model, grid, R)
    payload = {
        "grid": list(grid),
        "R": R,
        "empirical_cov": cov.tolist(),
        "target_cov": bb_target(grid).tolist(),
    }
    (outdir / "bb.json").write_text(json.dumps(payload, indent=2) + "\n")


def _figure_samples(base: ModelConfig, n: int, N: int, reps: int, scaled: bool) -> np.ndarray:
    cfg = ModelConfig(n=n, N=N, entry_dist=base.entry_dist,
                      population=base.population, direction=base.direction,
                      seed=base.seed)
    scale = np.sqrt(N / n) if scaled else 1.0
    return map_replicates(cfg, Statistic("logdet", lambda logdet: scale * logdet), reps)


def _cmd_figures(rc: RunConfig, outdir) -> None:
    which = rc.which or 1
    reps = rc.reps or 1000
    base = rc.model
    if which == 1:
        series = {}
        for N in FIGURE_ONE_SIZES:
            n = int(round(0.2 * N))
            series[N] = _figure_samples(base, n, N, reps, scaled=False)
        allv = np.concatenate(list(series.values()))
        h = max(silverman_bandwidth(v) for v in series.values())
        xs = np.linspace(allv.min() - 4 * h, allv.max() + 4 * h, 512)
        cols = [xs] + [kde(series[N], xs) for N in FIGURE_ONE_SIZES]
        header = ["x"] + [f"kde_N{N}" for N in FIGURE_ONE_SIZES]
        _write_csv(outdir / "fig1.csv", header, cols)
    else:
        n, N = FIGURE_SMALL[which]
        vals = _figure_samples(base, n, N, reps, scaled=True)
        xs = default_grid(vals)
        _write_csv(outdir / f"fig{which}.csv", ["x", "kde"], [xs, kde(vals, xs)])


def dispatch(rc: RunConfig) -> int:
    """Run the configured command; returns the process exit code."""
    from pathlib import Path

    outdir = Path(rc.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "simulate": _cmd_simulate,
        "density": _cmd_density,
        "clt": _cmd_clt,
        "bridge": _cmd_bridge,
        "figures": _cmd_figures,
    }
    handler = handlers[rc.command]
    try:
        handler(rc, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, RuntimeError, ValueError, ArithmeticError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure in {rc.command}: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="covspec",
                                     description="sample-covariance eigenvector statistics toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--reps", type=int, default=None, help="replication count")
        p.add_argument("--g", action="append", default=None,
                       help="functional spec 'poly:c0,c1,...' or 'log' (repeatable)")
        p.add_argument("--grid", default=None, help="comma-separated list of numbers")
        if name == "figures":
            p.add_argument("--which", type=int, choices=(1, 2, 3), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            rc = parse_config(fh.read())
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    updates = {"command": args.command}
    if args.out is not None:
        updates["out"] = args.out
    if args.reps is not None:
        if args.reps < 1:
            print("config error: reps must be >= 1", file=sys.stderr)
            return 2
        updates["reps"] = args.reps
    if args.g:
        try:
            updates["functionals"] = tuple(FunctionalSpec.parse(s) for s in args.g)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.grid is not None:
        try:
            updates["grid"] = tuple(float(tok) for tok in args.grid.split(","))
        except ValueError as exc:
            print(f"config error: bad grid: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "which", None) is not None:
        updates["which"] = args.which
    from dataclasses import replace
    rc = replace(rc, **updates)
    return dispatch(rc)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
