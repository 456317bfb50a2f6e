"""Command-line front end: parse config, dispatch experiments, write CSV/JSON.

Commands
--------
simulate   one replicate: spectrum.csv + summary.json
density    limiting density/CDF on a grid: density.csv
clt        Monte Carlo covariance verification: report.json
bridge     partial-sum process covariance check: bb.json
figures    kernel-density data for the log-determinant statistic: figN.csv

Each flag replaces its key in the decoded config document (--g the
functionals) before any check, so flags and config keys pass the same
checks.  Exit codes: 0 success; 2 a fault in the config, the flags or
COVSPEC_WORKERS, also where the library finds it (``model.ConfigError``);
3 a failed computation, and nothing else.

Replicates (clt, bridge, figures) run on COVSPEC_WORKERS pool threads
(default: machine parallelism), each with one OpenBLAS thread while the
replicates run, also when COVSPEC_WORKERS=1.  simulate builds and
decomposes its one matrix on one OpenBLAS thread too.  Outputs are bitwise
independent of the worker count and of OPENBLAS_NUM_THREADS.

Run as ``covspec <command> ...`` or ``python -m covspec.cli <command> ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .eigen import cholesky_logdet, eig_decompose, quad_form_power
from .functionals import FunctionalSpec
from .harness import _BLAS, _env_workers, bb_covariance, bb_target, map_replicates, run_clt
from .kde import kde, silverman_bandwidth
from .law import LimitLaw, cdf_limit, density
from .model import (ConfigError, DirectionSpec, ModelConfig, PopulationSpec,
                    build_sample_cov, realize_direction, realize_population)
from .spectrum import SpectralMeasure
from .weighted import WeightedSpectrum, w_statistic, weighted_spectrum

FIGURE_ONE_SIZES = (20, 100, 200, 500)   # n = 0.2 N
# the (n, N, scale) of each series of a figure: its statistic is scale * W_n
FIGURES = {1: tuple((int(round(0.2 * N)), N, 1.0) for N in FIGURE_ONE_SIZES),
           2: ((5, 50, np.sqrt(50 / 5)),), 3: ((10, 50, np.sqrt(50 / 10)),)}


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


def _number(value, where: str) -> float:
    """A finite JSON number as a float; anything else is a ConfigError."""
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             f"{where} must be a finite number (got {value!r})")
    return float(value)


def _parse_population(obj) -> PopulationSpec:
    _require(isinstance(obj, dict), "population must be an object")
    _reject_unknown(obj, {"atoms"}, "population.")
    _require("atoms" in obj, "missing required field population.atoms")
    atoms_spec = obj["atoms"]
    _require(isinstance(atoms_spec, list) and atoms_spec,
             "population.atoms must be a nonempty list")
    ts, ws = [], []
    for i, entry in enumerate(atoms_spec):
        _require(isinstance(entry, dict), f"population.atoms[{i}] must be an object")
        _reject_unknown(entry, {"t", "w"}, f"population.atoms[{i}].")
        _require("t" in entry and "w" in entry, f"population.atoms[{i}] needs fields t and w")
        ts.append(_number(entry["t"], f"population.atoms[{i}].t"))
        ws.append(_number(entry["w"], f"population.atoms[{i}].w"))
    try:
        spectrum = SpectralMeasure(ts, ws)
    except ValueError as exc:
        raise ConfigError(f"population: {exc}") from exc
    # zero-weight atoms are dropped, so this asks for an atom t > 0 of weight w > 0
    _require(spectrum.t_max > 0, "population.atoms needs an atom t > 0 of positive weight")
    return PopulationSpec(spectrum)


def _parse_direction(obj) -> DirectionSpec:
    _require(isinstance(obj, dict), "direction must be an object")
    _reject_unknown(obj, {"kind", "index", "vector"}, "direction.")
    _require("kind" in obj, "missing required field direction.kind")
    kind = obj["kind"]
    if kind in ("e", "basis"):
        index = obj.get("index", 0)
        _require(type(index) is int, f"direction.index must be an integer (got {index!r})")
        return DirectionSpec.basis(index)
    if kind == "uniform":
        _require("index" not in obj and "vector" not in obj,
                 "uniform direction takes no index or vector")
        return DirectionSpec.uniform()
    if kind == "custom":
        _require("vector" in obj, "missing required field direction.vector")
        vec = obj["vector"]
        _require(isinstance(vec, list) and vec, "direction.vector must be a nonempty list")
        return DirectionSpec.custom([_number(v, f"direction.vector[{i}]")
                                     for i, v in enumerate(vec)])
    raise ConfigError(f"direction.kind must be one of 'e', 'uniform', 'custom' (got {kind!r})")


_TOP_KEYS = {"command", "n", "N", "entries", "population", "direction",
             "seed", "reps", "functionals", "grid", "which", "out"}


def _decode(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "config must be a JSON object")
    return doc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config document into a RunConfig.

    Unknown keys are rejected.  Defaults: command 'simulate', seed 0;
    reps defaults per command at dispatch time (100, or 1000 for figures).
    """
    return _parse_document(_decode(text))


def _parse_document(doc: dict) -> RunConfig:
    _reject_unknown(doc, _TOP_KEYS, "")
    for name in ("n", "N", "entries", "population", "direction"):
        _require(name in doc, f"missing required field {name}")
    model = ModelConfig(n=doc["n"], N=doc["N"], entry_dist=doc["entries"],
                        population=_parse_population(doc["population"]),
                        direction=_parse_direction(doc["direction"]), seed=doc.get("seed", 0))
    # checked here, not in the model: figures reuses the direction at smaller n
    direction = model.direction
    if direction.kind == "basis":
        _require(0 <= direction.index < model.n, f"direction.index {direction.index} out of range")
    command = doc.get("command", "simulate")
    _require(command in COMMANDS, f"command must be one of {tuple(COMMANDS)}")
    reps = doc.get("reps")
    if reps is not None:
        # with one replicate no command has a sample covariance
        _require(type(reps) is int and reps >= 2, "reps must be >= 2")
    specs = doc.get("functionals", [])
    _require(isinstance(specs, list) and all(isinstance(spec, str) for spec in specs),
             "functionals must be a list of strings")
    functionals = []
    for i, spec in enumerate(specs):
        try:
            functionals.append(FunctionalSpec.parse(spec))
        except ValueError as exc:
            raise ConfigError(f"functionals[{i}]: {exc}") from exc
    grid = doc.get("grid")
    if grid is not None:
        _require(isinstance(grid, list) and grid, "grid must be a nonempty list of numbers")
        grid = tuple(_number(v, f"grid[{i}]") for i, v in enumerate(grid))
    which = doc.get("which")
    if which is not None:
        _require(type(which) is int and which in (1, 2, 3), "which must be 1, 2 or 3")
    out = doc.get("out", ".")
    _require(isinstance(out, str), "out must be a string")
    return RunConfig(command=command, model=model, functionals=tuple(functionals),
                     reps=reps, out=out, grid=grid, which=which)


def _write_csv(path, header, columns):
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="")


def _write_json(path, payload) -> None:
    """Write payload as strict JSON; a non-finite value writes nothing and raises."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ArithmeticError(f"non-finite value for {path.name}: {exc}") from exc
    path.write_text(text + "\n")


def _cmd_simulate(rc: RunConfig, outdir) -> None:
    cfg = rc.model
    x = realize_direction(cfg.direction, cfg.n)
    with _BLAS.pinned():  # one BLAS thread, as for every replicate
        a = build_sample_cov(cfg)
        es = eig_decompose(a)
        ws = weighted_spectrum(es, x)
        moments_power = [float(np.real(quad_form_power(a, x, m))) for m in range(1, 5)]
    uni = WeightedSpectrum.uniform(es.lambdas)
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
    # the summary first: a non-finite value there must leave no spectrum.csv behind
    _write_json(outdir / "summary.json", summary)
    _write_csv(outdir / "spectrum.csv",
               ["lambda", "weight", "uniform_weight"],
               [ws.lambdas, ws.weights, uni.weights])


def _cmd_density(rc: RunConfig, outdir) -> None:
    cfg = rc.model
    law = LimitLaw(c=cfg.ratio, H=cfg.population.spectrum)
    if rc.grid is not None:
        xs = np.asarray(rc.grid, dtype=float)
    else:
        lo, hi = law.bulk_window()
        xs = np.linspace(lo, hi, 400)
    Fs = cdf_limit(xs, law)  # first: its rule checks the support before any density
    fs = density(xs, law)
    _write_csv(outdir / "density.csv", ["x", "f", "F"], [xs, fs, Fs])


def _check_direction(cfg: ModelConfig) -> None:
    """Refuse a direction that weighs the population atoms unlike H_n.

    The CLT centres x* g(A) x at the law of H_n, which holds only when
    x*(mbar T + I)^(-1) x equals integral dH_n/(mbar t + 1) at every z.  For
    diagonal T that is exactly W = w: W_k the sum of |x_i|^2 over the
    coordinates of atom t_k, w_k the weight of t_k in H_n.
    """
    tdiag = realize_population(cfg.population, cfg.n)
    x = realize_direction(cfg.direction, cfg.n)
    atoms, counts = np.unique(tdiag, return_counts=True)
    # pairwise sums: a running sum of n terms 1/n drifts by 1e-12 at n = 10^5
    W = np.array([np.sum(np.abs(x[tdiag == t]) ** 2) for t in atoms])
    w = counts / cfg.n
    if np.max(np.abs(W - w)) > 1e-12:
        d = cfg.direction
        name = {"basis": f"e{d.index}", "uniform": "uniform"}.get(d.kind, "custom")
        raise ConfigError(f"direction {name} puts weights {np.round(W, 6).tolist()} on the "
                          f"population atoms {atoms.tolist()}, not their weights "
                          f"{np.round(w, 6).tolist()} in H_n; the clt theory does not apply")


def _cmd_clt(rc: RunConfig, outdir) -> None:
    _require(rc.model.entry_dist in ("real-gaussian", "complex-gaussian"),
             f"entries {rc.model.entry_dist!r} have a nonzero fourth cumulant; the clt theory "
             f"assumes E X^4 = 3 (real) or E|X|^4 = 2 (complex)")
    _check_direction(rc.model)
    gs = rc.functionals or (FunctionalSpec.monomial(1),)
    report = run_clt(rc.model, gs, rc.reps or 100)
    _write_json(outdir / "report.json", report.to_dict())


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
    _write_json(outdir / "bb.json", payload)


def _figure_samples(base: ModelConfig, n: int, N: int, reps: int, scale: float) -> np.ndarray:
    if n > N:  # A has rank at most N < n, whatever its Cholesky factorization says
        raise ValueError("singular sample covariance")
    cfg = replace(base, n=n, N=N)
    return map_replicates(cfg, lambda a: scale * cholesky_logdet(a), reps)


def _cmd_figures(rc: RunConfig, outdir) -> None:
    which = rc.which or 1
    table = FIGURES[which]
    series = [_figure_samples(rc.model, n, N, rc.reps or 1000, scale) for n, N, scale in table]
    allv = np.concatenate(series)
    h = max(silverman_bandwidth(v) for v in series)
    xs = np.linspace(allv.min() - 4 * h, allv.max() + 4 * h, 512)
    names = [f"kde_N{N}" for _, N, _ in table] if len(table) > 1 else ["kde"]
    _write_csv(outdir / f"fig{which}.csv", ["x"] + names, [xs] + [kde(v, xs) for v in series])


COMMANDS = {"simulate": _cmd_simulate, "density": _cmd_density, "clt": _cmd_clt,
            "bridge": _cmd_bridge, "figures": _cmd_figures}


def dispatch(rc: RunConfig) -> int:
    """Run the configured command; returns the process exit code."""
    from pathlib import Path

    outdir = Path(rc.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        COMMANDS[rc.command](rc, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, ArithmeticError) as exc:
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
        p.add_argument("--grid", default=None,
                       help="comma-separated list of numbers; write --grid=-1,0,1 when "
                            "the first is negative, which would otherwise read as a flag")
        if name == "figures":
            p.add_argument("--which", type=int, choices=(1, 2, 3), default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = _decode(fh.read())
        # each flag replaces its config key before any check
        flags = {"command": args.command, "out": args.out, "reps": args.reps,
                 "functionals": args.g, "which": getattr(args, "which", None),
                 "grid": None if args.grid is None else [float(t) for t in args.grid.split(",")]}
        doc.update((key, v) for key, v in flags.items() if v is not None)
        rc = _parse_document(doc)
        _env_workers()
    except (OSError, ValueError) as exc:  # a ConfigError, or a --grid token float() refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return dispatch(rc)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
