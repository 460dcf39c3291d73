"""Command-line entry points: experiment plumbing around the library.

Every JSON document a subcommand takes (an experiment, residual or
sweep config, a run's summary.json) is read by vhjlab.config, whose
docstring lists the keys.  simulate materializes every default the
reader fills in into the run directory's resolved-config.json, so any
artifact can be reproduced from that single file.

Subcommands
-----------
derive     print the derived constants and regime for a triple
residual   certify the sign of a closed-form profile over a box
simulate   run one experiment into a run directory
analyze    re-run the measurements on an existing run directory
verify     run a named acceptance suite
sweep      fan a base experiment out over parameter values

Exit codes: 0 success, 1 a verification or certification failed or a
sweep job failed, 2 configuration or usage error or an output that
cannot be written, 3 numerical divergence or an exhausted step budget at
runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np

from .acceptance import SUITES, run_suite
from .analysis import (
    EmptySupport,
    InsufficientPoints,
    check_domination,
    fit_exponent,
    gradient_quotient,
    j_diagnostic,
)
from .closedform import certify_sign
from .config import (
    ConfigError, Experiment, config_errors, jsonable, read_residual, read_summary,
    read_sweep, resolve_experiment, with_overrides,
)
from .exponents import classify_regime, derive_constants, validate_params
from .solver import Outcome, run


def _load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object at the top level")
    return doc


# ----- artifact emission ---------------------------------------------------

_CELL = "{:.17g}"                # a number in a run directory's csv files


def _fmt(x: float) -> str:
    return _CELL.format(float(x))


# RunResult fields that summary.json leaves to the csv files and to
# resolved-config.json
_UNSUMMARIZED = ("series", "snapshots", "problem", "grid")
# the csv columns analyze reads of a run directory (series.csv may add
# grad_pow_sup); config.read_summary reads its summary.json
_SERIES = ("t", "sup", "support_radius", "mass")
_INDEX = ("k", "t")
_SNAPSHOT = ("r", "u")


def _write_csv(path: Path, header: list, columns: list):
    """One line per row, each cell as _fmt writes it; columns are arrays,
    turned into Python numbers and written 1024 rows at a time."""
    row = (",".join([_CELL] * len(columns)) + "\n").format
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for i in range(0, len(columns[0]), 1024):
            f.write("".join([row(*cells) for cells in zip(*(col[i:i + 1024].tolist()
                                                             for col in columns))]))


def write_run_dir(out_dir: Path, exp: Experiment, result) -> None:
    """Write result's run directory, first removing the snapshots and the
    analysis report an earlier run into out_dir left; other files stay."""
    snap_dir = out_dir / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)
    for stale in [*snap_dir.glob("snap-*.csv"), out_dir / "analysis-report.json"]:
        stale.unlink(missing_ok=True)
    (out_dir / "resolved-config.json").write_text(
        json.dumps(exp.resolved, sort_keys=True, indent=2) + "\n")

    _write_csv(out_dir / "series.csv", list(result.series), list(result.series.values()))

    times = result.snapshots["t"]
    _write_csv(snap_dir / "index.csv", list(_INDEX),
               [np.arange(len(times)), times])
    for k, u in enumerate(result.snapshots["u"]):
        _write_csv(snap_dir / f"snap-{k:04d}.csv", list(_SNAPSHOT),
                   [result.grid.r_cells, u])

    summary = {f.name: getattr(result, f.name) for f in fields(result)
               if f.name not in _UNSUMMARIZED}
    summary.update(scheme=exp.cfg.scheme, ic=exp.resolved["ic"],
                   n_series=len(result.series["t"]), n_snapshots=len(times))
    (out_dir / "summary.json").write_text(
        json.dumps(jsonable(summary), sort_keys=True, indent=2) + "\n")


def _column_names(path: Path, header: str, columns: tuple) -> list:
    """header's column names, which must hold columns and name none twice."""
    names = header.split(",")
    missing = [name for name in columns if name not in names]
    if missing:
        raise ConfigError(f"{path}: missing column {missing[0]!r}")
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ConfigError(f"{path}: column {twice[0]!r} appears twice in the header")
    return names


def _read_csv(path: Path, columns: tuple, n_rows: int, expected: str) -> dict:
    """The numeric columns of a csv file that must hold at least columns,
    in n_rows rows below its header; expected says where n_rows comes from.

    numpy's C reader parses the rows from the open file, line by line.  It
    skips blank lines and refuses some cells that float() reads (1_0,
    full-width digits), so unless the header is bare and numpy reads
    n_rows rows, one from each line, _read_csv_text reads the file again
    and gives the verdict.
    """
    with path.open() as f:
        header = f.readline().removesuffix("\n")
        if header and header == header.strip():
            names = _column_names(path, header, columns)
            n_lines = 0

            def lines():
                nonlocal n_lines
                for n_lines, line in enumerate(f, 1):
                    yield line
            try:
                with warnings.catch_warnings():
                    # numpy warns of a file without rows; n_lines judges it
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
            except ValueError:
                data = None
            if data is not None and data.shape == (n_lines, len(names)) and n_lines == n_rows:
                return {name: data[:, j] for j, name in enumerate(names)}
    return _read_csv_text(path, columns, n_rows, expected)


def _read_csv_text(path: Path, columns: tuple, n_rows: int, expected: str) -> dict:
    """_read_csv from the stripped text, split into rows of cells, each
    read by float(): the reader of a file numpy's reader refuses or reads
    short."""
    text = path.read_text().strip()
    if not text:
        raise ConfigError(f"{path}: empty file")
    lines = text.split("\n")
    names = _column_names(path, lines[0], columns)
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != n_rows:
        raise ConfigError(f"{path}: {len(rows)} rows, {expected}")
    for i, row in enumerate(rows, start=2):
        if len(row) != len(names):
            raise ConfigError(f"{path}: line {i} has {len(row)} cells, "
                              f"the header {len(names)}")
    try:
        data = np.asarray(rows, dtype=float).reshape(len(rows), len(names))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return {name: data[:, j] for j, name in enumerate(names)}


def analyze_run_dir(run_dir: Path) -> dict:
    """Recompute the measurements for an existing run directory."""
    def part(name: str) -> Path:
        path = run_dir / name
        if not path.is_file():
            raise ConfigError(f"{run_dir}: not a run directory (missing {name})")
        return path

    exp = resolve_experiment(_load_json(part("resolved-config.json")))
    summary_path = part("summary.json")
    summary = read_summary(_load_json(summary_path), summary_path)
    series = _read_csv(part("series.csv"), _SERIES, summary["n_series"],
                       f"{summary_path.name} has n_series {summary['n_series']}")
    index_path = part("snapshots/index.csv")
    index = _read_csv(index_path, _INDEX, summary["n_snapshots"],
                      f"{summary_path.name} has n_snapshots {summary['n_snapshots']}")
    wrong = np.nonzero(index["k"] != np.arange(len(index["k"])))[0]
    if wrong.size:
        i = wrong[0]
        raise ConfigError(f"{index_path}: row {i} has k = {_fmt(index['k'][i])}, "
                          f"not its own index {i}")
    snap_t, snap_u = [], []
    for k, t in enumerate(index["t"]):
        snap = _read_csv(part(f"snapshots/snap-{k:04d}.csv"), _SNAPSHOT, exp.grid.M,
                         f"the grid has {exp.grid.M} cells")
        snap_t.append(float(t))
        snap_u.append(snap["u"])

    report = {"run": run_dir.name, "outcome": summary["outcome"],
              "T_e_est": summary["T_e_est"], "fits": [],
              "domination": [], "gradient_envelope": None,
              "j_diagnostic": None}

    T_e = summary["T_e_est"]
    if T_e is not None:
        for quantity in ("sup", "support_radius"):
            try:
                fit = jsonable(fit_exponent(series["t"], series[quantity], T_e))
            except InsufficientPoints as exc:
                fit = {"error": str(exc)}
            report["fits"].append({"quantity": quantity, **fit})

    if "grad_pow_sup" in series:
        quot = gradient_quotient(series["t"], series["grad_pow_sup"],
                                 summary["sup0"], exp.problem)
        report["gradient_envelope"] = {
            "sup_quotient": float(np.max(quot)) if quot.size else None,
            "n_points": int(quot.size)}

    if exp.j_R0 is not None:
        try:
            diag = j_diagnostic(exp.grid, exp.problem, snap_t, snap_u,
                                summary["tol_pos"], R0=exp.j_R0)
            report["j_diagnostic"] = jsonable(diag)
        except EmptySupport as exc:
            report["j_diagnostic"] = {"error": str(exc)}

    for i, (profile, kw) in enumerate(exp.domination):
        with config_errors(f"analysis.domination[{i}]"):
            rep = check_domination(exp.grid, np.asarray(snap_t),
                                   np.asarray(snap_u), profile, **kw)
        report["domination"].append(jsonable(rep))

    (run_dir / "analysis-report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n")
    return report


# ----- subcommands ---------------------------------------------------------

def cmd_derive(args) -> int:
    regime = classify_regime(args.N, args.p, args.q)
    out = {"regime": regime.value, "constants": None}
    try:
        problem = validate_params(args.N, args.p, args.q)
        out["constants"] = jsonable(derive_constants(problem))
    except ValueError as exc:
        out["note"] = str(exc)
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_residual(args) -> int:
    kw, out_path = read_residual(_load_json(args.config))
    if out_path is not None and not Path(out_path).parent.is_dir():
        raise ConfigError(f"output: no directory {str(Path(out_path).parent)!r}")
    with config_errors(""):
        cert = certify_sign(**kw)
    text = json.dumps(jsonable(cert), sort_keys=True, indent=2)
    print(text)
    if out_path is not None:
        Path(out_path).write_text(text + "\n")
    return 0 if cert.passed else 1


def cmd_simulate(args) -> int:
    exp = resolve_experiment(_load_json(args.config))
    result = run(exp.problem, exp.grid, exp.reg, exp.ic, exp.cfg)
    out_dir = Path(exp.out_dir) if exp.out_dir else Path(args.config).with_suffix("")
    write_run_dir(out_dir, exp, result)
    # a run that took no step says why: its data starts at or below tol_ext
    why = (f" (sup0 = {_fmt(result.sup0)} <= tol_ext = {_fmt(result.tol_ext)})"
           if result.n_steps == 0 else "")
    print(f"{result.outcome.value}: t_final={_fmt(result.t_final)} "
          f"steps={result.n_steps} -> {out_dir}{why}")
    if result.outcome is Outcome.DIVERGED:
        return 3
    return 0


def cmd_analyze(args) -> int:
    report = analyze_run_dir(Path(args.run_dir))
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_verify(args) -> int:
    if args.json is not None and not Path(args.json).parent.is_dir():
        raise ConfigError(f"--json: no directory {str(Path(args.json).parent)!r}")
    results = run_suite(args.suite, seed=args.seed)
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    if args.json is not None:
        Path(args.json).write_text(json.dumps(
            jsonable(results), sort_keys=True, indent=2) + "\n")
    return 1 if n_fail else 0


def _sweep_one(base_doc: dict, overrides: dict, out_dir: str) -> dict:
    doc = with_overrides(base_doc, {**overrides, "output.dir": out_dir})
    exp = resolve_experiment(doc)
    result = run(exp.problem, exp.grid, exp.reg, exp.ic, exp.cfg)
    write_run_dir(Path(out_dir), exp, result)
    return {"dir": out_dir, "overrides": overrides,
            "outcome": result.outcome.value, "T_e_est": result.T_e_est}


def cmd_sweep(args) -> int:
    base, axes, out_root = read_sweep(_load_json(args.config))
    names = sorted(axes)
    combos = [{}]
    for name in names:
        combos = [{**c, name: v} for c in combos for v in axes[name]]
    # validate early, with an axis's value in place of a key it supplies
    resolve_experiment(with_overrides(base, combos[0]))
    jobs = []
    for combo in combos:
        tag = "_".join(f"{k.split('.')[-1]}={combo[k]}" for k in names)
        jobs.append((combo, str(Path(out_root) / tag)))
    owner = {}
    for combo, out_dir in jobs:
        if out_dir in owner:
            raise ConfigError(f"sweep: {owner[out_dir]} and {combo} share "
                              f"the run directory {out_dir}")
        owner[out_dir] = combo

    results = []
    with ProcessPoolExecutor(max_workers=min(args.workers, len(jobs))) as pool:
        futures = [pool.submit(_sweep_one, base, combo, out_dir)
                   for combo, out_dir in jobs]
        for (combo, out_dir), fut in zip(jobs, futures):
            try:
                results.append({**fut.result(), "status": "ok", "error": None})
            except Exception as exc:  # a failed job must not cost the others
                results.append({"dir": out_dir, "overrides": combo,
                                "status": "failed", "outcome": None,
                                "T_e_est": None,
                                "error": f"{type(exc).__name__}: {exc}"})
    for res in results:
        print(f"{res['outcome'] or res['status']:16s} {res['dir']}")
        if res["error"]:
            print(f"sweep job {res['dir']}: {res['error']}", file=sys.stderr)
    Path(out_root).mkdir(parents=True, exist_ok=True)
    (Path(out_root) / "sweep-summary.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n")
    return 1 if any(res["error"] for res in results) else 0


def _int_at_least(low: int, kind: str):
    """An argparse type: a decimal integer of at least low."""
    def parse(text: str) -> int:
        if not text.isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected {kind} integer, got {text!r}")
        return int(text)
    return parse


_positive_int = _int_at_least(1, "a positive")
_seed = _int_at_least(0, "a non-negative")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vhjlab",
        description="Radial extinction laboratory for gradient-absorbing "
                    "fast diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print derived constants for a triple")
    p.add_argument("N", type=int)
    p.add_argument("p", type=float)
    p.add_argument("q", type=float)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("residual", help="certify a closed-form profile sign")
    p.add_argument("config")
    p.set_defaults(fn=cmd_residual)

    p = sub.add_parser("simulate", help="run one experiment")
    p.add_argument("config")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("analyze", help="re-measure an existing run directory")
    p.add_argument("run_dir")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run an acceptance suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--seed", type=_seed, default=17)
    p.add_argument("--json", default=None, help="also write results here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="fan an experiment over parameter lists")
    p.add_argument("config")
    p.add_argument("--workers", type=_positive_int, default=4)
    p.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:     # the work is done; its output cannot be written
        print(f"write error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
