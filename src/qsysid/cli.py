"""Batch front-end: read a JSON job config, run one computation, emit a report.

Usage:

    qsysid CONFIG.json [--format {json,csv}] [--out PATH]
                       [--convention {four_x,metric}] [--tol TOL]
                       [--t-grid T1,T2,...]

The config selects a command and a model::

    {
      "command": "qfi",
      "model": {"preset": "two-level",
                "params": {"alpha": 1, "delta": 0, "omega": 1, "theta": 0}},
      "tangents": "physical",
      "options": {"convention": "metric"}
    }

Models are given either by preset name ("two-level", or "phase", "coupling",
"hamiltonian" with base matrices "h" and "l" under "params") or by explicit
matrices {"matrices": {"h": ..., "ls": [...]}}.  Matrices are row-major; an
entry is a number or an [re, im] pair, mixed freely within one matrix.  Each
matrix is decoded once, at parse time, so a malformed one (a preset's "h" and
"l" too) is a config error.  Reports write every matrix, echoed or computed,
with [re, im] float pairs as entries.
Commands: info, qfi, decompose, connection, symplectic, lan-check,
equiv-check, cov-converge, output-overlap.  equiv-check and output-overlap
need a second model under "model2".  t grids are in units of 1/gap.

Exit codes: 0 success, 2 config error (an unreadable config or an
unwritable --out path too), 3 precondition violation (e.g.
non-ergodic dynamics), 4 numerical failure.  Errors go to stderr as a JSON
object {"module", "message", "context"}.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import models as _models
from .covariance import (
    CONVENTIONS,
    OperatorTuple,
    centering,
    finite_time_covariance,
    markov_covariance,
    qfi_rate,
    x_map,
)
from .gaussian import symplectic_basis
from .geometry import TangentVector, connection_form, e_map, find_gauge_equivalence, horizontal_projection
from .lan import LocalChart, lan_convergence, output_overlap_trace
from .lindblad import DynamicalParams, NonErgodicError, require_ergodic, stationary_state
from .opspace import dag

_NEEDS_CONVENTION = ("qfi", "lan-check")
_NEEDS_MODEL2 = ("equiv-check", "output-overlap")

DEFAULT_T_GRID = (50.0, 100.0, 200.0, 400.0)


class ConfigError(ValueError):
    """Malformed job configuration; message names the offending field."""


# ---------------------------------------------------------------------------
# complex-number and matrix encoding: complex as [re, im], matrices row-major
# ---------------------------------------------------------------------------

def encode_complex(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def encode_matrix(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def encode_real_matrix(M) -> list:
    return np.asarray(M).real.astype(float).tolist()


def decode_complex(obj, where: str) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(x, (int, float)) for x in obj):
        return complex(obj[0], obj[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {obj!r}")


def decode_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ConfigError(f"{where}: expected a nested array")
    rows = [[decode_complex(z, f"{where}[{i}][{j}]") for j, z in enumerate(row)] for i, row in enumerate(obj)]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{where}: rows of unequal length {[len(row) for row in rows]}")
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{where}: matrix must be square, got shape {M.shape}")
    return M


def _encode_arrays(obj):
    """A copy of a config tree with every decoded matrix encoded back."""
    if isinstance(obj, np.ndarray):
        return encode_matrix(obj)
    if isinstance(obj, dict):
        return {key: _encode_arrays(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode_arrays(val) for val in obj]
    return obj


# ---------------------------------------------------------------------------
# job configuration
# ---------------------------------------------------------------------------

@dataclass
class JobConfig:
    """A validated job; every matrix in it (models, a preset's base h and l,
    explicit tangents) is a decoded complex array."""

    command: str
    model: dict
    model2: dict | None = None
    tangents: object = "physical"
    options: dict = field(default_factory=dict)


def _validate_model(source, where: str) -> dict:
    if not isinstance(source, dict):
        raise ConfigError(f"{where}: expected an object")
    has_preset = "preset" in source
    has_matrices = "matrices" in source
    if has_preset == has_matrices:
        raise ConfigError(f"{where}: give exactly one of 'preset' or 'matrices'")
    if has_preset:
        name = source["preset"]
        if name not in _models.PRESET_NAMES:
            raise ConfigError(f"{where}.preset: unknown preset {name!r}")
        params = source.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.params: expected an object")
        if name != "two-level":
            # the one-parameter presets need a base (h, l)
            if "h" not in params or "l" not in params:
                raise ConfigError(f"{where}.params: preset {name!r} needs base matrices 'h' and 'l'")
            params = {**params, **{key: decode_matrix(params[key], f"{where}.params.{key}") for key in ("h", "l")}}
        return {"preset": name, "params": params}
    mats = source["matrices"]
    if not isinstance(mats, dict) or "h" not in mats or "ls" not in mats:
        raise ConfigError(f"{where}.matrices: expected an object with 'h' and 'ls'")
    h = decode_matrix(mats["h"], f"{where}.matrices.h")
    herm = float(np.max(np.abs(h - dag(h))))
    if herm > 1e-12 * (1.0 + np.linalg.norm(h)):
        raise ConfigError(f"{where}.matrices.h: not Hermitian, ||H - H*|| = {herm:.3e}")
    ls = [decode_matrix(L, f"{where}.matrices.ls[{i}]") for i, L in enumerate(mats["ls"])]
    if any(L.shape != h.shape for L in ls):
        raise ConfigError(f"{where}.matrices.ls: dimensions do not match h")
    return {"matrices": {"h": h, "ls": ls}}


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job description."""
    return _job_from_raw(_load_json(text))


def _job_from_raw(raw) -> JobConfig:
    """Validate a decoded JSON job description, decoding each matrix once."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(raw) - {"command", "model", "model2", "tangents", "options"}
    if unknown:
        raise ConfigError(f"unknown top-level fields: {sorted(unknown)}")
    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command: expected one of {COMMANDS}, got {command!r}")
    if "model" not in raw:
        raise ConfigError("model: required")
    model = _validate_model(raw["model"], "model")
    model2 = None
    if command in _NEEDS_MODEL2:
        if "model2" not in raw:
            raise ConfigError(f"model2: required for command {command!r}")
        model2 = _validate_model(raw["model2"], "model2")
    elif "model2" in raw:
        raise ConfigError(f"model2: not accepted by command {command!r}")

    tangents = raw.get("tangents", "physical")
    if isinstance(tangents, str):
        if tangents not in ("physical", "vertical", "auxiliary"):
            raise ConfigError(f"tangents: unknown set {tangents!r}")
    elif isinstance(tangents, list):
        parsed = []
        for i, tv in enumerate(tangents):
            if not isinstance(tv, dict) or "dh" not in tv or "dls" not in tv:
                raise ConfigError(f"tangents[{i}]: expected an object with 'dh' and 'dls'")
            dh = decode_matrix(tv["dh"], f"tangents[{i}].dh")
            dls = [decode_matrix(L, f"tangents[{i}].dls[{j}]") for j, L in enumerate(tv["dls"])]
            parsed.append({"dh": dh, "dls": dls})
        tangents = parsed
    else:
        raise ConfigError("tangents: expected a set name or a list of tangent objects")

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options: expected an object")
    known = {"convention", "tol", "t_grid", "format", "out", "u", "u_prime", "quad_steps", "complete_with_j"}
    unknown = set(options) - known
    if unknown:
        raise ConfigError(f"options: unknown fields {sorted(unknown)}")
    # deprecated: the finite-time covariance is exact, so a quad_steps value
    # from an older config is accepted and dropped
    options = {key: val for key, val in options.items() if key != "quad_steps"}
    if "convention" in options and options["convention"] not in CONVENTIONS:
        raise ConfigError(f"options.convention: expected one of {CONVENTIONS}")
    if command in _NEEDS_CONVENTION and "convention" not in options:
        raise ConfigError(f"options.convention: required for command {command!r} (--convention)")
    if "format" in options and options["format"] not in ("json", "csv"):
        raise ConfigError("options.format: expected 'json' or 'csv'")
    if "t_grid" in options:
        grid = options["t_grid"]
        if not isinstance(grid, list) or not grid or not all(isinstance(x, (int, float)) and x > 0 for x in grid):
            raise ConfigError("options.t_grid: expected a list of positive numbers")
    return JobConfig(command=command, model=model, model2=model2, tangents=tangents, options=options)


def job_to_dict(job: JobConfig) -> dict:
    """The job as JSON-ready data, every matrix encoded as [re, im] pairs."""
    out = {"command": job.command, "model": job.model}
    if job.model2 is not None:
        out["model2"] = job.model2
    out["tangents"] = job.tangents
    out["options"] = job.options
    return _encode_arrays(out)


# ---------------------------------------------------------------------------
# model/tangent realisation
# ---------------------------------------------------------------------------

def _two_level_params(params: dict) -> _models.TwoLevelParams:
    return _models.TwoLevelParams(
        alpha=float(params.get("alpha", 1.0)),
        delta=float(params.get("delta", 0.0)),
        omega=float(params.get("omega", 1.0)),
        theta=float(params.get("theta", 0.0)),
        v=tuple(params.get("v", (0.0, 0.0, 0.0))),
    )


def _realise_model(source: dict):
    """The dynamics of a validated model, and its one-parameter preset record (or None)."""
    if "matrices" in source:
        return DynamicalParams(source["matrices"]["h"], source["matrices"]["ls"]), None
    name = source["preset"]
    params = source["params"]
    if name == "two-level":
        return _models.two_level(_two_level_params(params)), None
    record = {m.name: m for m in _models.one_param_presets(params["h"], params["l"])}[name]
    return record.family(float(params.get("value", 1.0 if name != "phase" else 0.0))), record


def _realise(job: JobConfig, with_tangents: bool):
    """D for job.model and, when with_tangents, the tangents and their labels (else None, None)."""
    D, record = _realise_model(job.model)
    if not with_tangents:
        return D, None, None
    if isinstance(job.tangents, list):
        tangents = [TangentVector(tv["dh"], tv["dls"]) for tv in job.tangents]
        return D, tangents, [f"tangent_{i}" for i in range(len(tangents))]
    if job.model.get("preset") == "two-level":
        p = _two_level_params(job.model["params"])
        if any(p.v):
            # the named sets are the closed forms of the v = 0 submanifold
            raise ConfigError(
                "tangents: named tangent sets require v = 0; pass explicit tangents"
            )
        if job.command == "symplectic" and job.tangents == "physical":
            # default spanning set: the canonical basis of the physical span
            return D, _models.two_level_symplectic_basis(p), ["q1", "p1", "q2", "p2"]
        tans = _models.two_level_tangents(p)
        labels = {
            "physical": ["delta", "omega", "alpha", "theta"],
            "vertical": ["rot_x", "rot_y", "rot_z", "phase"],
            "auxiliary": ["aux_0", "aux_1", "aux_2", "aux_3"],
        }[job.tangents]
        return D, list(getattr(tans, job.tangents)), labels
    if record is not None:
        return D, [record.tangent], [record.name]
    raise ConfigError(f"tangents: named set {job.tangents!r} needs a preset model with tangent sets")


# ---------------------------------------------------------------------------
# command implementations: handler(job, D, tangents, labels, opts) -> result
# ---------------------------------------------------------------------------

def _t_grid(D: DynamicalParams, opts: dict) -> dict:
    """The report's t grid: multiples of 1/gap, and the times they stand for."""
    grid = [float(tg) for tg in opts["t_grid"]]
    gap = require_ergodic(D).spectral_gap
    return {"t_grid_gap_units": grid, "t_values": [tg / gap for tg in grid]}


def _info(job, D, tangents, labels, opts) -> dict:
    if opts["tol"] is not None:
        rep = stationary_state(D, rank_tol_scale=float(opts["tol"]))
    else:
        rep = stationary_state(D)
    return {
        "ergodic": rep.ergodic,
        "stationary": encode_matrix(rep.stationary) if rep.stationary is not None else None,
        "zero_eigen_count": rep.zero_eigen_count,
        "min_stationary_eigenvalue": rep.min_stationary_eigenvalue,
        "spectral_gap": rep.spectral_gap,
    }


def _qfi(job, D, tangents, labels, opts) -> dict:
    qfi = qfi_rate(D, tangents, opts["convention"])
    return {
        "convention": qfi.convention,
        "labels": labels,
        "matrix": encode_real_matrix(qfi.matrix),
    }


def _components(job, D, tangents, labels, opts) -> dict:
    """decompose and connection: the connection form, and for decompose the horizontal part."""
    entries = []
    for label, dD in zip(labels, tangents):
        om = connection_form(D, dD)
        entry = {"label": label, "k": encode_matrix(om.k), "r": om.r}
        if job.command == "decompose":
            hor = horizontal_projection(D, dD)
            entry["horizontal"] = _encode_arrays({"dh": hor.dh, "dls": hor.dls})
            entry["residual_e_norm"] = float(np.max(np.abs(e_map(D, hor))))
        entries.append(entry)
    return {"components": entries}


def _symplectic(job, D, tangents, labels, opts) -> dict:
    convention = opts.get("convention", "metric")
    model = symplectic_basis(
        D, tangents, convention, complete_with_j=bool(opts.get("complete_with_j", False))
    )
    return {
        "convention": model.convention,
        "dim_id": model.dim_id,
        "labels": labels,
        "f": encode_real_matrix(model.f),
        "sigma": encode_real_matrix(model.sigma),
        "change_of_basis_cond": model.change_of_basis_cond,
        "basis": _encode_arrays([{"dh": v.dh, "dls": v.dls} for v in model.basis]),
    }


def _lan_check(job, D, tangents, labels, opts) -> dict:
    grid = _t_grid(D, opts)
    chart = LocalChart(D, [horizontal_projection(D, dD) for dD in tangents])
    m = chart.n_params
    u = np.asarray(opts.get("u", [1.0] + [0.0] * (m - 1)), dtype=float)
    u2 = np.asarray(opts.get("u_prime", [0.0] * m), dtype=float)
    lan = lan_convergence(chart, u, u2, grid["t_values"])
    return {
        "convention": opts["convention"],
        "labels": labels,
        "u": u.tolist(),
        "u_prime": u2.tolist(),
        **grid,
        "finite_overlaps": [encode_complex(z) for z in lan.finite_overlaps],
        "limit_value": encode_complex(lan.limit_value),
        "errors": list(lan.errors),
        "max_abs_error": lan.max_abs_error,
        "phase_matrix": encode_real_matrix(lan.phase_matrix_used),
    }


def _equiv_check(job, D, tangents, labels, opts) -> dict:
    D2, _ = _realise_model(job.model2)
    if opts["tol"] is not None:
        wit = find_gauge_equivalence(D, D2, eq_tol_scale=float(opts["tol"]))
    else:
        wit = find_gauge_equivalence(D, D2)
    return {
        "found": wit.found,
        "w": encode_matrix(wit.w) if wit.w is not None else None,
        "r": wit.r,
        "eigen_real_part": wit.eigen_real_part,
    }


def _cov_converge(job, D, tangents, labels, opts) -> dict:
    grid = _t_grid(D, opts)
    series = []
    for label, dD in zip(labels, tangents):
        raw = x_map(D, dD)
        # the fluctuation integral is defined with the centred first
        # component, and centring leaves the limit covariance unchanged
        X = OperatorTuple(centering(D, raw.x0), raw.xs)
        limit = markov_covariance(D, X, X)
        finites = [finite_time_covariance(D, X, X, t) for t in grid["t_values"]]
        series.append(
            {
                "label": label,
                "limit": encode_complex(limit),
                "finite": [encode_complex(z) for z in finites],
                "errors": [abs(z - limit) for z in finites],
            }
        )
    return {**grid, "series": series}


def _output_overlap(job, D, tangents, labels, opts) -> dict:
    D2, _ = _realise_model(job.model2)
    grid = _t_grid(D, opts)
    return {**grid, "values": [output_overlap_trace(D, D2, t) for t in grid["t_values"]]}


# command name -> (handler, whether it takes tangents)
_HANDLERS = {
    "info": (_info, False),
    "qfi": (_qfi, True),
    "decompose": (_components, True),
    "connection": (_components, True),
    "symplectic": (_symplectic, True),
    "lan-check": (_lan_check, True),
    "equiv-check": (_equiv_check, False),
    "cov-converge": (_cov_converge, True),
    "output-overlap": (_output_overlap, False),
}
COMMANDS = tuple(_HANDLERS)


def run(job: JobConfig) -> dict:
    """Execute a validated job and return the report document."""
    # tol = None means "module defaults" (residual checks 1e-10, equivalence
    # detection 1e-8-scaled); an explicit value overrides where applicable
    opts = {"tol": None, "t_grid": list(DEFAULT_T_GRID), "format": "json", "out": None, **job.options}
    handler, with_tangents = _HANDLERS[job.command]
    result = handler(job, *_realise(job, with_tangents), opts)
    echo = job_to_dict(job)
    echo["options"] = opts
    return {"effective_config": echo, "command": job.command, "result": result}


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------

def _csv_rows(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _csv_rows(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, list):
        if value and all(isinstance(r, list) for r in value):
            arr = value
            # matrix-like: rows of scalars or of [re, im] pairs
            for i, row in enumerate(arr):
                for j, cell in enumerate(row):
                    if isinstance(cell, list):
                        rows.append((prefix, i, j, cell[0], cell[1]))
                    else:
                        rows.append((prefix, i, j, cell, ""))
        elif value and all(isinstance(x, (int, float)) for x in value) and len(value) == 2 and prefix.endswith(("limit", "limit_value")):
            rows.append((prefix, "", "", value[0], value[1]))
        else:
            for i, x in enumerate(value):
                _csv_rows(f"{prefix}[{i}]", x, rows)
    elif isinstance(value, (int, float, bool)) or value is None:
        rows.append((prefix, "", "", value, ""))
    else:
        rows.append((prefix, "", "", str(value), ""))


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False)
    rows: list = []
    _csv_rows("", report["result"], rows)
    lines = ["key,row,col,value_re,value_im"]
    for key, i, j, re, im in rows:
        lines.append(f"{key},{i},{j},{re},{im}")
    return "\n".join(lines)


def _fail(module: str, exc: Exception, context: dict, code: int) -> int:
    """Write the error object {"module", "message", "context"} to stderr; return the exit code."""
    sys.stderr.write(json.dumps({"module": module, "message": str(exc), "context": context}) + "\n")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qsysid", description="quantum Markov system-identification toolbox")
    parser.add_argument("config", help="path to a JSON job config, or '-' for stdin")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--convention", choices=CONVENTIONS, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--t-grid", default=None, help="comma-separated multiples of 1/gap")
    args = parser.parse_args(argv)

    context = {"config": args.config}
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        # flag overrides are merged into the raw options before validation,
        # so e.g. --convention can satisfy a command that requires one
        raw = _load_json(text)
        if isinstance(raw, dict):
            options = raw.setdefault("options", {})
            if isinstance(options, dict):
                if args.convention is not None:
                    options["convention"] = args.convention
                if args.tol is not None:
                    options["tol"] = args.tol
                if args.t_grid is not None:
                    try:
                        options["t_grid"] = [float(x) for x in args.t_grid.split(",") if x]
                    except ValueError as exc:
                        raise ConfigError(f"--t-grid: {exc}") from exc
                    if not options["t_grid"]:
                        raise ConfigError("--t-grid: empty grid")
                if args.format is not None:
                    options["format"] = args.format
                if args.out is not None:
                    options["out"] = args.out
        job = _job_from_raw(raw)
        context["command"] = job.command
        report = run(job)
        opts = report["effective_config"]["options"]
        text = format_report(report, opts["format"]) + "\n"
        if opts["out"]:
            context["out"] = opts["out"]
            try:
                with open(opts["out"], "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        return _fail("cli", exc, context, 2)
    except NonErgodicError as exc:
        return _fail("lindblad", exc, context, 3)
    except ValueError as exc:
        module = exc.__class__.__module__.rsplit(".", 1)[-1]
        return _fail(module if module != "builtins" else "qsysid", exc, context, 3)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return _fail("numerics", exc, context, 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
