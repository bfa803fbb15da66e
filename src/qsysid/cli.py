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

Models are given either by preset name ("two-level", "phase", "coupling",
"hamiltonian") with parameters, or by explicit matrices
{"matrices": {"h": ..., "ls": [...]}} with complex entries encoded as
[re, im] pairs; matrices in reports use the same encoding, row-major.
Commands: info, qfi, decompose, connection, symplectic, lan-check,
equiv-check, cov-converge, output-overlap.  equiv-check and output-overlap
need a second model under "model2".  t grids are in units of 1/gap.

Exit codes: 0 success, 2 config error, 3 precondition violation (e.g.
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

COMMANDS = (
    "info",
    "qfi",
    "decompose",
    "connection",
    "symplectic",
    "lan-check",
    "equiv-check",
    "cov-converge",
    "output-overlap",
)
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
    M = np.asarray(M)
    return [[encode_complex(z) for z in row] for row in M]


def encode_real_matrix(M) -> list:
    return [[float(x) for x in row] for row in np.asarray(M).real]


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
    M = np.array(rows, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{where}: matrix must be square, got shape {M.shape}")
    return M


# ---------------------------------------------------------------------------
# job configuration
# ---------------------------------------------------------------------------

@dataclass
class JobConfig:
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
        if source["preset"] not in _models.PRESET_NAMES:
            raise ConfigError(f"{where}.preset: unknown preset {source['preset']!r}")
        params = source.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{where}.params: expected an object")
        return {"preset": source["preset"], "params": params}
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
    return {"matrices": {"h": encode_matrix(h), "ls": [encode_matrix(L) for L in ls]}}


def parse_config(text: str) -> JobConfig:
    """Parse and validate a JSON job description."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
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
            parsed.append({"dh": encode_matrix(dh), "dls": [encode_matrix(L) for L in dls]})
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
    out = {"command": job.command, "model": job.model}
    if job.model2 is not None:
        out["model2"] = job.model2
    out["tangents"] = job.tangents
    out["options"] = job.options
    return out


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


def _realise_model(source: dict, where: str) -> DynamicalParams:
    if "matrices" in source:
        h = decode_matrix(source["matrices"]["h"], f"{where}.matrices.h")
        ls = [decode_matrix(L, f"{where}.matrices.ls[{i}]") for i, L in enumerate(source["matrices"]["ls"])]
        return DynamicalParams(h, ls)
    name = source["preset"]
    params = source["params"]
    if name == "two-level":
        return _models.two_level(_two_level_params(params))
    # one-parameter presets need a base (h, l)
    if "h" not in params or "l" not in params:
        raise ConfigError(f"{where}.params: preset {name!r} needs base matrices 'h' and 'l'")
    h = decode_matrix(params["h"], f"{where}.params.h")
    ell = decode_matrix(params["l"], f"{where}.params.l")
    record = {m.name: m for m in _models.one_param_presets(h, ell)}[name]
    return record.family(float(params.get("value", 1.0 if name != "phase" else 0.0)))


def _realise_tangents(job: JobConfig, D: DynamicalParams):
    if isinstance(job.tangents, list):
        out = []
        for i, tv in enumerate(job.tangents):
            dh = decode_matrix(tv["dh"], f"tangents[{i}].dh")
            dls = [decode_matrix(L, f"tangents[{i}].dls[{j}]") for j, L in enumerate(tv["dls"])]
            out.append(TangentVector(dh, dls))
        labels = [f"tangent_{i}" for i in range(len(out))]
        return out, labels
    if "preset" in job.model and job.model["preset"] == "two-level":
        v = tuple(job.model["params"].get("v", (0.0, 0.0, 0.0)))
        if any(float(x) != 0.0 for x in v):
            # the named sets are the closed forms of the v = 0 submanifold
            raise ConfigError(
                "tangents: named tangent sets require v = 0; pass explicit tangents"
            )
        tans = _models.two_level_tangents(_two_level_params(job.model["params"]))
        group = getattr(tans, job.tangents)
        labels = {
            "physical": ["delta", "omega", "alpha", "theta"],
            "vertical": ["rot_x", "rot_y", "rot_z", "phase"],
            "auxiliary": ["aux_0", "aux_1", "aux_2", "aux_3"],
        }[job.tangents]
        return list(group), labels
    if "preset" in job.model and job.model["preset"] in ("phase", "coupling", "hamiltonian"):
        params = job.model["params"]
        h = decode_matrix(params["h"], "model.params.h")
        ell = decode_matrix(params["l"], "model.params.l")
        record = {m.name: m for m in _models.one_param_presets(h, ell)}[job.model["preset"]]
        return [record.tangent], [record.name]
    raise ConfigError(f"tangents: named set {job.tangents!r} needs a preset model with tangent sets")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _effective_options(job: JobConfig) -> dict:
    # tol = None means "module defaults" (residual checks 1e-10, equivalence
    # detection 1e-8-scaled); an explicit value overrides where applicable
    eff = {
        "tol": None,
        "t_grid": list(DEFAULT_T_GRID),
        "format": "json",
        "out": None,
    }
    eff.update(job.options)
    return eff


def _tangent_to_json(dD: TangentVector) -> dict:
    return {"dh": encode_matrix(dD.dh), "dls": [encode_matrix(L) for L in dD.dls]}


def run(job: JobConfig) -> dict:
    """Execute a validated job and return the report document."""
    opts = _effective_options(job)
    D = _realise_model(job.model, "model")
    result: dict = {}

    if job.command == "info":
        if opts["tol"] is not None:
            rep = stationary_state(D, rank_tol_scale=float(opts["tol"]))
        else:
            rep = stationary_state(D)
        result = {
            "ergodic": rep.ergodic,
            "stationary": encode_matrix(rep.stationary) if rep.stationary is not None else None,
            "zero_eigen_count": rep.zero_eigen_count,
            "min_stationary_eigenvalue": rep.min_stationary_eigenvalue,
            "spectral_gap": rep.spectral_gap,
        }

    elif job.command == "qfi":
        tangents, labels = _realise_tangents(job, D)
        qfi = qfi_rate(D, tangents, opts["convention"])
        result = {
            "convention": qfi.convention,
            "labels": labels,
            "matrix": encode_real_matrix(qfi.matrix),
        }

    elif job.command in ("decompose", "connection"):
        tangents, labels = _realise_tangents(job, D)
        entries = []
        for label, dD in zip(labels, tangents):
            om = connection_form(D, dD)
            entry = {"label": label, "k": encode_matrix(om.k), "r": om.r}
            if job.command == "decompose":
                hor = horizontal_projection(D, dD)
                entry["horizontal"] = _tangent_to_json(hor)
                entry["residual_e_norm"] = float(np.max(np.abs(e_map(D, hor))))
            entries.append(entry)
        result = {"components": entries}

    elif job.command == "symplectic":
        tangents, labels = _realise_tangents(job, D)
        if (
            isinstance(job.tangents, str)
            and job.tangents == "physical"
            and job.model.get("preset") == "two-level"
        ):
            # default spanning set: the canonical basis of the physical span
            tangents = _models.two_level_symplectic_basis(_two_level_params(job.model["params"]))
            labels = ["q1", "p1", "q2", "p2"]
        convention = opts.get("convention", "metric")
        model = symplectic_basis(
            D, tangents, convention, complete_with_j=bool(opts.get("complete_with_j", False))
        )
        result = {
            "convention": model.convention,
            "dim_id": model.dim_id,
            "labels": labels,
            "f": encode_real_matrix(model.f),
            "sigma": encode_real_matrix(model.sigma),
            "change_of_basis_cond": model.change_of_basis_cond,
            "basis": [_tangent_to_json(v) for v in model.basis],
        }

    elif job.command == "lan-check":
        tangents, labels = _realise_tangents(job, D)
        rep = require_ergodic(D)
        dirs = [horizontal_projection(D, dD) for dD in tangents]
        chart = LocalChart(D, dirs)
        m = chart.n_params
        u = np.asarray(opts.get("u", [1.0] + [0.0] * (m - 1)), dtype=float)
        u2 = np.asarray(opts.get("u_prime", [0.0] * m), dtype=float)
        t_values = [tg / rep.spectral_gap for tg in opts["t_grid"]]
        lan = lan_convergence(chart, u, u2, t_values)
        result = {
            "convention": opts["convention"],
            "labels": labels,
            "u": u.tolist(),
            "u_prime": u2.tolist(),
            "t_grid_gap_units": [float(tg) for tg in opts["t_grid"]],
            "t_values": list(lan.t_values),
            "finite_overlaps": [encode_complex(z) for z in lan.finite_overlaps],
            "limit_value": encode_complex(lan.limit_value),
            "errors": list(lan.errors),
            "max_abs_error": lan.max_abs_error,
            "phase_matrix": encode_real_matrix(lan.phase_matrix_used),
        }

    elif job.command == "equiv-check":
        D2 = _realise_model(job.model2, "model2")
        if opts["tol"] is not None:
            wit = find_gauge_equivalence(D, D2, eq_tol_scale=float(opts["tol"]))
        else:
            wit = find_gauge_equivalence(D, D2)
        result = {
            "found": wit.found,
            "w": encode_matrix(wit.w) if wit.w is not None else None,
            "r": wit.r,
            "eigen_real_part": wit.eigen_real_part,
        }

    elif job.command == "cov-converge":
        tangents, labels = _realise_tangents(job, D)
        rep = require_ergodic(D)
        t_values = [tg / rep.spectral_gap for tg in opts["t_grid"]]
        series = []
        for label, dD in zip(labels, tangents):
            raw = x_map(D, dD)
            # the fluctuation integral is defined with the centred first
            # component, and centring leaves the limit covariance unchanged
            X = OperatorTuple(centering(D, raw.x0), raw.xs)
            limit = markov_covariance(D, X, X)
            finites = [finite_time_covariance(D, X, X, t) for t in t_values]
            series.append(
                {
                    "label": label,
                    "limit": encode_complex(limit),
                    "finite": [encode_complex(z) for z in finites],
                    "errors": [abs(z - limit) for z in finites],
                }
            )
        result = {"t_grid_gap_units": [float(tg) for tg in opts["t_grid"]], "t_values": t_values, "series": series}

    elif job.command == "output-overlap":
        D2 = _realise_model(job.model2, "model2")
        rep = require_ergodic(D)
        t_values = [tg / rep.spectral_gap for tg in opts["t_grid"]]
        values = [output_overlap_trace(D, D2, t) for t in t_values]
        result = {
            "t_grid_gap_units": [float(tg) for tg in opts["t_grid"]],
            "t_values": t_values,
            "values": values,
        }

    echo = job_to_dict(job)
    echo["options"] = {k: v for k, v in opts.items()}
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


def _error_object(module: str, message: str, context: dict) -> str:
    return json.dumps({"module": module, "message": message, "context": context})


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
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
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
        job = parse_config(json.dumps(raw))
        context["command"] = job.command
    except ConfigError as exc:
        sys.stderr.write(_error_object("cli", str(exc), context) + "\n")
        return 2

    try:
        report = run(job)
    except ConfigError as exc:
        sys.stderr.write(_error_object("cli", str(exc), context) + "\n")
        return 2
    except NonErgodicError as exc:
        sys.stderr.write(_error_object("lindblad", str(exc), context) + "\n")
        return 3
    except ValueError as exc:
        module = exc.__class__.__module__.rsplit(".", 1)[-1]
        sys.stderr.write(_error_object(module if module != "builtins" else "qsysid", str(exc), context) + "\n")
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(_error_object("numerics", str(exc), context) + "\n")
        return 4

    opts = _effective_options(job)
    text = format_report(report, opts["format"])
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
