"""File formats: measurement CSVs, toolkit configuration, and reports.

CSV files carry '#'-prefixed ``key = value`` metadata lines, one header
row naming the columns, then numeric rows.  Reports and configuration
are JSON.  Report serialization is canonical (sorted keys, floats at 17
significant digits), so serialize -> parse -> serialize is
byte-identical and reports diff cleanly under version control.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from ._version import __version__
from .curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    SmoothingConfig,
    build_reference_curve,
)
from .errors import ConfigError, InputDataError
from .features import ArealFeatures, DesignParams, FeatureSet
from .fitting import FitConfig, FitResult, ParameterBounds, StartRecord
from .model import ElectrodeParams

REPORT_SCHEMA_VERSION = 1

FULL_CELL_HEADER = "capacity_ah,voltage_v"
FULL_CELL_TIME_HEADER = "time_s,current_a,voltage_v"
REFERENCE_HEADER = "capacity_mah,potential_v"


def format_float(x: float) -> str:
    """Canonical float text: 17 significant digits, always a float literal."""
    if not math.isfinite(x):
        raise InputDataError(f"non-finite value {x} cannot be serialized")
    text = "%.17g" % x
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _dumps_canonical(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise InputDataError(f"non-string report key {key!r}")
            items.append(
                f'{pad}  {json.dumps(key)}: {_dumps_canonical(obj[key], indent + 1)}'
            )
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dumps_canonical(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputDataError(f"unserializable value of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text for a report-shaped object tree."""
    return _dumps_canonical(obj) + "\n"


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# CSV parsing


def _read_csv_sections(path):
    """Split a data file into (metadata dict, header, rows, header_lineno)."""
    meta = {}
    header = None
    rows = []
    header_lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.replace(" ", "")
                header_lineno = lineno
                continue
            rows.append((lineno, line))
    if header is None:
        raise InputDataError(f"{path}: no header row found")
    return meta, header, rows, header_lineno


def _parse_numeric_rows(path, rows, n_cols):
    out = np.empty((len(rows), n_cols))
    for i, (lineno, line) in enumerate(rows):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise InputDataError(
                f"{path}:{lineno}: expected {n_cols} comma-separated values, got {len(parts)}"
            )
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise InputDataError(f"{path}:{lineno}: {exc}") from None
    if len(rows) == 0:
        raise InputDataError(f"{path}: no data rows")
    return out


def parse_full_cell(path) -> CapacityVoltageSeries:
    """Read a measured full-cell file.

    Accepts either direct ``capacity_ah,voltage_v`` rows or the cycler
    schema ``time_s,current_a,voltage_v``, in which case capacity is
    reconstructed by trapezoidal integration of current over time.
    """
    meta, header, rows, header_lineno = _read_csv_sections(path)
    direction = meta.get("direction", "charge")
    c_rate = float(meta.get("c_rate", "0"))
    label = meta.get("temperature_label", "")
    q_unit = meta.get("q_unit", "Ah")
    try:
        if header == FULL_CELL_HEADER:
            data = _parse_numeric_rows(path, rows, 2)
            q, v = data[:, 0], data[:, 1]
        elif header == FULL_CELL_TIME_HEADER:
            data = _parse_numeric_rows(path, rows, 3)
            t, current, v = data[:, 0], data[:, 1], data[:, 2]
            if np.any(np.diff(t) <= 0):
                bad = int(np.argmax(np.diff(t) <= 0))
                raise InputDataError(
                    f"{path}:{rows[bad + 1][0]}: time must be strictly increasing"
                )
            q = cumulative_trapezoid(np.abs(current), t, initial=0.0) / 3600.0
        else:
            raise InputDataError(
                f"{path}:{header_lineno}: unrecognized header {header!r}; expected "
                f"{FULL_CELL_HEADER!r} or {FULL_CELL_TIME_HEADER!r}"
            )
        return CapacityVoltageSeries(
            q=q, v=v, direction=direction, c_rate=c_rate,
            temperature_label=label, q_unit=q_unit,
        )
    except InputDataError as exc:
        if str(exc).startswith(str(path)):
            raise
        raise InputDataError(f"{path}: {exc}") from None


def write_full_cell(series: CapacityVoltageSeries, path) -> None:
    """Write a series in the direct full-cell schema; floats round-trip exactly."""
    lines = [
        "# full-cell capacity/voltage series",
        f"# direction = {series.direction}",
        f"# c_rate = {format_float(series.c_rate)}",
        f"# temperature_label = {series.temperature_label}",
        f"# q_unit = {series.q_unit}",
        FULL_CELL_HEADER,
    ]
    for qi, vi in zip(series.q, series.v):
        lines.append(f"{format_float(qi)},{format_float(vi)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_reference_curve(path) -> ReferencePotentialCurve:
    """Read a half-cell file; normalization and repair rules apply."""
    meta, header, rows, header_lineno = _read_csv_sections(path)
    if header != REFERENCE_HEADER:
        raise InputDataError(
            f"{path}:{header_lineno}: unrecognized header {header!r}; expected {REFERENCE_HEADER!r}"
        )
    for key in ("electrode_role", "direction"):
        if key not in meta:
            raise InputDataError(f"{path}: missing required metadata line '# {key} = ...'")
    data = _parse_numeric_rows(path, rows, 2)
    cap, pot = data[:, 0], data[:, 1]
    if "v_min" in meta and "v_max" in meta:
        window = (float(meta["v_min"]), float(meta["v_max"]))
    else:
        window = (float(pot.min()), float(pot.max()))
    try:
        return build_reference_curve(
            cap,
            pot,
            electrode_role=meta["electrode_role"],
            direction=meta["direction"],
            c_rate=float(meta.get("c_rate", "0")),
            voltage_window=window,
        )
    except InputDataError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def write_reference_curve(curve: ReferencePotentialCurve, path) -> None:
    """Write a reference curve as capacity (stoichiometry * basis) vs potential."""
    lines = [
        "# half-cell reference potential curve",
        f"# electrode_role = {curve.electrode_role}",
        f"# direction = {curve.direction}",
        f"# c_rate = {format_float(curve.c_rate)}",
        f"# v_min = {format_float(curve.source_voltage_window[0])}",
        f"# v_max = {format_float(curve.source_voltage_window[1])}",
        REFERENCE_HEADER,
    ]
    for si, pi in zip(curve.stoich_grid, curve.potential):
        lines.append(f"{format_float(si * curve.capacity_basis_mah)},{format_float(pi)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ToolkitConfig:
    """Parsed toolkit configuration plus the verbatim JSON echo."""

    u_pos_path: str
    u_neg_path: str
    fit: FitConfig
    areal_basis_cm2: float | None
    design_pos: DesignParams | None
    design_neg: DesignParams | None
    output_dir: str
    echo: dict


def _design_from(obj: dict, where: str) -> DesignParams:
    try:
        return DesignParams(
            loading_mg_cm2=float(obj["loading_mg_cm2"]),
            active_fraction=float(obj["active_fraction"]),
            n_faces=int(obj["n_faces"]),
            area_per_face_cm2=float(obj["area_per_face_cm2"]),
            q_theor_mah_g=float(obj["q_theor_mah_g"]),
        )
    except KeyError as exc:
        raise ConfigError(f"{where}: missing design key {exc}") from None


# Config ``fit`` key -> (FitConfig field, type).  Absent keys are not passed,
# so the defaults live in FitConfig alone.
_FIT_KEYS = (
    ("lambda", "lam", float),
    ("resample_points", "resample_points", int),
    ("starts", "starts", int),
    ("seed", "seed", int),
    ("max_iterations", "max_iterations", int),
    ("tol_step", "tol_step", float),
    ("tol_objective", "tol_objective", float),
)


def _fit_config_from(obj: dict) -> FitConfig:
    smoothing = SmoothingConfig(**obj.get("smoothing", {}))
    bounds = None
    if obj.get("bounds") is not None:
        b = obj["bounds"]
        try:
            bounds = ParameterBounds(
                qn=tuple(b["qn"]), qp=tuple(b["qp"]), x0=tuple(b["x0"]), y0=tuple(b["y0"])
            )
        except KeyError as exc:
            raise ConfigError(f"fit.bounds: missing key {exc}") from None
    present = {field: cast(obj[key]) for key, field, cast in _FIT_KEYS if key in obj}
    return FitConfig(bounds=bounds, smoothing=smoothing, **present)


def load_config(path) -> ToolkitConfig:
    """Load and validate a toolkit configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    curves_obj = raw.get("reference_curves", {})
    u_pos_path = curves_obj.get("positive", "")
    u_neg_path = curves_obj.get("negative", "")
    base = os.path.dirname(os.path.abspath(path))
    resolved = []
    for p in (u_pos_path, u_neg_path):
        if not p:
            raise ConfigError(
                f"{path}: reference_curves.positive and .negative paths are required"
            )
        full = p if os.path.isabs(p) else os.path.join(base, p)
        if not os.path.exists(full):
            raise ConfigError(f"{path}: referenced file does not exist: {p}")
        resolved.append(full)

    try:
        fit_cfg = _fit_config_from(raw.get("fit", {}))
    except TypeError as exc:
        raise ConfigError(f"{path}: bad fit settings: {exc}") from None

    areal = raw.get("areal_basis_cm2")
    design = raw.get("design") or {}
    return ToolkitConfig(
        u_pos_path=resolved[0],
        u_neg_path=resolved[1],
        fit=fit_cfg,
        areal_basis_cm2=float(areal) if areal is not None else None,
        design_pos=_design_from(design["positive"], "design.positive") if "positive" in design else None,
        design_neg=_design_from(design["negative"], "design.negative") if "negative" in design else None,
        output_dir=raw.get("output_dir", "."),
        echo=raw,
    )


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class InputFile:
    name: str  # role of the file in the pipeline
    path: str
    sha256: str


@dataclass(frozen=True)
class FitDiagnostics:
    objective: float
    rmse_voltage: float
    rmse_dvdq: float
    converged: bool
    iterations: int
    lam: float
    start_records: tuple[StartRecord, ...]


@dataclass(frozen=True)
class Report:
    """Per-cell machine-readable output of the fitting pipeline."""

    cell_id: str
    seed: int
    theta: ElectrodeParams
    features: FeatureSet
    diagnostics: FitDiagnostics
    inputs: tuple[InputFile, ...]
    config_echo: dict
    schema_version: int = REPORT_SCHEMA_VERSION
    toolkit_version: str = __version__


def diagnostics_from_result(result: FitResult, lam: float) -> FitDiagnostics:
    return FitDiagnostics(
        objective=result.objective,
        rmse_voltage=result.rmse_voltage,
        rmse_dvdq=result.rmse_dvdq,
        converged=result.converged,
        iterations=result.iterations,
        lam=lam,
        start_records=result.start_records,
    )


def _theta_to_obj(theta: ElectrodeParams) -> dict:
    return {
        "qn_tilde": theta.qn_tilde,
        "qp_tilde": theta.qp_tilde,
        "x0_tilde": theta.x0_tilde,
        "y0_tilde": theta.y0_tilde,
        "q_full": theta.q_full,
    }


def _features_to_obj(f: FeatureSet) -> dict:
    areal = None
    if f.areal is not None:
        areal = {
            "q_full": f.areal.q_full,
            "qp_tilde": f.areal.qp_tilde,
            "qn_tilde": f.areal.qn_tilde,
            "q_sei": f.areal.q_sei,
            "q_li": f.areal.q_li,
            "qn_excess": f.areal.qn_excess,
        }
    return {
        "q_sei": f.q_sei,
        "q_li": f.q_li,
        "qn_excess": f.qn_excess,
        "npr_practical": f.npr_practical,
        "npr_conventional": f.npr_conventional,
        "x100_tilde": f.x100_tilde,
        "y100_tilde": f.y100_tilde,
        "q_full": f.q_full,
        "anomalies": list(f.anomalies),
        "areal": areal,
    }


def serialize_report(report: Report) -> str:
    obj = {
        "schema_version": report.schema_version,
        "toolkit_version": report.toolkit_version,
        "cell_id": report.cell_id,
        "seed": report.seed,
        "theta": _theta_to_obj(report.theta),
        "features": _features_to_obj(report.features),
        "fit": {
            "objective": report.diagnostics.objective,
            "rmse_voltage": report.diagnostics.rmse_voltage,
            "rmse_dvdq": report.diagnostics.rmse_dvdq,
            "converged": report.diagnostics.converged,
            "iterations": report.diagnostics.iterations,
            "lambda": report.diagnostics.lam,
            "start_records": [
                {"theta0": list(rec.theta0), "objective": rec.objective}
                for rec in report.diagnostics.start_records
            ],
        },
        "inputs": [
            {"name": f.name, "path": f.path, "sha256": f.sha256} for f in report.inputs
        ],
        "config_echo": report.config_echo,
    }
    return dumps_canonical(obj)


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputDataError(f"report {where}: missing key {key!r}")
    return obj[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputDataError(f"report {where}: expected an object, got {value!r}")
    return value


def _list(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputDataError(f"report {where}: {key!r} must be a list, got {value!r}")
    return value


def _field(obj: dict, key: str, where: str, kind=float):
    """``kind(obj[key])``, with a missing key or a value ``kind`` rejects as InputDataError."""
    value = _require(obj, key, where)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InputDataError(f"report {where}: bad value for {key!r}: {value!r}") from None


def _floats(values) -> tuple:
    return tuple(float(v) for v in values)


def parse_report(text: str) -> Report:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDataError(f"report is not valid JSON: {exc}") from None
    obj = _object(obj, "top level")
    version = _require(obj, "schema_version", "top level")
    if version != REPORT_SCHEMA_VERSION:
        raise InputDataError(f"unsupported report schema_version {version}")
    t = _object(_require(obj, "theta", "top level"), "theta")
    theta = ElectrodeParams(
        qn_tilde=_field(t, "qn_tilde", "theta"),
        qp_tilde=_field(t, "qp_tilde", "theta"),
        x0_tilde=_field(t, "x0_tilde", "theta"),
        y0_tilde=_field(t, "y0_tilde", "theta"),
        q_full=_field(t, "q_full", "theta"),
    )
    f = _object(_require(obj, "features", "top level"), "features")
    areal = None
    if f.get("areal") is not None:
        a = _object(f["areal"], "features.areal")
        areal = ArealFeatures(
            q_full=_field(a, "q_full", "features.areal"),
            qp_tilde=_field(a, "qp_tilde", "features.areal"),
            qn_tilde=_field(a, "qn_tilde", "features.areal"),
            q_sei=_field(a, "q_sei", "features.areal"),
            q_li=_field(a, "q_li", "features.areal"),
            qn_excess=_field(a, "qn_excess", "features.areal"),
        )
    features = FeatureSet(
        q_sei=_field(f, "q_sei", "features"),
        q_li=_field(f, "q_li", "features"),
        qn_excess=_field(f, "qn_excess", "features"),
        npr_practical=_field(f, "npr_practical", "features"),
        npr_conventional=_field(f, "npr_conventional", "features"),
        x100_tilde=_field(f, "x100_tilde", "features"),
        y100_tilde=_field(f, "y100_tilde", "features"),
        q_full=_field(f, "q_full", "features"),
        anomalies=tuple(_list(f, "anomalies", "features")),
        areal=areal,
    )
    d = _object(_require(obj, "fit", "top level"), "fit")
    records = [_object(r, "fit.start_records") for r in _list(d, "start_records", "fit")]
    diagnostics = FitDiagnostics(
        objective=_field(d, "objective", "fit"),
        rmse_voltage=_field(d, "rmse_voltage", "fit"),
        rmse_dvdq=_field(d, "rmse_dvdq", "fit"),
        converged=bool(_require(d, "converged", "fit")),
        iterations=_field(d, "iterations", "fit", kind=int),
        lam=_field(d, "lambda", "fit"),
        start_records=tuple(
            StartRecord(
                theta0=_field(rec, "theta0", "fit.start_records", kind=_floats),
                objective=_field(rec, "objective", "fit.start_records"),
            )
            for rec in records
        ),
    )
    entries = [_object(i, "inputs") for i in _list(obj, "inputs", "top level")]
    inputs = tuple(
        InputFile(*(_require(e, k, "inputs") for k in ("name", "path", "sha256")))
        for e in entries
    )
    return Report(
        cell_id=str(_require(obj, "cell_id", "top level")),
        seed=_field(obj, "seed", "top level", kind=int),
        theta=theta,
        features=features,
        diagnostics=diagnostics,
        inputs=inputs,
        config_echo=obj.get("config_echo", {}),
        schema_version=version,
        toolkit_version=str(obj.get("toolkit_version", "")),
    )


def read_report(path) -> Report:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_report(fh.read())


def write_report(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(report))
