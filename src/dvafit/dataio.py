"""File formats: measurement CSVs, toolkit configuration, and reports.

CSV files carry '#'-prefixed ``key = value`` metadata lines (anywhere in
the file), one header row naming the columns, then rows of
comma-separated values in Python ``float()`` syntax; blank lines are
skipped.  The reader converts all data rows with one ``np.loadtxt``
call; whenever that call cannot vouch for the file, a row loop that
reads to the same bits reads it instead and names the line of any
error.  CSVs and reports must be UTF-8.  Reports and configuration are
JSON.  Report serialization is canonical (sorted keys, floats at 17
significant digits), so serialize -> parse -> serialize is
byte-identical and reports diff cleanly under version control.

The report layout is stated once, by the dataclasses: a report is the
fields of :class:`Report`, and its sections are the fields of
``ElectrodeParams`` (``theta``), ``FeatureSet`` with ``ArealFeatures``
(``features``), ``FitDiagnostics`` (``fit``, with ``lam`` written as
``lambda``), ``StartRecord`` and ``InputFile``.  :func:`dumps_canonical`
writes any dataclass or NamedTuple as an object with one key per field,
and :func:`parse_report` reads each field back by its annotation, so a
new field is one edit.  Malformed files and reports raise
``InputDataError``; malformed configuration values raise ``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import typing
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .curves import (
    CapacityVoltageSeries,
    ReferencePotentialCurve,
    SmoothingConfig,
    build_reference_curve,
)
from .errors import ConfigError, InputDataError, require_int
from .features import DesignParams, FeatureSet
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


# Field name -> JSON key, where the two differ.
_RENAMES = {"diagnostics": "fit", "lam": "lambda"}
_REQUIRED, _DEFAULT = object(), object()


@functools.cache
def _record_fields(cls) -> tuple | None:
    """``(name, key, kind, absent)`` per field of a dataclass or NamedTuple,
    or None for any other class.  ``kind`` is the resolved annotation and
    ``absent`` what a missing key reads as: the field's ``when_absent``
    metadata, else ``_DEFAULT`` (the field's default) or ``_REQUIRED``."""
    if dataclasses.is_dataclass(cls):
        fields = [(f.name, f.metadata) for f in dataclasses.fields(cls)]
    elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
        fields = [(name, {}) for name in cls._fields]
    else:
        return None
    hints = typing.get_type_hints(cls)
    params = inspect.signature(cls).parameters
    out = []
    for name, meta in fields:
        absent = _REQUIRED if params[name].default is params[name].empty else _DEFAULT
        out.append((name, _RENAMES.get(name, name), hints[name], meta.get("when_absent", absent)))
    return tuple(out)


def _dumps_canonical(obj, indent=0) -> str:
    pad = "  " * indent
    fields = _record_fields(type(obj))
    if fields is not None:  # a dataclass or NamedTuple: one key per field
        obj = {key: getattr(obj, name) for name, key, _, _ in fields}
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
    """Deterministic JSON text for a tree of JSON values, tuples (written as
    lists), dataclasses and NamedTuples (objects with one key per field,
    renamed per ``_RENAMES``)."""
    return _dumps_canonical(obj) + "\n"


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# CSV parsing


class _CsvFile(typing.NamedTuple):
    meta: dict
    header: str
    header_lineno: int
    data: np.ndarray | None  # every data row, read by one np.loadtxt call
    rows: list | None = None  # (lineno, line) per data row, read by the row loop


def _read_sections(fh, path, rows=None):
    """Read metadata lines and the header line from ``fh``.

    Returns (metadata dict, header, header_lineno).  Without ``rows`` the
    read stops after the header line; with a list, it goes on to the end
    of the file and appends every data row to it as (lineno, line).
    """
    meta = {}
    header = None
    header_lineno = 0
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
            if rows is None:
                break
            continue
        rows.append((lineno, line))
    if header is None:
        raise InputDataError(f"{path}: no header row found")
    return meta, header, header_lineno


def _read_csv_loop(path) -> _CsvFile:
    """The whole file read line by line: the reference reader, which also
    finds the line behind any error."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        meta, header, header_lineno = _read_sections(fh, path, rows)
    return _CsvFile(meta, header, header_lineno, None, rows)


def _read_csv(path) -> _CsvFile:
    """Read a data file: metadata and header line by line, then every data
    row in one ``np.loadtxt`` call on the same handle.

    ``loadtxt`` reads a subset of what the row loop reads (no ``#`` lines
    after the header, no whitespace-only lines, no ``1_000``), and reads
    it to the same bits, since both parse each value with CPython's
    ``PyOS_string_to_double``.  When it raises, or warns (as it does on a
    file with no data rows), the row loop reads the file instead;
    :func:`_csv_rows` also turns to the loop for data of the wrong shape
    or a time axis that does not rise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta, header, header_lineno = _read_sections(fh, path)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                return _CsvFile(meta, header, header_lineno, data)
            except (ValueError, Warning):
                pass
        return _read_csv_loop(path)
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _meta_float(path, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InputDataError(f"{path}: metadata '{key}' must be a number, got {text!r}") from None


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


def _csv_rows(path, csv: _CsvFile, n_cols: int, increasing: bool = False) -> np.ndarray:
    """The data rows of ``csv`` as an (n, n_cols) array; with ``increasing``
    the first column must rise strictly.  Data that ``loadtxt`` read is
    used as it is when it passes; otherwise the row loop parses the file
    and raises its ``path:lineno`` errors."""
    data = csv.data
    if (
        data is not None
        and data.shape[1] == n_cols
        and len(data) > 0
        and not (increasing and np.any(np.diff(data[:, 0]) <= 0))
    ):
        return data
    rows = csv.rows if csv.rows is not None else _read_csv_loop(path).rows
    data = _parse_numeric_rows(path, rows, n_cols)
    if increasing and np.any(np.diff(data[:, 0]) <= 0):
        bad = int(np.argmax(np.diff(data[:, 0]) <= 0))
        raise InputDataError(f"{path}:{rows[bad + 1][0]}: time must be strictly increasing")
    return data


def parse_full_cell(path) -> CapacityVoltageSeries:
    """Read a measured full-cell file.

    Accepts either direct ``capacity_ah,voltage_v`` rows or the cycler
    schema ``time_s,current_a,voltage_v``, in which case capacity is
    reconstructed by trapezoidal integration of current over time.
    """
    csv = _read_csv(path)
    meta, header = csv.meta, csv.header
    direction = meta.get("direction", "charge")
    c_rate = _meta_float(path, "c_rate", meta.get("c_rate", "0"))
    label = meta.get("temperature_label", "")
    q_unit = meta.get("q_unit", "Ah")
    try:
        if header == FULL_CELL_HEADER:
            data = _csv_rows(path, csv, 2)
            q, v = data[:, 0], data[:, 1]
        elif header == FULL_CELL_TIME_HEADER:
            data = _csv_rows(path, csv, 3, increasing=True)
            t, current, v = data[:, 0], data[:, 1], data[:, 2]
            a = np.abs(current)
            charge = np.cumsum(np.diff(t) * (a[1:] + a[:-1]) / 2.0)
            q = np.concatenate(([0.0], charge)) / 3600.0
        else:
            raise InputDataError(
                f"{path}:{csv.header_lineno}: unrecognized header {header!r}; expected "
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
    csv = _read_csv(path)
    meta = csv.meta
    if csv.header != REFERENCE_HEADER:
        raise InputDataError(
            f"{path}:{csv.header_lineno}: unrecognized header {csv.header!r}; "
            f"expected {REFERENCE_HEADER!r}"
        )
    for key in ("electrode_role", "direction"):
        if key not in meta:
            raise InputDataError(f"{path}: missing required metadata line '# {key} = ...'")
    c_rate = _meta_float(path, "c_rate", meta.get("c_rate", "0"))
    data = _csv_rows(path, csv, 2)
    cap, pot = data[:, 0], data[:, 1]
    if "v_min" in meta and "v_max" in meta:
        window = tuple(_meta_float(path, key, meta[key]) for key in ("v_min", "v_max"))
    else:
        window = (float(pot.min()), float(pot.max()))
    try:
        return build_reference_curve(
            cap,
            pot,
            electrode_role=meta["electrode_role"],
            direction=meta["direction"],
            c_rate=c_rate,
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


def _config_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _config_number(value, cast, where: str):
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if cast is int:
        # int() would read 2.7 as 2, true as 1 and "16" as 16.
        require_int(value, where)
    return number


def _bound_pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}: expected [lo, hi], got {value!r}")
    return tuple(_config_number(v, float, where) for v in value)


def _design_from(obj, where: str) -> DesignParams:
    obj = _config_object(obj, where)

    def number(key, cast=float):
        return _config_number(obj[key], cast, f"{where}.{key}")

    try:
        return DesignParams(
            loading_mg_cm2=number("loading_mg_cm2"),
            active_fraction=number("active_fraction"),
            n_faces=number("n_faces", int),
            area_per_face_cm2=number("area_per_face_cm2"),
            q_theor_mah_g=number("q_theor_mah_g"),
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


def _fit_config_from(obj) -> FitConfig:
    obj = _config_object(obj, "fit")
    smoothing = SmoothingConfig(**_config_object(obj.get("smoothing", {}), "fit.smoothing"))
    bounds = None
    if obj.get("bounds") is not None:
        b = _config_object(obj["bounds"], "fit.bounds")
        try:
            bounds = ParameterBounds(
                **{k: _bound_pair(b[k], f"fit.bounds.{k}") for k in ("qn", "qp", "x0", "y0")}
            )
        except KeyError as exc:
            raise ConfigError(f"fit.bounds: missing key {exc}") from None
    present = {
        name: _config_number(obj[key], cast, f"fit.{key}")
        for key, name, cast in _FIT_KEYS
        if key in obj
    }
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

    curves_obj = _config_object(raw.get("reference_curves", {}), "reference_curves")
    base = os.path.dirname(os.path.abspath(path))
    resolved = []
    for role in ("positive", "negative"):
        p = curves_obj.get(role, "")
        if not p:
            raise ConfigError(
                f"{path}: reference_curves.positive and .negative paths are required"
            )
        if not isinstance(p, str):
            raise ConfigError(f"reference_curves.{role}: expected a path, got {p!r}")
        full = p if os.path.isabs(p) else os.path.join(base, p)
        if not os.path.exists(full):
            raise ConfigError(f"{path}: referenced file does not exist: {p}")
        resolved.append(full)

    try:
        fit_cfg = _fit_config_from(raw.get("fit", {}))
    except TypeError as exc:
        raise ConfigError(f"{path}: bad fit settings: {exc}") from None

    areal = raw.get("areal_basis_cm2")
    if areal is not None:
        areal = _config_number(areal, float, "areal_basis_cm2")
    design = _config_object(raw.get("design") or {}, "design")
    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a path, got {output_dir!r}")
    return ToolkitConfig(
        u_pos_path=resolved[0],
        u_neg_path=resolved[1],
        fit=fit_cfg,
        areal_basis_cm2=areal,
        design_pos=_design_from(design["positive"], "design.positive") if "positive" in design else None,
        design_neg=_design_from(design["negative"], "design.negative") if "negative" in design else None,
        output_dir=output_dir,
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
    start_records: tuple[StartRecord, ...] = ()


@dataclass(frozen=True)
class Report:
    """Per-cell machine-readable output of the fitting pipeline; its fields
    are the report format (see the module docstring)."""

    cell_id: str
    seed: int
    theta: ElectrodeParams
    features: FeatureSet
    diagnostics: FitDiagnostics
    inputs: tuple[InputFile, ...] = ()
    config_echo: dict = field(default_factory=dict)
    schema_version: int = REPORT_SCHEMA_VERSION
    # Reports written without a version read back as "".
    toolkit_version: str = field(default=__version__, metadata={"when_absent": ""})


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


def serialize_report(report: Report) -> str:
    return dumps_canonical(report)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputDataError(f"report {where}: expected an object, got {value!r}")
    return value


def _path(where: str, key: str) -> str:
    return key if where == "top level" else f"{where}.{key}"


@functools.cache
def _origin_and_args(kind) -> tuple:
    return typing.get_origin(kind), typing.get_args(kind)


def _decode(kind, value, where: str, key: str):
    """``value``, found under ``key`` of the object at ``where``, read as ``kind``."""
    origin, args = _origin_and_args(kind)
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value, where, key)
    if origin is tuple and args[-1] is Ellipsis:
        if not isinstance(value, list):
            raise InputDataError(f"report {where}: {key!r} must be a list, got {value!r}")
        return tuple(_decode(args[0], v, where, key) for v in value)
    if origin is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise InputDataError(f"report {where}: bad value for {key!r}: {value!r}")
        return tuple(_decode(k, v, where, key) for k, v in zip(args, value))
    if kind is dict:
        return _object(value, _path(where, key))
    if _record_fields(kind) is not None:
        return _read_record(kind, value, _path(where, key))
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputDataError(f"report {where}: bad value for {key!r}: {value!r}") from None


def _read_record(cls, value, where: str):
    obj = _object(value, where)
    fields = _record_fields(cls)
    for _, key, _, absent in fields:
        if absent is _REQUIRED and key not in obj:
            raise InputDataError(f"report {where}: missing key {key!r}")
    return cls(
        **{
            name: _decode(kind, obj[key], where, key) if key in obj else absent
            for name, key, kind, absent in fields
            if key in obj or absent is not _DEFAULT
        }
    )


def parse_report(text: str) -> Report:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDataError(f"report is not valid JSON: {exc}") from None
    obj = _object(obj, "top level")
    if "schema_version" not in obj:
        raise InputDataError("report top level: missing key 'schema_version'")
    version = obj["schema_version"]
    if version != REPORT_SCHEMA_VERSION:
        raise InputDataError(f"unsupported report schema_version {version}")
    return _read_record(Report, obj, "top level")


def read_report(path) -> Report:
    """Read a report file; the error for a malformed one names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return parse_report(text)
    except InputDataError as exc:
        raise InputDataError(f"{path}: {exc}") from None


def write_report(report: Report, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(report))
