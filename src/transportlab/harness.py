"""Experiment runner: named experiments bound to the acceptance checks.

Everything a run produces is a pure function of (config, seed): reports
carry no timestamps or entropy, so re-running an identical config yields
byte-identical CSV and JSON artifacts.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, asdict

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ReportRow",
    "ConfigError",
    "run_experiment",
    "list_experiments",
    "emit_plot_data",
    "load_config",
]


class ConfigError(ValueError):
    pass


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _finite(v):
    """True for a finite real number that is not a bool."""
    return not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)


def _positive(v, integer=False):
    """True for a finite number above 0 that is not a bool, and integral if
    ``integer``."""
    return _finite(v) and v > 0 and (not integer or int(v) == v)


def _unlike_stock(v, stock):
    """The kind ``v`` lacks to replace the stock value ``stock``, or None: an
    integer for an integer, a finite number for a number, a non-empty list of
    finite numbers for a list.  Other stock kinds are not checked."""
    if isinstance(stock, numbers.Integral):
        return None if _finite(v) and isinstance(v, numbers.Integral) else "an integer"
    if isinstance(stock, numbers.Real):
        return None if _finite(v) else "a finite number"
    if isinstance(stock, list):
        ok = isinstance(v, list) and v and all(_finite(x) for x in v)
        return None if ok else "a non-empty list of finite numbers"
    return None


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = None
    out_dir: str = "runs"
    drift: dict | None = None
    grid: dict = field(default_factory=dict)
    ensemble: int | None = None
    ladders: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def validate(self):
        if not self.experiment:
            raise ConfigError("experiment: missing id")
        if self.seed is None:
            raise ConfigError("seed: required, no entropy defaults")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed: must be a non-negative integer, got {self.seed!r}")
        for table in ("grid", "ladders", "extra"):
            if not isinstance(getattr(self, table), dict):
                raise ConfigError(f"{table}: must be a table, got {getattr(self, table)!r}")
        for name, ladder in self.ladders.items():
            if not isinstance(ladder, (list, tuple)) or not ladder:
                raise ConfigError(f"ladders.{name}: must be a non-empty list, got {ladder!r}")
            if not all(_positive(v) for v in ladder):
                raise ConfigError(f"ladders.{name}: entries must be positive finite numbers, got {ladder}")
            up = all(b > a for a, b in zip(ladder, ladder[1:]))
            down = all(b < a for a, b in zip(ladder, ladder[1:]))
            if not (up or down):
                raise ConfigError(f"ladders.{name}: must be sorted, got {ladder}")
        for key, v in self.grid.items():
            if key in ("L", "dt", "T") and not _positive(v):
                raise ConfigError(f"grid.{key}: must be positive and finite, got {v!r}")
            if key in ("n_x", "n_t") and not _positive(v, integer=True):
                raise ConfigError(f"grid.{key}: must be a positive integer, got {v!r}")
        if self.ensemble is not None and not _positive(self.ensemble, integer=True):
            raise ConfigError(f"ensemble: must be a positive integer, got {self.ensemble!r}")
        return self

    def to_dict(self):
        return asdict(self)


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config(experiment=None, path=None, overrides=()):
    """Assemble a config: experiment defaults <- JSON file <- --set overrides."""
    from . import drift as _drift
    from . import experiments as _exp

    data = {}
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
    if experiment is None:
        experiment = data.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: not given on the command line nor in the file")
    spec = _exp.get(experiment)
    merged = _deep_merge(spec.defaults, data)
    merged["experiment"] = experiment
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        node = merged
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {p} is not a table")
        node[parts[-1]] = _parse_value(raw)
    known = {"experiment", "seed", "out_dir", "drift", "grid", "ensemble", "ladders", "extra"}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    config = ExperimentConfig(**merged).validate()
    # the experiments read grid and extra values unchecked: an override must have
    # the stock value's kind, and a key the stock config lacks is read by none
    for table in ("grid", "extra"):
        stock = spec.defaults.get(table, {})
        for key, v in getattr(config, table).items():
            if key not in stock:
                raise ConfigError(f"{table}.{key}: {experiment} reads no such key; its {table} keys are {sorted(stock)}")
            kind = _unlike_stock(v, stock[key])
            if kind:
                raise ConfigError(f"{table}.{key}: must be {kind} like its stock value {stock[key]!r}, got {v!r}")
    if config.drift is not None:
        try:
            _drift.drift_from_dict(config.drift)
        except _drift.DriftError as exc:
            raise ConfigError(f"drift: {exc}") from exc
    return config


@dataclass
class ReportRow:
    name: str
    params: dict
    measured: float
    expected: str
    tolerance: str
    passed: bool


@dataclass
class ExperimentReport:
    experiment: str
    config: dict
    rows: list
    series: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_time: float | None = None  # in-memory only, never serialized

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config": self.config,
            "rows": [asdict(r) for r in self.rows],
            "series": {k: [[float(a), float(b)] for a, b in v] for k, v in self.series.items()},
            "artifacts": list(self.artifacts),
            "all_pass": self.all_pass,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["experiment", "name", "params", "measured", "expected", "tolerance", "pass"])
        for r in self.rows:
            params = ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.params.items()))
            writer.writerow(
                [self.experiment, r.name, params, _fmt(r.measured), r.expected,
                 r.tolerance, "pass" if r.passed else "FAIL"]
            )
        return buf.getvalue()

    def write(self, out_dir=None):
        base = out_dir or self.config.get("out_dir", "runs")
        folder = os.path.join(base, self.experiment)
        os.makedirs(folder, exist_ok=True)
        csv_path = os.path.join(folder, "report.csv")
        json_path = os.path.join(folder, "report.json")
        with open(csv_path, "w") as fh:
            fh.write(self.to_csv())
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        self.artifacts = [csv_path, json_path]
        return csv_path, json_path


def run_experiment(config: ExperimentConfig, write=True) -> ExperimentReport:
    """Execute the registered pipeline for config.experiment."""
    from . import experiments as _exp

    config.validate()
    spec = _exp.get(config.experiment)
    start = time.perf_counter()
    rows, series = spec.fn(config)
    report = ExperimentReport(
        experiment=config.experiment,
        config=config.to_dict(),
        rows=rows,
        series=series,
    )
    report.wall_time = time.perf_counter() - start
    if write:
        report.write()
    return report


def list_experiments():
    """(id, description, acceptance criterion) for every registered pipeline."""
    from . import experiments as _exp

    return [(s.id, s.description, s.criterion) for s in _exp.all_specs()]


def emit_plot_data(report, series, fileobj):
    """Two-column CSV of a named series, ready for external plotting."""
    if isinstance(report, (str, os.PathLike)):
        with open(report) as fh:
            payload = json.load(fh)
        series_map = payload.get("series", {})
    else:
        series_map = report.series
    if series not in series_map and series_map:
        known = ", ".join(sorted(series_map))
        raise ConfigError(f"unknown series {series!r}; report has: {known}")
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["x", "y"])
    for x, y in series_map.get(series, ()):
        writer.writerow([_fmt(float(x)), _fmt(float(y))])
