"""Parameter sweeps over the lemma checks, with deterministic exports.

An experiment names one lemma and a grid of parameter values; running it
verifies every grid point and collects one row per point.  Row order is the
cartesian product in sorted-key order, so equal configurations always
export byte-identical CSV and JSON.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .lemmas import LEMMAS, verify_lemma
from .serialize import SCHEMA, SchemaError, canonical_json, expect_kind, rows_to_csv


class ExperimentConfig(NamedTuple):
    name: str
    lemma: str
    grid: tuple[tuple[str, tuple], ...]  # sorted (param, values) pairs
    fixed: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def create(name: str, lemma: str, grid: dict, fixed: dict | None = None) -> "ExperimentConfig":
        if not (isinstance(lemma, str) and lemma in LEMMAS):
            raise ValueError(f"unknown lemma {lemma!r}")
        if not grid:
            raise ValueError("grid must name at least one parameter")
        frozen_grid = tuple(
            (key, tuple(values)) for key, values in sorted(grid.items())
        )
        for key, values in frozen_grid:
            if not values:
                raise ValueError(f"grid parameter {key!r} has no values")
        return ExperimentConfig(name, lemma, frozen_grid, tuple(sorted((fixed or {}).items())))

    def points(self):
        keys = [k for k, _ in self.grid]
        for combo in product(*(values for _, values in self.grid)):
            params = dict(self.fixed)
            params.update(zip(keys, combo))
            yield params

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "experiment_config",
            "name": self.name,
            "lemma": self.lemma,
            "grid": {k: list(v) for k, v in self.grid},
            "fixed": dict(self.fixed),
        }

    @staticmethod
    def from_payload(payload, path: str = "$") -> "ExperimentConfig":
        expect_kind(payload, "experiment_config", path)
        for key in ("name", "lemma", "grid"):
            if key not in payload:
                raise SchemaError(f"missing key {key!r}", path)
        grid, fixed = payload["grid"], payload.get("fixed") or {}
        if not (isinstance(grid, dict) and all(isinstance(values, list) for values in grid.values())):
            raise SchemaError("grid must be an object of value lists", f"{path}.grid")
        if not isinstance(fixed, dict):
            raise SchemaError("fixed must be an object", f"{path}.fixed")
        try:
            return ExperimentConfig.create(payload["name"], payload["lemma"], grid, fixed)
        except ValueError as exc:
            raise SchemaError(str(exc), path) from None


class ExperimentResult(NamedTuple):
    config: ExperimentConfig
    rows: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return all(row["ok"] == "yes" for row in self.rows)

    @property
    def fieldnames(self) -> tuple[str, ...]:
        params = sorted({k for k, _ in self.config.grid} | {k for k, _ in self.config.fixed})
        return tuple(params) + ("ok", "failed_checks")

    def to_csv(self) -> str:
        return rows_to_csv(self.fieldnames, self.rows)

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "experiment_result",
            "config": self.config.to_payload(),
            "rows": [dict(row) for row in self.rows],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_payload())


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Verify the lemma at every grid point and tabulate the outcomes."""
    rows = []
    for params in config.points():
        report = verify_lemma(config.lemma, params)
        row = {key: str(value) for key, value in params.items()}
        row["ok"] = "yes" if report.ok else "no"
        row["failed_checks"] = ";".join(c.name for c in report.checks if not c.ok)
        rows.append(row)
    return ExperimentResult(config, tuple(rows))
