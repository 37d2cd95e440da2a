"""The three studies: MAE matrices, learning curves, preprocessing comparison.

A *matrix run* trains one model per vehicle plus one on the merged training
data, then scores every vehicle's held-out test set against all four models.
Cells are labeled self (model trained on the test vehicle's own training
data), cross (trained solely on another vehicle), or shared (trained on the
merged data).  All errors are mean absolute errors in physical units;
predictions made in dimensionless space are rescaled by the test vehicle's
wheelbase first.

Every study performs a leakage audit: no test record identity may appear
in any training split, or in the merged training data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gbt
from .dataset import Dataset, merge, split
from .features import Pipeline, SCHEME_NAMES, make_pipeline
from .gbt import Ensemble, GbtConfig

MERGED = "MERGED"

# labels the studies give their own models and training sources
RESERVED_NAMES = (MERGED, "own", "merged")

KINDS = ("self", "cross", "shared")

OUTPUT_COLUMNS = {"X": 0, "Y": 1, "theta": 2}

TRAIN_FRACTION = 0.8


def check_vehicles(names: Iterable[str], study: str, vehicle: str | None = None) -> None:
    """Raise ``ValueError`` unless the vehicle names suit the study ("learning
    curve", "matrix run" or "comparative study"): ``vehicle``, the curve's
    vehicle or the comparison's target, is one of them, and a matrix run or
    comparative study has two or more, none of them reserved."""
    names = list(names)
    if vehicle is not None and vehicle not in names:
        role = "target vehicle" if study == "comparative study" else "vehicle"
        raise ValueError(f"unknown {role} {vehicle!r}; known vehicles: {', '.join(names)}")
    if study == "learning curve":
        return
    if len(names) < 2:
        raise ValueError(f"a {study} needs at least two vehicles, got {names}")
    for name in RESERVED_NAMES:
        if name in names:
            raise ValueError(f"vehicle name {name!r} is reserved; rename the vehicle")


def _cell_kind(model_vehicle: str, data_vehicle: str) -> str:
    if model_vehicle == MERGED:
        return "shared"
    return "self" if model_vehicle == data_vehicle else "cross"


@dataclass(frozen=True)
class PredictionCell:
    """MAE of one (model, test vehicle) pairing."""

    model_vehicle: str
    data_vehicle: str
    mae_x: float
    mae_y: float
    mae_theta: float

    @property
    def kind(self) -> str:
        return _cell_kind(self.model_vehicle, self.data_vehicle)

    def maes(self) -> tuple[float, float, float]:
        return (self.mae_x, self.mae_y, self.mae_theta)


@dataclass
class ExperimentReport:
    """All cells of one matrix run plus per-kind summary means."""

    scheme: str
    source: str
    cells: list[PredictionCell]
    summary: dict[str, tuple[float, float, float]]
    config: GbtConfig
    seed: int
    leakage_ok: bool
    notes: str = ""

    def cell(self, model_vehicle: str, data_vehicle: str) -> PredictionCell:
        for c in self.cells:
            if c.model_vehicle == model_vehicle and c.data_vehicle == data_vehicle:
                return c
        raise KeyError((model_vehicle, data_vehicle))


def mae(actual: np.ndarray, predicted: np.ndarray) -> tuple[float, float, float]:
    """Per-output mean absolute error between two (n, 3) pose arrays."""
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"expected (n, 3) poses, got {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty pose lists")
    err = np.abs(a - p).mean(axis=0)
    return (float(err[0]), float(err[1]), float(err[2]))


def audit_no_leakage(
    train_by_model: Mapping[str, Dataset], test_by_vehicle: Mapping[str, Dataset]
) -> list[tuple[str, str]]:
    """Return every (model, test vehicle) pair whose data overlaps."""
    violations = []
    train_keys = {m: set(d.keys()) for m, d in train_by_model.items()}
    for v, test in test_by_vehicle.items():
        test_keys = set(test.keys())
        for m, keys in train_keys.items():
            if keys & test_keys:
                violations.append((m, v))
    return violations


def _split_all(
    datasets: Mapping[str, Dataset], seed: int
) -> tuple[dict[str, Dataset], dict[str, Dataset], Dataset]:
    """Seeded train/test split of every vehicle, plus the merged training
    splits; raises ``RuntimeError`` if a test row's experiment is also in a
    training split."""
    trains: dict[str, Dataset] = {}
    tests: dict[str, Dataset] = {}
    for name, ds in datasets.items():
        trains[name], tests[name] = split(ds, TRAIN_FRACTION, seed)
    merged = merge(list(trains.values()))
    violations = audit_no_leakage({**trains, MERGED: merged}, tests)
    if violations:
        raise RuntimeError(f"train/test leakage detected in cells {violations}")
    return trains, tests, merged


def _fit_model(
    scheme: str, train: Dataset, cfg: GbtConfig, outputs: Sequence[int] = (0, 1, 2)
) -> tuple[Pipeline, tuple[Ensemble, ...]]:
    """One ensemble per requested target column, all fit with the same ``cfg``."""
    pipe = make_pipeline(scheme).fit(train)
    x = pipe.input_matrix(train).values
    y = pipe.target_matrix(train)
    return pipe, tuple(gbt.fit(x, y[:, j], cfg) for j in outputs)


def _predict_physical(
    pipe: Pipeline, ensembles: Sequence[Ensemble], test: Dataset, outputs: Sequence[int] = (0, 1, 2)
) -> np.ndarray:
    """(n, len(outputs)) predictions for the test rows, in physical units."""
    x = pipe.input_matrix(test).values
    return pipe.inverse_targets(np.column_stack([e.predict(x) for e in ensembles]), test, outputs)


def _actual_pose(test: Dataset) -> np.ndarray:
    c = test.columns()
    return np.column_stack([c["X"], c["Y"], c["theta"]])


def run_matrix(
    datasets: Mapping[str, Dataset],
    scheme: str,
    cfg: GbtConfig = GbtConfig(),
    seed: int = 0,
) -> ExperimentReport:
    """Train per-vehicle and merged models; score all test sets on all models."""
    names = list(datasets)
    if not names:
        raise ValueError("no datasets given")
    check_vehicles(names, "matrix run")
    source = datasets[names[0]].source
    trains, tests, merged = _split_all(datasets, seed)
    train_by_model = {**trains, MERGED: merged}
    models = {m: _fit_model(scheme, d, cfg) for m, d in train_by_model.items()}

    cells = []
    for model_name, (pipe, ensembles) in models.items():
        for data_name, test in tests.items():
            predicted = _predict_physical(pipe, ensembles, test)
            mx, my, mth = mae(_actual_pose(test), predicted)
            cells.append(PredictionCell(model_name, data_name, mx, my, mth))

    summary = {
        kind: tuple(
            float(np.mean([c.maes()[j] for c in cells if c.kind == kind])) for j in range(3)
        )
        for kind in KINDS
    }
    notes = "single shared learner config across schemes; comparisons isolate the preprocessing"
    return ExperimentReport(scheme, source, cells, summary, cfg, seed, leakage_ok=True, notes=notes)


@dataclass
class CurvePoint:
    fraction: float
    mae_x: float
    mae_y: float
    mae_theta: float


def check_curve(fractions: Sequence[float], repeats: int) -> None:
    """Raise ``ValueError`` unless repeats >= 1 and fractions holds values in (0, 1], at least one."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not fractions:
        raise ValueError("fractions must not be empty")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")


def learning_curve(
    datasets: Mapping[str, Dataset],
    scheme: str,
    vehicle: str,
    fractions: Sequence[float],
    repeats: int = 5,
    cfg: GbtConfig = GbtConfig(),
    seed: int = 0,
) -> list[CurvePoint]:
    """Self-prediction MAE vs training-set fraction, averaged over repeats.

    The 80/20 split is fixed by ``seed``; each (fraction, repeat) draws its
    own seeded subset of the training split.  At fraction 1.0 every repeat
    uses the whole training split, matching the matrix run's self cell, so
    one fit serves them all.
    """
    check_curve(fractions, repeats)
    check_vehicles(datasets, "learning curve", vehicle)
    trains, tests, _ = _split_all({vehicle: datasets[vehicle]}, seed)
    train, test = trains[vehicle], tests[vehicle]
    actual = _actual_pose(test)
    points = []
    for fi, frac in enumerate(fractions):
        maes = np.zeros((repeats, 3))
        for rep in range(repeats):
            if frac >= 1.0 and rep:
                maes[rep] = maes[0]  # the learner is deterministic: same split, same model
                continue
            if frac >= 1.0:
                sub = train
            else:
                m = int(round(frac * len(train)))
                if m < 2 * cfg.min_samples_leaf:
                    raise ValueError(
                        f"fraction {frac} keeps {m} rows; need >= {2 * cfg.min_samples_leaf}"
                    )
                rng = np.random.default_rng([seed, fi, rep])
                idx = np.sort(rng.choice(len(train), size=m, replace=False))
                sub = train.take(idx)
            pipe, ensembles = _fit_model(scheme, sub, cfg)
            maes[rep] = mae(actual, _predict_physical(pipe, ensembles, test))
        mx, my, mth = maes.mean(axis=0)
        points.append(CurvePoint(float(frac), float(mx), float(my), float(mth)))
    return points


@dataclass
class ComparativeStudy:
    """MAE of one output of one target vehicle under every scheme and training source."""

    training_sources: list[str]
    rows: dict[str, dict[str, float]] = field(default_factory=dict)

    def transfer_mae(self, scheme: str) -> float:
        """Mean MAE over the single-other-vehicle training sources."""
        others = [s for s in self.training_sources if s not in ("own", "merged")]
        return float(np.mean([self.rows[scheme][s] for s in others]))


def comparative_study(
    datasets: Mapping[str, Dataset],
    target_vehicle: str,
    output: str = "Y",
    cfg: GbtConfig = GbtConfig(),
    seed: int = 0,
    schemes: Sequence[str] = SCHEME_NAMES,
) -> ComparativeStudy:
    """Single-output study across schemes x training sources.

    Training sources are the target's own training split, each other
    vehicle's training split, and the merged training data.  Only the
    requested output's ensemble is trained.
    """
    if output not in OUTPUT_COLUMNS:
        raise ValueError(f"output must be one of {list(OUTPUT_COLUMNS)}")
    check_vehicles(datasets, "comparative study", target_vehicle)
    names = list(datasets)
    col = OUTPUT_COLUMNS[output]
    trains, tests, merged = _split_all(datasets, seed)
    test = tests[target_vehicle]
    actual = _actual_pose(test)[:, col]

    sources: dict[str, Dataset] = {"own": trains[target_vehicle]}
    for name in names:
        if name != target_vehicle:
            sources[name] = trains[name]
    sources["merged"] = merged

    study = ComparativeStudy(list(sources))
    for scheme in schemes:
        row = {}
        for label, train_ds in sources.items():
            pipe, ensembles = _fit_model(scheme, train_ds, cfg, (col,))
            physical = _predict_physical(pipe, ensembles, test, (col,))[:, 0]
            row[label] = float(np.mean(np.abs(actual - physical)))
        study.rows[scheme] = row
    return study


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def emit_matrix_report(report: ExperimentReport, directory: str | Path) -> tuple[Path, Path]:
    """Write matrix.csv (machine, full precision) and matrix.md (human)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "matrix.csv"
    md_path = directory / "matrix.md"

    lines = ["model_vehicle,data_vehicle,kind,mae_x,mae_y,mae_theta"]
    for c in report.cells:
        lines.append(
            f"{c.model_vehicle},{c.data_vehicle},{c.kind},"
            f"{c.mae_x!r},{c.mae_y!r},{c.mae_theta!r}"
        )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    vehicles = list(dict.fromkeys(c.data_vehicle for c in report.cells))
    models = list(dict.fromkeys(c.model_vehicle for c in report.cells))
    md = [
        f"# MAE matrix: scheme `{report.scheme}`, source `{report.source}`",
        "",
        f"Seed {report.seed}; learner {report.config}; X and Y in meters, theta in rad.",
        f"Note: {report.notes}.",
        "",
        "| Model \\ Data | " + " | ".join(vehicles) + " |",
        "|---" * (len(vehicles) + 1) + "|",
    ]
    for m in models:
        row = [f"**{m}**" if m == MERGED else m]
        for v in vehicles:
            c = report.cell(m, v)
            body = f"X {_fmt(c.mae_x)} / Y {_fmt(c.mae_y)} / theta {_fmt(c.mae_theta)}"
            row.append(f"**{body}**" if c.kind == "self" else body)
        md.append("| " + " | ".join(row) + " |")
    md += ["", "## Summary (mean MAE per prediction kind)", ""]
    md.append("| kind | X | Y | theta |")
    md.append("|---|---|---|---|")
    for kind in KINDS:
        s = report.summary[kind]
        md.append(f"| {kind} | {_fmt(s[0])} | {_fmt(s[1])} | {_fmt(s[2])} |")
    md_path.write_text("\n".join(md) + "\n", encoding="utf-8")
    return csv_path, md_path


def emit_curve_csv(points: Sequence[CurvePoint], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["fraction,mae_x,mae_y,mae_theta"]
    for p in points:
        lines.append(f"{p.fraction!r},{p.mae_x!r},{p.mae_y!r},{p.mae_theta!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def emit_comparative_csv(study: ComparativeStudy, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ["scheme"] + study.training_sources
    lines = [",".join(header)]
    for scheme, row in study.rows.items():
        lines.append(",".join([scheme] + [repr(row[s]) for s in study.training_sources]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
