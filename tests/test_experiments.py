import numpy as np
import pytest

from pibrake import gbt
from pibrake.dataset import DEFAULT_VEHICLES, kinematic_grid, merge, split, surrogate_grid
from pibrake.experiments import (
    MERGED,
    RESERVED_NAMES,
    PredictionCell,
    audit_no_leakage,
    comparative_study,
    emit_comparative_csv,
    emit_curve_csv,
    emit_matrix_report,
    learning_curve,
    mae,
    run_matrix,
)
from pibrake.features import SCHEME_NAMES
from pibrake.gbt import GbtConfig
from pibrake.simulator import VehicleSpec

TINY_GRID = {"v_i": (0.5, 4.0, 8), "a_g": (0.2, 1.0, 5), "delta": (0.0, 0.7854, 5)}
FAST_CFG = GbtConfig(n_rounds=30, min_samples_leaf=2)


@pytest.fixture(scope="module")
def tiny_datasets():
    return {name: kinematic_grid(v, grid=TINY_GRID) for name, v in DEFAULT_VEHICLES.items()}


@pytest.fixture(scope="module")
def tiny_report(tiny_datasets):
    return run_matrix(tiny_datasets, "pi", FAST_CFG, seed=0)


def test_mae_basics():
    a = np.array([(0, 0, 0), (2, 1, 0.5)])
    assert mae(a, a) == (0.0, 0.0, 0.0)
    p = np.array([(1, 0, 0), (1, 1, 0.5)])
    assert mae(a, p) == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        mae(a, p[:1])
    with pytest.raises(ValueError, match="empty"):
        mae(np.empty((0, 3)), np.empty((0, 3)))
    # one column, as the comparative study scores its single output
    assert mae(a[:, 1:2], np.array([(0.5,), (2.0,)])) == (0.75,)
    with pytest.raises(ValueError, match=r"\(n, k\)"):
        mae(a[:, 1], p[:, 1])


def test_cell_kind_enforced():
    # the kind is derived from the pairing, so a wrong one cannot be passed
    assert PredictionCell("small", "small", 0.1, 0.1, 0.1).kind == "self"
    assert PredictionCell("small", "large", 0.1, 0.1, 0.1).kind == "cross"
    assert PredictionCell(MERGED, "small", 0.1, 0.1, 0.1).kind == "shared"
    with pytest.raises(TypeError):
        PredictionCell("small", "small", 0.1, 0.1, 0.1, "cross")


def test_matrix_shape_and_kinds(tiny_report):
    assert len(tiny_report.cells) == 12
    kinds = [c.kind for c in tiny_report.cells]
    assert kinds.count("self") == 3
    assert kinds.count("cross") == 6
    assert kinds.count("shared") == 3
    for c in tiny_report.cells:
        if c.kind == "shared":
            assert c.model_vehicle == MERGED
        if c.kind == "self":
            assert c.model_vehicle == c.data_vehicle


def test_matrix_summary_recomputes_from_cells(tiny_report):
    for kind in ("self", "cross", "shared"):
        cells = [c for c in tiny_report.cells if c.kind == kind]
        for j, got in enumerate(tiny_report.summary[kind]):
            assert got == pytest.approx(np.mean([c.maes()[j] for c in cells]), rel=1e-12)


def test_matrix_deterministic(tiny_datasets, tiny_report):
    again = run_matrix(tiny_datasets, "pi", FAST_CFG, seed=0)
    assert again.cells == tiny_report.cells
    other_seed = run_matrix(tiny_datasets, "pi", FAST_CFG, seed=1)
    assert other_seed.cells != tiny_report.cells


def test_matrix_audits_leakage(tiny_report):
    assert tiny_report.leakage_ok


def test_audit_catches_overlap(tiny_datasets):
    ds = tiny_datasets["small"]
    train, test = split(ds, 0.8, seed=0)
    assert audit_no_leakage({"m": train}, {"small": test}) == []
    dirty = merge([train, test.take(np.array([0]))])
    assert audit_no_leakage({"m": dirty}, {"small": test}) == [("m", "small")]


@pytest.mark.parametrize("study", ["matrix", "curve", "compare"])
def test_every_study_rejects_a_test_row_it_trains_on(tiny_datasets, study):
    datasets = dict(tiny_datasets)
    # every row of "small" twice: some row lands in both its training and its test split
    datasets["small"] = merge([datasets["small"], datasets["small"]])
    with pytest.raises(RuntimeError, match=r"train/test leakage detected in cells \[.*\('small', 'small'\)"):
        if study == "matrix":
            run_matrix(datasets, "pi", FAST_CFG, seed=0)
        elif study == "curve":
            learning_curve(datasets, "pi", "small", [1.0], repeats=1, cfg=FAST_CFG, seed=0)
        else:
            comparative_study(datasets, "small", "Y", FAST_CFG, seed=0, schemes=("pi",))


def test_audit_key_covers_vehicle_geometry():
    grid = {"v_i": (1.0, 2.0, 2), "a_g": (0.5, 1.0, 2), "delta": (0.0, 0.3, 2)}
    short = kinematic_grid(VehicleSpec("v", 0.3, 10.0, 10.0), step=1e-3, grid=grid)
    long = kinematic_grid(VehicleSpec("v", 0.6, 10.0, 10.0), step=1e-3, grid=grid)
    assert audit_no_leakage({"m": short}, {"v": long}) == []


def test_matrix_rejects_empty():
    with pytest.raises(ValueError, match="no datasets"):
        run_matrix({}, "pi", FAST_CFG, seed=0)


def test_learning_curve_fraction_one_matches_matrix(tiny_datasets, tiny_report):
    points = learning_curve(
        tiny_datasets, "pi", "large", fractions=[1.0], repeats=2, cfg=FAST_CFG, seed=0
    )
    cell = tiny_report.cell("large", "large")
    assert points[0].mae_x == pytest.approx(cell.mae_x, rel=1e-12)
    assert points[0].mae_y == pytest.approx(cell.mae_y, rel=1e-12)
    assert points[0].mae_theta == pytest.approx(cell.mae_theta, rel=1e-12)


def test_learning_curve_fits_the_whole_split_once(tiny_datasets, monkeypatch):
    kw = dict(fractions=[0.5, 1.0], repeats=3, cfg=FAST_CFG, seed=0)
    before = learning_curve(tiny_datasets, "pi", "small", **kw)
    calls = []
    original = gbt.fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gbt, "fit", counting_fit)
    assert learning_curve(tiny_datasets, "pi", "small", **kw) == before
    # 3 subsets at 0.5 plus one model of the whole split, each fit on its 3 outputs at once
    assert len(calls) == 3 + 1


def test_learning_curve_validation(tiny_datasets, monkeypatch):
    with pytest.raises(ValueError, match="fractions"):
        learning_curve(tiny_datasets, "pi", "small", [0.0], repeats=1, cfg=FAST_CFG, seed=0)
    with pytest.raises(ValueError, match="repeats"):
        learning_curve(tiny_datasets, "pi", "small", [0.5], repeats=0, cfg=FAST_CFG, seed=0)
    calls = []
    original = gbt.fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gbt, "fit", counting_fit)
    # a fraction that keeps too few rows fails before any fraction is fit
    with pytest.raises(ValueError, match="fraction 0.01 keeps 2 rows"):
        learning_curve(tiny_datasets, "pi", "small", [0.5, 0.01], repeats=2, cfg=FAST_CFG, seed=0)
    assert calls == []


def test_learning_curve_deterministic(tiny_datasets):
    kw = dict(fractions=[0.3, 1.0], repeats=2, cfg=FAST_CFG, seed=3)
    a = learning_curve(tiny_datasets, "pi", "small", **kw)
    b = learning_curve(tiny_datasets, "pi", "small", **kw)
    assert a == b


def test_comparative_study_shape(tiny_datasets):
    study = comparative_study(tiny_datasets, "large", "Y", FAST_CFG, seed=0)
    assert set(study.rows) == set(SCHEME_NAMES)
    assert study.training_sources == ["own", "small", "long", "merged"]
    for row in study.rows.values():
        assert set(row) == {"own", "small", "long", "merged"}
        assert all(v >= 0 for v in row.values())
    assert study.transfer_mae("pi") == pytest.approx(
        (study.rows["pi"]["small"] + study.rows["pi"]["long"]) / 2
    )


def test_comparative_study_validation(tiny_datasets):
    with pytest.raises(ValueError, match="output"):
        comparative_study(tiny_datasets, "large", "Z", FAST_CFG, seed=0)
    with pytest.raises(ValueError, match="target"):
        comparative_study(tiny_datasets, "huge", "Y", FAST_CFG, seed=0)


@pytest.mark.parametrize("study", ["matrix", "compare"])
@pytest.mark.parametrize("name", RESERVED_NAMES)
def test_reserved_vehicle_names_rejected(tiny_datasets, name, study):
    datasets = dict(tiny_datasets)
    datasets[name] = datasets.pop("long")
    with pytest.raises(ValueError, match=f"vehicle name '{name}' is reserved"):
        if study == "matrix":
            run_matrix(datasets, "pi", FAST_CFG, seed=0)
        else:
            comparative_study(datasets, "large", "Y", FAST_CFG, seed=0, schemes=("pi",))


def test_emit_matrix_report(tiny_report, tmp_path):
    csv_path, md_path = emit_matrix_report(tiny_report, tmp_path / "rep")
    csv_text = csv_path.read_text()
    assert csv_text.splitlines()[0] == "model_vehicle,data_vehicle,kind,mae_x,mae_y,mae_theta"
    assert len(csv_text.splitlines()) == 13
    md = md_path.read_text()
    # self cells flagged bold
    small_self = tiny_report.cell("small", "small")
    assert f"**X {small_self.mae_x:.4f}" in md
    # byte-identical re-emit
    before = (csv_path.read_bytes(), md_path.read_bytes())
    emit_matrix_report(tiny_report, tmp_path / "rep")
    assert (csv_path.read_bytes(), md_path.read_bytes()) == before


def test_emit_curve_csv(tiny_datasets, tmp_path):
    points = learning_curve(tiny_datasets, "pi", "small", [0.5, 1.0], repeats=1, cfg=FAST_CFG, seed=0)
    path = emit_curve_csv(points, tmp_path / "curves" / "small.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "fraction,mae_x,mae_y,mae_theta"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == 0.5


def test_emit_comparative_csv(tiny_datasets, tmp_path):
    study = comparative_study(tiny_datasets, "large", "Y", FAST_CFG, seed=0, schemes=("baseline", "pi"))
    path = emit_comparative_csv(study, tmp_path / "comparative.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,own,small,long,merged"
    assert lines[1].startswith("baseline,")
    again = emit_comparative_csv(study, tmp_path / "comparative.csv")
    assert again.read_text().splitlines() == lines


def test_surrogate_matrix_runs_end_to_end():
    tiny_sur = {"mu": (0.2, 0.9), "v_i": (1.0, 3.0, 4), "a_g": (0.2, 1.0, 4), "delta": (0.0, 0.7854)}
    datasets = {
        name: surrogate_grid(v, seed=0, grid=tiny_sur) for name, v in DEFAULT_VEHICLES.items()
    }
    report = run_matrix(datasets, "pi-aug", FAST_CFG, seed=0)
    assert report.source == "surrogate"
    assert len(report.cells) == 12
