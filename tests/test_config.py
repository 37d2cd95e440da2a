import pytest

from pibrake.config import DEFAULT_FRACTIONS, RunConfig, load_run_config
from pibrake.dimensions import FORCE


def test_defaults_without_file():
    cfg = load_run_config(None)
    assert cfg.source == "kinematic"
    assert cfg.scheme == "pi"
    assert set(cfg.vehicles) == {"small", "long", "large"}
    assert cfg.gbt.n_rounds >= 1
    assert cfg.fractions == DEFAULT_FRACTIONS
    assert cfg.data_dir == cfg.out_dir / "data"


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_run_config(tmp_path / "nope.conf")


def test_full_file_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        """
[run]
source = surrogate
scheme = pi-aug
seed = 11
out = results

[gbt]
rounds = 42
lr = 0.2
depth = 5
min_samples_leaf = 3

[vehicles]
one = 0.5, 20, 30

[curve]
fractions = 0.1, 0.5
repeats = 3

[compare]
target = one
output = theta

[grid.kinematic]
v_i = 0.5, 2.0, 4

[grid.surrogate]
mu = 0.3, 0.6
v_i = 1.0, 2.0, 3

[variables]
F = M L T^-2
"""
    )
    cfg = load_run_config(path)
    assert cfg.source == "surrogate"
    assert cfg.scheme == "pi-aug"
    assert cfg.seed == 11
    assert str(cfg.out_dir) == "results"
    assert cfg.gbt.n_rounds == 42
    assert cfg.gbt.learning_rate == 0.2
    assert cfg.gbt.max_depth == 5
    assert list(cfg.vehicles) == ["one"]
    assert cfg.vehicles["one"].wheelbase_l == 0.5
    assert cfg.fractions == (0.1, 0.5)
    assert cfg.repeats == 3
    assert cfg.target_vehicle == "one"
    assert cfg.target_output == "theta"
    assert cfg.grids["kinematic"]["v_i"] == (0.5, 2.0, 4)
    assert cfg.grids["kinematic"]["a_g"] == RunConfig().grids["kinematic"]["a_g"]  # untouched default
    assert cfg.grids["surrogate"]["mu"] == (0.3, 0.6)
    assert cfg.variables[0].name == "F"
    assert cfg.variables[0].dimension == FORCE


def test_bad_vehicle_line(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("[vehicles]\nbad = 1.0, 2.0\n")
    with pytest.raises(ValueError, match="l, Nf, Nr"):
        load_run_config(path)


@pytest.mark.parametrize(
    "text, names",
    [
        ("[gbt]\nround = 5\n", ["'round'", "[gbt]"]),
        ("[run]\nschme = pi-aug\n", ["'schme'", "[run]"]),
        ("[grid.kinematic]\nvi = 1, 2, 3\n", ["'vi'", "[grid.kinematic]"]),
        ("[bogus]\nx = 1\n", ["[bogus]"]),
        ("[DEFAULT]\nseed = 1\n", ["[DEFAULT]"]),
        ("[run]\nscheme = autoencoder\n", ["scheme", "'autoencoder'"]),
        ("[run]\nsource = lidar\n", ["source", "'lidar'"]),
        ("[gbt]\nsubsample = 0.9\n", ["'subsample'", "[gbt]"]),
        ("[gbt]\nseed = 1\n", ["'seed'", "[gbt]"]),
        ("[grid.kinematic]\nv_i = 0.1, 5.0, 0\n", ["[grid.kinematic] v_i", ">= 1", "'0'"]),
        ("[grid.surrogate]\nmu =\n", ["[grid.surrogate] mu", "at least one value"]),
        ("[grid.kinematic]\nv_i = 0.1, 5.0, 2.5\n", ["[grid.kinematic] v_i", "whole number", "'2.5'"]),
        ("[gbt]\nrounds = ten\n", ["[gbt] rounds", "'ten'"]),
        ("[gbt]\nrounds = 0\n", ["[gbt] rounds", "n_rounds must be >= 1"]),
        ("[gbt]\nlr = 1.5\n", ["[gbt] lr", "learning_rate must be in (0, 1]"]),
        ("[run]\nseed = 1.5\n", ["[run] seed", "'1.5'"]),
        ("[curve]\nrepeats = many\n", ["[curve] repeats", "'many'"]),
        ("[vehicles]\nsmall = 0.345, x, 28.84\n", ["[vehicles] small", "'x'"]),
        ("[vehicles]\nsmall = 0.345, -1.0, 28.84\n", ["[vehicles] small", "must all be positive"]),
        ("[vehicles]\n", ["[vehicles] lists no vehicle"]),
        ("[variables]\nN_f = M Q\n", ["[variables] N_f", "unknown base dimension 'Q'"]),
        ("[variables]\nx = L^y\n", ["[variables] x", "'y'"]),
        ("[run]\nseed = -1\n", ["[run] seed", "must be >= 0, got -1"]),
        ("[compare]\noutput = Z\n", ["[compare] output", "'Z'", "('X', 'Y', 'theta')"]),
        ("[grid.kinematic]\nv_i = 1.0, 1.0, 4\n", ["[grid.kinematic] v_i", "repeats a value", "'1.0, 1.0, 4'"]),
        ("[grid.surrogate]\nmu = 0.2, 0.4, 0.2\n", ["[grid.surrogate] mu", "repeats a value"]),
        ("[grid.kinematic]\na_g = 0.5, -0.5, 3\n", ["[grid.kinematic] a_g", "-0.5 is out of range"]),
        ("[grid.kinematic]\nv_i = 1.0, inf, 3\n", ["[grid.kinematic] v_i", "finite", "'1.0, inf, 3'"]),
    ],
)
def test_unknown_or_invalid_entries_rejected(tmp_path, text, names):
    path = tmp_path / "run.conf"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_run_config(path)
    for name in names + [str(path)]:
        assert name in str(err.value)


def test_grid_axis_range_checks_only_the_values_taken(tmp_path):
    path = tmp_path / "run.conf"
    # a one-point linspace takes only its start; every listed value is checked
    path.write_text("[grid.kinematic]\nv_i = 1.0, 0.0, 1\n[grid.surrogate]\nmu = 0.2, 1.5\ndelta = -0.5, 0.5\n")
    cfg = load_run_config(path)
    assert cfg.grids["kinematic"]["v_i"] == (1.0, 0.0, 1)
    assert cfg.grids["surrogate"]["mu"] == (0.2, 1.5)
    path.write_text("[grid.surrogate]\ndelta = 0.5, -1.6\n")
    with pytest.raises(ValueError, match=r"\[grid.surrogate\] delta: -1.6 is out of range: .*\|delta\| < pi/2"):
        load_run_config(path)
