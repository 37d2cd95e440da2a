from pathlib import Path

import pytest

from pibrake.cli import _resolve_config, build_parser, main
from pibrake.config import RunConfig, load_run_config
from pibrake.dataset import GRIDS, SOURCES, load_csv

TINY_CONF = """
[run]
source = kinematic
scheme = pi
seed = 0

[gbt]
rounds = 20
depth = 3
min_samples_leaf = 2

[vehicles]
small = 0.345, 37.77, 28.84
large = 0.475, 71.12, 71.12

[curve]
fractions = 0.5, 1.0
repeats = 2

[grid.kinematic]
v_i = 0.5, 3.0, 6
a_g = 0.2, 1.0, 4
delta = 0.0, 0.7854, 4

[grid.surrogate]
mu = 0.2, 0.9
v_i = 1.0, 3.0, 3
a_g = 0.2, 1.0, 4
delta = 0.0, 0.7854
"""


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "tiny.conf"
    path.write_text(TINY_CONF)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "gen" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert run("gen", "--frobnicate") == 1
    assert run("bogus-command") == 1


def test_gen_writes_datasets(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--out", out) == 0
    text = capsys.readouterr().out
    assert "small: 96 records" in text
    small = out / "data" / "kinematic" / "small.csv"
    assert small.exists()
    first = small.read_bytes()
    assert run("gen", "--config", conf, "--out", out) == 0
    assert small.read_bytes() == first


@pytest.mark.parametrize(
    "source, section, line",
    [
        ("kinematic", "grid.kinematic", "v_i = 0.1, 5.0, 0"),
        ("surrogate", "grid.surrogate", "mu ="),
        ("kinematic", "grid.kinematic", "v_i = 0.1, 5.0, 2.5"),
        ("kinematic", "grid.kinematic", "v_i = 0.0, 5.0, 3"),
        ("kinematic", "grid.kinematic", "a_g = 0.0, 1.0, 3"),
        ("kinematic", "grid.kinematic", "delta = 0.0, 1.6, 3"),
        ("surrogate", "grid.surrogate", "mu = 2.0"),
        ("kinematic", "grid.kinematic", "v_i = 1.0, 1.0, 4"),
        ("surrogate", "grid.surrogate", "delta = 0.0, 0.0"),
    ],
)
def test_gen_with_a_bad_grid_axis_fails_and_writes_nothing(tmp_path, capsys, source, section, line):
    conf = tmp_path / "grid.conf"
    conf.write_text(f"[{section}]\n{line}\n")
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--source", source, "--out", out) == 2
    err = capsys.readouterr().err
    assert str(conf) in err and f"[{section}] {line.split()[0]}" in err
    assert not out.exists()


@pytest.mark.parametrize("source", SOURCES)
def test_default_grid_as_config_text_reads_back_and_gens_the_same_bytes(tmp_path, source):
    lines = [f"{axis} = {', '.join(map(repr, spec))}" for axis, spec in GRIDS[source].items()]
    conf = tmp_path / "grid.conf"
    conf.write_text(f"[grid.{source}]\n" + "\n".join(lines) + "\n")
    assert load_run_config(conf).grids == RunConfig().grids
    vehicles = tmp_path / "vehicles.conf"
    vehicles.write_text("[vehicles]\nsmall = 0.345, 37.77, 28.84\n")
    for out, config in (("table", []), ("text", ["--config", conf])):
        assert run("gen", *config, "--vehicles", vehicles, "--source", source, "--out", tmp_path / out) == 0
    csv = Path("data", source, "small.csv")
    assert (tmp_path / "text" / csv).read_bytes() == (tmp_path / "table" / csv).read_bytes()


def test_gen_surrogate_counts(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--out", out, "--source", "surrogate", "--seed", 7) == 0
    assert "small: 48 records" in capsys.readouterr().out


def test_pi_kinematic_basis(capsys):
    assert run("pi", "--set", "kinematic", "--repeated", "l,v_i") == 0
    text = capsys.readouterr().out
    assert "N - P = 7 - 2 = 5" in text
    assert "pi_4 = v_i^-2 a l" in text
    assert text.count("pi_") == 5


def test_pi_dynamic_basis(capsys):
    assert run("pi", "--set", "dynamic", "--repeated", "l,v_i,N_f") == 0
    text = capsys.readouterr().out
    assert "N - P = 11 - 3 = 8" in text
    assert text.count("pi_") == 8


def test_pi_nullspace_method(capsys):
    assert run("pi", "--set", "dynamic", "--method", "nullspace") == 0
    text = capsys.readouterr().out
    assert "method: nullspace" in text
    assert text.count("pi_") == 8


def test_pi_custom_variables(tmp_path, capsys):
    conf = tmp_path / "vars.conf"
    conf.write_text("[variables]\nE = M L^2 T^-2\nm = M\nc = L T^-1\n")
    assert run("pi", "--set", "custom", "--config", conf) == 0
    text = capsys.readouterr().out
    assert "N - P = 3 - 2 = 1" in text


def test_pi_repeated_names_are_stripped(capsys):
    assert run("pi", "--set", "kinematic", "--repeated", "l, v_i") == 0
    assert "method: repeated variables {l, v_i}" in capsys.readouterr().out


def test_pi_empty_repeated_is_the_empty_set(tmp_path, capsys):
    assert run("pi", "--set", "kinematic", "--repeated", "") == 2
    assert "repeated set has 0 variables but the dimension matrix has rank 2" in capsys.readouterr().err
    conf = tmp_path / "ratios.conf"
    conf.write_text("[variables]\nr = 1\nq = 1\n")
    assert run("pi", "--set", "custom", "--config", conf, "--repeated", "") == 0
    text = capsys.readouterr().out
    assert "method: repeated variables {}" in text and "N - P = 2 - 0 = 2" in text


def test_pi_dependent_repeated_fails(capsys):
    assert run("pi", "--set", "kinematic", "--repeated", "X,l") == 2
    assert "dependent" in capsys.readouterr().err


def test_matrix_requires_data_or_gen(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("matrix", "--config", conf, "--out", out) == 2
    assert "missing datasets" in capsys.readouterr().err
    assert run("matrix", "--config", conf, "--out", out, "--gen") == 0
    assert (out / "kinematic" / "pi" / "matrix.csv").exists()
    assert (out / "kinematic" / "pi" / "matrix.md").exists()


def test_matrix_deterministic_outputs(conf, tmp_path):
    out = tmp_path / "reports"
    assert run("matrix", "--config", conf, "--out", out, "--gen", "--scheme", "baseline") == 0
    path = out / "kinematic" / "baseline" / "matrix.csv"
    first = path.read_bytes()
    assert run("matrix", "--config", conf, "--out", out, "--scheme", "baseline") == 0
    assert path.read_bytes() == first


def test_curve_command(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("curve", "--config", conf, "--out", out, "--gen", "--vehicle", "small") == 0
    path = out / "kinematic" / "pi" / "curves" / "small.csv"
    assert path.exists()
    assert path.read_text().splitlines()[0] == "fraction,mae_x,mae_y,mae_theta"
    capsys.readouterr()
    assert run("curve", "--config", conf, "--out", out) == 1  # no --vehicle
    assert "the following arguments are required: --vehicle" in capsys.readouterr().err


def test_compare_command(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("compare", "--config", conf, "--out", out, "--gen", "--target", "large") == 0
    path = out / "kinematic" / "comparative.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,own,small,merged"
    assert len(lines) == 9  # 8 schemes
    text = capsys.readouterr().out
    assert "pi-fillers" in text


def test_cli_gbt_flag_overrides(conf, tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert run("matrix", "--config", conf, "--out", out1, "--gen", "--rounds", 10) == 0
    assert run("matrix", "--config", conf, "--out", out2, "--gen", "--rounds", 25) == 0
    a = (out1 / "kinematic" / "pi" / "matrix.csv").read_text()
    b = (out2 / "kinematic" / "pi" / "matrix.csv").read_text()
    assert a != b


def test_vehicles_file_flag(tmp_path, capsys):
    conf = tmp_path / "veh.conf"
    conf.write_text("[vehicles]\nmini = 0.2, 10.0, 10.0\n")
    tiny = tmp_path / "tiny.conf"
    tiny.write_text(TINY_CONF)
    out = tmp_path / "reports"
    assert run("gen", "--config", tiny, "--vehicles", conf, "--out", out) == 0
    text = capsys.readouterr().out
    assert "mini: 96 records" in text
    assert (out / "data" / "kinematic" / "mini.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nseed = 3\n", "needs exactly one [vehicles] section"),
        ("[vehicles]\nmini = 0.2, 10.0, 10.0\n[run]\nseed = 3\n", "needs exactly one [vehicles] section"),
        ("", "needs exactly one [vehicles] section"),
        ("[vehicles]\n", "[vehicles] lists no vehicle"),
    ],
    ids=["run-only", "vehicles-and-run", "empty", "no-vehicle"],
)
def test_vehicles_file_needs_only_a_vehicles_section(conf, tmp_path, capsys, text, message):
    veh = tmp_path / "veh.conf"
    veh.write_text(text)
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--vehicles", veh, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"vehicles file {veh}: {message}" in err
    assert not (out / "data").exists()


def test_config_with_an_empty_vehicles_section_fails(tmp_path, capsys):
    tiny = tmp_path / "tiny.conf"
    tiny.write_text(TINY_CONF.replace("small = 0.345, 37.77, 28.84\nlarge = 0.475, 71.12, 71.12\n", ""))
    out = tmp_path / "reports"
    assert run("gen", "--config", tiny, "--out", out) == 2
    assert f"config {tiny}: [vehicles] lists no vehicle" in capsys.readouterr().err
    assert not out.exists()


def test_matrix_one_vehicle_fails(tmp_path, capsys):
    tiny = tmp_path / "tiny.conf"
    tiny.write_text(TINY_CONF.replace("large = 0.475, 71.12, 71.12\n", ""))
    out = tmp_path / "reports"
    assert run("matrix", "--config", tiny, "--out", out, "--gen") == 2
    assert "at least two vehicles" in capsys.readouterr().err
    assert not out.exists()


def test_compare_one_vehicle_fails(tmp_path, capsys):
    tiny = tmp_path / "tiny.conf"
    tiny.write_text(TINY_CONF.replace("small = 0.345, 37.77, 28.84\n", ""))
    out = tmp_path / "reports"
    assert run("compare", "--config", tiny, "--out", out, "--gen", "--target", "large") == 2
    assert "a comparative study needs at least two vehicles" in capsys.readouterr().err
    assert not out.exists()


def test_curve_unknown_vehicle_fails(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("curve", "--config", conf, "--out", out, "--gen", "--vehicle", "nope") == 2
    err = capsys.readouterr().err
    assert "unknown vehicle 'nope'; known vehicles: small, large" in err
    assert not out.exists()


RESERVED_CONF = TINY_CONF.replace("small =", "MERGED =")


@pytest.mark.parametrize(
    "conf_text, argv, message",
    [
        (TINY_CONF, ["compare", "--target", "nope"], "unknown target vehicle 'nope'; known vehicles: small, large"),
        (RESERVED_CONF, ["compare", "--target", "large"], "vehicle name 'MERGED' is reserved"),
        (RESERVED_CONF, ["matrix"], "vehicle name 'MERGED' is reserved"),
    ],
    ids=["compare-unknown-target", "compare-reserved-name", "matrix-reserved-name"],
)
def test_a_study_checks_vehicle_names_before_it_writes_datasets(tmp_path, capsys, conf_text, argv, message):
    conf = tmp_path / "tiny.conf"
    conf.write_text(conf_text)
    out = tmp_path / "reports"
    assert run(*argv, "--config", conf, "--out", out, "--gen") == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "conf_text, argv, code, message",
    [
        (TINY_CONF, ["--repeats", 0], 1, "argument --repeats: repeats must be >= 1"),
        (TINY_CONF, ["--fractions", ""], 1, "argument --fractions: fractions must not be empty"),
        (TINY_CONF, ["--fractions", "0,1"], 1, "argument --fractions: fractions must lie in (0, 1]"),
        (TINY_CONF.replace("fractions = 0.5, 1.0", "fractions ="), [], 2,
         "tiny.conf: [curve] fractions: fractions must not be empty"),
        (TINY_CONF.replace("repeats = 2", "repeats = 0"), [], 2, "tiny.conf: [curve] repeats: repeats must be >= 1"),
        (TINY_CONF, ["--vehicles", ""], 2, "config file not found"),
    ],
    ids=["repeats-0", "fractions-flag-empty", "fractions-flag-0", "fractions-key-empty", "repeats-key-0",
         "vehicles-flag-empty"],
)
def test_curve_zero_or_empty_values_fail(tmp_path, capsys, conf_text, argv, code, message):
    conf = tmp_path / "tiny.conf"
    conf.write_text(conf_text)
    out = tmp_path / "reports"
    assert run("curve", "--config", conf, "--out", out, "--gen", "--vehicle", "small", *argv) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_curve_fractions_that_do_not_parse_are_a_usage_error(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("curve", "--config", conf, "--out", out, "--vehicle", "small", "--fractions", "0.5,abc") == 1
    err = capsys.readouterr().err
    assert "argument --fractions: invalid floats value: '0.5,abc'" in err
    assert not out.exists()


def test_negative_seed_flag_is_a_usage_error(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    for source in ("kinematic", "surrogate"):
        assert run("gen", "--config", conf, "--source", source, "--seed", -1, "--out", out) == 1
        assert "argument --seed: invalid natural value: '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rounds", 0, "n_rounds must be >= 1"),
        ("--depth", 0, "max_depth must be >= 1"),
        ("--lr", 0, "learning_rate must be in (0, 1]"),
        ("--lr", 1.5, "learning_rate must be in (0, 1]"),
    ],
    ids=["rounds-0", "depth-0", "lr-0", "lr-1.5"],
)
def test_an_out_of_range_setting_flag_is_a_usage_error(conf, tmp_path, capsys, flag, value, message):
    out = tmp_path / "reports"
    assert run("matrix", "--config", conf, "--out", out, "--gen", flag, value) == 1
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_takes_its_source_from_the_config(tmp_path, capsys):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF.replace("source = kinematic", "source = surrogate"))
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--out", out) == 0
    assert sorted(p.name for p in (out / "data" / "surrogate").iterdir()) == ["large.csv", "small.csv"]
    assert not (out / "data" / "kinematic").exists()


@pytest.mark.parametrize("flag, value", [("--seed", 3), ("--out", "elsewhere"), ("--vehicles", "veh.conf")])
def test_pi_takes_no_run_settings(capsys, flag, value):
    assert run("pi", "--set", "kinematic", flag, value) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# flag -> (config file text, flag value, the RunConfig value read back, its value from the file, from the flag)
OVERRIDES = {
    "seed": ("[run]\nseed = 5", "6", lambda c: c.seed, 5, 6),
    "out": ("[run]\nout = a", "b", lambda c: c.out_dir, Path("a"), Path("b")),
    "source": ("[run]\nsource = surrogate", "kinematic", lambda c: c.source, "surrogate", "kinematic"),
    "scheme": ("[run]\nscheme = pca2", "pi-aug", lambda c: c.scheme, "pca2", "pi-aug"),
    "rounds": ("[gbt]\nrounds = 7", "8", lambda c: c.gbt.n_rounds, 7, 8),
    "depth": ("[gbt]\ndepth = 2", "4", lambda c: c.gbt.max_depth, 2, 4),
    "lr": ("[gbt]\nlr = 0.2", "0.3", lambda c: c.gbt.learning_rate, 0.2, 0.3),
    "fractions": ("[curve]\nfractions = 0.5, 1.0", "0.25", lambda c: c.fractions, (0.5, 1.0), (0.25,)),
    "repeats": ("[curve]\nrepeats = 2", "3", lambda c: c.repeats, 2, 3),
    "target": ("[compare]\ntarget = small", "long", lambda c: c.target_vehicle, "small", "long"),
    "output": ("[compare]\noutput = X", "theta", lambda c: c.target_output, "X", "theta"),
}
STUDY_FLAGS = ("seed", "out", "rounds", "depth", "lr", "source")


@pytest.mark.parametrize(
    "command, flag",
    [("gen", f) for f in ("seed", "out", "source")]
    + [("matrix", f) for f in (*STUDY_FLAGS, "scheme")]
    + [("curve", f) for f in (*STUDY_FLAGS, "scheme", "fractions", "repeats")]
    + [("compare", f) for f in (*STUDY_FLAGS, "target", "output")],
)
def test_a_setting_flag_overrides_the_file_only_when_given(tmp_path, command, flag):
    text, given, read, from_file, from_flag = OVERRIDES[flag]
    conf = tmp_path / "run.conf"
    conf.write_text(text + "\n")
    argv = [command, "--config", str(conf), *(["--vehicle", "small"] if command == "curve" else [])]
    assert read(_resolve_config(build_parser().parse_args(argv))) == from_file
    assert read(_resolve_config(build_parser().parse_args([*argv, f"--{flag}", given]))) == from_flag


STRETCHED = "[vehicles]\nsmall = 0.5, 37.77, 28.84\nlarge = 0.475, 71.12, 71.12\n"


def test_stale_dataset_geometry_fails(conf, tmp_path, capsys):
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--out", out) == 0
    stretched = tmp_path / "veh.conf"
    stretched.write_text(STRETCHED)
    capsys.readouterr()
    assert run("matrix", "--config", conf, "--vehicles", stretched, "--out", out) == 2
    err = capsys.readouterr().err
    assert "stale dataset" in err and "small.csv" in err
    geometry = "VehicleSpec(name='small', wheelbase_l={}, front_normal_Nf=37.77, rear_normal_Nr=28.84)"
    assert geometry.format(0.345) in err and geometry.format(0.5) in err
    assert not (out / "kinematic" / "pi").exists()


def test_gen_regenerates_stale_dataset(conf, tmp_path):
    out = tmp_path / "reports"
    assert run("gen", "--config", conf, "--out", out) == 0
    stretched = tmp_path / "veh.conf"
    stretched.write_text(STRETCHED)
    assert run("matrix", "--config", conf, "--vehicles", stretched, "--out", out, "--gen") == 0
    small = load_csv(out / "data" / "kinematic" / "small.csv")
    assert [v.wheelbase_l for v in small.vehicles] == [0.5]
    assert run("matrix", "--config", conf, "--vehicles", stretched, "--out", out) == 0
