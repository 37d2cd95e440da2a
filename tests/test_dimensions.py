import random
from fractions import Fraction

import pytest

from pibrake.dimensions import (
    ACCELERATION,
    DIMENSIONLESS,
    FORCE,
    LENGTH,
    VELOCITY,
    DegenerateRowError,
    DimensionVector,
    VariableDecl,
    build_dimension_matrix,
    dynamic_variables,
    inverse_transform_outputs,
    kinematic_variables,
    nullspace_pi_basis,
    parse_dimension,
    repeated_vars_pi_basis,
    variables_from_config,
)

F = Fraction


def group_exponents(basis, **expected):
    """Find a group whose nonzero exponents equal `expected` (name -> exp)."""
    want = {k: F(v) for k, v in expected.items()}
    for g in basis.groups:
        if dict(g.terms()) == want:
            return g
    raise AssertionError(f"no group with exponents {expected} in {basis.labels()}")


def test_parse_dimension():
    assert parse_dimension("L") == LENGTH
    assert parse_dimension("L T^-1") == VELOCITY
    assert parse_dimension("M L T^-2") == FORCE
    assert parse_dimension("-") == DIMENSIONLESS
    assert parse_dimension("1") == DIMENSIONLESS
    assert parse_dimension("L^1/2") == DimensionVector(length=F(1, 2))
    with pytest.raises(ValueError):
        parse_dimension("Q^2")


def test_dimension_vector_str_roundtrip():
    for d in (LENGTH, VELOCITY, ACCELERATION, FORCE, DIMENSIONLESS):
        assert parse_dimension(str(d)) == d


def test_variables_from_config():
    decls = variables_from_config({"X": "L", "N_f": "M L T^-2", "theta": "-"})
    assert decls[0].dimension == LENGTH
    assert decls[1].dimension == FORCE
    assert decls[2].dimension.is_dimensionless


def test_build_dimension_matrix_columns():
    m = build_dimension_matrix([VariableDecl("X", LENGTH), VariableDecl("l", LENGTH)])
    assert [v.dimension.exponents() for v in m.variables] == [(0, 1, 0), (0, 1, 0)]
    m2 = build_dimension_matrix([VariableDecl("theta", DIMENSIONLESS)])
    assert [v.dimension.exponents() for v in m2.variables] == [(0, 0, 0)]
    m3 = build_dimension_matrix([VariableDecl("N_f", FORCE)])
    assert [v.dimension.exponents() for v in m3.variables] == [(1, 1, -2)]


def test_build_dimension_matrix_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        build_dimension_matrix([VariableDecl("X", LENGTH), VariableDecl("X", LENGTH)])
    with pytest.raises(ValueError, match="empty"):
        build_dimension_matrix([])


def test_nullspace_single_output_line():
    variables = [
        VariableDecl("X", LENGTH),
        VariableDecl("v_i", VELOCITY),
        VariableDecl("a", ACCELERATION),
        VariableDecl("delta", DIMENSIONLESS),
        VariableDecl("l", LENGTH),
    ]
    basis = nullspace_pi_basis(build_dimension_matrix(variables))
    assert len(basis.groups) == 3  # N=5, rank 2
    for g in basis.groups:
        assert g.dimension().is_dimensionless


def test_nullspace_all_dimensionless_is_identity():
    variables = [VariableDecl("theta", DIMENSIONLESS), VariableDecl("delta", DIMENSIONLESS)]
    basis = nullspace_pi_basis(build_dimension_matrix(variables))
    assert [dict(g.terms()) for g in basis.groups] == [{"theta": 1}, {"delta": 1}]


def test_nullspace_dynamic_count():
    m = build_dimension_matrix(dynamic_variables())
    assert m.rank == 3
    basis = nullspace_pi_basis(m)
    assert len(basis.groups) == 11 - 3
    for g in basis.groups:
        assert g.dimension().is_dimensionless


def test_nullspace_canonical_form():
    basis = nullspace_pi_basis(build_dimension_matrix(kinematic_variables()))
    for g in basis.groups:
        nonzero = [e for e in g.exponents if e != 0]
        assert all(e.denominator == 1 for e in nonzero)
        assert nonzero[0] > 0
        from math import gcd

        acc = 0
        for e in nonzero:
            acc = gcd(acc, abs(int(e)))
        assert acc == 1


def test_repeated_vars_kinematic_matches_known_groups():
    m = build_dimension_matrix(kinematic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i"])
    assert len(basis.groups) == 5
    group_exponents(basis, X=1, l=-1)
    group_exponents(basis, Y=1, l=-1)
    group_exponents(basis, theta=1)
    group_exponents(basis, a=1, l=1, v_i=-2)
    group_exponents(basis, delta=1)


def test_repeated_vars_dynamic_matches_known_groups():
    m = build_dimension_matrix(dynamic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i", "N_f"])
    assert len(basis.groups) == 8
    group_exponents(basis, X=1, l=-1)
    group_exponents(basis, Y=1, l=-1)
    group_exponents(basis, theta=1)
    group_exponents(basis, mu=1)
    group_exponents(basis, delta=1)
    group_exponents(basis, a=1, l=1, v_i=-2)
    group_exponents(basis, g=1, l=1, v_i=-2)
    # axle-load ratio comes out as N_r/N_f; reciprocal of the usual writing
    group_exponents(basis, N_r=1, N_f=-1)


def test_repeated_vars_rejects_dependent_set():
    m = build_dimension_matrix(kinematic_variables())
    with pytest.raises(ValueError, match="dependent"):
        repeated_vars_pi_basis(m, ["X", "l"])


def test_repeated_vars_rejects_wrong_size():
    m = build_dimension_matrix(kinematic_variables())
    with pytest.raises(ValueError, match="rank"):
        repeated_vars_pi_basis(m, ["l", "v_i", "a"])
    with pytest.raises(ValueError, match="rank"):
        repeated_vars_pi_basis(m, ["l"])


def test_transform_row_braking_group():
    m = build_dimension_matrix(kinematic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i"])
    g = basis.group_for("a")
    # oracle: the direct product a * l / v_i^2
    assert g({"a": -4.905, "l": 0.475, "v_i": 2.0}) == pytest.approx(
        -4.905 * 0.475 / 2.0**2, rel=1e-12
    )
    assert basis.group_for("X")({"X": 0.0, "l": 0.345}) == 0.0


def test_transform_row_gravity_group():
    m = build_dimension_matrix(dynamic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i", "N_f"])
    g = basis.group_for("g")
    assert g({"g": 9.81, "l": 0.345, "v_i": 1.0}) == pytest.approx(3.38445, rel=1e-12)


def test_transform_row_rejects_degenerate():
    m = build_dimension_matrix(kinematic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i"])
    row = {"X": 1.0, "Y": 0.5, "theta": 0.1, "a": -1.0, "delta": 0.2, "l": 0.475, "v_i": 0.0}
    with pytest.raises(DegenerateRowError):
        {g.label: g(row) for g in basis.groups}


def test_inverse_transform_outputs():
    m = build_dimension_matrix(kinematic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i"])
    x_group = basis.group_for("X").label
    theta_group = basis.group_for("theta").label
    out = inverse_transform_outputs(basis, {x_group: 2.0, theta_group: 0.3}, {"l": 0.475, "v_i": 1.0})
    assert out["X"] == pytest.approx(0.95, rel=1e-12)
    assert out["theta"] == pytest.approx(0.3, rel=1e-12)
    with pytest.raises(ValueError, match="missing context"):
        inverse_transform_outputs(basis, {x_group: 2.0}, {"v_i": 1.0})


def test_transform_round_trip():
    m = build_dimension_matrix(kinematic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i"])
    row = {"X": 1.3, "Y": -0.4, "theta": 0.7, "a": -3.2, "delta": 0.3, "l": 0.853, "v_i": 2.5}
    pis = {g.label: g(row) for g in basis.groups}
    outputs = {basis.group_for(n).label: pis[basis.group_for(n).label] for n in ("X", "Y", "theta")}
    back = inverse_transform_outputs(basis, outputs, {"l": row["l"], "v_i": row["v_i"]})
    for name in ("X", "Y", "theta"):
        assert back[name] == pytest.approx(row[name], rel=1e-12)


def _random_variables(rng: random.Random) -> list[VariableDecl]:
    n = rng.randint(1, 9)
    out = []
    for i in range(n):
        dim = DimensionVector(
            F(rng.randint(-2, 2)), F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        )
        out.append(VariableDecl(f"q{i}", dim))
    return out


def test_buckingham_count_randomized():
    from pibrake.dimensions import _rref

    rng = random.Random(1234)
    for _ in range(200):
        variables = _random_variables(rng)
        m = build_dimension_matrix(variables)
        basis = nullspace_pi_basis(m)
        assert len(basis.groups) == len(variables) - m.rank
        for g in basis.groups:
            assert g.dimension().is_dimensionless
        if basis.groups:  # groups are linearly independent exponent vectors
            _, pivots = _rref([list(g.exponents) for g in basis.groups])
            assert len(pivots) == len(basis.groups)


def test_scale_invariance_of_transforms():
    rng = random.Random(99)
    m = build_dimension_matrix(dynamic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i", "N_f"])
    for _ in range(25):
        row = {
            "X": rng.uniform(0.1, 5),
            "Y": rng.uniform(0.1, 5),
            "theta": rng.uniform(0.1, 2),
            "mu": rng.uniform(0.1, 1.0),
            "v_i": rng.uniform(0.5, 5),
            "g": 9.81,
            "a": -rng.uniform(0.5, 9),
            "delta": rng.uniform(0.01, 0.7),
            "N_f": rng.uniform(10, 80),
            "N_r": rng.uniform(10, 80),
            "l": rng.uniform(0.3, 0.9),
        }
        lam, tau, mass = rng.uniform(0.1, 10), rng.uniform(0.1, 10), rng.uniform(0.1, 10)
        scaled = {}
        for v in m.variables:
            d = v.dimension
            factor = mass ** float(d.mass) * lam ** float(d.length) * tau ** float(d.time)
            scaled[v.name] = row[v.name] * factor
        for g in basis.groups:
            assert g(scaled) == pytest.approx(g(row), rel=1e-10)


def test_group_reciprocal_negates_every_exponent():
    m = build_dimension_matrix(dynamic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i", "N_f"])
    g = basis.group_for("N_r")
    assert g.reciprocal().exponents == tuple(-e for e in g.exponents)
    assert g.reciprocal().reciprocal() == g
