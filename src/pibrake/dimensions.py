"""Dimensional analysis over the M/L/T base dimensions.

A physical dimension is stored as a vector of exact rational exponents
(mass, length, time), e.g. acceleration = L T^-2 = (0, 1, -2) and a force
= M L T^-2 = (1, 1, -2).  Angles carry no dimension.  From a list of
declared variables the engine builds the dimension matrix (base dimensions
x variables) and derives dimensionless pi-group bases either automatically
(exact rational nullspace) or by the repeated-variables construction, and
applies the resulting forward/inverse data transforms.

All arithmetic on exponents uses ``fractions.Fraction``; no floating point
enters until a transform is applied to actual data rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

RatioLike = int | Fraction
Value = float | np.ndarray

ROLES = ("input", "output", "repeated-candidate")


class DegenerateRowError(ValueError):
    """A data row has value 0 for a variable raised to a negative exponent."""


@dataclass(frozen=True)
class DimensionVector:
    """Exponents of the base dimensions (mass, length, time)."""

    mass: Fraction = Fraction(0)
    length: Fraction = Fraction(0)
    time: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("mass", "length", "time"):
            v = getattr(self, name)
            if not isinstance(v, Fraction):
                object.__setattr__(self, name, Fraction(v))

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        return DimensionVector(
            self.mass + other.mass, self.length + other.length, self.time + other.time
        )

    def scale(self, k: RatioLike) -> "DimensionVector":
        k = Fraction(k)
        return DimensionVector(self.mass * k, self.length * k, self.time * k)

    @property
    def is_dimensionless(self) -> bool:
        return self.mass == 0 and self.length == 0 and self.time == 0

    def exponents(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.mass, self.length, self.time)

    def __str__(self) -> str:
        parts = []
        for sym, v in zip("MLT", self.exponents()):
            if v == 0:
                continue
            parts.append(sym if v == 1 else f"{sym}^{v}")
        return " ".join(parts) if parts else "1"


DIMENSIONLESS = DimensionVector()
LENGTH = DimensionVector(length=Fraction(1))
VELOCITY = DimensionVector(length=Fraction(1), time=Fraction(-1))
ACCELERATION = DimensionVector(length=Fraction(1), time=Fraction(-2))
FORCE = DimensionVector(mass=Fraction(1), length=Fraction(1), time=Fraction(-2))


def parse_dimension(text: str) -> DimensionVector:
    """Parse a dimension string such as ``"M L T^-2"`` or ``"L^1/2"``.

    ``"1"``, ``"-"`` and the empty string denote a dimensionless quantity.
    """
    text = text.strip().strip('"').strip("'")
    if text in ("", "1", "-"):
        return DIMENSIONLESS
    exps = {"M": Fraction(0), "L": Fraction(0), "T": Fraction(0)}
    for token in text.split():
        base, _, exp = token.partition("^")
        if base not in exps:
            raise ValueError(f"unknown base dimension {base!r} in {text!r}")
        exps[base] += Fraction(exp) if exp else Fraction(1)
    return DimensionVector(exps["M"], exps["L"], exps["T"])


@dataclass(frozen=True)
class VariableDecl:
    """A named physical variable with its dimension and role in the analysis."""

    name: str
    dimension: DimensionVector
    role: str = "input"

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")


def variables_from_config(lines: Mapping[str, str]) -> list[VariableDecl]:
    """Build variable declarations from config entries ``name = "M^p L^q T^r"``."""
    return [VariableDecl(name, parse_dimension(text)) for name, text in lines.items()]


@dataclass(frozen=True)
class DimensionMatrix:
    """Dimension exponents arranged base-dimensions x variables (3 x N)."""

    variables: tuple[VariableDecl, ...]

    @property
    def rank(self) -> int:
        pivots, _ = _nullspace(self.variables)
        return len(pivots)


def build_dimension_matrix(variables: Sequence[VariableDecl]) -> DimensionMatrix:
    """Arrange declared variables into a dimension matrix, one column each."""
    if not variables:
        raise ValueError("variable list is empty")
    seen: set[str] = set()
    for v in variables:
        if v.name in seen:
            raise ValueError(f"duplicate variable name {v.name!r}")
        seen.add(v.name)
    return DimensionMatrix(tuple(variables))


def _product(row: Mapping[str, Value], powers: Iterable[tuple[str, int | float]]) -> Value:
    """The product of ``row[name] ** p`` over the powers, left to right, from 1.0."""
    value = 1.0
    for name, p in powers:
        value = value * row[name] ** p
    return value


def _monomial(powers: Sequence[tuple[str, int | float]], row: Mapping[str, Value], label: str) -> Value:
    """The positive powers multiplied in order, over the product of the negative
    powers; on scalars and numpy columns alike."""
    for name, p in powers:
        if p < 0 and np.any(np.asarray(row[name]) == 0):
            raise DegenerateRowError(f"variable {name!r} is 0 but appears with exponent {p} in {label!r}")
    num = _product(row, ((name, p) for name, p in powers if p > 0))
    return num / _product(row, ((name, -p) for name, p in powers if p < 0))


@dataclass(frozen=True)
class PiGroup:
    """One dimensionless monomial: a rational exponent per declared variable."""

    variables: tuple[VariableDecl, ...]
    exponents: tuple[Fraction, ...]

    def dimension(self) -> DimensionVector:
        total = DIMENSIONLESS
        for v, e in zip(self.variables, self.exponents):
            total = total + v.dimension.scale(e)
        return total

    def terms(self) -> list[tuple[str, Fraction]]:
        return [(v.name, e) for v, e in zip(self.variables, self.exponents) if e != 0]

    @cached_property
    def powers(self) -> tuple[tuple[str, int | float], ...]:
        """:meth:`terms` with each exponent as a Python int, or a float if fractional."""
        return tuple((name, int(e) if e.denominator == 1 else float(e)) for name, e in self.terms())

    @cached_property
    def label(self) -> str:
        parts = []
        for name, e in self.terms():
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts) if parts else "1"

    def __call__(self, row: Mapping[str, Value]) -> Value:
        """The group's value on one row of scalars, or elementwise on columns."""
        return _monomial(self.powers, row, self.label)

    def reciprocal(self) -> "PiGroup":
        return PiGroup(self.variables, tuple(-e for e in self.exponents))


@dataclass(frozen=True)
class PiBasis:
    """A set of independent pi groups over one variable declaration list."""

    matrix: DimensionMatrix
    groups: tuple[PiGroup, ...]
    repeated: tuple[VariableDecl, ...] = field(default_factory=tuple)

    def labels(self) -> list[str]:
        return [g.label for g in self.groups]

    def group_for(self, variable_name: str) -> PiGroup:
        """The group carrying a given non-repeated variable (repeated-vars bases)."""
        repeated_names = {v.name for v in self.repeated}
        for g in self.groups:
            names = [n for n, _ in g.terms() if n not in repeated_names]
            if names == [variable_name]:
                return g
        raise KeyError(variable_name)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by exact Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def _canonicalize(exps: list[Fraction]) -> tuple[Fraction, ...]:
    """Scale to integer exponents with gcd 1 and first nonzero positive."""
    denom_lcm = 1
    for e in exps:
        denom_lcm = denom_lcm * e.denominator // math.gcd(denom_lcm, e.denominator)
    ints = [int(e * denom_lcm) for e in exps]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)


def _nullspace(variables: Sequence[VariableDecl]) -> tuple[list[int], list[list[Fraction]]]:
    """The pivot columns of the dimension matrix of ``variables`` (in the given
    column order), and one exact nullspace vector per free column: exponent 1
    on that column, 0 on the other free columns, solved on the pivots."""
    rows = [[v.dimension.exponents()[i] for v in variables] for i in range(3)]
    rref, pivots = _rref(rows)
    vectors = []
    for fc in (c for c in range(len(variables)) if c not in pivots):
        exps = [Fraction(0)] * len(variables)
        exps[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            exps[pc] = -rref[r][fc]
        vectors.append(exps)
    return pivots, vectors


def nullspace_pi_basis(matrix: DimensionMatrix) -> PiBasis:
    """All independent pi groups of a variable set, from the exact nullspace.

    Returns N - rank(matrix) groups, each reduced to integer exponents with
    gcd 1 and the first nonzero exponent positive.
    """
    _, vectors = _nullspace(matrix.variables)
    return PiBasis(matrix, tuple(PiGroup(matrix.variables, _canonicalize(e)) for e in vectors))


def repeated_vars_pi_basis(matrix: DimensionMatrix, repeated: Sequence[str]) -> PiBasis:
    """Pi basis by the repeated-variables construction.

    Each non-repeated variable appears in exactly one group with exponent +1;
    the repeated variables take the solved rational exponents that make the
    group dimensionless.  The repeated set must contain rank(matrix) variables
    and be dimensionally independent.  This is the nullspace basis of the
    variables reordered repeated-first, whose pivots are then the repeated
    columns.
    """
    by_name = {v.name: v for v in matrix.variables}
    rep: list[VariableDecl] = []
    for name in repeated:
        if name not in by_name:
            raise ValueError(f"repeated variable {name!r} not among declared variables")
        rep.append(by_name[name])
    if len({v.name for v in rep}) != len(rep):
        raise ValueError("repeated variables must be distinct")

    order = rep + [v for v in matrix.variables if v not in rep]
    pivots, vectors = _nullspace(order)
    if len(rep) != len(pivots):
        raise ValueError(
            f"repeated set has {len(rep)} variables but the dimension matrix has rank {len(pivots)}"
        )
    if pivots != list(range(len(rep))):
        raise ValueError("repeated set is dimensionally dependent")

    position = {v.name: j for j, v in enumerate(order)}
    groups = tuple(
        PiGroup(matrix.variables, tuple(e[position[v.name]] for v in matrix.variables)) for e in vectors
    )
    return PiBasis(matrix, groups, tuple(rep))


def inverse_transform_outputs(
    basis: PiBasis, pi_values: Mapping[str, Value], context: Mapping[str, Value]
) -> dict[str, Value]:
    """Recover physical variables from pi values (repeated-variables bases).

    ``pi_values`` maps group labels to dimensionless values; ``context`` must
    supply the repeated-variable values.  Each value is multiplied by its
    group's repeated factors with their exponents negated.
    """
    repeated_names = {v.name for v in basis.repeated}
    label_to_group = {g.label: g for g in basis.groups}
    out: dict[str, Value] = {}
    for label, value in pi_values.items():
        group = label_to_group[label]
        carried = [(n, e) for n, e in group.terms() if n not in repeated_names]
        if len(carried) != 1 or carried[0][1] != 1:
            raise ValueError(f"group {label!r} is not invertible for a single variable")
        factors = [(n, -p) for n, p in group.powers if n in repeated_names]
        for rname, _ in factors:
            if rname not in context:
                raise ValueError(f"missing context variable {rname!r}")
        out[carried[0][0]] = value * _monomial(factors, context, label)
    return out


def kinematic_variables() -> list[VariableDecl]:
    """Variable declarations for the no-slip braking relationship."""
    return [
        VariableDecl("X", LENGTH, "output"),
        VariableDecl("Y", LENGTH, "output"),
        VariableDecl("theta", DIMENSIONLESS, "output"),
        VariableDecl("v_i", VELOCITY, "repeated-candidate"),
        VariableDecl("a", ACCELERATION),
        VariableDecl("delta", DIMENSIONLESS),
        VariableDecl("l", LENGTH, "repeated-candidate"),
    ]


def dynamic_variables() -> list[VariableDecl]:
    """Variable declarations for the friction-limited braking relationship."""
    return [
        VariableDecl("X", LENGTH, "output"),
        VariableDecl("Y", LENGTH, "output"),
        VariableDecl("theta", DIMENSIONLESS, "output"),
        VariableDecl("mu", DIMENSIONLESS),
        VariableDecl("v_i", VELOCITY, "repeated-candidate"),
        VariableDecl("g", ACCELERATION),
        VariableDecl("a", ACCELERATION),
        VariableDecl("delta", DIMENSIONLESS),
        VariableDecl("N_f", FORCE, "repeated-candidate"),
        VariableDecl("N_r", FORCE),
        VariableDecl("l", LENGTH, "repeated-candidate"),
    ]


VARIABLE_SETS = {"kinematic": kinematic_variables, "dynamic": dynamic_variables}

DEFAULT_REPEATED = {"kinematic": ("l", "v_i"), "dynamic": ("l", "v_i", "N_f")}
