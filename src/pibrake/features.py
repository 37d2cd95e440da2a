"""Preprocessing schemes mapping dataset columns to learner matrices.

Eight schemes are implemented, selectable by name:

================  ============================================================
baseline          raw physical inputs, raw pose targets
normalized        baseline divided per column by the max |value| seen in train
pca2 / pca3       baseline standardized and projected onto top-k components
augmented         baseline plus the initial yaw rate v_i tan(delta)/l
pi                dimensionless inputs and scaled targets (X/l, Y/l, theta)
pi-aug            pi plus handcrafted dimensionless ratios
pi-fillers        pi plus the redundant dimensional fillers v_i and l
================  ============================================================

Every raw input, pi input and target comes from one repeated-variables pi
basis per source (:data:`BASES`, over ``DEFAULT_REPEATED``); only the
handcrafted ratios and fillers are written out.  Predictions in pi space are
mapped back to physical units by the basis inverse with the wheelbase of
the *test* record's vehicle, so all reported errors share physical units.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .dimensions import (
    DEFAULT_REPEATED,
    VARIABLE_SETS,
    build_dimension_matrix,
    inverse_transform_outputs,
    repeated_vars_pi_basis,
)

LATERAL_RATIO_CAP = 1e3


@dataclass
class FeatureMatrix:
    """A rectangular block of per-record feature vectors, one row per record."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("feature matrix contains non-finite entries")


# one basis per source, built once; the surrogate uses the dynamic variable set
BASES = {
    src: repeated_vars_pi_basis(build_dimension_matrix(VARIABLE_SETS[s]()), DEFAULT_REPEATED[s])
    for src, s in (("kinematic", "kinematic"), ("surrogate", "dynamic"))
}
# Dataset.columns() keys of the declared variables whose names differ
_DATASET_COLUMN = {"N_f": "Nf", "N_r": "Nr"}


def _variables(d: Dataset) -> dict[str, np.ndarray]:
    """The columns of ``d`` keyed by the declared variables of its source."""
    c = d.columns()
    return {v.name: c[_DATASET_COLUMN.get(v.name, v.name)] for v in BASES[d.source].matrix.variables}


def _lateral_ratio(c: dict) -> np.ndarray:
    """g mu l / (v_i^2 tan(delta)), clipped to the cap (the cap itself at delta = 0)."""
    den = c["v_i"] ** 2 * np.tan(c["delta"])
    capped = np.full(len(den), LATERAL_RATIO_CAP)
    ratio = np.divide(c["g"] * c["mu"] * c["l"], den, out=capped, where=den != 0.0)
    return np.clip(ratio, -LATERAL_RATIO_CAP, LATERAL_RATIO_CAP)


def _declared(src: str, outputs: bool) -> dict:
    """The declared inputs (or outputs) of a source, in declaration order."""
    declared = BASES[src].matrix.variables
    return {v.name: itemgetter(v.name) for v in declared if (v.role == "output") == outputs}


def _groups(src: str, carried: Sequence[str]) -> dict:
    """The basis groups carrying the given variables, keyed by label; the axle
    group N_r/N_f is inverted to the customary N_f/N_r."""
    groups = [BASES[src].group_for(name) for name in carried]
    groups = [g.reciprocal() if name == "N_r" else g for name, g in zip(carried, groups)]
    return {g.label: g for g in groups}


# per source: column name -> expression over ``_variables(d)``
_PHYSICAL_INPUTS = {src: _declared(src, False) for src in BASES}
_PHYSICAL_TARGETS = {src: _declared(src, True) for src in BASES}
# the pi inputs are the groups carrying these variables, in the fixed column order
# (GBT breaks split ties by the lowest column index)
_GROUP_INPUTS = {
    "kinematic": _groups("kinematic", ("a", "delta")),
    "surrogate": _groups("surrogate", ("a", "delta", "N_r", "mu", "g")),
}
_GROUP_TARGETS = {src: _groups(src, list(_PHYSICAL_TARGETS[src])) for src in BASES}

# scheme -> source -> input columns before any fitted transform
_SCHEME_INPUTS = {
    **dict.fromkeys(("baseline", "normalized", "pca2", "pca3"), _PHYSICAL_INPUTS),
    "augmented": {
        src: {**cols, "v_i*tan(delta)/l": lambda c: c["v_i"] * np.tan(c["delta"]) / c["l"]}
        for src, cols in _PHYSICAL_INPUTS.items()
    },
    "pi": _GROUP_INPUTS,
    "pi-aug": {
        "kinematic": {
            **_GROUP_INPUTS["kinematic"],
            # the scaled initial yaw rate
            "v_i^2*tan(delta)/(a*l)": lambda c: (
                c["v_i"] ** 2 * np.tan(c["delta"]) / (c["a"] * c["l"])
            ),
        },
        "surrogate": {
            **_GROUP_INPUTS["surrogate"],
            # longitudinal and lateral adherence ratios
            "N_r*mu*g/((N_f+N_r)*|a|)": lambda c: (
                c["N_r"] * c["mu"] * c["g"] / ((c["N_f"] + c["N_r"]) * np.abs(c["a"]))
            ),
            "g*mu*l/(v_i^2*tan(delta))": _lateral_ratio,
        },
    },
    "pi-fillers": {
        src: {**cols, "v_i": itemgetter("v_i"), "l": itemgetter("l")} for src, cols in _GROUP_INPUTS.items()
    },
}
SCHEME_NAMES = tuple(_SCHEME_INPUTS)


class MaxAbsNormalizer:
    """Per-column division by the largest |value| seen in the training data."""

    def __init__(self):
        self.divisors: np.ndarray | None = None

    def fit(self, train: FeatureMatrix) -> "MaxAbsNormalizer":
        if train.values.shape[0] == 0:
            raise ValueError("cannot fit a normalizer on an empty matrix")
        d = np.abs(train.values).max(axis=0)
        d[d == 0.0] = 1.0
        self.divisors = d
        return self

    def apply(self, m: FeatureMatrix) -> FeatureMatrix:
        if self.divisors is None:
            raise RuntimeError("normalizer used before fit")
        return FeatureMatrix(m.values / self.divisors)


class PcaTransform:
    """Standardize columns and project onto the top-k principal components.

    Columns are centered and scaled to unit standard deviation (zero-variance
    columns pass through unscaled); components are eigenvectors of the
    covariance matrix sorted by descending eigenvalue, each oriented so its
    largest-magnitude loading is positive.
    """

    def __init__(self, k: int):
        self.k = k
        self.mean: np.ndarray | None = None
        self.scale: np.ndarray | None = None
        self.components: np.ndarray | None = None  # (p, k)

    def fit(self, train: FeatureMatrix) -> "PcaTransform":
        x = train.values
        n, p = x.shape
        if not 1 <= self.k <= p:
            raise ValueError(f"k must be in [1, {p}], got {self.k}")
        if n <= p:
            raise ValueError(f"PCA needs more rows ({n}) than columns ({p})")
        self.mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0.0] = 1.0
        self.scale = std
        z = (x - self.mean) / self.scale
        cov = z.T @ z / (n - 1)
        eigval, eigvec = np.linalg.eigh(cov)
        order = np.argsort(eigval)[::-1]
        eigvec = eigvec[:, order]
        for j in range(p):
            lead = np.argmax(np.abs(eigvec[:, j]))
            if eigvec[lead, j] < 0:
                eigvec[:, j] = -eigvec[:, j]
        self.components = eigvec[:, : self.k]
        return self

    def apply(self, m: FeatureMatrix) -> FeatureMatrix:
        if self.components is None:
            raise RuntimeError("PCA used before fit")
        z = (m.values - self.mean) / self.scale
        return FeatureMatrix(z @ self.components)


# scheme -> factory of the transform fitted to its input columns, where it has one
_TRANSFORMS = {"normalized": MaxAbsNormalizer, "pca2": lambda: PcaTransform(2), "pca3": lambda: PcaTransform(3)}
_PI_SCHEMES = ("pi", "pi-aug", "pi-fillers")


class Pipeline:
    """fit/transform/inverse bundle for one preprocessing scheme."""

    def __init__(self, scheme: str):
        if scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEME_NAMES}")
        self.scheme = scheme
        self._transform: MaxAbsNormalizer | PcaTransform | None = None

    @property
    def dimensionless_targets(self) -> bool:
        return self.scheme in _PI_SCHEMES

    def _raw_inputs(self, d: Dataset) -> FeatureMatrix:
        exprs = _SCHEME_INPUTS[self.scheme][d.source]
        row = _variables(d)
        return FeatureMatrix(np.column_stack([f(row) for f in exprs.values()]))

    def fit(self, train: Dataset) -> "Pipeline":
        if self.scheme in _TRANSFORMS:
            self._transform = _TRANSFORMS[self.scheme]().fit(self._raw_inputs(train))
        return self

    def input_matrix(self, d: Dataset) -> FeatureMatrix:
        m = self._raw_inputs(d)
        if self.scheme not in _TRANSFORMS:
            return m
        if self._transform is None:
            raise RuntimeError(f"scheme {self.scheme!r} must be fit before transform")
        return self._transform.apply(m)

    def target_matrix(self, d: Dataset) -> np.ndarray:
        """(n, 3) learning targets: the final pose, or its pi groups for pi schemes."""
        exprs = (_GROUP_TARGETS if self.dimensionless_targets else _PHYSICAL_TARGETS)[d.source]
        row = _variables(d)
        return np.column_stack([f(row) for f in exprs.values()])

    def inverse_targets(
        self, predictions: np.ndarray, d: Dataset, outputs: Sequence[int] = (0, 1, 2)
    ) -> np.ndarray:
        """Map predicted target columns ``outputs`` back to physical units for the test records."""
        predictions = np.asarray(predictions, dtype=float)
        if predictions.shape != (len(d), len(outputs)):
            raise ValueError(
                f"expected predictions of shape {(len(d), len(outputs))}, got {predictions.shape}"
            )
        if not self.dimensionless_targets:
            return predictions
        labels = list(_GROUP_TARGETS[d.source])
        pis = {labels[j]: predictions[:, k] for k, j in enumerate(outputs)}
        physical = inverse_transform_outputs(BASES[d.source], pis, _variables(d))
        return np.column_stack(list(physical.values()))


def make_pipeline(scheme: str) -> Pipeline:
    return Pipeline(scheme)
