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

Kinematic datasets expose 4 physical inputs (v_i, a, delta, l); surrogate
datasets expose 8 (mu, v_i, g, a, delta, N_f, N_r, l).  The dimensionless
input sets are (a l/v_i^2, delta) and (a l/v_i^2, delta, N_f/N_r, mu,
g l/v_i^2) respectively.  Predictions in pi space are mapped back to
physical units with the wheelbase of the *test* record's vehicle, so all
reported errors share physical units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset

LATERAL_RATIO_CAP = 1e3

SCHEME_NAMES = ("baseline", "normalized", "pca2", "pca3", "augmented", "pi", "pi-aug", "pi-fillers")


@dataclass
class FeatureMatrix:
    """A rectangular block of per-record feature vectors with column names."""

    values: np.ndarray
    columns: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValueError("feature matrix must be rectangular with one name per column")
        if not np.isfinite(self.values).all():
            raise ValueError("feature matrix contains non-finite entries")


def _col(name: str) -> Callable[[dict], np.ndarray]:
    return lambda c: c[name]


def _braking(c: dict) -> np.ndarray:
    """The deceleration column, rejected when a handcrafted ratio would divide by it."""
    if (c["a"] == 0).any():
        raise ValueError("a = 0 makes the handcrafted ratios singular")
    return c["a"]


def _lateral_ratio(c: dict) -> np.ndarray:
    """g mu l / (v_i^2 tan(delta)), clipped to the cap (the cap itself at delta = 0)."""
    den = c["v_i"] ** 2 * np.tan(c["delta"])
    capped = np.full(len(den), LATERAL_RATIO_CAP)
    ratio = np.divide(c["g"] * c["mu"] * c["l"], den, out=capped, where=den != 0.0)
    return np.clip(ratio, -LATERAL_RATIO_CAP, LATERAL_RATIO_CAP)


# Input columns per source: column name -> expression over ``Dataset.columns()``.
_RAW = {
    "kinematic": {"v_i": _col("v_i"), "a": _col("a"), "delta": _col("delta"), "l": _col("l")},
    "surrogate": {
        "mu": _col("mu"), "v_i": _col("v_i"), "g": _col("g"), "a": _col("a"), "delta": _col("delta"),
        "N_f": _col("Nf"), "N_r": _col("Nr"), "l": _col("l"),
    },
}
_BRAKING_PI = {"a*l/v_i^2": lambda c: c["a"] * c["l"] / c["v_i"] ** 2, "delta": _col("delta")}
_PI = {
    "kinematic": _BRAKING_PI,
    "surrogate": {
        **_BRAKING_PI,
        "N_f/N_r": lambda c: c["Nf"] / c["Nr"],
        "mu": _col("mu"),
        "g*l/v_i^2": lambda c: c["g"] * c["l"] / c["v_i"] ** 2,
    },
}

# scheme -> source -> input columns before any fitted transform
_SCHEME_INPUTS = {
    **dict.fromkeys(("baseline", "normalized", "pca2", "pca3"), _RAW),
    "augmented": {
        src: {**cols, "v_i*tan(delta)/l": lambda c: c["v_i"] * np.tan(c["delta"]) / c["l"]}
        for src, cols in _RAW.items()
    },
    "pi": _PI,
    "pi-aug": {
        "kinematic": {
            **_PI["kinematic"],
            # the scaled initial yaw rate
            "v_i^2*tan(delta)/(a*l)": lambda c: (
                c["v_i"] ** 2 * np.tan(c["delta"]) / (_braking(c) * c["l"])
            ),
        },
        "surrogate": {
            **_PI["surrogate"],
            # longitudinal and lateral adherence ratios
            "N_r*mu*g/((N_f+N_r)*|a|)": lambda c: (
                c["Nr"] * c["mu"] * c["g"] / ((c["Nf"] + c["Nr"]) * np.abs(_braking(c)))
            ),
            "g*mu*l/(v_i^2*tan(delta))": _lateral_ratio,
        },
    },
    "pi-fillers": {src: {**cols, "v_i": _col("v_i"), "l": _col("l")} for src, cols in _PI.items()},
}


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
        return FeatureMatrix(m.values / self.divisors, m.columns)


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
        self.explained_variance_ratio: np.ndarray | None = None

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
        eigval, eigvec = eigval[order], eigvec[:, order]
        for j in range(p):
            lead = np.argmax(np.abs(eigvec[:, j]))
            if eigvec[lead, j] < 0:
                eigvec[:, j] = -eigvec[:, j]
        total = eigval.sum()
        self.explained_variance_ratio = eigval[: self.k] / (total if total > 0 else 1.0)
        self.components = eigvec[:, : self.k]
        return self

    def apply(self, m: FeatureMatrix) -> FeatureMatrix:
        if self.components is None:
            raise RuntimeError("PCA used before fit")
        z = (m.values - self.mean) / self.scale
        cols = [f"pc{j + 1}" for j in range(self.k)]
        return FeatureMatrix(z @ self.components, cols)


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
        c = d.columns()
        return FeatureMatrix(np.column_stack([f(c) for f in exprs.values()]), list(exprs))

    def fit(self, train: Dataset) -> "Pipeline":
        if self.scheme == "normalized":
            self._transform = MaxAbsNormalizer().fit(self._raw_inputs(train))
        elif self.scheme in ("pca2", "pca3"):
            self._transform = PcaTransform(int(self.scheme[-1])).fit(self._raw_inputs(train))
        return self

    def input_matrix(self, d: Dataset) -> FeatureMatrix:
        m = self._raw_inputs(d)
        if self.scheme not in ("normalized", "pca2", "pca3"):
            return m
        if self._transform is None:
            raise RuntimeError(f"scheme {self.scheme!r} must be fit before transform")
        return self._transform.apply(m)

    def target_matrix(self, d: Dataset) -> np.ndarray:
        """(n, 3) learning targets: final pose, scaled by 1/l for pi schemes."""
        c = d.columns()
        y = np.column_stack([c["X"], c["Y"], c["theta"]])
        if self.dimensionless_targets:
            y[:, 0] /= c["l"]
            y[:, 1] /= c["l"]
        return y

    def target_scale(self, d: Dataset) -> np.ndarray:
        """(n, 3) multipliers turning predicted targets into physical units."""
        n = len(d)
        scale = np.ones((n, 3))
        if self.dimensionless_targets:
            l = d.columns()["l"]
            scale[:, 0] = l
            scale[:, 1] = l
        return scale

    def inverse_targets(self, predictions: np.ndarray, d: Dataset) -> np.ndarray:
        """Map predicted targets back to physical units for the test records."""
        predictions = np.asarray(predictions, dtype=float)
        if predictions.shape != (len(d), 3):
            raise ValueError(f"expected predictions of shape {(len(d), 3)}, got {predictions.shape}")
        return predictions * self.target_scale(d)


def make_pipeline(scheme: str) -> Pipeline:
    return Pipeline(scheme)
