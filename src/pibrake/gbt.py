"""Gradient-boosted regression trees with squared loss, from scratch.

Boosting is plain residual fitting: the model starts from the training-target
mean and each round adds ``learning_rate`` times a depth-limited regression
tree fit to the current residuals.  Splits are found by an exact scan over
the sorted unique values of every feature (no histogramming), minimizing the
children's squared error; ties are broken by lowest feature index, then
lowest threshold.

Determinism is taken seriously: training rows are put into a canonical order
(lexicographic in the feature columns, then the target) before anything else
happens, so fitting is bit-for-bit invariant under row permutation.  The
learner draws no random numbers: one config and one training set give one
model, bit for bit, regardless of thread count.  Every tree sees every
training row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GbtConfig:
    """Shared learner settings; one config is used across all schemes so that
    accuracy comparisons isolate the preprocessing.  Depth 6 keeps the noisy
    friction-limited datasets in a regime where every scheme is capacity-
    adequate (the saturation boundaries need interaction splits)."""

    n_rounds: int = 300
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


def _ordered_sum(values: np.ndarray) -> float:
    # summation order fixed by value, not by row position
    return float(np.sum(np.sort(values)))


class RegressionTree:
    """Array-encoded binary tree; feature index -1 marks a leaf."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)


def _best_split(x: np.ndarray, resid: np.ndarray, orders: list[np.ndarray], msl: int):
    """Exact scan for the SSE-minimizing (feature, threshold) over a node.

    ``orders[f]`` holds the node's row indices sorted by feature f (stable in
    the canonical row order), which fixes the prefix-sum order.  Returns
    (feature, threshold) or None.  The candidate score for a left size i is
    ls^2/i + rs^2/(n-i); the parent score total^2/n is the bar a split must
    strictly beat.
    """
    n = orders[0].size
    best_score = -np.inf
    best: tuple[int, float] | None = None
    sizes = np.arange(1, n)
    for f, order in enumerate(orders):
        vs = x[order, f]
        valid = (vs[1:] > vs[:-1]) & (sizes >= msl) & ((n - sizes) >= msl)
        if not valid.any():
            continue
        csum = np.cumsum(resid[order])
        ls = csum[:-1]
        total = csum[-1]
        rs = total - ls
        score = np.where(valid, ls * ls / sizes + rs * rs / (n - sizes), -np.inf)
        j = int(np.argmax(score))
        parent = total * total / n
        if score[j] > parent and score[j] > best_score:
            best_score = float(score[j])
            best = (f, float(vs[j + 1]))
    return best


def _build_tree(
    x: np.ndarray,
    resid: np.ndarray,
    root_orders: list[np.ndarray],
    cfg: GbtConfig,
    leaf_out: np.ndarray,
) -> RegressionTree:
    """Grow one tree on the rows of ``root_orders``; each row's leaf value goes to ``leaf_out``."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def node(orders: list[np.ndarray], depth: int) -> int:
        nid = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        y = resid[orders[0]]
        n = y.size
        found = None
        if depth < cfg.max_depth and n >= 2 * cfg.min_samples_leaf and y.min() < y.max():
            found = _best_split(x, resid, orders, cfg.min_samples_leaf)
        if found is None:
            value[nid] = float(np.sum(y)) / n  # summation order fixed by orders[0]
            leaf_out[orders[0]] = value[nid]
            return nid
        f, thr = found
        feature[nid] = f
        threshold[nid] = thr
        go_left = [x[o, f] < thr for o in orders]
        left[nid] = node([o[m] for o, m in zip(orders, go_left)], depth + 1)
        right[nid] = node([o[~m] for o, m in zip(orders, go_left)], depth + 1)
        return nid

    node(root_orders, 0)
    return RegressionTree(feature, threshold, left, right, value)


# trees x rows one chunk of the predictor walks at once; bounds its work arrays
PREDICT_CELLS = 8192


@dataclass
class Ensemble:
    """base_score plus learning_rate-weighted sum of tree outputs.

    Built by ``fit``, whose pre-order numbering puts each split's children
    after it inside its own tree; ``predict`` raises on a walk that ends
    off a leaf."""

    base_score: float
    trees: list[RegressionTree]
    config: GbtConfig
    n_features: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} feature columns, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("features contain non-finite values")
        n, p = x.shape
        x_flat = x.ravel()
        row_start = np.arange(n) * p
        out = np.full(n, self.base_score)
        chunk = max(1, PREDICT_CELLS // max(n, 1))
        for start in range(0, len(self.trees), chunk):
            trees = self.trees[start : start + chunk]
            # the chunk's node arrays end to end; a leaf becomes a self-loop
            # (feature 0, threshold +inf, both children itself) that keeps every row
            roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
            feature = np.concatenate([t.feature for t in trees])
            leaf = feature < 0
            own = np.flatnonzero(leaf)
            threshold = np.concatenate([t.threshold for t in trees])
            left = np.concatenate([t.left + r for t, r in zip(trees, roots)])
            right = np.concatenate([t.right + r for t, r in zip(trees, roots)])
            feature[own], threshold[own], left[own], right[own] = 0, np.inf, own, own
            node = np.repeat(roots[:, None], n, axis=1)
            for _ in range(self.config.max_depth):
                go_left = x_flat[row_start + feature[node]] < threshold[node]
                node = np.where(go_left, left[node], right[node])
            if not leaf[node].all():
                raise ValueError(f"a tree is deeper than its max_depth={self.config.max_depth}")
            # tree outputs join the sum one tree at a time, in tree order
            values = np.concatenate([t.value for t in trees])
            for leaf_value in values[node]:
                out += self.config.learning_rate * leaf_value
        return out


def fit(x: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> Ensemble:
    """Boost cfg.n_rounds trees onto the residuals of a squared-loss model."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0] if x.ndim == 2 else 0
    if n == 0 or y.shape != (n,):
        raise ValueError(f"need matching nonempty x and y, got {x.shape} and {y.shape}")
    if n < 2 * cfg.min_samples_leaf:
        raise ValueError(f"need at least {2 * cfg.min_samples_leaf} rows, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")

    # canonical row order (lexicographic in features, then target) makes every
    # later step independent of how the caller ordered the rows
    p = x.shape[1]
    canon = np.lexsort(tuple([y] + [x[:, f] for f in range(p - 1, -1, -1)]))
    x = np.asfortranarray(x[canon])
    y = y[canon]
    full_orders = [np.argsort(x[:, f], kind="stable") for f in range(p)]

    base = _ordered_sum(y) / n
    pred = np.full(n, base)
    trees: list[RegressionTree] = []
    tree_pred = np.empty(n)
    for _ in range(cfg.n_rounds):
        trees.append(_build_tree(x, y - pred, full_orders, cfg, tree_pred))
        pred += cfg.learning_rate * tree_pred
    return Ensemble(base, trees, cfg, n_features=p)
