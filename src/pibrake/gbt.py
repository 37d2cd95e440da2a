"""Gradient-boosted regression trees with squared loss, from scratch.

Boosting is plain residual fitting: the model starts from the training-target
mean and each round adds ``learning_rate`` times a depth-limited regression
tree fit to the current residuals.  One fit takes one target column or T of
them: round k grows the T columns' trees together, level by level, and a
T-column fit gives the same trees as T one-column fits.

Sums are exact.  Each tree's residuals are rounded to integers at a
power-of-two scale chosen so that every sum over a subset of its rows is an
integer below 2^52, exact in float64 in any order of addition (integer-
quantized gradients, after Shi et al. 2022, arXiv:2207.09682).  Each feature
is binned by its sorted unique values, one ``np.unique`` per fit.  Per level
and feature, one pass covers the open nodes of all T trees: a histogram of
counts and sums over (open node, bin) cells (histogram split finding, after
Chen & Guestrin 2016, arXiv:1603.02754) when the cells are no more than the
(tree, row) pairs, else a running sum over the pairs sorted by node and bin,
so a feature with a distinct value per row costs no more per level than the
pairs.  A split minimizes the children's squared error; ties go to the
lowest feature index, then the lowest threshold, which is the next value
present in the node.

Determinism is taken seriously: exact sums make fitting bit-for-bit
invariant under row permutation.  The learner draws no random numbers: one
config and one training set give one model, bit for bit, regardless of
thread count.  Every tree sees every training row.
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


def _split_score(lc, ls, rc, rs, no_split):
    """The children's ls^2/lc + rs^2/rc (-inf where ``no_split``), in one
    order of operations for both split searches; overwrites ``rs``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        rs *= rs
        rs /= rc
        score = ls * ls
        score /= lc
        score += rs
    score[no_split] = -np.inf
    return score


class _Grower:
    """Grows one round's trees, one per target column, level by level.

    The work is held as (tree, row) pairs, pair t * n + i being row i of tree
    t: every tree sees every row.  Per level, each feature's split search
    covers the open nodes of all T trees in one of two exact ways, whichever
    touches fewer entries:

    - a histogram of counts and sums over the (open node, bin) cells, two
      ``bincount`` passes over the pairs, when the cells are no more than the
      pairs: few open nodes, or few distinct values;
    - otherwise a scan: the feature's pairs, kept in bin order, are sorted
      stably by open node, and one running sum over them gives every node's
      candidate splits, at a cost linear in the pairs however many distinct
      values the feature takes.

    Both score a candidate with the same arithmetic on the same exact sums,
    so they find the same split."""

    def __init__(self, values: list[np.ndarray], codes: np.ndarray, n_trees: int, cfg: GbtConfig):
        self.cfg = cfg
        p, n = codes.shape
        self.widths = [len(v) for v in values]
        self.bins = np.tile(codes, n_trees)  # (p, pairs): each pair's bin on each feature
        order = np.argsort(codes, axis=1, kind="stable")
        self.by_bin = (order[:, None, :] + n * np.arange(n_trees)[:, None]).reshape(p, -1)
        self.sorted_bins = np.take_along_axis(self.bins, self.by_bin, axis=1)
        self.sorted_q = np.empty(self.bins.shape)  # the round's residuals in that order
        # feature f's bin b holds the value values_flat[value_start[f] + b]
        self.value_start = np.cumsum([0] + self.widths[:-1])
        self.values_flat = np.concatenate(values)

    def _search(self, label, count, total, q):
        """Best split of each open node: whether it splits, its feature, its
        right bin (the first bin present in the node above the threshold),
        its left count and its left sum."""
        n_open = len(count)
        best = np.full(n_open, -np.inf)
        feature = np.zeros(n_open, dtype=np.intp)
        right_bin = np.zeros(n_open, dtype=np.intp)
        left_count = np.zeros(n_open)
        left_sum = np.zeros(n_open)
        layout = None
        for f, width in enumerate(self.widths):
            if n_open * width <= len(q):
                top, at, lc, ls = self._histogram(f, label, count, total, q)
            else:
                layout = layout or self._layout(count, total)
                top, at, lc, ls = self._scan(f, label, total, layout)
            # strict: a tie keeps the lower feature
            better = top > best
            best[better] = top[better]
            feature[better] = f
            right_bin[better] = at[better]
            left_count[better] = lc[better]
            left_sum[better] = ls[better]
        # a node whose residuals are all equal does not split; one that does
        # must strictly beat its own score
        lo = np.full(n_open + 1, np.inf)
        hi = np.full(n_open + 1, -np.inf)
        np.minimum.at(lo, label, q)
        np.maximum.at(hi, label, q)
        won = (best > total * total / count) & (lo[:-1] < hi[:-1])
        return won, feature, right_bin, left_count, left_sum

    def _histogram(self, f, label, count, total, q):
        """Feature f's best split of each open node, from (open node, bin) sums:
        its score (-inf for none), right bin, left count and left sum."""
        msl = self.cfg.min_samples_leaf
        n_open, width = len(count), self.widths[f]
        # the pairs of closed nodes (label n_open) fill a last row, dropped
        keys = np.multiply(label, width, dtype=np.intp)
        keys += self.bins[f]
        cells = (n_open + 1) * width
        hc = np.bincount(keys, minlength=cells)[: n_open * width].reshape(n_open, width)
        hs = np.bincount(keys, q, minlength=cells)[: n_open * width].reshape(n_open, width)
        # a split below bin b needs b present and min_samples_leaf pairs a side
        lc = np.cumsum(hc, axis=1)
        lc -= hc
        ls = np.cumsum(hs, axis=1)
        ls -= hs
        lc = lc.astype(float)
        rc = count[:, None] - lc
        no_split = (hc == 0) | (lc < msl) | (rc < msl)
        score = _split_score(lc, ls, rc, total[:, None] - ls, no_split)
        # the first maximum: the lowest threshold
        at = np.argmax(score, axis=1)
        nodes = np.arange(n_open)
        return score[nodes, at], at, lc[nodes, at], ls[nodes, at]

    def _layout(self, count, total):
        """The scan's per-level tables over the open pairs in node order: each
        node's first position and size, and per position the left and right
        counts of a split after it, whether either side is too small, and the
        node's sum."""
        msl = self.cfg.min_samples_leaf
        sizes = count.astype(np.intp)
        starts = np.cumsum(sizes) - sizes
        lc = np.arange(1.0, sizes.sum() + 1) - np.repeat(starts, sizes)
        rc = np.repeat(count, sizes) - lc
        return starts, sizes, lc, rc, (lc < msl) | (rc < msl), np.repeat(total, sizes)

    def _scan(self, f, label, total, layout):
        """``_histogram``'s result from a running sum over feature f's open
        pairs in (node, bin) order."""
        starts, sizes, lc, rc, no_room, node_total = layout
        n_act = len(lc)
        # a node's pairs are all of one tree, so they stay in bin order; closed
        # pairs sort last
        order = np.argsort(label[self.by_bin[f]], kind="stable")[:n_act]
        bins = self.sorted_bins[f][order]
        ls = self.sorted_q[f][order]
        # running sums restart at each node: its first pair takes off the
        # sum of the node before, so every partial sum is an exact integer
        ls[starts[1:]] -= total[:-1]
        np.cumsum(ls, out=ls)
        # a split after position j also needs a bin present after j in the node
        no_split = np.append(bins[:-1] == bins[1:], True)
        no_split |= no_room
        score = _split_score(lc, ls, rc, node_total - ls, no_split)
        # the first maximum: the lowest threshold
        top = np.maximum.reduceat(score, starts)
        hits = np.flatnonzero(score == np.repeat(top, sizes))
        at = hits[np.searchsorted(hits, starts)]
        return top, bins[np.minimum(at + 1, n_act - 1)], lc[at], ls[at]

    def grow(self, q: np.ndarray, shift: np.ndarray) -> list[RegressionTree]:
        """One tree per row of the exact residuals ``q`` (T, n), scaled by 2^shift;
        each pair's leaf value then overwrites its residual in ``q``."""
        cfg = self.cfg
        n_trees, n = q.shape
        flat = q.ravel()
        np.take(flat, self.by_bin, out=self.sorted_q)
        node = np.repeat(np.arange(n_trees), n)  # each pair's node, numbered across the round
        pair = np.arange(len(node))

        # the level's nodes; the roots first, tree t's root is round node t
        # (n >= 2 * min_samples_leaf and max_depth >= 1 hold, so every root opens)
        tree = np.arange(n_trees)
        count = np.full(n_trees, float(n))
        total = q.sum(axis=1)
        opened = tree
        n_nodes = np.ones(n_trees, dtype=np.intp)
        first = 0  # round number of the level's first node
        levels = []
        for depth in range(cfg.max_depth + 1):
            size = len(tree)
            feature = np.full(size, -1)  # -1 marks a leaf
            right_bin = np.zeros(size, dtype=np.intp)
            lo_id = np.full(size, -1)
            hi_id = np.full(size, -1)
            levels.append((tree, count, total, feature, right_bin, lo_id, hi_id))
            n_open = len(opened)
            if not n_open:
                break
            # each pair's open node, n_open once its node is closed
            lookup = np.full(first + size, n_open, dtype=np.min_scalar_type(n_open))
            lookup[first + opened] = np.arange(n_open)
            label = lookup[node]
            won, s_feature, s_bin, s_lc, s_ls = self._search(label, count[opened], total[opened], flat)
            at = opened[won]
            if not at.size:
                break
            # children, left then right, numbered per tree after every node so far
            ctree = np.repeat(tree[at], 2)
            cnid = n_nodes[ctree] + np.arange(2 * at.size) - np.searchsorted(ctree, ctree)
            n_nodes += np.bincount(ctree, minlength=n_trees)
            feature[at] = s_feature[won]
            right_bin[at] = s_bin[won]
            lo_id[at] = cnid[0::2]
            hi_id[at] = cnid[1::2]
            s_lc, s_ls = s_lc[won], s_ls[won]
            ccount = np.column_stack([s_lc, count[at] - s_lc]).ravel()
            ctotal = np.column_stack([s_ls, total[at] - s_ls]).ravel()

            # each pair of a split node moves to its left child, or to the right
            # one when its bin on the split's feature is the right bin or above;
            # the last entry of each table serves the pairs that stay
            nxt = first + size  # round number of the first child
            feat = np.append(np.where(won, s_feature, 0), 0)
            cut = np.append(np.where(won, s_bin, len(self.values_flat)), len(self.values_flat))
            dest = np.append(np.where(won, nxt + 2 * (np.cumsum(won) - 1), first + opened), 0)
            go_right = np.take(self.bins, feat[label] * len(pair) + pair) >= cut[label]
            np.copyto(node, dest[label] + go_right, where=label < n_open)

            # a child opens below max_depth with room for two leaves
            opened = np.flatnonzero((depth + 1 < cfg.max_depth) & (ccount >= 2 * cfg.min_samples_leaf))
            tree, count, total, first = ctree, ccount, ctotal, nxt

        tree, count, total, feature, right_bin, left, right = map(np.concatenate, zip(*levels))
        leaf = feature < 0
        # the threshold is the value of the right bin: the next one present in the node
        threshold = np.where(leaf, 0.0, self.values_flat[self.value_start[feature] + right_bin])
        value = np.where(leaf, np.ldexp(total, -shift[tree]) / count, 0.0)
        np.take(value, node, out=flat)
        order = np.argsort(tree, kind="stable")  # each tree's nodes in creation order: its numbering
        bounds = np.cumsum(n_nodes)[:-1]
        parts = (np.split(c[order], bounds) for c in (feature, threshold, left, right, value))
        return [RegressionTree(*p) for p in zip(*parts)]


# trees x rows one chunk of the predictor walks at once; bounds its work arrays
PREDICT_CELLS = 8192


@dataclass
class Ensemble:
    """base_score plus learning_rate-weighted sum of tree outputs.

    With one target column ``base_score`` is a float and ``predict`` returns
    shape (n,).  With T columns it is an array of T, ``predict`` returns
    (n, T), and the trees are round-major: tree i belongs to output i % T.
    Built by ``fit``, which numbers each tree's nodes level by level, so each
    split's children come after it inside its own tree; ``predict`` raises
    on a walk that ends off a leaf."""

    base_score: float | np.ndarray
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
        base = np.asarray(self.base_score, dtype=float)
        n_out = base.size
        out = np.empty((n, n_out))
        out[:] = base.ravel()
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
            # tree outputs join their output's sum one tree at a time, in tree order
            values = np.concatenate([t.value for t in trees])
            for i, leaf_value in enumerate(values[node], start):
                out[:, i % n_out] += self.config.learning_rate * leaf_value
        return out if base.ndim else out[:, 0]


def fit(x: np.ndarray, y: np.ndarray, cfg: GbtConfig = GbtConfig()) -> Ensemble:
    """Boost cfg.n_rounds trees per column of ``y`` ((n,) or (n, T)) onto the
    residuals of a squared-loss model."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[0] if x.ndim == 2 and x.shape[1] else 0
    if n == 0 or y.ndim not in (1, 2) or y.shape[0] != n or y.size == 0:
        raise ValueError(f"need matching nonempty x and y, got {x.shape} and {y.shape}")
    if n < 2 * cfg.min_samples_leaf:
        raise ValueError(f"need at least {2 * cfg.min_samples_leaf} rows, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite values")
    if not np.isfinite(y).all():
        raise ValueError("targets contain non-finite values")

    p = x.shape[1]
    bins = [np.unique(x[:, f], return_inverse=True) for f in range(p)]
    targets = y.reshape(n, -1).T  # (T, n)
    n_trees = targets.shape[0]
    base = np.array([_ordered_sum(t) for t in targets]) / n
    pred = np.repeat(base[:, None], n, axis=1)
    grower = _Grower([v for v, _ in bins], np.stack([c for _, c in bins]), n_trees, cfg)
    # |q| <= 2^(52 - k) with n < 2^k, so every subset sum is an integer below 2^52
    k = n.bit_length()
    trees: list[RegressionTree] = []
    q = np.empty_like(pred)
    for _ in range(cfg.n_rounds):
        np.subtract(targets, pred, out=q)
        e = np.frexp(np.maximum(q.max(axis=1), -q.min(axis=1)))[1]  # max|r| < 2^e
        shift = 52 - e - k
        np.ldexp(q, shift[:, None], out=q)
        np.rint(q, out=q)
        trees.extend(grower.grow(q, shift))
        q *= cfg.learning_rate
        pred += q
    return Ensemble(float(base[0]) if y.ndim == 1 else base, trees, cfg, n_features=p)
