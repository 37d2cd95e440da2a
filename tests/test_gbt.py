import tracemalloc

import numpy as np
import pytest

from pibrake import gbt
from pibrake.gbt import Ensemble, GbtConfig, RegressionTree, fit


def test_config_validation():
    with pytest.raises(ValueError):
        GbtConfig(n_rounds=0)
    with pytest.raises(ValueError):
        GbtConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        GbtConfig(learning_rate=1.5)
    with pytest.raises(ValueError):
        GbtConfig(max_depth=0)
    with pytest.raises(ValueError):
        GbtConfig(min_samples_leaf=0)


def test_constant_target_gives_splitless_trees():
    x = np.linspace(0, 1, 40).reshape(-1, 1)
    y = np.full(40, 3.7)
    e = fit(x, y, GbtConfig(n_rounds=20, min_samples_leaf=2))
    assert all((t.feature >= 0).sum() == 0 for t in e.trees)
    np.testing.assert_allclose(e.predict(x), 3.7, rtol=0, atol=1e-12)


def test_fits_identity_line():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (100, 1))
    y = x[:, 0]
    e = fit(x, y, GbtConfig(n_rounds=200, learning_rate=0.1, max_depth=4, min_samples_leaf=1))
    assert np.mean(np.abs(e.predict(x) - y)) <= 1e-2


def test_determinism_same_seed():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 4))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    cfg = GbtConfig(n_rounds=60)
    p1 = fit(x, y, cfg).predict(x)
    p2 = fit(x, y, cfg).predict(x)
    np.testing.assert_array_equal(p1, p2)


def test_row_permutation_invariance():
    rng = np.random.default_rng(2)
    # grid-like features with many duplicate values, the adversarial case
    x = np.column_stack(
        [rng.choice(np.linspace(0, 1, 7), 400), rng.choice(np.linspace(-1, 1, 5), 400)]
    )
    y = x[:, 0] * 2 - x[:, 1] + rng.normal(0, 0.05, 400)
    cfg = GbtConfig(n_rounds=40)
    probe = rng.normal(size=(50, 2))
    base = fit(x, y, cfg).predict(probe)
    for trial in range(3):
        perm = rng.permutation(400)
        np.testing.assert_array_equal(fit(x[perm], y[perm], cfg).predict(probe), base)


def test_training_loss_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(250, 3))
    y = np.sin(2 * x[:, 0]) + 0.3 * x[:, 1]
    e = fit(x, y, GbtConfig(n_rounds=120))
    assert len(e.trees) == 120
    # training loss after each round, scored on the ensemble truncated to k trees
    losses = np.array(
        [np.mean((y - Ensemble(e.base_score, e.trees[:k], e.config, e.n_features).predict(x)) ** 2)
         for k in range(1, 121)]
    )
    assert (np.diff(losses) <= 1e-12).all()


def test_empty_tree_list_predicts_base_score():
    e = Ensemble(base_score=2.5, trees=[], config=GbtConfig(), n_features=3)
    np.testing.assert_array_equal(e.predict(np.zeros((4, 3))), np.full(4, 2.5))


def test_overfit_memorizes_training_points():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 10, (50, 1))
    y = rng.normal(size=50)
    cfg = GbtConfig(n_rounds=500, learning_rate=0.3, max_depth=8, min_samples_leaf=1)
    e = fit(x, y, cfg)
    np.testing.assert_allclose(e.predict(x), y, atol=1e-6)


def test_extrapolation_is_constant():
    rng = np.random.default_rng(6)
    x = rng.uniform(0, 1, (150, 1))
    y = 3 * x[:, 0]
    e = fit(x, y, GbtConfig(n_rounds=80))
    far = e.predict(np.array([[5.0], [50.0], [500.0]]))
    assert far[0] == far[1] == far[2]
    edge = e.predict(np.array([[x.max()]]))[0]
    assert far[0] == edge


def test_tree_predictions_piecewise_constant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 2))
    y = x[:, 0] ** 2
    e = fit(x, y, GbtConfig(n_rounds=10))
    probe = rng.normal(size=(500, 2))
    for tree in e.trees:
        distinct = np.unique(Ensemble(0.0, [tree], e.config, e.n_features).predict(probe))
        assert len(distinct) <= (tree.feature < 0).sum()


def test_predict_shape_validation():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    e = fit(x, x[:, 0], GbtConfig(n_rounds=5))
    with pytest.raises(ValueError, match="feature columns"):
        e.predict(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        e.predict(np.array([[0.0, np.nan, 0.0]]))
    assert np.isfinite(e.predict(np.zeros((4, 3)))).all()


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit(np.zeros((0, 2)), np.zeros(0), GbtConfig())
    with pytest.raises(ValueError, match="rows"):
        fit(np.zeros((4, 2)), np.zeros(4), GbtConfig(min_samples_leaf=5))
    with pytest.raises(ValueError, match="finite"):
        fit(np.ones((20, 2)), np.full(20, np.nan), GbtConfig())
    x = np.ones((20, 2))
    x[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit(x, np.zeros(20), GbtConfig())


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (60, 1))
    y = (x[:, 0] > 0.5).astype(float)
    e = fit(x, y, GbtConfig(n_rounds=3, min_samples_leaf=10))
    # count rows reaching each leaf of the first tree
    tree = e.trees[0]
    leaf_of = np.zeros(60, dtype=int)
    for i in range(60):
        nid = 0
        while tree.feature[nid] >= 0:
            nid = tree.left[nid] if x[i, 0] < tree.threshold[nid] else tree.right[nid]
        leaf_of[i] = nid
    _, counts = np.unique(leaf_of, return_counts=True)
    assert counts.min() >= 10


def test_internal_nodes_have_nonempty_children():
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 1, (80, 2))
    y = x[:, 0] + rng.normal(0, 0.1, 80)
    e = fit(x, y, GbtConfig(n_rounds=5, min_samples_leaf=1))
    for tree in e.trees:
        internal = tree.feature >= 0
        assert (tree.left[internal] >= 0).all() and (tree.right[internal] >= 0).all()


def _walk(tree, row):
    nid = 0
    while tree.feature[nid] >= 0:
        nid = tree.left[nid] if row[tree.feature[nid]] < tree.threshold[nid] else tree.right[nid]
    return tree.value[nid]


def _reference_predict(e, x):
    """Node-by-node traversal of every tree, summed in tree order."""
    out = np.full(len(x), e.base_score)
    for tree in e.trees:
        out += e.config.learning_rate * np.array([_walk(tree, row) for row in x])
    return out


@pytest.mark.parametrize(
    "depth, rounds, constant", [(1, 6, False), (4, 20, False), (6, 12, False), (3, 4, True)]
)
def test_heap_predictor_matches_a_reference_walk(monkeypatch, depth, rounds, constant):
    rng = np.random.default_rng(depth)
    x = np.column_stack([rng.choice(np.linspace(0, 1, 9), 150), rng.normal(size=150), rng.uniform(size=150)])
    y = np.full(150, 1.5) if constant else np.where(x[:, 0] > 0.5, 2.0, 0.0) + 0.3 * x[:, 1] ** 2
    e = fit(x, y, GbtConfig(n_rounds=rounds, max_depth=depth, min_samples_leaf=8))
    if constant:
        assert all((t.feature >= 0).sum() == 0 for t in e.trees)  # every tree is a lone root leaf
    elif depth > 1:
        # leaves above the bottom
        assert any(0 < (t.feature >= 0).sum() and (t.feature < 0).sum() < 2**depth for t in e.trees)
    probe = np.vstack([x[:40], rng.normal(size=(25, 3))])
    want = _reference_predict(e, probe)
    np.testing.assert_array_equal(e.predict(probe), want)
    # chunks of 3 trees walk the same slots and add the same values in the same order
    monkeypatch.setattr(gbt, "PREDICT_CELLS", 3 * len(probe))
    np.testing.assert_array_equal(e.predict(probe), want)
    empty = Ensemble(e.base_score, [], e.config, e.n_features)
    np.testing.assert_array_equal(empty.predict(probe), _reference_predict(empty, probe))


def _chain_tree(depth):
    """Split j sends x < j to a leaf of value j and the rest on to split j+1; the last right leaf is depth."""
    n = 2 * depth + 1
    feature = [0, -1] * depth + [-1]
    threshold = [float(j // 2) if j % 2 == 0 else 0.0 for j in range(n - 1)] + [0.0]
    left = [j + 1 if j % 2 == 0 else -1 for j in range(n - 1)] + [-1]
    right = [j + 2 if j % 2 == 0 else -1 for j in range(n - 1)] + [-1]
    value = [float(j // 2) for j in range(n)]
    return RegressionTree(feature, threshold, left, right, value)


def test_node_walk_of_a_depth_40_chain_tree():
    e = Ensemble(0.5, [_chain_tree(40), _chain_tree(3)], GbtConfig(max_depth=40), n_features=1)
    x = np.array([[-1.0], [0.5], [20.5], [38.5], [39.5], [1e9]])
    tracemalloc.start()
    try:
        got = e.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, _reference_predict(e, x))
    assert got[-1] == 0.5 + 0.1 * 40 + 0.1 * 3  # the depth-40 leaf, then the depth-3 one
    assert peak < 2**20


@pytest.mark.parametrize(
    "tree, message",
    [
        (_chain_tree(7), "deeper than its max_depth=6"),
        # a self-looping split keeps every row off a leaf
        (RegressionTree([0], [0.5], [0], [0], [0.0]), "deeper than its max_depth=6"),
    ],
    ids=["deep", "cycle"],
)
def test_a_tree_deeper_than_its_config_raises(tree, message):
    with pytest.raises(ValueError, match=message):
        Ensemble(0.0, [tree], GbtConfig(max_depth=6), n_features=1).predict(np.array([[0.0], [100.0]]))
