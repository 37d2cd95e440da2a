"""Tests of the benchmark itself: span arithmetic, missing targets, exact
work counters and the exit contract.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import tracer as tr
import workloads as w
from pibrake import dataset, gbt, simulator

HERE = Path(__file__).resolve().parent.parent
SMALL_MATRIX = ["--rounds", "3", "--depth", "3"]


def test_self_times_and_unattributed_sum_to_wall():
    pt = tr.PassTrace(wall_s=10.0)
    pt.spans = [
        tr.Span("cli.main", 0.5, 9.5, -1),
        tr.Span("experiments.run_matrix", 1.0, 9.0, 0),
        tr.Span("gbt.fit", 2.0, 5.0, 1),
        tr.Span("gbt.predict", 6.0, 7.0, 1),
    ]
    m = tr.layer_metrics(pt)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["experiments.run_matrix_self_s"] == pytest.approx(4.0)
    assert m["gbt.self_s"] == pytest.approx(4.0)
    assert m["trace.unattributed_s"] == pytest.approx(1.0)
    total = sum(m[f"{layer}.self_s"] for layer in tr.LAYERS) + m["trace.unattributed_s"]
    assert total == pytest.approx(pt.wall_s)


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tr, "TARGETS", tr.TARGETS + (("pibrake.dataset", "no_such_fn", "dataset.gone"),))
    t = tr.Tracer()
    _, ds = t.run_pass(lambda: dataset.generate([dataset.DEFAULT_VEHICLES["small"]], "surrogate", 0))
    assert t.missing == ["pibrake.dataset.no_such_fn"]
    assert t.passes[0].counts["trace.missing_names"] == 1
    assert len(ds["small"]) == 540


def test_counter_that_cannot_read_a_result_is_reported_not_fatal(monkeypatch):
    class FlatEnsemble:  # a reworked ensemble without a per-tree list
        nodes = np.zeros(4)

    def fit(x, y, cfg=None):
        return FlatEnsemble()

    monkeypatch.setattr(gbt, "fit", fit)
    t = tr.Tracer()
    _, ens = t.run_pass(lambda: gbt.fit(np.zeros((4, 2)), np.zeros(4)))
    assert isinstance(ens, FlatEnsemble)
    assert t.counter_errors == ["gbt.fit"]
    assert t.passes[0].counts["trace.counter_errors"] == 1
    assert [s.name for s in t.passes[0].spans] == ["gbt.fit"]


def test_wrappers_removed_after_pass():
    original = dataset.load_csv
    t = tr.Tracer()
    t.run_pass(lambda: None)
    assert dataset.load_csv is original
    assert sys.modules["pibrake.cli"].load_csv is original


def _counting_numpy(calls):
    """A stand-in for the simulator's numpy that records np.cos call sizes."""
    ns = types.SimpleNamespace(**{k: getattr(np, k) for k in dir(np) if not k.startswith("__")})

    def cos(x):
        calls.append(np.size(x))
        return np.cos(x)

    ns.cos = cos
    return ns


def test_rk4_counts_match_the_kernel(monkeypatch):
    # the lockstep kernel evaluates cos four times (k1..k4) per iteration on the active rows
    rng = np.random.default_rng(3)
    v = rng.uniform(0.1, 5.0, 200)
    a = -rng.uniform(0.5, 9.81, 200)
    d = rng.uniform(0.0, 0.78, 200)
    calls = []
    monkeypatch.setattr(simulator, "np", _counting_numpy(calls))
    simulator.simulate_kinematic_batch(0.5, v, a, d, 1e-3)
    assert tr.rk4_step_counts(v, a, 1e-3) == (sum(calls) // 4, len(calls) // 4)


def _traced(fn):
    t = tr.Tracer()
    t.run_pass(fn)
    return t.passes[0].counts


def test_kinematic_grid_counts_are_exact_and_seed_free():
    large = [dataset.DEFAULT_VEHICLES["large"]]
    c0 = _traced(lambda: dataset.generate(large, "kinematic", 0))
    assert c0 == _traced(lambda: dataset.generate(large, "kinematic", 0))
    assert c0 == _traced(lambda: dataset.generate(large, "kinematic", 7))
    assert c0["simulator.rk4_loop_iters"] == 5097
    assert 4.1e6 < c0["simulator.rk4_row_steps"] < 4.3e6
    assert c0["dataset.records"] == 5500


def _small_matrix(tmp_path, seed):
    out = tmp_path / f"seed{seed}"
    w.gen(out, "surrogate", seed)
    argv = ["matrix", "--source", "surrogate", "--seed", str(seed), "--out", str(out)] + SMALL_MATRIX
    return _traced(lambda: w.call_cli(argv))


def test_matrix_counts_repeat_at_a_seed_and_follow_it(tmp_path):
    c0 = _small_matrix(tmp_path, 0)
    assert c0 == _small_matrix(tmp_path / "again", 0)
    c1 = _small_matrix(tmp_path, 1)
    for fixed in ("gbt.fits", "gbt.trees", "gbt.fit_rows", "gbt.fit_cells", "gbt.predict_tree_rows",
                  "dataset.records", "features.rows", "trace.spans"):
        assert c0[fixed] == c1[fixed], fixed
    assert (c0["gbt.fits"], c0["gbt.trees"], c0["gbt.fit_rows"]) == (12, 36, 7776)
    # surrogate noise and the split move the tree shapes and the CSV text
    assert c0["gbt.nodes"] != c1["gbt.nodes"]
    assert c0["dataset.csv_bytes"] != c1["dataset.csv_bytes"]


def test_run_without_package_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# (trace flag, failing call of dataset.generate): a pass generates both
# sources, so call 3 is the second pass, which a traced run traces
@pytest.mark.parametrize("trace, fail_from", [("0", 1), ("1", 1), ("1", 3)])
def test_pass_that_raises_is_a_counted_failure(monkeypatch, capsys, trace, fail_from):
    for var in run.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    calls = []
    original = dataset.generate

    def generate(*args, **kwargs):
        calls.append(1)
        if len(calls) >= fail_from:
            raise ValueError("broken simulator")
        return original(*args, **kwargs)

    monkeypatch.setattr(dataset, "generate", generate)
    rc = run.main(["--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"] >= 1
    assert len(calls) == fail_from
