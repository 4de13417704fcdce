"""The vectorized forest grower against a plain per-node reference.

``grow_reference`` grows one tree at a time and one node at a time, in
Python floats, by the rule that ``forest._grow_trees`` documents: a
node's and a run's target sums add one row at a time in sample order, a
cut's left sums add the node's runs one at a time in ascending value, its
right sums are the node's minus the left's, and a squared error is
S2 - S*S/n. It emits each tree level by level in parent order, siblings
adjacent, which is the forest layout. Both growers must agree node for
node, on all three arrays, bit for bit. The reference also records each
split node's left child as it places it; that must be the child the
layout implies.
"""

import ast
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol import calibrate, campaign, forest
from smol.calibrate import Dataset, FeatureMode, ModelKind, ModelSpec

pytestmark = pytest.mark.numpy_bits


def _sums(values) -> tuple[float, float]:
    s = s2 = 0.0
    for v in values:
        s, s2 = s + v, s2 + v * v
    return s, s2


def _best_cut(X, y, rows, min_leaf) -> tuple[int, float]:
    """(feature, threshold) of the node's best cut, or (-1, 0.0) for none."""
    n = len(rows)
    s, s2 = _sums(y[i] for i in rows)
    node_sse = s2 - s * s / n
    best_gain, best = 0.0, (-1, 0.0)
    for j in range(len(X[0])):
        values = sorted({X[i][j] for i in rows})
        cuts = []
        left, left2, left_n = 0.0, 0.0, 0
        for k in range(len(values) - 1):
            run = [i for i in rows if X[i][j] == values[k]]
            run_s, run_s2 = _sums(y[i] for i in run)
            left, left2, left_n = left + run_s, left2 + run_s2, left_n + len(run)
            right, right2, right_n = s - left, s2 - left2, n - left_n
            if left_n >= min_leaf and right_n >= min_leaf:
                gain = (node_sse - (left2 - left * left / left_n)) - (
                    right2 - right * right / right_n
                )
                mid = (values[k] + values[k + 1]) / 2.0
                cuts.append((gain, mid if mid < values[k + 1] else values[k]))
        if cuts and not any(math.isnan(gain) for gain, _ in cuts):
            gain, threshold = max(cuts, key=lambda cut: cut[0])  # the first of equals
            if gain > best_gain:
                best_gain, best = gain, (j, threshold)
    return best


def grow_reference(X, y, samples, max_depth, min_leaf) -> dict[str, np.ndarray]:
    """What ``forest._grow_trees`` returns, grown one node at a time, plus
    ``left``: each node's left child within its tree, or -1 at a leaf."""
    X, y = X.tolist(), y.tolist()
    trees = {"feature": [], "left": [], "tree_sizes": [], "value": []}
    for sample in samples.tolist():
        queue = [(sample, 0)]
        for rows, depth in queue:  # breadth-first: the queue is the layout
            targets = [y[i] for i in rows]
            j, threshold = -1, 0.0
            if len(rows) >= 2 * min_leaf and depth != max_depth and len(set(targets)) > 1:
                j, threshold = _best_cut(X, y, rows, min_leaf)
            trees["feature"].append(j)
            if j < 0:
                trees["left"].append(-1)
                trees["value"].append(_sums(targets)[0] / len(rows))
                continue
            trees["left"].append(len(queue))
            trees["value"].append(threshold)
            queue.append(([i for i in rows if X[i][j] <= threshold], depth + 1))
            queue.append(([i for i in rows if not X[i][j] <= threshold], depth + 1))
        trees["tree_sizes"].append(len(queue))
    return {key: np.array(values) for key, values in trees.items()}


def _assert_growers_agree(settings: dict, X: np.ndarray, y: np.ndarray) -> dict:
    """The forest ``forest.grow`` grows at ``settings`` on any number of
    feature columns, once it matches the reference's."""
    grown = forest.grow(X, y, **settings)
    with mock.patch.object(forest, "_grow_trees", grow_reference):
        reference = forest.grow(X, y, **settings)
    left, sizes = reference.pop("left"), reference["tree_sizes"]
    implied = forest._left_children(reference["feature"], sizes) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    assert np.array_equal(left, np.where(reference["feature"] >= 0, implied, -1))
    assert grown.keys() == reference.keys()
    for key in grown:
        assert np.array_equal(grown[key], reference[key]), key
    return grown


def _dataset(X, y) -> Dataset:
    """A dataset whose mode fits its width: one column is median_tx at
    13 dBm, two are all_tx."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.shape[1] == 1:
        return Dataset(X, y, FeatureMode.MEDIAN_TX, median_tx_power=13)
    return Dataset(X, y, FeatureMode.ALL_TX)


CELLS = {
    "integer": st.integers(-3, 3).map(float),  # few values: many ties
    "continuous": st.floats(-1e3, 1e3, allow_subnormal=False),
    "signed_zero": st.sampled_from([-0.0, 0.0, 1.0]),  # -0.0 == 0.0: one rank
}
TARGETS = st.one_of(
    st.floats(-50.0, 50.0, allow_subnormal=False),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 7.0]),  # repeated targets: equal gains
)


@st.composite
def datasets(draw) -> tuple[np.ndarray, np.ndarray]:
    """Features of one to three columns and their targets, as floats."""
    n = draw(st.integers(1, 24))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=3))
    X = [[draw(CELLS[kind]) for kind in kinds] for _ in range(n)]
    if draw(st.booleans()):
        y = [draw(TARGETS)] * n  # constant targets
    else:
        y = draw(st.lists(TARGETS, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=8)):  # duplicated rows
        X.append(X[i])
        y.append(y[i])
    return np.array(X, dtype=float), np.array(y, dtype=float)


# forest.grow's settings.
SETTINGS = st.fixed_dictionaries(
    {
        "n_trees": st.integers(1, 7),
        "max_depth": st.one_of(st.none(), st.integers(1, 6)),
        "min_leaf": st.integers(1, 4),
        "bootstrap": st.booleans(),
        "seed": st.integers(0, 1000),
    }
)


def _processes(count: int):
    """Grow a fit's batches in ``count`` processes, whatever the CPUs."""
    return mock.patch.object(forest, "_process_count", lambda: count)


@given(data=datasets(), grow=SETTINGS)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_vectorized_grower_matches_the_reference(data, grow):
    sizes = _assert_growers_agree(grow, *data)["tree_sizes"]
    # Every leaf holds min_leaf rows or more, which bounds a tree's node count.
    assert (sizes <= 2 * max(1, len(data[1]) // grow["min_leaf"]) - 1).all()


@given(data=datasets(), grow=SETTINGS, draw=st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batch_size_does_not_change_the_forest(data, grow, draw):
    # From one tree per batch (also when a tree's rows exceed the budget)
    # to all trees in one batch, the batches grown in one to three processes.
    budget = draw.draw(st.integers(1, grow["n_trees"] * len(data[1]) + 1), label="budget")
    processes = draw.draw(st.integers(1, 3), label="processes")
    with mock.patch.object(forest, "_BATCH_ROWS", 1), _processes(1):
        reference = forest.grow(*data, **grow)
    with mock.patch.object(forest, "_BATCH_ROWS", budget), _processes(processes):
        batched = forest.grow(*data, **grow)
    assert batched.keys() == reference.keys()
    for key in batched:
        assert batched[key].dtype == reference[key].dtype, key
        assert np.array_equal(batched[key], reference[key]), key


def test_gains_holding_nan_cut_nothing():
    # Squares of 1e200 overflow, so every gain is inf - inf: no cut anywhere.
    data = _dataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 1e200, 0.0, 1e200])
    grow = dict(n_trees=1, min_leaf=1, bootstrap=False)
    with np.errstate(over="ignore"):
        assert _assert_growers_agree(grow, data.features, data.targets)["feature"].tolist() == [-1]


@pytest.mark.parametrize("bootstrap", [False, True])
def test_more_than_256_distinct_values_match_the_reference(bootstrap):
    # A feature of 300 distinct values ranks in 16 bits, not 8.
    rng = np.random.default_rng(7)
    X = np.column_stack([rng.permutation(300) / 7.0 - 20.0, rng.integers(-3, 4, 300)])
    assert len(np.unique(X[:, 0])) > 256
    grow = dict(n_trees=2, max_depth=3, min_leaf=1, bootstrap=bootstrap)
    _assert_growers_agree(grow, X, rng.normal(0.0, 5.0, 300).round(1))


@pytest.mark.parametrize(("max_depth", "min_leaf"), [(3, 1), (None, 150)])
def test_five_columns_match_the_reference(max_depth, min_leaf):
    # Five columns, so five blocks of run labels: one of a single value, one
    # of 300 distinct values (16-bit ranks), one of -0.0, 0.0 and 1.0, and
    # two of few integers. With min_leaf 150, half of the 300 rows, a tree is
    # cut only where a column's 150th and 151st values differ; some are not.
    rng = np.random.default_rng(11)
    X = np.column_stack([
        np.full(300, 4.0),
        rng.permutation(300) / 7.0 - 20.0,
        rng.choice([-0.0, 0.0, 1.0], 300),
        rng.integers(-3, 4, 300),
        rng.integers(0, 2, 300),
    ]).astype(float)
    grow = dict(n_trees=8, max_depth=max_depth, min_leaf=min_leaf, seed=5)
    sizes = _assert_growers_agree(grow, X, rng.normal(0.0, 5.0, 300).round(1))["tree_sizes"]
    assert (sizes > 1).all() if min_leaf == 1 else 0 < (sizes == 1).sum() < len(sizes)


@pytest.mark.parametrize("mode", list(FeatureMode))
def test_stock_forests_match_the_reference(mode):
    dataset = calibrate.assemble(campaign.run_campaign(campaign.CampaignConfig()), mode)
    train, _ = calibrate.split(dataset, seed=0)
    _assert_growers_agree({"n_trees": 5}, train.features, train.targets)


def test_stock_forest_is_the_same_in_one_two_and_three_processes():
    # The stock all-TX forest grows in six batches: slices of 6, of 3 + 3
    # and of 2 + 2 + 2 batches.
    log = campaign.run_campaign(campaign.CampaignConfig())
    train, _ = calibrate.split(calibrate.assemble(log, FeatureMode.ALL_TX), seed=0)
    spec = ModelSpec(ModelKind.RANDOM_FOREST)
    assert forest._batch_plan(len(train), 100, True, 0)[0] == 6  # grow's defaults
    with _processes(1):
        serial = calibrate.fit(spec, train).params
    for processes in (2, 3):
        with _processes(processes):
            forked = calibrate.fit(spec, train).params
        assert forked.keys() == serial.keys()
        for key in forked:
            assert forked[key].dtype == serial[key].dtype, key
            assert np.array_equal(forked[key], serial[key]), (processes, key)


def test_stock_forests_grow_in_batches_that_fit_the_budget():
    log = campaign.run_campaign(campaign.CampaignConfig())
    n_trees = 100  # grow's default
    for mode in FeatureMode:
        train, _ = calibrate.split(calibrate.assemble(log, mode), seed=0)
        n_batches, samples = forest._batch_plan(len(train), n_trees, True, 0)
        batches = [batch.shape for batch in samples]
        per_batch = forest._BATCH_ROWS // len(train)
        expected = {
            FeatureMode.ALL_TX: math.ceil(n_trees / per_batch),
            FeatureMode.MEDIAN_TX: 1,  # the whole forest at once
        }
        assert len(batches) == n_batches == expected[mode], mode
        assert sum(trees for trees, _ in batches) == n_trees
        for trees, rows in batches:
            assert rows == len(train)
            assert trees * rows <= forest._BATCH_ROWS or trees == 1


def test_the_stock_median_tx_forest_is_one_batch_at_every_process_count():
    log = campaign.run_campaign(campaign.CampaignConfig())
    train, _ = calibrate.split(calibrate.assemble(log, FeatureMode.MEDIAN_TX), seed=0)
    spec = ModelSpec(ModelKind.RANDOM_FOREST)
    assert forest._batch_plan(len(train), 100, True, 0)[0] == 1  # grow's defaults
    for processes in range(1, 9):
        with _processes(processes), mock.patch("os.fork", wraps=forest.os.fork) as fork:
            calibrate.fit(spec, train)
        fork.assert_not_called()


# The engine's names while it lived in calibrate, and the new names of the renamed ones.
MOVED = (
    "_running_sums", "_best_splits", "_grow_trees", "_left_children", "_descent_tables",
    "_forest_outputs", "_distinct_rows", "_batch_plan", "_process_count", "_fork_grower",
    "_fit_forest", "_BATCH_ROWS", "_DESCENT_PAIRS", "_FOREST_DTYPES", "_forest_from_json",
)
RENAMED = {"_fit_forest": "grow", "_FOREST_DTYPES": "DTYPES", "_forest_from_json": "decode"}


def _parsed(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _defined(tree: ast.Module) -> set[str]:
    """The functions and classes a module defines, at any depth, and the
    names its module-level assignments bind."""
    names = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _imported(tree: ast.Module) -> list[tuple[str | None, int, str]]:
    """(module, level, bound name) of every import: ``import a.b`` binds a."""
    return [
        (node.module, node.level, alias.asname or alias.name)
        if isinstance(node, ast.ImportFrom)
        else (alias.name, 0, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]


def test_calibrate_reaches_the_engine_through_its_public_names_only():
    engine, caller = _parsed(forest), _parsed(calibrate)
    # forest imports no smol module, so there is no import cycle.
    for module, level, _ in _imported(engine):
        assert level == 0 and module.split(".")[0] != "smol", module
    # calibrate reaches forest as a module, through names without a leading underscore.
    reached = {
        node.attr for node in ast.walk(caller)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "forest"
    }
    assert {"grow", "predict", "encode", "decode", "KEYS"} <= reached
    assert not [name for name in reached if name.startswith("_")]
    assert [(m, lvl) for m, lvl, name in _imported(caller) if name == "forest"] == [(None, 1)]
    # No moved name, nor any name forest defines, is defined or imported in
    # calibrate, and no module-level assignment there aliases forest's.
    bound = _defined(caller) | {name for _, _, name in _imported(caller)}
    assert not bound & (set(MOVED) | _defined(engine))
    for node in caller.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            names = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
            assert "forest" not in names, ast.unparse(node)
    assert all(hasattr(forest, RENAMED.get(name, name)) for name in MOVED)
