import base64
import functools
import json
import math
import os
import pickle
import re
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _processes
from smol import calibrate, forest
from smol.calibrate import (
    COMPARISON_KINDS,
    CompareRow,
    Dataset,
    FeatureMode,
    ModelKind,
    ModelSpec,
    TrainedModel,
    assemble,
    compare,
    evaluate,
    fit,
    least_squares_design,
    load_model,
    mean_absolute_error,
    r_squared,
    rank_rows,
    render_table,
    save_model,
    split,
    train_and_score,
)
from smol.campaign import CampaignConfig, run_campaign
from smol.sweepproto import MeasurementLog


def _log(rssi, tx, truth) -> MeasurementLog:
    """A log of one placement from its rssi, tx power and truth columns."""
    n = len(rssi)
    return MeasurementLog(
        timestamp=np.zeros(n),
        device_id=np.ones(n, dtype=int),
        tx_power=tx,
        rssi=rssi,
        height_cm=np.zeros(n),
        depth_cm=np.full(n, 15.0),
        scenario=["lab"] * n,
        vwc_truth=truth,
    )


def _sweep_log(n_sweeps=10, levels=range(5, 23)):
    """n_sweeps full sweeps at evenly spaced moisture levels."""
    levels = list(levels)
    truth = np.repeat(0.05 + 0.03 * np.arange(n_sweeps), len(levels))
    tx = np.tile(levels, n_sweeps)
    return _log(-30.0 - 60.0 * truth + 1.0 * (tx - 13), tx, truth)


def _dataset(X, y):
    """A dataset whose mode fits its width: one column is median_tx at
    13 dBm, two are all_tx."""
    X, y = np.asarray(X, float), np.asarray(y, float)
    if X.shape[1] == 1:
        return Dataset(X, y, FeatureMode.MEDIAN_TX, median_tx_power=13)
    return Dataset(X, y, FeatureMode.ALL_TX)


def _forest(X, y, **settings) -> TrainedModel:
    """A forest that ``forest.grow`` grows at ``settings`` on ``_dataset(X, y)``."""
    ds = _dataset(X, y)
    params = forest.grow(ds.features, ds.targets, **settings)
    return TrainedModel(
        ModelSpec(ModelKind.RANDOM_FOREST), ds.feature_mode, params, ds.median_tx_power
    )


class TestAssemble:
    def test_all_tx_keeps_every_packet(self):
        ds = assemble(_sweep_log(), FeatureMode.ALL_TX)
        assert len(ds) == 180
        assert ds.features.shape == (180, 2)
        assert calibrate.FEATURE_NAMES[ds.feature_mode] == ("rssi_dbm", "tx_power_dbm")

    def test_median_keeps_one_packet_per_sweep(self):
        ds = assemble(_sweep_log(), FeatureMode.MEDIAN_TX)
        assert len(ds) == 10
        assert ds.features.shape == (10, 1)
        assert ds.median_tx_power == 13

    def test_median_power_comes_from_the_logged_plan(self):
        ds = assemble(_sweep_log(levels=range(5, 20)), FeatureMode.MEDIAN_TX)
        assert ds.median_tx_power == 12
        assert len(ds) == 10

    def test_targets_are_percent(self):
        ds = assemble(_sweep_log(), FeatureMode.ALL_TX)
        assert ds.targets.min() == pytest.approx(5.0)

    def test_rejects_missing_ground_truth(self):
        log = _sweep_log()
        truth = log.vwc_truth.copy()
        truth[3] = np.nan
        with pytest.raises(ValueError, match="ground truth"):
            assemble(replace(log, vwc_truth=truth), FeatureMode.ALL_TX)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            assemble(_log([], [], []), FeatureMode.ALL_TX)

    def test_rejects_non_finite_rssi(self):
        # A log refuses a nan RSSI itself; a Dataset built without one
        # refuses it too.
        with pytest.raises(ValueError, match="finite"):
            _log([-50.0, float("nan")], [7, 8], [0.05, 0.05])
        with pytest.raises(ValueError, match="finite"):
            _dataset([[float("nan"), 8.0]], [5.0])


class TestDataset:
    @pytest.mark.parametrize(
        "features, targets, why",
        [
            (np.zeros(3), np.zeros(3), "2-D"),
            (np.zeros((3, 1)), np.zeros(2), "row counts differ"),
        ],
    )
    def test_rejects_mismatched_shapes(self, features, targets, why):
        with pytest.raises(ValueError, match=why):
            Dataset(features, targets, FeatureMode.MEDIAN_TX, median_tx_power=13)

    @pytest.mark.parametrize("mode", list(FeatureMode))
    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_the_width_is_the_modes(self, mode, width):
        # The mode's feature names are the columns; no other width is taken.
        want = len(calibrate.FEATURE_NAMES[mode])
        features, median = np.zeros((3, width)), 13 if mode == FeatureMode.MEDIAN_TX else None
        if width == want:
            assert Dataset(features, np.zeros(3), mode, median).features.shape == (3, want)
        else:
            message = f"^{mode.value} mode has {want} feature column\\(s\\), got {width}$"
            with pytest.raises(ValueError, match=message):
                Dataset(features, np.zeros(3), mode, median)


# Feature mode and median power pairs that no model may hold, and the
# error each raises.
BAD_MEDIANS = {
    (FeatureMode.MEDIAN_TX, None): "median_tx_power None is not an integer in [5, 23] dBm",
    (FeatureMode.MEDIAN_TX, 99): "median_tx_power 99 is not an integer in [5, 23] dBm",
    (FeatureMode.MEDIAN_TX, 4): "median_tx_power 4 is not an integer in [5, 23] dBm",
    (FeatureMode.MEDIAN_TX, 13.0): "median_tx_power 13.0 is not an integer in [5, 23] dBm",
    (FeatureMode.MEDIAN_TX, True): "median_tx_power True is not an integer in [5, 23] dBm",
    (FeatureMode.ALL_TX, 13): "median_tx_power is not null, as all_tx mode needs",
}


class TestModeContract:
    """A model's feature mode and median power obey one rule, fitted or loaded."""

    @pytest.mark.parametrize("mode, median", sorted(BAD_MEDIANS, key=repr))
    def test_a_model_refuses_a_mismatched_median_power(self, mode, median):
        beta = np.zeros(len(calibrate.FEATURE_NAMES[mode]) + 1)
        with pytest.raises(ValueError, match=f"^{re.escape(BAD_MEDIANS[mode, median])}"):
            TrainedModel(ModelSpec(ModelKind.LINEAR), mode, {"beta": beta}, median)

    @pytest.mark.parametrize("mode, median", sorted(BAD_MEDIANS, key=repr))
    def test_fit_refuses_a_mismatched_median_power(self, mode, median):
        # The model save_model would write could never be loaded.
        X = np.random.default_rng(5).uniform(-80, -20, (20, len(calibrate.FEATURE_NAMES[mode])))
        train = Dataset(X, X[:, 0], mode, median_tx_power=median)
        with pytest.raises(ValueError, match=f"^{re.escape(BAD_MEDIANS[mode, median])}"):
            fit(ModelSpec(ModelKind.LINEAR), train)

    @pytest.mark.parametrize("median", [5, 13, 23])
    def test_every_radio_power_is_a_median_power(self, median):
        model = TrainedModel(ModelSpec(ModelKind.LINEAR), FeatureMode.MEDIAN_TX,
                             {"beta": np.array([1.0, 2.0])}, median)
        assert model.n_features == 1 and model.median_tx_power == median


class TestSplit:
    def test_80_20_on_ten_rows(self):
        ds = _dataset(np.arange(20).reshape(10, 2), np.arange(10))
        train, test = split(ds, seed=0)
        assert len(train) == 8
        assert len(test) == 2
        together = sorted(np.concatenate([train.targets, test.targets]).tolist())
        assert together == list(range(10))

    def test_same_seed_same_partition(self):
        ds = _dataset(np.arange(30).reshape(15, 2), np.arange(15))
        a = split(ds, seed=4)
        b = split(ds, seed=4)
        assert np.array_equal(a[0].targets, b[0].targets)
        assert np.array_equal(a[1].features, b[1].features)

    def test_single_row_rejected(self):
        ds = _dataset([[1.0]], [1.0])
        with pytest.raises(ValueError):
            split(ds, seed=0)

    def test_too_small_for_a_test_set_rejected(self):
        # up to 4 rows, ceil(0.8 n) swallows everything
        for n in (2, 3, 4):
            ds = _dataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))
            with pytest.raises(ValueError):
                split(ds, seed=0)

    @given(n=st.integers(5, 400), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200)
    def test_partition_is_exact(self, n, seed):
        ds = _dataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))
        train, test = split(ds, seed=seed)
        assert len(train) == -(-4 * n // 5)  # ceil(0.8 n)
        assert len(test) == n - len(train)
        merged = sorted(np.concatenate([train.targets, test.targets]).tolist())
        assert merged == list(range(n))


class TestLinearFits:
    def test_recovers_planted_line(self):
        rng = np.random.default_rng(0)
        rssi = rng.uniform(-90, -20, 40)
        y = -2.0 * rssi + 10.0
        ds = _dataset(rssi.reshape(-1, 1), y)
        model = fit(ModelSpec(ModelKind.LINEAR), ds)
        beta = model.params["beta"]
        assert beta[0] == pytest.approx(10.0, abs=1e-6)
        assert beta[1] == pytest.approx(-2.0, abs=1e-6)
        assert evaluate(model, ds).mae == pytest.approx(0.0, abs=1e-9)

    def test_ridge_zero_penalty_equals_linear(self, monkeypatch):
        rng = np.random.default_rng(1)
        X = rng.uniform(-90, -20, (50, 2))
        y = 3.0 - 0.5 * X[:, 0] + 0.25 * X[:, 1] + rng.normal(0, 1, 50)
        lin = fit(ModelSpec(ModelKind.LINEAR), _dataset(X, y)).params["beta"]
        monkeypatch.setattr(calibrate, "RIDGE_LAMBDA", 0.0)
        rid = fit(ModelSpec(ModelKind.RIDGE), _dataset(X, y)).params["beta"]
        assert np.allclose(lin, rid, atol=1e-6)

    def test_ridge_penalty_shrinks_slopes(self, monkeypatch):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (60, 2))
        y = 5.0 + 4.0 * X[:, 0] - 3.0 * X[:, 1]
        slopes = {}
        for lam in (0.0, 1e4):
            monkeypatch.setattr(calibrate, "RIDGE_LAMBDA", lam)
            slopes[lam] = fit(ModelSpec(ModelKind.RIDGE), _dataset(X, y)).params["beta"][1:]
        assert np.abs(slopes[1e4]).sum() < np.abs(slopes[0.0]).sum()

    def test_singular_design_is_reported(self):
        # duplicated feature column: rank-deficient, no silent fallback
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        ds = _dataset(X, np.arange(10.0))
        with pytest.raises(FloatingPointError):
            fit(ModelSpec(ModelKind.LINEAR), ds)

    def test_more_monomials_than_rows_are_refused(self):
        # Degree 2 in two features makes 6 columns, which 5 rows cannot give
        # full rank.
        X = np.random.default_rng(3).uniform(-1.0, 1.0, (6, 2))
        ds = _dataset(X, X[:, 0] ** 3)
        with pytest.raises(FloatingPointError, match="^design matrix rank 5 < 6 columns$"):
            fit(ModelSpec(ModelKind.POLYNOMIAL), _dataset(X[:5], ds.targets[:5]))
        # As many columns as rows can still be full rank.
        assert len(fit(ModelSpec(ModelKind.POLYNOMIAL), ds).params["beta"]) == 6

    def test_empty_train_rejected(self):
        ds = _dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            fit(ModelSpec(ModelKind.LINEAR), ds)

    def test_non_finite_design_never_reaches_lapack(self, monkeypatch):
        lstsq = np.linalg.lstsq

        def finite_lstsq(a, b, *args, **kwargs):
            assert np.isfinite(a).all() and np.isfinite(b).all(), "lstsq got a non-finite value"
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", finite_lstsq)
        # Finite RSSI whose square overflows.
        log = _sweep_log()
        log = _log(np.where(np.arange(len(log)) % 7, log.rssi, -1e200), log.tx_power,
                   log.vwc_truth)
        with pytest.raises(FloatingPointError, match="design matrix values are not finite"):
            fit(ModelSpec(ModelKind.POLYNOMIAL), assemble(log, FeatureMode.ALL_TX))
        errors = {(r.kind, r.mode): r.error for r in compare(log)}
        for mode in FeatureMode:
            assert "not finite" in errors[ModelKind.POLYNOMIAL, mode]


class TestPolynomial:
    @pytest.mark.numpy_bits
    def test_degree_two_single_feature_basis(self):
        x = np.array([[3.0], [-2.0]])
        design = least_squares_design(ModelKind.POLYNOMIAL, x)
        assert np.array_equal(design, [[1.0, 3.0, 9.0], [1.0, -2.0, 4.0]])

    @pytest.mark.numpy_bits
    def test_degree_two_on_two_features(self):
        # By total degree, then feature index: 1, x, y, x^2, xy, y^2.
        design = least_squares_design(ModelKind.POLYNOMIAL, np.array([[2.0, 3.0]]))
        assert design.tolist() == [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]]

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("kind, degree", [
        (ModelKind.LINEAR, 1), (ModelKind.RIDGE, 1), (ModelKind.POLYNOMIAL, 2),
    ])
    def test_a_design_has_a_column_per_monomial(self, kind, degree, width):
        # The count a model file's beta is checked against.
        design = least_squares_design(kind, np.empty((0, width)))
        assert design.shape == (0, math.comb(width + degree, degree))

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.RIDGE])
    @pytest.mark.parametrize("width", [1, 2])
    def test_degree_one_design_is_the_intercept_column_and_the_features(self, kind, width):
        values = np.array([0.0, -0.0, 1.5, -3.25, 1e300, -1e300, 5e-324, -90.0])
        X = np.column_stack([values, values[::-1]])[:, :width]
        design = least_squares_design(kind, X)
        want = np.column_stack([np.ones(len(X)), X])
        assert design.dtype == want.dtype and design.shape == want.shape
        assert design.tobytes() == want.tobytes()

    def test_fits_a_quadratic_exactly(self):
        x = np.linspace(-5, 5, 25).reshape(-1, 1)
        y = 2.0 - 1.5 * x[:, 0] + 0.5 * x[:, 0] ** 2
        model = fit(ModelSpec(ModelKind.POLYNOMIAL), _dataset(x, y))
        preds = model.predict_many(x)
        assert np.allclose(preds, y, atol=1e-8)


def _reference_forest_outputs(params, X):
    """Every tree's prediction for every row, by the plain descent: each
    step looks up the node's feature, tests ``x <= value`` and picks the
    left or the right child."""
    feature, value, sizes = params["feature"], params["value"], params["tree_sizes"]
    leaf = feature < 0
    index = np.arange(len(feature))
    left = np.where(leaf, index, forest._left_children(feature, sizes))
    right = np.where(leaf, index, left + 1)
    feature = np.where(leaf, 0, feature)
    at_row = np.arange(len(X))[:, None]
    node = np.tile(np.cumsum(sizes) - sizes, (len(X), 1))
    while True:
        step = np.where(X[at_row, feature[node]] <= value[node], left[node], right[node])
        if np.array_equal(step, node):
            return value[node]
        node = step


def _tree_depths(params) -> list[int]:
    """Each tree's depth, by a walk from its root over the implied children."""
    feature, sizes = params["feature"], params["tree_sizes"]
    left = forest._left_children(feature, sizes)
    depths = []
    for root in (np.cumsum(sizes) - sizes).tolist():
        level, depth = [root], 0
        while True:
            level = [c for i in level if feature[i] >= 0 for c in (left[i], left[i] + 1)]
            if not level:
                break
            depth += 1
        depths.append(depth)
    return depths


@st.composite
def _forests_and_repeated_rows(draw):
    """A small fitted forest, and a feature matrix of few distinct rows
    repeated in any order. Cells come from the training grid, the forest's
    split thresholds and the next float above each, and both zeros; some
    rows also come with a twin whose zeros have the other sign."""
    n_features = draw(st.integers(1, 2))
    n = draw(st.integers(2, 24))
    cell = st.integers(-4, 4).map(float)
    X = [[draw(cell) for _ in range(n_features)] for _ in range(n)]
    y = draw(st.lists(st.floats(-50.0, 50.0), min_size=n, max_size=n))
    model = _forest(
        X,
        y,
        n_trees=draw(st.integers(1, 12)),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 4))),
        min_leaf=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 100)),
    )
    params = model.params
    thresholds = params["value"][params["feature"] >= 0].tolist()
    pool = [-0.0, 0.0, *range(-5, 6), *thresholds, *np.nextafter(thresholds, np.inf).tolist()]
    cells = st.sampled_from([float(v) for v in pool])
    distinct = draw(
        st.lists(st.lists(cells, min_size=n_features, max_size=n_features), min_size=1, max_size=6)
    )
    twins = draw(st.lists(st.booleans(), min_size=len(distinct), max_size=len(distinct)))
    distinct += [[-v if v == 0 else v for v in row] for row, twin in zip(distinct, twins) if twin]
    rows = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=40))
    return model, np.array(distinct)[rows]


@functools.cache
def _stock_all_tx_forest() -> TrainedModel:
    """The forest `smol train` fits by default on the stock campaign."""
    log = run_campaign(CampaignConfig())
    return train_and_score(ModelSpec(ModelKind.RANDOM_FOREST), log, FeatureMode.ALL_TX, 0)[0]


def _peak_bytes(call) -> int:
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForest:
    @pytest.mark.numpy_bits
    @given(drawn=_forests_and_repeated_rows())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_predictions_are_the_bits_of_one_row_at_a_time(self, drawn):
        model, X = drawn
        distinct, row_of = forest._distinct(X, np.lexsort(X.T))
        assert len(distinct) == len(set(map(tuple, X.tolist())))  # -0.0 == 0.0 here too
        assert np.array_equal(distinct[row_of], X)
        preds = model.predict_many(X)
        one_by_one = np.concatenate([model.predict_many(X[i : i + 1]) for i in range(len(X))])
        assert preds.tobytes() == one_by_one.tobytes()
        reference = _reference_forest_outputs(model.params, X)
        assert forest._forest_outputs(model.params, X).tobytes() == reference.tobytes()
        assert preds.tobytes() == reference.mean(axis=1).tobytes()
        # Descent blocks of one row; of all rows but one, so the last block
        # is short (a budget one pair short of the rows also checks the
        # floor division); of more rows than any input. Each on 1, 2, 3 and
        # 8 CPUs, as many workers as there are whole blocks.
        for pairs in (1, len(model.params["tree_sizes"]) * len(X) - 1, 10**9):
            for cpus in (1, 2, 3, 8):
                with mock.patch.object(forest, "_DESCENT_PAIRS", pairs), _processes(cpus):
                    outputs = forest._forest_outputs(model.params, X)
                assert outputs.tobytes() == reference.tobytes(), (pairs, cpus)

    @pytest.mark.numpy_bits
    @given(
        extra=st.lists(st.integers(-200, 200), max_size=300),
        rows=st.lists(st.tuples(*[st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0])] * 2),
                      min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_distinct_finds_the_keys_and_places_np_unique_finds(self, extra, rows, seed):
        # 300 quarter steps, 0.0 among them, then repeats, and -0.0 twice, shuffled:
        # more than 256 distinct values, so each place takes two bytes.
        column = np.concatenate([np.arange(-150, 150) * 0.25, np.array(extra) * 0.25, [-0.0] * 2])
        np.random.default_rng(seed).shuffle(column)
        values, places = forest._distinct(column, np.argsort(column))
        unique, inverse = np.unique(column, return_inverse=True)
        assert values.tobytes() == unique.tobytes() and len(values) > 256
        assert np.array_equal(places, inverse)
        assert places.dtype == forest._index_dtype(len(values))
        # By int64 bits, -0.0 and 0.0 are two.
        bits = column.view("<i8")
        table, index = forest._distinct(bits, np.argsort(bits))
        assert len(table) == len(unique) + 1
        assert {0, np.iinfo(np.int64).min} <= set(table.tolist())  # 0.0 and -0.0
        assert table.take(index).tobytes() == bits.tobytes()
        X = np.array(rows)
        distinct, row_of = forest._distinct(X, np.lexsort(X.T))
        assert np.array_equal(distinct[row_of], X)
        assert len(distinct) == len(set(map(tuple, X.tolist())))  # -0.0 == 0.0 here too

    @pytest.mark.numpy_bits
    def test_stock_forest_descends_an_inference_log_as_the_reference_does(self):
        model = _stock_all_tx_forest()
        log = run_campaign(CampaignConfig(training_mode=False))
        X = np.unique(calibrate.feature_matrix(log, FeatureMode.ALL_TX)[1], axis=0)
        n_trees = len(model.params["tree_sizes"])
        assert len(X) > 3 * forest._DESCENT_PAIRS // n_trees  # several blocks
        reference = _reference_forest_outputs(model.params, X)
        assert forest._forest_outputs(model.params, X).tobytes() == reference.tobytes()

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("shape", ["unbounded depth", "single leaves", "unequal depths"])
    def test_descent_steps_the_depth_of_the_layout(self, shape):
        # The descent steps as many levels as the deepest tree has, read from
        # the layout: a max_depth=None forest has no stated depth, a
        # forest of root leaves needs no step, and shallow trees wait at
        # their leaves for the deep ones. Doubling targets make each cut
        # split off the top few rows, so the trees grow past the default
        # max_depth. The training rows reach every leaf.
        rng = np.random.default_rng(14)
        X = np.column_stack([rng.permutation(40), rng.integers(0, 5, 40)]).astype(float)
        y = np.zeros(40) if shape == "single leaves" else 2.0 ** X[:, 0]
        settings = dict(n_trees=4, max_depth=None, min_leaf=1, seed=6)
        trees = forest.grow(X, y, **settings)
        if shape == "unequal depths":
            stump = forest.grow(X, y, **{**settings, "max_depth": 1})
            trees = {key: np.concatenate([stump[key], trees[key]]) for key in trees}
        depths = _tree_depths(trees)
        if shape == "single leaves":
            assert depths == [0] * 4
        else:
            assert max(depths) > 10, depths
            assert min(depths) == (1 if shape == "unequal depths" else 15), depths
        assert forest._descent_tables(trees)[1] == max(depths)
        reference = _reference_forest_outputs(trees, X)
        assert forest._forest_outputs(trees, X).tobytes() == reference.tobytes()

    @staticmethod
    def _descent_peaks(cpus: int) -> tuple[int, int, int]:
        """The tracemalloc peaks of descending ``cpus`` blocks (256 rows of
        the 100 stock trees each), one per worker, and 101 x 18 distinct
        rows (eight blocks of 228 rows, the last 222) on ``cpus`` CPUs; and
        the bytes of the output's extra rows. In the first descent no worker
        steps before every worker holds its block, as a worker whose thread
        starts late would not: its block would go to the caller."""
        params = _stock_all_tx_forest().params
        n_trees = len(params["tree_sizes"])
        rssi, tx = np.meshgrid(np.arange(-140.0, -39.0), np.arange(5.0, 23.0), indexing="ij")
        X = np.column_stack([rssi.ravel(), tx.ravel()])
        assert len(X) == 1818
        first_rows = cpus * 256
        tile, barrier = np.tile, threading.Barrier(cpus, timeout=10)

        def tile_and_wait(*args):  # a block's first step
            node = tile(*args)
            barrier.wait()
            return node

        with _processes(cpus):
            with mock.patch.object(np, "tile", tile_and_wait):
                forest._forest_outputs(params, X[:first_rows])  # warm up outside the measurement
                first = _peak_bytes(lambda: forest._forest_outputs(params, X[:first_rows]))
            every = _peak_bytes(lambda: forest._forest_outputs(params, X))
        return first, every, (len(X) - first_rows) * n_trees * 8

    def test_descent_working_set_does_not_grow_with_the_rows(self):
        # Past the first block of 256 rows, the peak may only grow by the
        # output's extra rows and one 256-row block's worth of pairs.
        first, every, extra_output = self._descent_peaks(1)
        one_block = 256 * 100 * 8
        assert every - first <= extra_output + one_block

    def test_descent_working_set_grows_by_a_block_per_part(self):
        # Two workers, each descending one block at a time: past the first
        # two blocks of 256 rows, both held at once, the peak may only grow
        # by the output's extra rows and one 256-row block's worth of pairs
        # per worker.
        first, every, extra_output = self._descent_peaks(2)
        one_block = 256 * 100 * 8
        assert every - first <= extra_output + 2 * one_block

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    def test_an_error_in_a_thread_is_raised_after_every_thread_joined(self, error):
        # Three blocks of the stock forest on three CPUs. The caller waits
        # until a thread has taken a block, whose descent raises, late: only
        # the caller's join on that thread lets the error reach it, and no
        # thread is left.
        params = _stock_all_tx_forest().params
        X = np.column_stack([np.linspace(-120.0, -40.0, 3 * 256), np.full(3 * 256, 13.0)])
        tile, taken = np.tile, threading.Event()

        def tile_failing_in_a_thread(*args):  # a block's first step
            if threading.current_thread() is threading.main_thread():
                assert taken.wait(10)
                return tile(*args)
            taken.set()
            time.sleep(0.05)  # the caller runs out of blocks first
            raise error("a thread's block")

        before = threading.active_count()
        with _processes(3), mock.patch.object(np, "tile", tile_failing_in_a_thread):
            with pytest.raises(error, match="a thread's block"):
                forest.predict(params, X)
        assert threading.active_count() == before

    def test_parts_give_the_serial_bits_under_a_short_switch_interval(self):
        # More threads than CPUs, handing the GIL over every few microseconds:
        # each block is taken once and writes only its own rows of the output.
        params = _stock_all_tx_forest().params
        X = np.column_stack([np.linspace(-120.0, -40.0, 2048), np.tile([5.0, 13.0], 1024)])
        with _processes(1):
            serial = forest._forest_outputs(params, X)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _processes(8):
                for _ in range(3):
                    assert forest._forest_outputs(params, X).tobytes() == serial.tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_a_part_no_thread_can_take_is_descended_by_the_caller(self):
        # Six blocks of 167 rows on three CPUs, but the second thread cannot
        # be started: the caller and the one thread take its blocks.
        params = _stock_all_tx_forest().params
        X = np.column_stack([np.linspace(-120.0, -40.0, 1000), np.full(1000, 13.0)])
        with _processes(1):
            serial = forest._forest_outputs(params, X)
        start, started = threading.Thread.start, []

        def start_one(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        with _processes(3), mock.patch.object(threading.Thread, "start", start_one):
            assert forest._forest_outputs(params, X).tobytes() == serial.tobytes()
        assert len(started) == 1 and not started[0].is_alive()

    def test_the_blocks_of_a_held_back_thread_are_descended_by_the_caller(self):
        # Four blocks on two CPUs, but the thread starts only when the caller
        # joins it, as one that gets no CPU would: the caller has taken every
        # block by then, and none waits for the thread.
        params = _stock_all_tx_forest().params
        X = np.column_stack([np.linspace(-120.0, -40.0, 4 * 256), np.full(4 * 256, 13.0)])
        with _processes(1):
            serial = forest._forest_outputs(params, X)
        start, join, tile, tiled_in = threading.Thread.start, threading.Thread.join, np.tile, []

        def start_at_join(thread, timeout=None):
            start(thread)
            join(thread, timeout)

        def tile_and_note(*args):  # a block's first step
            tiled_in.append(threading.current_thread())
            return tile(*args)

        with _processes(2), mock.patch.object(np, "tile", tile_and_note):
            with mock.patch.object(threading.Thread, "start", lambda thread: None):
                with mock.patch.object(threading.Thread, "join", start_at_join):
                    outputs = forest._forest_outputs(params, X)
        assert outputs.tobytes() == serial.tobytes()
        assert tiled_in == [threading.main_thread()] * 4

    @pytest.mark.parametrize("rows, threads", [(511, 0), (512, 1)])
    def test_a_thread_starts_only_for_a_whole_block_per_worker(self, rows, threads):
        # On two CPUs the 100 stock trees descend in blocks of 256 rows, and
        # the caller and its thread each need a whole block of distinct rows:
        # the stock test split's 259 start no thread, which would keep its
        # malloc arena resident.
        params = _stock_all_tx_forest().params
        assert forest._DESCENT_PAIRS // len(params["tree_sizes"]) == 256
        distinct = np.column_stack([np.linspace(-120.0, -40.0, rows), np.full(rows, 13.0)])
        start, started = threading.Thread.start, []

        def note_start(thread):
            started.append(thread)
            start(thread)

        with _processes(2), mock.patch.object(threading.Thread, "start", note_start):
            forest.predict(params, np.concatenate([distinct, distinct[:100]]))
        assert len(started) == threads

    def test_single_full_tree_memorizes(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-50, 50, (20, 2))  # continuous draws: duplicate-free
        y = rng.uniform(0, 40, 20)
        model = _forest(X, y, n_trees=1, max_depth=None, min_leaf=1, bootstrap=False)
        preds = model.predict_many(X)
        assert np.array_equal(preds, y)

    def test_prediction_is_mean_of_trees(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, (40, 2))
        y = X[:, 0] + X[:, 1] + rng.normal(0, 0.5, 40)
        model = _forest(X, y, n_trees=10, seed=3)
        x = np.array([[4.0, 5.0]])
        per_tree = forest._forest_outputs(model.params, x)[0]
        assert len(per_tree) == 10
        assert model.predict_many(x)[0] == pytest.approx(per_tree.mean(), rel=1e-12)

    def test_seeded_fit_is_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 10, (30, 2))
        y = X[:, 0] - X[:, 1]
        a = _forest(X, y, n_trees=5, seed=1)
        b = _forest(X, y, n_trees=5, seed=1)
        other = _forest(X, y, n_trees=5, seed=2)

        def same(m1, m2):
            assert m1.params.keys() == m2.params.keys()
            return all(np.array_equal(m1.params[key], m2.params[key]) for key in m1.params)

        assert same(a, b)
        assert not same(a, other)

    def test_gain_ties_go_to_lowest_feature_then_lowest_threshold(self):
        # Targets 0, 1, 1, 0: cutting off either end row gains the same. The
        # second column orders the rows in reverse, so both of its end cuts
        # tie with the first column's too.
        X = np.array([[0.0, 13.0], [1.0, 12.0], [2.0, 11.0], [3.0, 10.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        for columns, threshold in (([0, 1], 0.5), ([1, 0], 10.5)):
            trees = forest.grow(
                X[:, columns], y, n_trees=1, max_depth=1, min_leaf=1, bootstrap=False
            )
            assert trees["feature"][:3].tolist() == [0, -1, -1]
            assert trees["value"][0] == threshold

    @pytest.mark.numpy_bits
    def test_forest_layout_does_not_depend_on_the_batch_size(self, monkeypatch):
        # Child indices count across the whole forest, so each batch's are
        # shifted by the nodes grown before it; one batch of all 7 trees
        # needs no shift. Budgets of 1, 5 and 7 trees of 60 rows: one tree
        # per batch, two batches of 5 and 2, one batch.
        rng = np.random.default_rng(12)
        X = rng.integers(-90, -30, (60, 2)).astype(float)
        y = -0.5 * X[:, 0] + rng.normal(0, 1, 60)
        forests = []
        for budget in (1, 5 * 60, 7 * 60):
            monkeypatch.setattr(forest, "_BATCH_ROWS", budget)
            forests.append(forest.grow(X, y, n_trees=7, max_depth=4, seed=4))
        for trees in forests[1:]:
            assert trees.keys() == forests[0].keys()
            for key in trees:
                assert trees[key].dtype == forests[0][key].dtype
                assert np.array_equal(trees[key], forests[0][key]), key

    def test_learns_a_smooth_surface(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 10, (400, 2))
        y = 3.0 * X[:, 0] + X[:, 1]
        model = fit(ModelSpec(ModelKind.RANDOM_FOREST), _dataset(X, y))
        test_X = rng.uniform(1, 9, (50, 2))
        preds = model.predict_many(test_X)
        truth = 3.0 * test_X[:, 0] + test_X[:, 1]
        assert mean_absolute_error(truth, preds) < 1.5

    @pytest.mark.parametrize(
        ("mode", "peak"), [(FeatureMode.ALL_TX, 2_512_295), (FeatureMode.MEDIAN_TX, 1_179_309)]
    )
    def test_growing_a_stock_batch_keeps_its_tracemalloc_peak(self, mode, peak):
        # Every batch of each stock forest at grow's defaults: five of 17 trees
        # and one of 15, of 1,037 rows (all-TX); one of 100 trees of 58
        # (median-TX). The rows keep their place, each level relabels them in
        # place through small tables, and the nodes are kept level by level as
        # they grow: at most 2,234,363 and 767,980 B (CPython 3.11, NumPy 2.4).
        # The bounds are the peaks of the grower that re-sorted each feature's
        # rows by node at every level, plus 64 KiB.
        train = split(assemble(run_campaign(CampaignConfig()), mode), seed=0)[0]
        batches = list(forest._batch_plan(len(train), 100, True, 0)[1])

        def grow(samples):
            return lambda: forest._grow_trees(train.features, train.targets, samples, 10, 2)

        grow(batches[0])()  # warm up outside the measurement
        assert max(_peak_bytes(grow(samples)) for samples in batches) <= peak + 64 * 1024


@functools.cache
def _stock_all_tx_train() -> Dataset:
    """The rows `smol train` fits the stock all-TX forest on: six batches."""
    return split(assemble(run_campaign(CampaignConfig()), FeatureMode.ALL_TX), seed=0)[0]


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForestProcesses:
    """A forest's batches grow in slices, each after the first in a forked child."""

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize(
        "failure", ["cannot be forked", "raises", "is killed", "sends a short payload"]
    )
    def test_a_failed_child_has_its_slice_grown_again(self, failure):
        train, spec = _stock_all_tx_train(), ModelSpec(ModelKind.RANDOM_FOREST)
        with _processes(1):
            serial = fit(spec, train).params
        parent, grow_trees, fork, forks = os.getpid(), forest._grow_trees, os.fork, []
        last = list(forest._batch_plan(len(train), 100, True, 0)[1])[-1]  # grow's defaults

        def grow(X, y, samples, *rest):
            if os.getpid() != parent and np.array_equal(samples, last):  # the last child's
                if failure == "raises":
                    raise MemoryError
                if failure == "is killed":
                    os.kill(os.getpid(), signal.SIGKILL)
            return grow_trees(X, y, samples, *rest)

        def fork_once():  # the second child is not made
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError
            return fork()

        def short_dump(obj, file, protocol):  # every child's payload, cut; exit 0
            file.write(pickle.dumps(obj, protocol)[:100])

        with (
            _processes(3),
            mock.patch.object(forest, "_grow_trees", grow),
            mock.patch.object(os, "fork", fork_once if failure == "cannot be forked" else fork),
            mock.patch.object(
                pickle, "dump", short_dump if failure == "sends a short payload" else pickle.dump
            ),
        ):
            forked = fit(spec, train).params
        assert forked.keys() == serial.keys()
        for key in forked:
            assert np.array_equal(forked[key], serial[key]), key
        _assert_no_child_left()

    @pytest.mark.parametrize("processes", [1, 3])
    @pytest.mark.parametrize("error", [MemoryError, RuntimeWarning])
    def test_an_error_in_a_child_is_raised_as_a_serial_fit_raises_it(self, error, processes):
        # The last batch fails wherever it grows. A RuntimeWarning is an
        # error under this suite's warning filters, in a child too.
        train, spec = _stock_all_tx_train(), ModelSpec(ModelKind.RANDOM_FOREST)
        grow_trees = forest._grow_trees
        last = list(forest._batch_plan(len(train), 100, True, 0)[1])[-1]  # grow's defaults

        def grow(X, y, samples, *rest):
            if np.array_equal(samples, last):
                if error is RuntimeWarning:
                    warnings.warn("overflow in the last batch", RuntimeWarning)
                raise MemoryError("the last batch")
            return grow_trees(X, y, samples, *rest)

        with _processes(processes), mock.patch.object(forest, "_grow_trees", grow):
            with pytest.raises(error, match="last batch"):
                fit(spec, train)
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
    @pytest.mark.parametrize("children", ["still growing", "blocked on full pipes"])
    def test_an_error_in_the_caller_leaves_no_child(self, error, children):
        # A child still growing would take a minute: it must be killed, not
        # waited for. One blocked writing its payload must not hang the caller.
        train, spec = _stock_all_tx_train(), ModelSpec(ModelKind.RANDOM_FOREST)
        parent, grow_trees, grown = os.getpid(), forest._grow_trees, []

        def grow(X, y, samples, *rest):
            if os.getpid() != parent and children == "still growing":
                time.sleep(60.0)
            grown.append(grow_trees(X, y, samples, *rest))
            if os.getpid() == parent and len(grown) == 2:  # the caller's last batch
                time.sleep(0.2)  # the children finish theirs
                raise error
            return grown[-1]

        start = time.monotonic()
        with _processes(3), mock.patch.object(forest, "_grow_trees", grow):
            with pytest.raises(error):
                fit(spec, train)
        assert time.monotonic() - start < 30.0
        _assert_no_child_left()
        with _processes(3):
            fit(spec, train)
        _assert_no_child_left()


class TestPredict:
    def test_linear_hand_example(self):
        model = TrainedModel(
            spec=ModelSpec(ModelKind.LINEAR),
            feature_mode=FeatureMode.MEDIAN_TX,
            params={"beta": np.array([10.0, -2.0])},
            median_tx_power=13,
        )
        assert model.predict_many(np.array([[-40.0]])) == pytest.approx([90.0])

    def test_repeat_input_repeat_output(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 10, (30, 2))
        model = _forest(X, X[:, 0], n_trees=5)
        x = np.array([[2.0, 3.0]])
        assert np.array_equal(model.predict_many(x), model.predict_many(x))

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, kind, bad):
        class Untouchable(dict):
            def __getitem__(self, key):
                raise AssertionError(f"params[{key!r}] read for non-finite features")

        model = TrainedModel(
            spec=ModelSpec(kind),
            feature_mode=FeatureMode.ALL_TX,
            params=Untouchable(),
        )
        X = np.zeros((4, 2))
        X[1, 0] = X[3, 1] = bad
        with pytest.raises(ValueError, match="2 of 8 feature values are not finite"):
            model.predict_many(X)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        ds = _dataset(rng.uniform(0, 1, (10, 2)), np.arange(10.0))
        model = fit(ModelSpec(ModelKind.LINEAR), ds)
        with pytest.raises(ValueError):
            model.predict_many(np.array([[1.0]]))
        with pytest.raises(ValueError):
            model.predict_many(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            model.predict_many(np.ones((3, 3)))


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0
        assert mean_absolute_error(y, y) == 0.0

    def test_hand_example(self):
        y = np.array([10.0, 20.0, 30.0])
        yhat = np.array([12.0, 18.0, 33.0])
        assert mean_absolute_error(y, yhat) == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert r_squared(y, yhat) == pytest.approx(0.915, rel=1e-12)

    def test_mean_predictor_scores_zero(self):
        y = np.array([4.0, 7.0, 13.0, 2.0])
        yhat = np.full_like(y, y.mean())
        assert r_squared(y, yhat) == 0.0

    def test_zero_variance_targets_undefined(self):
        y = np.array([5.0, 5.0, 5.0])
        assert r_squared(y, np.array([4.0, 5.0, 6.0])) is None
        # Equal targets whose float mean is not their value.
        y = np.array([5.847002245371323] * 3)
        assert y.mean() != y[0]
        assert r_squared(y, y) is None
        assert r_squared(y, y + 1e-12) is None

    def test_evaluate_reports_undefined_r2_with_mae(self):
        ds = _dataset([[1.0], [2.0]], [5.0, 5.0])
        model = TrainedModel(
            spec=ModelSpec(ModelKind.LINEAR),
            feature_mode=FeatureMode.MEDIAN_TX,
            params={"beta": np.array([4.0, 0.0])},
            median_tx_power=13,
        )
        ev = evaluate(model, ds)
        assert ev.r_squared is None
        assert ev.mae == pytest.approx(1.0)

    def test_evaluate_rejects_an_empty_test_set(self):
        model = fit(ModelSpec(ModelKind.LINEAR), _dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 4.0]))
        with pytest.raises(ValueError, match="empty test set"):
            evaluate(model, _dataset(np.empty((0, 1)), np.empty(0)))

    @given(
        shift=st.floats(-1e3, 1e3),
        values=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        errors=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    )
    @settings(max_examples=100)
    def test_mae_translation_equivariance(self, shift, values, errors):
        n = min(len(values), len(errors))
        y = np.array(values[:n])
        yhat = y + np.array(errors[:n])
        base = mean_absolute_error(y, yhat)
        shifted = mean_absolute_error(y + shift, yhat + shift)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            y = rng.uniform(0, 50, n)
            yhat = y + rng.normal(0, 5, n)
            mae_ref = sum(abs(a - b) for a, b in zip(y, yhat)) / n
            ybar = sum(y) / n
            r2_ref = 1 - sum((a - b) ** 2 for a, b in zip(y, yhat)) / sum(
                (a - ybar) ** 2 for a in y
            )
            assert mean_absolute_error(y, yhat) == pytest.approx(mae_ref, rel=1e-12)
            assert r_squared(y, yhat) == pytest.approx(r2_ref, rel=1e-9)


# Linear all-TX betas that are not three JSON numbers.
BAD_BETAS = {
    "true first": [True, 1, 2],
    "true in the middle": [1, True, 0.5],
    "all booleans": [True, False, True],
    "false last": [1, 2, False],
    "a string item": [1, "2", 3],
    "a null item": [1, None, 3],
    "a nested list": [1, [2], 3],
    "an integer beyond float range": [1, 10**400, 3],
    "an object": {"0": 1, "1": 2, "2": 3},
    "a string": "123",
    "a number": 1,
}


class TestPersistence:
    @pytest.mark.numpy_bits
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(ModelKind.LINEAR),
            ModelSpec(ModelKind.RIDGE),
            ModelSpec(ModelKind.POLYNOMIAL),
            ModelSpec(ModelKind.RANDOM_FOREST),
        ],
    )
    def test_round_trip_predicts_identically(self, spec, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.uniform(-80, -20, (40, 2))
        y = -0.7 * X[:, 0] + 0.1 * X[:, 1] + rng.normal(0, 1, 40)
        if spec.kind == ModelKind.RANDOM_FOREST:
            model = _forest(X, y, n_trees=8, seed=2)
        else:
            model = fit(spec, Dataset(X, y, FeatureMode.ALL_TX))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.uniform(-80, -20, (25, 2))
        assert np.array_equal(model.predict_many(probe), loaded.predict_many(probe))
        assert loaded.spec == model.spec
        assert loaded.feature_mode == model.feature_mode

    def test_forest_file_holds_four_base64_arrays(self, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.uniform(-80, -20, (40, 2))
        model = _forest(X, X[:, 0], n_trees=3)
        assert sorted(model.params) == ["feature", "tree_sizes", "value"]
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["version"] == 9 and payload["spec"] == {"kind": "random_forest"}
        arrays = {}
        for key, dtype in (("feature", "<i1"), ("tree_sizes", "<i4"), ("value_table", "<f8"),
                           ("value_index", "<u1")):
            raw = base64.b64decode(payload["params"].pop(key), validate=True)
            arrays[key] = np.frombuffer(raw, dtype)
        assert payload["params"] == {}
        for key in ("feature", "tree_sizes"):
            assert np.array_equal(arrays[key], model.params[key]), key
        table, value = arrays["value_table"], model.params["value"]
        # The distinct values by bits, in the order of their bits as int64.
        assert table.tobytes() == np.unique(value.view("<i8")).tobytes() and len(table) < 256
        assert table.take(arrays["value_index"]).tobytes() == value.tobytes()

    @staticmethod
    def _leaves(values) -> dict[str, np.ndarray]:
        """A forest of single-leaf trees, one per value."""
        n = len(values)
        return {"feature": np.full(n, -1), "tree_sizes": np.ones(n, dtype=int),
                "value": np.asarray(values, dtype=float)}

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize(
        "distinct, width", [(1, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)]
    )
    def test_value_index_takes_the_smallest_width_that_holds_the_table(self, distinct, width):
        # Each distinct value thrice, in an order the table's does not follow.
        values = np.tile(np.arange(distinct) * -0.5, 3)
        np.random.default_rng(distinct).shuffle(values)
        trees = self._leaves(values)
        encoded = forest.encode(trees)
        table = base64.b64decode(encoded["value_table"], validate=True)
        index = base64.b64decode(encoded["value_index"], validate=True)
        assert len(table) == 8 * distinct and len(index) == width * len(values)
        assert forest._index_dtype(distinct) == np.dtype(f"<u{width}")
        decoded = forest.decode(encoded, 1)
        assert decoded["descent"][1] == 0
        for key in trees:
            assert decoded[key].tobytes() == trees[key].astype(decoded[key].dtype).tobytes()

    @pytest.mark.numpy_bits
    def test_negative_and_positive_zero_keep_their_bits(self):
        trees = self._leaves([0.0, -0.0, -0.0, 0.0, 1.5])
        encoded = forest.encode(trees)
        assert len(base64.b64decode(encoded["value_table"])) == 3 * 8
        value = forest.decode(encoded, 1)["value"]
        assert value.tobytes() == trees["value"].tobytes()
        assert np.signbit(value).tolist() == [False, True, True, False, False]

    @pytest.mark.numpy_bits
    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(_stock_all_tx_forest(), first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_a_feature_index_one_byte_cannot_hold_is_not_written(self, tmp_path):
        X = np.random.default_rng(13).uniform(-80, -20, (40, 2))
        model = _forest(X, X[:, 0], n_trees=3)
        model.params["feature"][model.params["feature"] >= 0] = 128
        refusal = "^feature holds a value that 1-byte integers cannot$"
        with pytest.raises(ValueError, match=refusal):
            save_model(model, tmp_path / "model.json")
        model.params["feature"][model.params["feature"] >= 0] = 127  # the largest that fits
        raw = base64.b64decode(forest.encode(model.params)["feature"])
        assert np.array_equal(np.frombuffer(raw, "<i1"), model.params["feature"])

    @pytest.mark.numpy_bits
    @pytest.mark.parametrize("mode", list(FeatureMode))
    def test_polynomial_round_trip_predicts_identically(self, mode, tmp_path):
        # The file holds the coefficients only; the loader derives the basis.
        rng = np.random.default_rng(2)
        width = len(calibrate.FEATURE_NAMES[mode])
        X = rng.uniform(-80, -20, (40, width))
        y = -0.7 * X[:, 0] + rng.normal(0, 1, 40)
        median = 13 if mode == FeatureMode.MEDIAN_TX else None
        model = fit(ModelSpec(ModelKind.POLYNOMIAL), Dataset(X, y, mode, median_tx_power=median))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert sorted(json.loads(path.read_text())["params"]) == ["beta"]
        loaded = load_model(path)
        probe = rng.uniform(-80, -20, (25, width))
        assert np.array_equal(model.predict_many(probe), loaded.predict_many(probe))
        assert loaded.spec == model.spec

    @staticmethod
    def _linear_payload(tmp_path) -> dict:
        """The file of a linear all-TX model fit on a plane, as JSON."""
        X = np.random.default_rng(17).uniform(-80, -20, (20, 2))
        path = tmp_path / "model.json"
        save_model(fit(ModelSpec(ModelKind.LINEAR), _dataset(X, X @ [1.0, 2.0])), path)
        return json.loads(path.read_text())

    @staticmethod
    def _load(payload, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return load_model(path)

    def test_a_model_file_holds_no_feature_names(self, tmp_path):
        payload = self._linear_payload(tmp_path)
        assert payload["version"] == 9 and "feature_names" not in payload
        payload["feature_names"] = ["rssi_dbm", "tx_power_dbm"]
        refusal = r": model file: unexpected key\(s\) 'feature_names'$"
        with pytest.raises(ValueError, match=refusal):
            self._load(payload, tmp_path)

    def test_a_version_6_file_is_refused_with_the_retrain_line(self, tmp_path):
        payload = self._linear_payload(tmp_path)
        # A version 6 spec held the seven hyperparameters beside the kind.
        payload["version"] = 6
        payload["spec"].update(poly_degree=2, ridge_lambda=1.0, n_trees=100, max_depth=10)
        payload["spec"].update(min_leaf=2, bootstrap=True, seed=0)
        with pytest.raises(ValueError, match=r": model file version 6 is not supported "
                           r"\(this smol reads version 9\); retrain with `smol train`$"):
            self._load(payload, tmp_path)

    @pytest.mark.parametrize("case", sorted(BAD_BETAS))
    def test_beta_items_are_json_numbers(self, tmp_path, case):
        # true and false are not numbers, as nowhere else in a smol file.
        payload = self._linear_payload(tmp_path)
        payload["params"]["beta"] = BAD_BETAS[case]
        with pytest.raises(ValueError, match=r": beta is not a list of finite numbers$"):
            self._load(payload, tmp_path)

    def test_beta_takes_json_integers(self, tmp_path):
        payload = self._linear_payload(tmp_path)
        payload["params"]["beta"] = [1, -2, 3]
        loaded = self._load(payload, tmp_path)
        assert loaded.params["beta"].dtype == float
        assert loaded.predict_many(np.array([[1.0, 1.0]])).tolist() == [2.0]

    def test_a_forest_of_another_size_and_depth_round_trips(self, tmp_path):
        # The loader reads the tree count and the depth off the arrays alone.
        # Doubling targets make each cut split off the top few rows, so the
        # trees grow past the default max_depth; the training rows reach
        # every leaf.
        rng = np.random.default_rng(14)
        X = np.column_stack([rng.permutation(40), rng.integers(0, 5, 40)]).astype(float)
        model = _forest(X, 2.0 ** X[:, 0], n_trees=3, max_depth=None, min_leaf=1)
        depth = max(_tree_depths(model.params))
        assert depth > 10, depth
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert len(loaded.params["tree_sizes"]) == 3 and loaded.params["descent"][1] == depth
        assert loaded.predict_many(X).tobytes() == model.predict_many(X).tobytes()

    def test_load_keeps_its_tracemalloc_peak(self, tmp_path):
        # The peak holds the file's text and its decoded JSON, base64
        # strings and all: 2,337,783 B on the stock all-TX file of model
        # file version 9, whose `value` is gathered from a table of its
        # 8,349 distinct values by a two-byte index (CPython 3.11, NumPy
        # 2.4); 2,507,703 B at version 8, whose `value` stayed a view of
        # its decoded bytes, and 3,161,364 B at version 7, with a copy. The
        # slack is well under one more node-count table (54,374 nodes,
        # 435 KB), so none is built while the strings are alive.
        path = tmp_path / "model.json"
        save_model(_stock_all_tx_forest(), path)
        load_model(path)  # warm up outside the measurement
        assert _peak_bytes(lambda: load_model(path)) <= 2_337_783 + 64 * 1024

    def test_save_keeps_its_tracemalloc_peak(self, tmp_path):
        # Streamed through json.dump, the peak holds the base64 strings and
        # the encoder's chunks, not the file's text; at model file version
        # 9 it is building the value table, whose argsort and sorted values
        # are the only node-count arrays: 992,478 B on the stock all-TX
        # file (CPython 3.11, NumPy 2.4), where np.unique's inverse read
        # 2,298,193 B. 1,823,971 B at version 8, 2,041,372 B at version 7,
        # and 3,489,760 B when json.dumps built the text and write_text
        # copied it twice. The slack is well under one more node-count
        # table (54,374 nodes, 435 KB).
        model, path = _stock_all_tx_forest(), tmp_path / "model.json"
        save_model(model, path)  # warm up outside the measurement
        assert _peak_bytes(lambda: save_model(model, path)) <= 992_478 + 64 * 1024

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_future_versions(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"format": "smol-model", "version": 999}')
        with pytest.raises(ValueError):
            load_model(path)


class TestTrainAndScore:
    @pytest.mark.parametrize("mode", list(FeatureMode))
    def test_scores_the_held_out_rows_and_records_the_split(self, mode):
        log, spec = _sweep_log(), ModelSpec(ModelKind.POLYNOMIAL)
        model, ev = train_and_score(spec, log, mode, 3)
        train, test = split(assemble(log, mode), seed=3)
        assert model.metadata == {"n_train": len(train), "n_test": len(test), "split_seed": 3}
        assert np.array_equal(model.params["beta"], fit(spec, train).params["beta"])
        assert ev == evaluate(model, test)

    def test_compare_rows_are_its_scores(self):
        log = _sweep_log()
        for row in compare(log, split_seed=2):
            ev = train_and_score(ModelSpec(row.kind), log, row.mode, 2)[1]
            assert (row.r_squared, row.mae) == (ev.r_squared, ev.mae)


class TestCompare:
    def test_six_way_structure(self):
        rows = compare(_sweep_log())
        assert len(rows) == 6
        assert {(r.kind, r.mode) for r in rows} == {
            (kind, mode) for kind in COMPARISON_KINDS for mode in FeatureMode
        }
        assert sum(r.best for r in rows) == 1
        assert rows[0].best
        scores = [r.r_squared for r in rows if r.r_squared is not None]
        assert scores == sorted(scores, reverse=True)

    def test_failing_combination_becomes_error_row(self):
        # two median rows survive: a split cannot leave both sides populated
        errors = {(r.kind, r.mode): r.error for r in compare(_sweep_log(n_sweeps=2))}
        assert errors[ModelKind.LINEAR, FeatureMode.ALL_TX] is None
        for kind in COMPARISON_KINDS:
            assert errors[kind, FeatureMode.MEDIAN_TX] is not None

    def test_failing_fit_becomes_error_row(self):
        # One power level makes tx_power a constant column, so the all-TX
        # linear and polynomial designs lose rank; the other fits score.
        rows = compare(run_campaign(CampaignConfig(power_levels=(13,))))
        errors = {(r.kind, r.mode): r.error for r in rows}
        assert errors.pop((ModelKind.LINEAR, FeatureMode.ALL_TX)) == (
            "design matrix rank 2 < 3 columns"
        )
        assert errors.pop((ModelKind.POLYNOMIAL, FeatureMode.ALL_TX)) == (
            "design matrix rank 3 < 6 columns"
        )
        assert len(errors) == 4 and set(errors.values()) == {None}
        assert all(r.r_squared is not None for r in rows if r.error is None)

    def test_bad_split_seed_raises_instead_of_error_rows(self):
        with pytest.raises(ValueError, match="split_seed"):
            compare(_sweep_log(), split_seed=-1)

    def test_ranking_fixture_layout(self):
        # fixed metric values: ranking must star the strongest R^2 row
        rows = [
            CompareRow(ModelKind.RANDOM_FOREST, FeatureMode.ALL_TX, 0.92, 1.63),
            CompareRow(ModelKind.RANDOM_FOREST, FeatureMode.MEDIAN_TX, 0.90, 0.94),
            CompareRow(ModelKind.POLYNOMIAL, FeatureMode.ALL_TX, 0.80, 4.43),
            CompareRow(ModelKind.POLYNOMIAL, FeatureMode.MEDIAN_TX, 0.88, 1.45),
            CompareRow(ModelKind.LINEAR, FeatureMode.ALL_TX, 0.18, 7.66),
            CompareRow(ModelKind.LINEAR, FeatureMode.MEDIAN_TX, 0.88, 3.23),
        ]
        ranked = rank_rows(rows)
        assert ranked[0].label == "Random Forest w/ all TX powers"
        assert ranked[0].best
        text = render_table(ranked)
        lines = text.splitlines()
        assert lines[2].startswith("* Random Forest w/ all TX powers")
        assert "0.92" in lines[2] and "1.63" in lines[2]
        assert len(lines) == 8  # header + rule + six rows
        assert sum(line.startswith("*") for line in lines) == 1

    def test_render_handles_error_and_undefined_rows(self):
        rows = rank_rows(
            [
                CompareRow(ModelKind.LINEAR, FeatureMode.ALL_TX, 0.5, 2.0),
                CompareRow(ModelKind.RIDGE, FeatureMode.ALL_TX, None, 1.0),
                CompareRow(ModelKind.POLYNOMIAL, FeatureMode.ALL_TX, error="boom"),
            ]
        )
        text = render_table(rows)
        assert "undef" in text
        assert "boom" in text
