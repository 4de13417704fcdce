from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol.calibrate import (
    TREE_ARRAYS,
    CompareRow,
    Dataset,
    FeatureMode,
    ModelKind,
    ModelSpec,
    SingularSystemError,
    TrainedModel,
    _forest_outputs,
    assemble,
    compare,
    evaluate,
    fit,
    load_model,
    mean_absolute_error,
    polynomial_expand,
    polynomial_powers,
    r_squared,
    rank_rows,
    render_table,
    save_model,
    split,
)
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


def _dataset(X, y, mode=FeatureMode.ALL_TX):
    names = tuple(f"x{i}" for i in range(np.shape(X)[1]))
    return Dataset(np.asarray(X, float), np.asarray(y, float), mode, names)


class TestAssemble:
    def test_all_tx_keeps_every_packet(self):
        ds = assemble(_sweep_log(), FeatureMode.ALL_TX)
        assert len(ds) == 180
        assert ds.features.shape == (180, 2)
        assert ds.feature_names == ("rssi_dbm", "tx_power_dbm")

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


class TestSplit:
    def test_80_20_on_ten_rows(self):
        ds = _dataset(np.arange(20).reshape(10, 2), np.arange(10))
        train, test = split(ds, 0.8, seed=0)
        assert len(train) == 8
        assert len(test) == 2
        together = sorted(np.concatenate([train.targets, test.targets]).tolist())
        assert together == list(range(10))

    def test_same_seed_same_partition(self):
        ds = _dataset(np.arange(30).reshape(15, 2), np.arange(15))
        a = split(ds, 0.8, seed=4)
        b = split(ds, 0.8, seed=4)
        assert np.array_equal(a[0].targets, b[0].targets)
        assert np.array_equal(a[1].features, b[1].features)

    def test_single_row_rejected(self):
        ds = _dataset([[1.0]], [1.0])
        with pytest.raises(ValueError):
            split(ds, 0.8, seed=0)

    def test_fraction_bounds(self):
        ds = _dataset(np.arange(10).reshape(5, 2), np.arange(5))
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split(ds, bad, seed=0)

    def test_too_small_for_a_test_set_rejected(self):
        # up to 4 rows, ceil(0.8 n) swallows everything
        for n in (2, 3, 4):
            ds = _dataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))
            with pytest.raises(ValueError):
                split(ds, 0.8, seed=0)

    @given(n=st.integers(5, 400), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200)
    def test_partition_is_exact(self, n, seed):
        ds = _dataset(np.arange(n, dtype=float).reshape(n, 1), np.arange(n))
        train, test = split(ds, 0.8, seed=seed)
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

    def test_ridge_zero_penalty_equals_linear(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-90, -20, (50, 2))
        y = 3.0 - 0.5 * X[:, 0] + 0.25 * X[:, 1] + rng.normal(0, 1, 50)
        ds = _dataset(X, y)
        lin = fit(ModelSpec(ModelKind.LINEAR), ds).params["beta"]
        rid = fit(ModelSpec(ModelKind.RIDGE, ridge_lambda=0.0), ds).params["beta"]
        assert np.allclose(lin, rid, atol=1e-6)

    def test_ridge_penalty_shrinks_slopes(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (60, 2))
        y = 5.0 + 4.0 * X[:, 0] - 3.0 * X[:, 1]
        ds = _dataset(X, y)
        free = fit(ModelSpec(ModelKind.RIDGE, ridge_lambda=0.0), ds).params["beta"]
        tight = fit(ModelSpec(ModelKind.RIDGE, ridge_lambda=1e4), ds).params["beta"]
        assert np.abs(tight[1:]).sum() < np.abs(free[1:]).sum()

    def test_singular_design_is_reported(self):
        # duplicated feature column: rank-deficient, no silent fallback
        X = np.column_stack([np.arange(10.0), np.arange(10.0)])
        ds = _dataset(X, np.arange(10.0))
        with pytest.raises(SingularSystemError):
            fit(ModelSpec(ModelKind.LINEAR), ds)

    def test_empty_train_rejected(self):
        ds = _dataset(np.empty((0, 2)), np.empty(0))
        with pytest.raises(ValueError):
            fit(ModelSpec(ModelKind.LINEAR), ds)


class TestPolynomial:
    def test_degree_two_single_feature_basis(self):
        powers = polynomial_powers(1, 2)
        assert powers == [(0,), (1,), (2,)]
        x = np.array([[3.0], [-2.0]])
        expanded = polynomial_expand(x, powers)
        assert np.array_equal(expanded, [[1.0, 3.0, 9.0], [1.0, -2.0, 4.0]])

    def test_degree_two_on_two_features(self):
        powers = polynomial_powers(2, 2)
        assert powers == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    def test_fits_a_quadratic_exactly(self):
        x = np.linspace(-5, 5, 25).reshape(-1, 1)
        y = 2.0 - 1.5 * x[:, 0] + 0.5 * x[:, 0] ** 2
        model = fit(ModelSpec(ModelKind.POLYNOMIAL, poly_degree=2), _dataset(x, y))
        preds = model.predict_many(x)
        assert np.allclose(preds, y, atol=1e-8)

    def test_degree_below_two_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.POLYNOMIAL, poly_degree=1)


class TestForest:
    def test_single_full_tree_memorizes(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-50, 50, (20, 2))  # continuous draws: duplicate-free
        y = rng.uniform(0, 40, 20)
        spec = ModelSpec(
            ModelKind.RANDOM_FOREST,
            n_trees=1,
            max_depth=None,
            min_leaf=1,
            bootstrap=False,
        )
        model = fit(spec, _dataset(X, y))
        preds = model.predict_many(X)
        assert np.array_equal(preds, y)

    def test_prediction_is_mean_of_trees(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, (40, 2))
        y = X[:, 0] + X[:, 1] + rng.normal(0, 0.5, 40)
        model = fit(ModelSpec(ModelKind.RANDOM_FOREST, n_trees=10, seed=3), _dataset(X, y))
        x = np.array([[4.0, 5.0]])
        per_tree = _forest_outputs(model.params["trees"], x)[0]
        assert len(per_tree) == 10
        assert model.predict_many(x)[0] == pytest.approx(per_tree.mean(), rel=1e-12)

    def test_seeded_fit_is_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 10, (30, 2))
        y = X[:, 0] - X[:, 1]
        ds = _dataset(X, y)
        a = fit(ModelSpec(ModelKind.RANDOM_FOREST, n_trees=5, seed=1), ds)
        b = fit(ModelSpec(ModelKind.RANDOM_FOREST, n_trees=5, seed=1), ds)
        other = fit(ModelSpec(ModelKind.RANDOM_FOREST, n_trees=5, seed=2), ds)

        def same(m1, m2):
            return all(
                np.array_equal(t1[key], t2[key])
                for t1, t2 in zip(m1.params["trees"], m2.params["trees"], strict=True)
                for key in TREE_ARRAYS
            )

        assert same(a, b)
        assert not same(a, other)

    def test_gain_ties_go_to_lowest_feature_then_lowest_threshold(self):
        # Targets 0, 1, 1, 0: cutting off either end row gains the same. The
        # second column orders the rows in reverse, so both of its end cuts
        # tie with the first column's too.
        X = np.array([[0.0, 13.0], [1.0, 12.0], [2.0, 11.0], [3.0, 10.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        spec = ModelSpec(
            ModelKind.RANDOM_FOREST, n_trees=1, max_depth=1, min_leaf=1, bootstrap=False
        )
        for columns, threshold in (([0, 1], 0.5), ([1, 0], 10.5)):
            tree = fit(spec, _dataset(X[:, columns], y)).params["trees"][0]
            assert tree["feature"].tolist() == [0, -1, -1]
            assert tree["threshold"][0] == threshold

    def test_learns_a_smooth_surface(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 10, (400, 2))
        y = 3.0 * X[:, 0] + X[:, 1]
        model = fit(ModelSpec(ModelKind.RANDOM_FOREST, seed=0), _dataset(X, y))
        test_X = rng.uniform(1, 9, (50, 2))
        preds = model.predict_many(test_X)
        truth = 3.0 * test_X[:, 0] + test_X[:, 1]
        assert mean_absolute_error(truth, preds) < 1.5

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.RANDOM_FOREST, n_trees=0)
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.RANDOM_FOREST, max_depth=0)
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.RANDOM_FOREST, min_leaf=0)


class TestPredict:
    def test_linear_hand_example(self):
        model = TrainedModel(
            spec=ModelSpec(ModelKind.LINEAR),
            feature_mode=FeatureMode.MEDIAN_TX,
            feature_names=("rssi_dbm",),
            params={"beta": np.array([10.0, -2.0])},
        )
        assert model.predict_many(np.array([[-40.0]])) == pytest.approx([90.0])

    def test_repeat_input_repeat_output(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 10, (30, 2))
        model = fit(
            ModelSpec(ModelKind.RANDOM_FOREST, n_trees=5), _dataset(X, X[:, 0])
        )
        x = np.array([[2.0, 3.0]])
        assert np.array_equal(model.predict_many(x), model.predict_many(x))

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

    def test_evaluate_reports_undefined_r2_with_mae(self):
        ds = _dataset([[1.0], [2.0]], [5.0, 5.0])
        model = TrainedModel(
            spec=ModelSpec(ModelKind.LINEAR),
            feature_mode=FeatureMode.MEDIAN_TX,
            feature_names=("rssi_dbm",),
            params={"beta": np.array([4.0, 0.0])},
        )
        ev = evaluate(model, ds)
        assert ev.r_squared is None
        assert ev.mae == pytest.approx(1.0)

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


class TestPersistence:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(ModelKind.LINEAR),
            ModelSpec(ModelKind.RIDGE, ridge_lambda=0.5),
            ModelSpec(ModelKind.POLYNOMIAL, poly_degree=3),
            ModelSpec(ModelKind.RANDOM_FOREST, n_trees=8, seed=2),
        ],
    )
    def test_round_trip_predicts_identically(self, spec, tmp_path):
        rng = np.random.default_rng(13)
        X = rng.uniform(-80, -20, (40, 2))
        y = -0.7 * X[:, 0] + 0.1 * X[:, 1] + rng.normal(0, 1, 40)
        model = fit(spec, _dataset(X, y))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.uniform(-80, -20, (25, 2))
        assert np.array_equal(model.predict_many(probe), loaded.predict_many(probe))
        assert loaded.spec == model.spec
        assert loaded.feature_mode == model.feature_mode

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


class TestCompare:
    def test_empty_spec_list(self):
        assert compare([], _sweep_log(), [FeatureMode.ALL_TX]) == []

    def test_six_way_structure(self):
        specs = [
            ModelSpec(ModelKind.RANDOM_FOREST, n_trees=10),
            ModelSpec(ModelKind.POLYNOMIAL),
            ModelSpec(ModelKind.LINEAR),
        ]
        rows = compare(
            specs, _sweep_log(), [FeatureMode.ALL_TX, FeatureMode.MEDIAN_TX]
        )
        assert len(rows) == 6
        assert sum(r.best for r in rows) == 1
        assert rows[0].best
        scores = [r.r_squared for r in rows if r.r_squared is not None]
        assert scores == sorted(scores, reverse=True)

    def test_failing_combination_becomes_error_row(self):
        # two median rows survive: a split cannot leave both sides populated
        log = _sweep_log(n_sweeps=2)
        rows = compare(
            [ModelSpec(ModelKind.LINEAR)],
            log,
            [FeatureMode.ALL_TX, FeatureMode.MEDIAN_TX],
        )
        by_mode = {r.mode: r for r in rows}
        assert by_mode[FeatureMode.ALL_TX].error is None
        assert by_mode[FeatureMode.MEDIAN_TX].error is not None

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
