"""Regression calibration: measurements in, moisture predictor out.

Assembles feature matrices from sweep logs, fits linear, ridge, polynomial
or random-forest regressors (the forest engine is ``forest``), scores them
with R^2 / MAE on a held-out split, renders comparison tables and saves a
fitted model as one JSON file (see ``save_model``).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

import numpy as np

from . import forest
from .sweepproto import TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, MeasurementLog, log_median_power

MODEL_FILE_FORMAT = "smol-model"
MODEL_FILE_VERSION = 9

# The share of a dataset's rows that a model is fit on; the rest score it.
TRAIN_FRACTION = 0.8

# Each family's fixed hyperparameters; the forest's are ``forest.grow``'s defaults.
RIDGE_LAMBDA = 1.0  # L2 penalty on ridge's slopes
POLY_DEGREE = 2  # polynomial: every monomial of total degree <= 2


def _finite_number(value) -> bool:
    """An int or float, not a bool, that is finite; an int beyond float range is not."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


class FeatureMode(str, Enum):
    """Which inputs the regressor sees."""

    ALL_TX = "all_tx"        # features [rssi, tx_power], every packet
    MEDIAN_TX = "median_tx"  # feature [rssi], packets at the plan's median power


FEATURE_NAMES = {
    FeatureMode.ALL_TX: ("rssi_dbm", "tx_power_dbm"),
    FeatureMode.MEDIAN_TX: ("rssi_dbm",),
}


class ModelKind(str, Enum):
    LINEAR = "linear"
    RIDGE = "ridge"
    POLYNOMIAL = "polynomial"
    RANDOM_FOREST = "random_forest"


KIND_LABELS = {
    ModelKind.LINEAR: "Linear Regression",
    ModelKind.RIDGE: "Ridge Regression",
    ModelKind.POLYNOMIAL: "Polynomial",
    ModelKind.RANDOM_FOREST: "Random Forest",
}

MODE_LABELS = {
    FeatureMode.ALL_TX: "all TX powers",
    FeatureMode.MEDIAN_TX: "median TX power",
}


@dataclass(frozen=True)
class ModelSpec:
    """Which regressor family to fit; each fits at its fixed hyperparameters."""

    kind: ModelKind

    def __post_init__(self) -> None:
        ModelKind(self.kind)  # an unknown kind raises ValueError


@dataclass
class Dataset:
    """Feature matrix (its mode's ``FEATURE_NAMES`` columns) + targets (VWC percent)."""

    features: np.ndarray
    targets: np.ndarray
    feature_mode: FeatureMode
    median_tx_power: int | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.targets):
            raise ValueError("feature/target row counts differ")
        if self.features.shape[1] != (width := len(FEATURE_NAMES[self.feature_mode])):
            raise ValueError(f"{self.feature_mode.value} mode has {width} feature column(s), "
                             f"got {self.features.shape[1]}")
        if not (np.isfinite(self.features).all() and np.isfinite(self.targets).all()):
            raise ValueError("features and targets must be finite")

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class Evaluation:
    """Held-out metrics. r_squared is None when the test targets have
    zero variance (the statistic is undefined there); MAE always exists."""

    r_squared: float | None
    mae: float


@dataclass
class TrainedModel:
    """A fitted regressor plus everything needed to reuse it: its inputs are
    its feature mode's ``FEATURE_NAMES``, at ``median_tx_power`` in MEDIAN_TX."""

    spec: ModelSpec
    feature_mode: FeatureMode
    params: dict
    median_tx_power: int | None = None
    metadata: dict = field(default_factory=dict)
    # A loaded forest's forest._descent_tables, from forest.decode's checks; not a field,
    # so never saved. A fitted forest builds them per prediction (cached: +0.8 MiB RSS).
    _descent = None

    def __post_init__(self) -> None:
        median = self.median_tx_power
        if self.feature_mode == FeatureMode.MEDIAN_TX and not (
            type(median) is int and TX_POWER_MIN_DBM <= median <= TX_POWER_MAX_DBM
        ):
            raise ValueError(
                f"median_tx_power {median!r} is not an integer in [{TX_POWER_MIN_DBM}, "
                f"{TX_POWER_MAX_DBM}] dBm, as median_tx mode needs"
            )
        if self.feature_mode == FeatureMode.ALL_TX and median is not None:
            raise ValueError("median_tx_power is not null, as all_tx mode needs")

    @property
    def n_features(self) -> int:
        return len(FEATURE_NAMES[self.feature_mode])

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Point estimates (VWC percent), one per feature row.

        Raises ValueError when a feature is not finite, and FloatingPointError
        when an estimate is not finite, as when a huge coefficient or leaf
        value overflows. A forest's estimates are ``forest.predict``'s.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"model expects (n, {self.n_features}) features, got {X.shape}")
        bad = np.count_nonzero(~np.isfinite(X))
        if bad:
            raise ValueError(f"{bad} of {X.size} feature values are not finite")
        kind, params = self.spec.kind, self.params
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == ModelKind.RANDOM_FOREST:
                out = forest.predict(params, X, self._descent)
            elif kind == ModelKind.POLYNOMIAL:
                out = least_squares_design(kind, X) @ params["beta"]
            else:  # not [1, X] @ beta, which moves the last bits of the table's linear rows
                out = params["beta"][0] + X @ params["beta"][1:]
        bad = np.count_nonzero(~np.isfinite(out))
        if bad:
            raise FloatingPointError(f"{bad} of {len(out)} predictions are not finite")
        return out


# ---------------------------------------------------------------------------
# dataset assembly and splitting

def feature_matrix(
    log: MeasurementLog,
    mode: FeatureMode,
    median_tx_power: int | None = None,
) -> tuple[MeasurementLog, np.ndarray]:
    """The packets a model in ``mode`` sees, and their feature rows.

    ALL_TX keeps every packet with features [rssi, tx_power]; MEDIAN_TX
    keeps the packets sent at ``median_tx_power``, feature [rssi]. An empty
    log raises ValueError in either mode.
    """
    if len(log) == 0:
        raise ValueError("no measurements in the log")
    if mode == FeatureMode.ALL_TX:
        return log, np.column_stack([log.rssi, log.tx_power.astype(float)])
    kept = log.take(log.tx_power == median_tx_power)
    if len(kept) == 0:
        raise ValueError(f"no measurements at the median power {median_tx_power} dBm")
    return kept, kept.rssi.reshape(-1, 1)


def assemble(log: MeasurementLog, mode: FeatureMode) -> Dataset:
    """A training dataset from a ground-truthed log: ``feature_matrix``, at
    the median power of the log's plan in MEDIAN_TX; targets in VWC percent."""
    log.require_ground_truth()
    med = log_median_power(log) if mode == FeatureMode.MEDIAN_TX else None
    kept, X = feature_matrix(log, mode, med)
    return Dataset(X, 100.0 * kept.vwc_truth, mode, median_tx_power=med)


def check_split(seed: int) -> None:
    """Raise ValueError unless ``split`` takes this seed, whatever the data."""
    if seed < 0:
        raise ValueError(f"split_seed must be >= 0, got {seed!r}")


def split(d: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random partition: ceil(n * TRAIN_FRACTION) rows train, rest test."""
    check_split(seed)
    n = len(d)
    n_train = math.ceil(n * TRAIN_FRACTION)
    if n - n_train < 1:
        raise ValueError(f"{n} row(s) cannot leave both splits non-empty")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(
        replace(d, features=d.features[idx], targets=d.targets[idx])
        for idx in (perm[:n_train], perm[n_train:])
    )


# ---------------------------------------------------------------------------
# fitting

def least_squares_design(kind: ModelKind, X: np.ndarray) -> np.ndarray:
    """The columns a least-squares kind fits: every monomial of total degree
    <= ``POLY_DEGREE`` (polynomial) or 1 (linear, ridge) of X's features, by
    total degree then feature index (one feature at degree 2: [1, x, x^2]).
    An overflowing monomial is left non-finite for the caller to refuse."""
    degree = POLY_DEGREE if kind == ModelKind.POLYNOMIAL else 1
    k = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.column_stack([
            np.prod(X ** np.bincount(np.array(combo, dtype=np.intp), minlength=k), axis=1)
            for total in range(degree + 1)
            for combo in combinations_with_replacement(range(k), total)
        ])


def _solve_least_squares(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    bad = np.count_nonzero(~np.isfinite(design))
    if bad:
        raise FloatingPointError(f"{bad} of {design.size} design matrix values are not finite")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise FloatingPointError(f"design matrix rank {rank} < {design.shape[1]} columns")
    return beta


def fit(spec: ModelSpec, train: Dataset) -> TrainedModel:
    """Fit one regressor on the training rows.

    Linear, ridge and polynomial solve least squares on their
    ``least_squares_design``: an intercept and a slope per feature, or every
    monomial of total degree <= ``POLY_DEGREE``. Ridge appends the rows
    sqrt(``RIDGE_LAMBDA``) * I under its slopes, an L2 penalty that leaves the
    intercept free (Hoerl and Kennard, 1970). The forest (``forest.grow`` at
    its default settings) bootstraps seeded resamples and grows greedy
    variance-reduction trees. A rank-deficient design raises
    FloatingPointError rather than regularizing silently, and so does a design
    holding a non-finite value, such as an overflowing monomial, before it
    reaches LAPACK.
    """
    if len(train) == 0:
        raise ValueError("cannot fit on an empty training set")
    X, y = train.features, train.targets
    if spec.kind == ModelKind.RANDOM_FOREST:
        params = forest.grow(X, y)
    else:
        design = least_squares_design(spec.kind, X)
        if spec.kind == ModelKind.RIDGE:
            penalty = math.sqrt(RIDGE_LAMBDA) * np.eye(design.shape[1])[1:]
            design, y = np.vstack([design, penalty]), np.concatenate([y, np.zeros(len(penalty))])
        params = {"beta": _solve_least_squares(design, y)}
    return TrainedModel(
        spec=spec,
        feature_mode=train.feature_mode,
        params=params,
        median_tx_power=train.median_tx_power,
    )


# ---------------------------------------------------------------------------
# evaluation

def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean(np.abs(y_true - y_pred)))


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float | None:
    """1 - SS_res/SS_tot against the mean of y_true; None when every target
    is equal (the mean of equal values can round off them) or SS_tot is 0."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0 or np.all(y_true == y_true[0]):
        return None
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


def evaluate(model: TrainedModel, test: Dataset) -> Evaluation:
    """Score a model on held-out rows."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    preds = model.predict_many(test.features)
    return Evaluation(
        r_squared=r_squared(test.targets, preds),
        mae=mean_absolute_error(test.targets, preds),
    )


def train_and_score(
    spec: ModelSpec, log: MeasurementLog, mode: FeatureMode, split_seed: int
) -> tuple[TrainedModel, Evaluation]:
    """Fit ``spec`` on the training split of ``log``'s ``mode`` dataset and
    score it on the rest; the model's metadata records the split."""
    train, test = split(assemble(log, mode), split_seed)
    model = fit(spec, train)
    model.metadata = {"n_train": len(train), "n_test": len(test), "split_seed": split_seed}
    return model, evaluate(model, test)


# ---------------------------------------------------------------------------
# model persistence

def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write a self-describing JSON model file, one key per TrainedModel field
    (not ``asdict``, which would copy the arrays); load_model inverts it.
    A forest's arrays go in as ``forest.encode``'s base64 strings, the other
    models' few coefficients as JSON numbers."""
    payload = {"format": MODEL_FILE_FORMAT, "version": MODEL_FILE_VERSION}
    payload.update((f.name, getattr(model, f.name)) for f in fields(model))
    payload["spec"] = asdict(model.spec)
    if model.spec.kind == ModelKind.RANDOM_FOREST:
        payload["params"] = forest.encode(model.params)
    with Path(path).open("w") as handle:  # streamed: no whole-file string
        json.dump(
            payload, handle, sort_keys=True, separators=(",", ":"), default=lambda a: a.tolist()
        )
        handle.write("\n")


def _require_keys(obj, keys: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    missing, extra = set(keys) - obj.keys(), obj.keys() - set(keys)
    if missing or extra:
        problems = [
            f"{label} key(s) {', '.join(map(repr, sorted(found)))}"
            for label, found in (("missing", missing), ("unexpected", extra))
            if found
        ]
        raise ValueError(f"{where}: {'; '.join(problems)}")


def _read_json(path: str | Path):
    """The JSON document at ``path``, UTF-8 text; another encoding, malformed
    or too deeply nested JSON raises ValueError. The bytes are decoded once,
    with no newline pass: JSON reads a CR LF line end as white space either way."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8 text ({err.reason})") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: not readable as JSON ({err})") from None


def _params_from_json(params, spec: ModelSpec, n_features: int) -> tuple[dict, tuple | None]:
    """The model's params, and a forest's descent tables (None for the others)."""
    if spec.kind == ModelKind.RANDOM_FOREST:
        _require_keys(params, forest.KEYS, "params")
        return forest.decode(params, n_features)
    _require_keys(params, ["beta"], "params")
    beta = params["beta"]
    if type(beta) is not list or not all(map(_finite_number, beta)):
        raise ValueError("beta is not a list of finite numbers")
    want = least_squares_design(spec.kind, np.empty((0, n_features))).shape[1]
    if len(beta) != want:
        raise ValueError(f"beta has {len(beta)} coefficient(s), want {want}")
    return {"beta": np.array(beta, dtype=float)}, None


def _model_from_json(payload: dict) -> TrainedModel:
    keys = ["format", "version", *(f.name for f in fields(TrainedModel))]
    _require_keys(payload, keys, "model file")
    spec_d = payload["spec"]
    _require_keys(spec_d, [f.name for f in fields(ModelSpec)], "spec")
    spec = ModelSpec(ModelKind(spec_d["kind"]))
    mode = FeatureMode(payload["feature_mode"])
    if not isinstance(payload["metadata"], dict):
        raise ValueError("metadata is not a JSON object")
    params, descent = _params_from_json(payload["params"], spec, len(FEATURE_NAMES[mode]))
    model = TrainedModel(
        spec=spec,
        feature_mode=mode,
        params=params,
        median_tx_power=payload["median_tx_power"],
        metadata=payload["metadata"],
    )
    model._descent = descent
    return model


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file written by save_model.

    Any other file raises ValueError naming the first problem found: another
    format or version, a missing or extra key, a malformed value, or tree
    arrays whose descent could leave the tree or never end.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FILE_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FILE_FORMAT} file")
    if payload.get("version") != MODEL_FILE_VERSION:
        raise ValueError(
            f"{path}: model file version {payload.get('version')!r} is not supported "
            f"(this smol reads version {MODEL_FILE_VERSION}); retrain with `smol train`"
        )
    try:
        return _model_from_json(payload)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# side-by-side comparison

# The headline comparison: three model families, each at its fixed
# hyperparameters, x two feature modes. Ridge stays available through fit() but
# is not part of this preset.
COMPARISON_KINDS = (ModelKind.RANDOM_FOREST, ModelKind.POLYNOMIAL, ModelKind.LINEAR)


@dataclass
class CompareRow:
    """One line of the comparison table."""

    kind: ModelKind
    mode: FeatureMode
    r_squared: float | None = None
    mae: float | None = None
    error: str | None = None
    best: bool = False

    @property
    def label(self) -> str:
        return f"{KIND_LABELS[self.kind]} w/ {MODE_LABELS[self.mode]}"


def rank_rows(rows: list[CompareRow]) -> list[CompareRow]:
    """Sort by R^2 descending (undefined/error rows sink) and flag the winner."""
    ordered = sorted(rows, key=lambda r: math.inf if r.r_squared is None else -r.r_squared)
    for i, row in enumerate(ordered):
        row.best = i == 0 and row.r_squared is not None
    return ordered


def compare(log: MeasurementLog, split_seed: int = 0) -> list[CompareRow]:
    """``train_and_score`` every COMPARISON_KINDS kind, at its fixed
    hyperparameters, in every feature mode, on one split seed.

    A bad seed raises ValueError; a combination that fails on the data
    becomes an error row instead of aborting the whole comparison. Rows
    come back ranked with the winner flagged.
    """
    check_split(split_seed)
    rows: list[CompareRow] = []
    for mode in FeatureMode:
        for kind in COMPARISON_KINDS:
            try:
                ev = train_and_score(ModelSpec(kind), log, mode, split_seed)[1]
                rows.append(CompareRow(kind, mode, ev.r_squared, ev.mae))
            except (ValueError, FloatingPointError) as err:
                rows.append(CompareRow(kind, mode, error=str(err)))
    return rank_rows(rows)


def render_table(rows: Sequence[CompareRow]) -> str:
    """Fixed-width text table; the best row is starred."""
    header = f"{'':2}{'Model':<40}{'R^2':>8}{'MAE':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        star = "* " if row.best else "  "
        if row.error is not None:
            lines.append(f"{star}{row.label:<40}{'error':>8}  {row.error}")
            continue
        r2 = "undef" if row.r_squared is None else f"{row.r_squared:.2f}"
        lines.append(f"{star}{row.label:<40}{r2:>8}{row.mae:>8.2f}")
    return "\n".join(lines)
