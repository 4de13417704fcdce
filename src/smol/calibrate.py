"""Regression calibration: measurements in, moisture predictor out.

Assembles feature matrices from sweep logs, fits one of four regressor
families (linear, ridge, polynomial, random forest), scores them with
R^2 / MAE on a held-out split, and renders side-by-side comparison
tables. Linear-algebra solves go through numpy; the forest is grown here
so splits and tie-breaks are fully deterministic under a seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Sequence

import numpy as np

from .sweepproto import MeasurementLog, log_median_power

MODEL_FILE_FORMAT = "smol-model"
MODEL_FILE_VERSION = 2

# A tree is five flat arrays indexed by node; see _grow_trees.
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")

# Trees grown side by side: more share the per-level NumPy calls, but the
# work arrays grow with their total row count.
_TREES_PER_BATCH = 5


class SingularSystemError(ArithmeticError):
    """A linear fit hit a rank-deficient design matrix."""


class FeatureMode(str, Enum):
    """Which inputs the regressor sees."""

    ALL_TX = "all_tx"        # features [rssi, tx_power], every packet
    MEDIAN_TX = "median_tx"  # feature [rssi], packets at the plan's median power


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
    """Hyperparameters for one regressor family.

    Only the fields relevant to ``kind`` matter; the rest ride along so a
    spec stays a plain value object, and every field is checked whatever
    the kind. ``bootstrap=False`` lets a single fully-grown tree see every
    training row (useful for sanity checks).
    """

    kind: ModelKind
    poly_degree: int = 2
    ridge_lambda: float = 1.0
    n_trees: int = 100
    max_depth: int | None = 10
    min_leaf: int = 2
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        ModelKind(self.kind)  # an unknown kind raises ValueError
        minimums = {"poly_degree": 2, "n_trees": 1, "min_leaf": 1, "seed": 0}
        if self.max_depth is not None:  # None: unbounded depth
            minimums["max_depth"] = 1
        for name, low in minimums.items():
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        lam = self.ridge_lambda
        if type(lam) not in (int, float) or not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"ridge_lambda must be a finite number >= 0, got {lam!r}")
        if type(self.bootstrap) is not bool:
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")


@dataclass
class Dataset:
    """Feature matrix + targets (VWC percent) under one feature mode."""

    features: np.ndarray
    targets: np.ndarray
    feature_mode: FeatureMode
    feature_names: tuple[str, ...]
    median_tx_power: int | None = None

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if len(self.features) != len(self.targets):
            raise ValueError("feature/target row counts differ")
        if self.features.shape[1] != len(self.feature_names):
            raise ValueError("feature name count does not match columns")
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
    """A fitted regressor plus everything needed to reuse it."""

    spec: ModelSpec
    feature_mode: FeatureMode
    feature_names: tuple[str, ...]
    params: dict
    median_tx_power: int | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Point estimates (VWC percent), one per feature row.

        Raises FloatingPointError when an estimate is not finite, as when a
        huge coefficient or leaf value overflows.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"model expects (n, {self.n_features}) features, got {X.shape}"
            )
        kind, params = self.spec.kind, self.params
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == ModelKind.RANDOM_FOREST:
                out = _forest_outputs(params["trees"], X).mean(axis=1)
            elif kind == ModelKind.POLYNOMIAL:
                out = polynomial_expand(X, params["powers"]) @ params["beta"]
            else:
                out = params["beta"][0] + X @ params["beta"][1:]
        bad = np.count_nonzero(~np.isfinite(out))
        if bad:
            raise FloatingPointError(f"{bad} of {len(out)} predictions are not finite")
        return out


# ---------------------------------------------------------------------------
# dataset assembly and splitting

FEATURE_NAMES = {
    FeatureMode.ALL_TX: ("rssi_dbm", "tx_power_dbm"),
    FeatureMode.MEDIAN_TX: ("rssi_dbm",),
}


def feature_matrix(
    log: MeasurementLog,
    mode: FeatureMode,
    median_tx_power: int | None = None,
) -> tuple[MeasurementLog, np.ndarray]:
    """The packets a model in ``mode`` sees, and their feature rows.

    ALL_TX keeps every packet with features [rssi, tx_power]; MEDIAN_TX
    keeps the packets sent at ``median_tx_power``, feature [rssi].
    """
    if mode == FeatureMode.ALL_TX:
        return log, np.column_stack([log.rssi, log.tx_power.astype(float)])
    kept = log.take(log.tx_power == median_tx_power)
    if len(kept) == 0:
        raise ValueError(f"no measurements at the median power {median_tx_power} dBm")
    return kept, kept.rssi.reshape(-1, 1)


def assemble(log: MeasurementLog, mode: FeatureMode) -> Dataset:
    """Build a training dataset from a ground-truthed log.

    ALL_TX keeps every packet with features [rssi, tx_power]; MEDIAN_TX
    keeps only packets sent at the median power of the plan the log was
    swept with. Targets are VWC percent.
    """
    if len(log) == 0:
        raise ValueError("no measurements to assemble")
    missing = np.count_nonzero(np.isnan(log.vwc_truth))
    if missing:
        raise ValueError(
            f"{missing} measurement(s) lack ground truth; "
            "assembling a training set needs the vwc_truth column"
        )

    med = log_median_power(log) if mode == FeatureMode.MEDIAN_TX else None
    kept, X = feature_matrix(log, mode, med)
    return Dataset(X, 100.0 * kept.vwc_truth, mode, FEATURE_NAMES[mode], median_tx_power=med)


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random partition: ceil(n*fraction) rows train, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must be strictly between 0 and 1")
    n = len(d)
    n_train = math.ceil(n * train_fraction)
    if n - n_train < 1 or n_train < 1:
        raise ValueError(f"{n} row(s) cannot leave both splits non-empty")
    perm = np.random.default_rng(seed).permutation(n)
    train_idx, test_idx = perm[:n_train], perm[n_train:]

    def take(idx: np.ndarray) -> Dataset:
        return Dataset(
            d.features[idx],
            d.targets[idx],
            d.feature_mode,
            d.feature_names,
            median_tx_power=d.median_tx_power,
        )

    return take(train_idx), take(test_idx)


# ---------------------------------------------------------------------------
# fitting

def polynomial_powers(n_features: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials with total degree <= degree,
    ordered by total degree then feature index; one feature and degree 2
    give [(0,), (1,), (2,)], i.e. the basis [1, x, x^2]."""
    powers: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(n_features), total):
            exps = [0] * n_features
            for j in combo:
                exps[j] += 1
            powers.append(tuple(exps))
    return powers


def polynomial_expand(X: np.ndarray, powers: Sequence[tuple[int, ...]]) -> np.ndarray:
    cols = [np.prod(X ** np.array(p), axis=1) for p in powers]
    return np.column_stack(cols)


def _solve_least_squares(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        raise SingularSystemError(
            f"design matrix rank {rank} < {design.shape[1]} columns"
        )
    return beta


def _fit_linear(X: np.ndarray, y: np.ndarray) -> dict:
    design = np.column_stack([np.ones(len(y)), X])
    return {"beta": _solve_least_squares(design, y)}


def _fit_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> dict:
    if lam == 0.0:
        return _fit_linear(X, y)
    n, d = X.shape
    # Augmented rows sqrt(lam)*I penalize the slope coefficients only;
    # the intercept column stays unpenalized.
    design = np.column_stack([np.ones(n), X])
    penalty = np.hstack([np.zeros((d, 1)), math.sqrt(lam) * np.eye(d)])
    return {
        "beta": _solve_least_squares(
            np.vstack([design, penalty]), np.concatenate([y, np.zeros(d)])
        )
    }


def _fit_polynomial(X: np.ndarray, y: np.ndarray, degree: int) -> dict:
    powers = polynomial_powers(X.shape[1], degree)
    design = polynomial_expand(X, powers)
    return {"beta": _solve_least_squares(design, y), "powers": powers}


def _segment_sums(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.sum`` of every segment ``values[:, start:start + count]``, bit for bit.

    NumPy sums pairwise, so a sum depends on the segment's length. Segments
    of one length are stacked into a C-ordered 3-D array and reduced along
    its last axis, which repeats the 1-D sum exactly. ``np.add.reduceat``
    does not, and neither does a reduction along an axis that is not
    contiguous in memory (``values[:, index]`` is laid out that way).
    """
    out = np.empty((len(values), len(counts)))
    by_size = np.argsort(counts, kind="stable")
    sizes, firsts = np.unique(counts[by_size], return_index=True)
    bounds = firsts.tolist() + [len(counts)]
    for size, lo, hi in zip(sizes.tolist(), bounds, bounds[1:]):
        seg = by_size[lo:hi]
        stacked = np.take(values, starts[seg, None] + np.arange(size), axis=1)
        out[:, seg] = np.add.reduce(stacked, axis=2)
    return out


def _best_splits(
    X: np.ndarray,
    y: np.ndarray,
    node: np.ndarray,
    sort_key: np.ndarray,
    counts: np.ndarray,
    total_sse: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy variance-reduction split of every node of a level at once.

    Row i of ``X``/``y`` belongs to node ``node[i]``. Sorting by the unique
    keys ``sort_key[:, j]`` groups the rows by node and orders each node's
    rows by feature j, ties in sample order. Running sums restart at every
    node: each node's sorted targets fill one row of a zero-padded matrix,
    whose row-wise ``cumsum`` adds in the same order as a ``cumsum`` of the
    node alone. Ties go to the lowest feature index, then the lowest
    threshold. Returns (feature, threshold) per node, feature -1 where no
    split reduces the squared error.
    """
    m = len(counts)
    at = np.arange(len(node))
    starts = np.cumsum(counts) - counts
    last = starts + counts - 1
    best_gain = np.zeros(m)
    best_feature = np.full(m, -1)
    best_threshold = np.zeros(m)
    padded = np.zeros((2, m, int(counts.max())))
    for j in range(X.shape[1]):
        order = np.argsort(sort_key[:, j])
        seg = node[order]
        pos = at - starts[seg]
        xs, ys = X[order, j], y[order]
        padded[0, seg, pos] = ys
        padded[1, seg, pos] = ys * ys
        cy, cyy = np.cumsum(padded, axis=2)[:, seg, pos]
        left_n = pos + 1
        right_n = counts[seg] - left_n
        with np.errstate(divide="ignore", invalid="ignore"):  # right_n is 0 at each node's end
            sse_left = cyy - cy * cy / left_n
            sse_right = (cyy[last][seg] - cyy) - (cy[last][seg] - cy) ** 2 / right_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        valid[:-1] &= xs[1:] != xs[:-1]
        gains = np.where(valid, total_sse[seg] - sse_left - sse_right, -np.inf)
        # first max of each node: lowest threshold wins ties; a node whose
        # gains hold NaN has no max and no split on this feature
        top = np.maximum.reduceat(gains, starts)
        k = np.minimum.reduceat(np.where(gains == top[seg], at, len(at)), starts)
        found = k < len(at)
        gain = np.where(found, top, -np.inf)
        k = np.where(found, k, 0)
        lo, hi = xs[k], xs[k + 1]
        thr = (lo + hi) / 2.0
        thr = np.where(thr < hi, thr, lo)  # adjacent floats: fall back to left value
        better = gain > best_gain
        best_gain = np.where(better, gain, best_gain)
        best_feature[better] = j
        best_threshold[better] = thr[better]
    return best_feature, best_threshold


def _grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    max_depth: int | None,
    min_leaf: int,
) -> list[dict[str, np.ndarray]]:
    """Grow one tree per row of ``samples`` (row indices into ``X``/``y``).

    The trees grow together, breadth-first: every node of one depth, in
    every tree, is searched at once. A node becomes a leaf at
    ``max_depth``, below ``2 * min_leaf`` rows, when its targets are all
    equal, or when no split reduces the squared error; its value is the
    mean target. Each tree comes back as flat arrays indexed by node,
    numbered level by level from the root at 0, so every child's index
    exceeds its parent's. Leaves have feature, left and right -1 and
    threshold 0; split nodes have value 0.
    """
    n_trees, n = samples.shape
    X, y = X[samples.ravel()], y[samples.ravel()]
    # Each row's place in a stable sort of each feature column.
    x_rank = np.empty(X.shape, dtype=np.intp)
    for j in range(X.shape[1]):
        x_rank[np.argsort(X[:, j], kind="stable"), j] = np.arange(len(X))
    # Nodes of all trees are numbered level by level, each level ordered by
    # tree and then by parent, so each tree's nodes keep their order.
    feature = np.full(2 * len(X), -1)
    threshold = np.zeros(2 * len(X))
    left = np.full(2 * len(X), -1)
    right = np.full(2 * len(X), -1)
    value = np.zeros(2 * len(X))
    tree = np.zeros(2 * len(X), dtype=np.intp)
    tree[:n_trees] = np.arange(n_trees)
    rows = np.arange(len(X))  # rows of the level's nodes, in sample order
    node = rows // n  # each row's node, numbered within the level
    first, width, depth = 0, n_trees, 0  # the level holds nodes first .. first + width - 1
    while width:
        counts = np.bincount(node, minlength=width)
        starts = np.cumsum(counts) - counts
        ys = y[rows[np.argsort(node, kind="stable")]]  # node by node, in sample order
        sums, sums_sq = _segment_sums(np.stack([ys, ys * ys]), starts, counts)
        open_ = counts >= 2 * min_leaf
        if max_depth is not None and depth >= max_depth:
            open_[:] = False
        open_ &= np.maximum.reduceat(ys, starts) != np.minimum.reduceat(ys, starts)
        split_feature = np.full(width, -1)
        split_threshold = np.zeros(width)
        if open_.any():
            # ``** 2`` on a Python float is libm pow, which rounds differently
            # from x * x about once in 1500 squares; the pinned trees use pow.
            sq = np.array([s ** 2 for s in sums[open_].tolist()])
            total_sse = sums_sq[open_] - sq / counts[open_]
            inside = open_[node]
            searched = (np.cumsum(open_) - 1)[node[inside]]
            split_feature[open_], split_threshold[open_] = _best_splits(
                X[rows[inside]],
                y[rows[inside]],
                searched,
                searched[:, None] * len(X) + x_rank[rows[inside]],
                counts[open_],
                total_sse,
                min_leaf,
            )

        ids = first + np.arange(width)
        splits = split_feature >= 0
        leaves = ~splits
        value[ids[leaves]] = sums[leaves] / counts[leaves]
        rank = np.cumsum(splits) - 1
        parents = ids[splits]
        children = first + width + 2 * rank[splits]
        feature[parents] = split_feature[splits]
        threshold[parents] = split_threshold[splits]
        left[parents] = children
        right[parents] = children + 1
        tree[children] = tree[children + 1] = tree[parents]

        inside = splits[node]
        rows, node = rows[inside], node[inside]
        goes_left = X[rows, split_feature[node]] <= split_threshold[node]
        node = 2 * rank[node] + ~goes_left
        first, width, depth = first + width, 2 * len(parents), depth + 1

    # Renumber each tree's nodes from 0, keeping their order.
    tree = tree[:first]
    by_tree = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=n_trees)
    local = np.empty(first, dtype=np.intp)
    local[by_tree] = np.arange(first) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    for children in (left, right):
        children[:first] = np.where(children[:first] >= 0, local[children[:first]], -1)
    arrays = dict(zip(TREE_ARRAYS, (feature, threshold, left, right, value)))
    return [
        {key: a[nodes] for key, a in arrays.items()}
        for nodes in np.split(by_tree, np.cumsum(sizes)[:-1])
    ]


def _forest_outputs(trees: Sequence[dict], X: np.ndarray) -> np.ndarray:
    """Every tree's prediction for every row, as a C-ordered (rows, trees) array.

    The trees are stacked into one set of arrays whose leaves point to
    themselves, and all rows descend through all trees one level per step
    until no row moves.
    """
    sizes = np.array([len(t["value"]) for t in trees])
    roots = np.cumsum(sizes) - sizes
    feature, threshold, left, right, value = (
        np.concatenate([t[key] for t in trees]) for key in TREE_ARRAYS
    )
    leaf = feature < 0
    index = np.arange(len(feature))
    offset = np.repeat(roots, sizes)
    left = np.where(leaf, index, left + offset)
    right = np.where(leaf, index, right + offset)
    feature = np.where(leaf, 0, feature)
    at_row = np.arange(len(X))[:, None]
    node = np.tile(roots, (len(X), 1))
    while True:
        step = np.where(
            X[at_row, feature[node]] <= threshold[node], left[node], right[node]
        )
        if np.array_equal(step, node):
            return value[node]
        node = step


def _fit_forest(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> dict:
    rng = np.random.default_rng(spec.seed)
    n = len(y)
    samples = np.array(
        [
            rng.integers(0, n, size=n) if spec.bootstrap else np.arange(n)
            for _ in range(spec.n_trees)
        ]
    )
    trees = []
    for batch in range(0, spec.n_trees, _TREES_PER_BATCH):
        trees += _grow_trees(
            X, y, samples[batch : batch + _TREES_PER_BATCH], spec.max_depth, spec.min_leaf
        )
    return {"trees": trees}


def fit(spec: ModelSpec, train: Dataset) -> TrainedModel:
    """Fit one regressor on the training rows.

    Linear and ridge solve least squares with an intercept (ridge adds an
    L2 penalty on the slopes only); polynomial expands to all monomials
    of total degree <= poly_degree first. The forest bootstraps seeded
    resamples and grows greedy variance-reduction trees. Rank-deficient
    linear solves raise SingularSystemError rather than regularizing
    silently.
    """
    if len(train) == 0:
        raise ValueError("cannot fit on an empty training set")
    X, y = train.features, train.targets
    if spec.kind == ModelKind.LINEAR:
        params = _fit_linear(X, y)
    elif spec.kind == ModelKind.RIDGE:
        params = _fit_ridge(X, y, spec.ridge_lambda)
    elif spec.kind == ModelKind.POLYNOMIAL:
        params = _fit_polynomial(X, y, spec.poly_degree)
    else:
        params = _fit_forest(X, y, spec)
    return TrainedModel(
        spec=spec,
        feature_mode=train.feature_mode,
        feature_names=train.feature_names,
        params=params,
        median_tx_power=train.median_tx_power,
        metadata={"n_train": len(train)},
    )


# ---------------------------------------------------------------------------
# evaluation

def mean_absolute_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    return float(np.mean(np.abs(y_true - y_pred)))


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float | None:
    """1 - SS_res/SS_tot against the mean of y_true; None when SS_tot is 0."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
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


# ---------------------------------------------------------------------------
# model persistence

_MODEL_KEYS = (
    "format", "version", "spec", "feature_mode", "feature_names",
    "median_tx_power", "params", "metadata",
)
_PARAM_KEYS = {
    ModelKind.LINEAR: ("beta",),
    ModelKind.RIDGE: ("beta",),
    ModelKind.POLYNOMIAL: ("beta", "powers"),
    ModelKind.RANDOM_FOREST: ("trees",),
}


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write a self-describing JSON model file; load_model inverts it."""
    spec = {f.name: getattr(model.spec, f.name) for f in fields(ModelSpec)}
    spec["kind"] = model.spec.kind.value
    payload = {
        "format": MODEL_FILE_FORMAT,
        "version": MODEL_FILE_VERSION,
        "spec": spec,
        "feature_mode": model.feature_mode.value,
        "feature_names": list(model.feature_names),
        "median_tx_power": model.median_tx_power,
        "params": model.params,
        "metadata": model.metadata,
    }
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=lambda a: a.tolist()
    )
    Path(path).write_text(text + "\n")


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


def _json_array(values, integer: bool, where: str) -> np.ndarray:
    """A JSON list as a 1-D array of integers, or of finite floats."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in ("i" if integer else "if")):
        raise ValueError(f"{where} is not a list of {'integers' if integer else 'numbers'}")
    if integer:
        return arr.astype(np.intp)
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} holds a non-finite value")
    return arr


def _tree_from_json(tree, n_features: int, where: str) -> dict[str, np.ndarray]:
    """One tree's arrays, checked so that every row's descent ends at a leaf."""
    _require_keys(tree, TREE_ARRAYS, where)
    arrays = {
        key: _json_array(tree[key], key in ("feature", "left", "right"), f"{where} {key}")
        for key in TREE_ARRAYS
    }
    size = len(arrays["value"])
    if size == 0 or any(len(a) != size for a in arrays.values()):
        raise ValueError(f"{where}: arrays are empty or differ in length")
    feature = arrays["feature"]
    split = feature != -1
    if not ((feature[split] >= 0) & (feature[split] < n_features)).all():
        raise ValueError(f"{where}: feature index outside [0, {n_features})")
    index = np.arange(size)[split]
    for side in ("left", "right"):
        child = arrays[side]
        if (child[~split] != -1).any() or not (
            (child[split] > index) & (child[split] < size)
        ).all():
            raise ValueError(
                f"{where}: {side} child index out of range or not after its node"
            )
    return arrays


def _params_from_json(params, kind: ModelKind, n_trees: int, n_features: int) -> dict:
    _require_keys(params, _PARAM_KEYS[kind], "params")
    if kind == ModelKind.RANDOM_FOREST:
        trees = params["trees"]
        if not isinstance(trees, list) or len(trees) != n_trees:
            raise ValueError(f"params: trees is not a list of {n_trees} tree(s)")
        return {
            "trees": [
                _tree_from_json(tree, n_features, f"tree {i}")
                for i, tree in enumerate(trees)
            ]
        }
    beta = _json_array(params["beta"], False, "beta")
    if kind != ModelKind.POLYNOMIAL:
        if len(beta) != n_features + 1:
            raise ValueError(f"beta has {len(beta)} coefficient(s), want {n_features + 1}")
        return {"beta": beta}
    powers = np.asarray(params["powers"])
    if (
        powers.shape != (len(beta), n_features)
        or powers.dtype.kind != "i"
        or (powers < 0).any()
    ):
        raise ValueError(
            f"powers is not a list of {len(beta)} non-negative exponent "
            f"list(s) of length {n_features}"
        )
    return {"beta": beta, "powers": [tuple(p) for p in powers.tolist()]}


def _model_from_json(payload: dict) -> TrainedModel:
    _require_keys(payload, _MODEL_KEYS, "model file")
    spec_d = payload["spec"]
    _require_keys(spec_d, [f.name for f in fields(ModelSpec)], "spec")
    spec = ModelSpec(**{**spec_d, "kind": ModelKind(spec_d["kind"])})
    names = payload["feature_names"]
    if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
        raise ValueError("feature_names is not a non-empty list of strings")
    median = payload["median_tx_power"]
    if median is not None and (type(median) is not int):
        raise ValueError("median_tx_power is not an integer or null")
    if not isinstance(payload["metadata"], dict):
        raise ValueError("metadata is not a JSON object")
    return TrainedModel(
        spec=spec,
        feature_mode=FeatureMode(payload["feature_mode"]),
        feature_names=tuple(names),
        params=_params_from_json(payload["params"], spec.kind, spec.n_trees, len(names)),
        median_tx_power=median,
        metadata=payload["metadata"],
    )


def load_model(path: str | Path) -> TrainedModel:
    """Read a model file written by save_model.

    Any other file raises ValueError naming the first problem found: another
    format or version, a missing or extra key, a malformed value, or tree
    arrays whose descent could leave the tree or never end.
    """
    payload = json.loads(Path(path).read_text())
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

# The headline comparison: three model families x two feature modes.
# Ridge stays available through fit() but is not part of this preset.
DEFAULT_COMPARISON_SPECS: tuple[ModelSpec, ...] = (
    ModelSpec(ModelKind.RANDOM_FOREST),
    ModelSpec(ModelKind.POLYNOMIAL, poly_degree=2),
    ModelSpec(ModelKind.LINEAR),
)


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
    def key(row: CompareRow) -> float:
        return -row.r_squared if row.r_squared is not None else math.inf

    ordered = sorted(rows, key=key)
    for row in ordered:
        row.best = False
    if ordered and ordered[0].r_squared is not None:
        ordered[0].best = True
    return ordered


def compare(
    specs: Sequence[ModelSpec],
    log: MeasurementLog,
    modes: Sequence[FeatureMode],
    train_fraction: float = 0.8,
    split_seed: int = 0,
) -> list[CompareRow]:
    """Assemble/split/fit/evaluate every (spec, mode) pair.

    A failing combination becomes an error row instead of aborting the
    whole comparison. Rows come back ranked with the winner flagged.
    """
    rows: list[CompareRow] = []
    for mode in modes:
        try:
            dataset = assemble(log, mode)
            train, test = split(dataset, train_fraction, split_seed)
        except (ValueError, SingularSystemError) as err:
            rows.extend(
                CompareRow(spec.kind, mode, error=str(err)) for spec in specs
            )
            continue
        for spec in specs:
            try:
                ev = evaluate(fit(spec, train), test)
                rows.append(CompareRow(spec.kind, mode, ev.r_squared, ev.mae))
            except (ValueError, SingularSystemError) as err:
                rows.append(CompareRow(spec.kind, mode, error=str(err)))
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
