"""Regression calibration: measurements in, moisture predictor out.

Assembles feature matrices from sweep logs, fits linear, ridge, polynomial
or random-forest regressors, scores them with R^2 / MAE on a held-out
split and renders comparison tables. The forest is grown here, by an exact
split search over runs of equal feature values in a fixed summation order
(see ``_grow_trees``), so every tree is bit-reproducible under a seed,
in batches that forked processes share (see ``_fit_forest``).
A fitted model persists as one JSON file; a forest's three arrays go into
it as base64 strings of little-endian bytes (see ``save_model``).
"""

from __future__ import annotations

import base64
import json
import math
import os
import pickle
import signal
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from itertools import combinations_with_replacement, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .sweepproto import TX_POWER_MAX_DBM, TX_POWER_MIN_DBM, MeasurementLog, log_median_power

MODEL_FILE_FORMAT = "smol-model"
MODEL_FILE_VERSION = 6

# The share of a dataset's rows that a model is fit on; the rest score it.
TRAIN_FRACTION = 0.8

# Trees x training rows per batch (at least one tree). A batch's trees share
# each level's NumPy calls; past ten stock all-TX trees it is no faster, only
# bigger. Up to 21,845 rows, a two-feature level regroups by uint16 radix sort.
_BATCH_ROWS = 10_400

# (Row, tree) pairs per descent block (at least one row). A block's node and
# row temporaries stay cache-sized; from 6,400 to 51,200 pairs time the same.
_DESCENT_PAIRS = 25_600


def _finite_number(value) -> bool:
    """An int or float, not a bool, that is finite; an int beyond float range is not."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        return False


class SingularSystemError(ArithmeticError):
    """A linear fit hit a rank-deficient design matrix."""


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
        if not _finite_number(lam) or lam < 0.0:
            raise ValueError(f"ridge_lambda must be a finite number >= 0, got {lam!r}")
        if type(self.bootstrap) is not bool:
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")


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
    # A loaded forest's _descent_tables, kept from load_model's checks; not a
    # field, so never saved. A fitted forest builds them on each prediction:
    # cached, they raised `smol train`'s peak RSS (in save_model) by 0.8 MiB.
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
        value overflows. A forest descends each distinct row once (rows that
        compare equal, -0.0 and 0.0 too, are one); the mean over a row's
        trees does not depend on the other rows, so the result is the same
        bits as one row at a time.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"model expects (n, {self.n_features}) features, got {X.shape}"
            )
        bad = np.count_nonzero(~np.isfinite(X))
        if bad:
            raise ValueError(f"{bad} of {X.size} feature values are not finite")
        kind, params = self.spec.kind, self.params
        with np.errstate(over="ignore", invalid="ignore"):
            if kind == ModelKind.RANDOM_FOREST:
                distinct, row_of = _distinct_rows(X)
                out = _forest_outputs(params, distinct, self._descent).mean(axis=1)[row_of]
            elif kind == ModelKind.POLYNOMIAL:
                powers = polynomial_powers(self.n_features, self.spec.poly_degree)
                out = polynomial_expand(X, powers) @ params["beta"]
            else:
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
    bad = np.count_nonzero(~np.isfinite(design))
    if bad:
        raise FloatingPointError(f"{bad} of {design.size} design matrix values are not finite")
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
    # More monomials than rows cannot have full rank: refuse before listing them.
    columns = math.comb(degree + X.shape[1], X.shape[1])
    if columns > len(y):
        raise SingularSystemError(
            f"degree {degree} needs {columns} design columns, more than the {len(y)} rows"
        )
    powers = polynomial_powers(X.shape[1], degree)
    # An overflowing monomial is refused below as non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        design = polynomial_expand(X, powers)
    return {"beta": _solve_least_squares(design, y)}


def _running_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Running sums along every segment ``values[:, start:start + size]``,
    each from its segment's start, adding one term at a time.

    The segments tile the columns in order. Each is padded to a power of 4
    of its size, one block per padded width, so the work stays within 4
    times the terms plus 4 per segment. A running sum never reads past its
    own term, so the padding may hold whatever follows the segment.
    """
    pads, base, offset = [], np.empty(len(sizes), dtype=np.intp), 0
    low, width = 0, 4
    while low < sizes.max():
        seg = np.flatnonzero((sizes > low) & (sizes <= width))
        pads.append(np.minimum(starts[seg, None] + np.arange(width), values.shape[1] - 1))
        base[seg] = offset + width * np.arange(len(seg)) - starts[seg]
        offset += pads[-1].size
        low, width = width, 4 * width
    padded = [np.cumsum(values.take(pad, axis=1), axis=2).reshape(len(values), -1) for pad in pads]
    at = np.repeat(base, sizes) + np.arange(values.shape[1])  # each term's padded place
    return np.concatenate(padded, axis=1).take(at, axis=1)


def _best_splits(
    x: np.ndarray, codes: np.ndarray, y: np.ndarray, order: np.ndarray, n: np.ndarray,
    sums: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The best cut of every searched node of a level, by the rules of ``_grow_trees``.

    Node i holds ``n[i]`` rows, with target sum and sum of squares
    ``sums[:, i]``; ``order[j]`` lists the rows node by node, each node's
    by ``codes[j]``, the rank of ``x[:, j]``, ties in sample order. Returns
    (feature, threshold) per node, feature -1 where the node is not cut.
    """
    (n_features, m), nodes = order.shape, len(n)
    # One block of rows per (feature, node), feature-major.
    blocks = (m * np.arange(n_features)[:, None] + np.cumsum(n) - n).ravel()
    ranks = codes.ravel().take(order + len(y) * np.arange(n_features)[:, None]).ravel()
    new_run = np.empty(len(ranks), dtype=bool)
    np.not_equal(ranks[1:], ranks[:-1], out=new_run[1:])
    new_run[blocks] = True
    run = np.cumsum(new_run) - 1
    run_at = np.flatnonzero(new_run)
    first = run.take(blocks)  # each block's first run
    n_runs = np.diff(first, append=len(run_at))
    block = np.repeat(np.arange(len(blocks)), n_runs)
    ys = y.take(order.ravel())  # a run's rows are in sample order, and bincount adds in it
    run_sums = np.stack([np.bincount(run, ys), np.bincount(run, ys * ys)])
    left = _running_sums(run_sums, first, n_runs)
    left_n = np.append(run_at[1:], len(ranks)) - blocks.take(block)
    right_n = np.tile(n, n_features).take(block) - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # right_n is 0 at each node's end
        right = np.tile(sums, n_features).take(block, axis=1) - left
        node_sse = np.tile(sums[1] - sums[0] * sums[0] / n, n_features)
        gains = (node_sse.take(block) - (left[1] - left[0] * left[0] / left_n)) - (
            right[1] - right[0] * right[0] / right_n
        )
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    gains[~valid] = -np.inf
    # each block's first max: the lowest threshold wins ties; NaN gains leave no max
    top = np.maximum.reduceat(gains, first)
    at = np.arange(len(gains))
    k = np.minimum.reduceat(np.where(valid & (gains == top.take(block)), at, len(at)), first)
    top[k == len(at)] = -np.inf
    feature = np.argmax(top.reshape(n_features, nodes), axis=0)  # lowest feature wins ties
    best = feature * nodes + np.arange(nodes)
    split = top.take(best) > 0
    k = k.take(best[split])
    rows = order.ravel().take(run_at.take(np.stack([k, k + 1])))  # first rows of the cut's runs
    lo, hi = x.ravel().take(n_features * rows + feature[split])
    mid = (lo + hi) / 2.0
    threshold = np.zeros(nodes)
    threshold[split] = np.where(mid < hi, mid, lo)  # adjacent floats: the lower value
    return np.where(split, feature, -1), threshold


def _grow_trees(
    X: np.ndarray, y: np.ndarray, samples: np.ndarray, max_depth: int | None, min_leaf: int
) -> dict[str, np.ndarray]:
    """Grow one tree per row of ``samples`` (row indices into ``X``/``y``).

    The trees grow together, breadth-first: every node of one depth, in
    every tree, is searched at once. A node becomes a leaf at
    ``max_depth``, below ``2 * min_leaf`` rows, when its targets are all
    equal, or when no cut reduces the squared error. The batch comes back
    in the forest layout (see ``_forest_outputs``), which implies every
    node's children, so none are stored.

    Each feature is ranked once (equal values share a rank: ``==``, so -0.0
    and 0.0 too) and each tree's rows sorted by rank; each level only
    regroups the rows by node, stably, so a node's rows stay in value order,
    ties in sample order. A cut falls between two runs of equal values, at
    their midpoint, or at the lower value where the midpoint rounds to the
    upper one. Ties go to the lowest feature index, then the lowest
    threshold; a node whose gains on a feature hold NaN is not cut on it.

    Summation rule: the target sum S and sum of squares S2 of a node, and
    of each run within it, add one row at a time in sample order
    (``np.bincount``). A cut's left sums add the node's runs one at a time
    in ascending value (``np.cumsum``); its right sums are the node's minus
    the left's. A squared error is ``S2 - S * S / n``, and a cut's gain is
    the node's error minus the left's, minus the right's.
    """
    n_trees, n = samples.shape
    x, y = X[samples.ravel()], y[samples.ravel()]  # x[i, j]: row i, feature j
    n_rows, n_features = x.shape
    # Ranks in the smallest unsigned type: up to 16 bits, a stable sort is a radix sort.
    codes = np.stack([np.unique(column, return_inverse=True)[1] for column in X.T])
    codes = codes.astype(np.min_scalar_type(codes.max())).take(samples.ravel(), axis=1)
    by_value = np.argsort(codes.reshape(n_features, n_trees, n), axis=2, kind="stable")
    order = (by_value + n * np.arange(n_trees)[:, None]).reshape(n_features, n_rows)
    # Nodes of all trees are numbered level by level, each level ordered by
    # tree and then by parent, so each tree's nodes keep their order. Every
    # leaf holds min_leaf rows or more, which bounds a tree's node count.
    n_nodes = n_trees * (2 * max(1, n // min_leaf) - 1)
    feature = np.full(n_nodes, -1)
    value = np.zeros(n_nodes)
    tree = np.zeros(n_nodes, dtype=np.intp)
    tree[:n_trees] = np.arange(n_trees)
    rows = np.arange(n_rows)  # rows of the level's nodes, in sample order
    node = rows // n  # each row's node, numbered within the level
    first, width, depth = 0, n_trees, 0  # the level holds nodes first .. first + width - 1
    while width:
        counts = np.bincount(node, minlength=width)
        ys = y.take(rows)
        sums = np.stack([np.bincount(node, ys, width), np.bincount(node, ys * ys, width)])
        some = np.empty(width)
        some[node] = ys  # one target of each node
        open_ = (counts >= 2 * min_leaf) & (np.bincount(node, ys != some.take(node), width) > 0)
        open_ &= max_depth is None or depth < max_depth
        level = slice(first, first + width)
        level_feature, level_value = feature[level], value[level]  # views
        if open_.any():
            # Regroup each feature's rows by node: a stable sort of keys that fit
            # 16 bits is a radix sort. Rows of nodes not searched sort last, cut off.
            key_type = np.min_scalar_type((2 * n_features - 1) * width)
            at_node = np.full(n_rows, n_features * width, key_type)
            at_node[rows] = np.where(open_, np.arange(width), n_features * width).take(node)
            key = at_node.take(order)
            key += (width * np.arange(n_features, dtype=key_type))[:, None]
            kept = np.argsort(key.ravel(), kind="stable")[: n_features * counts[open_].sum()]
            order = order.ravel().take(kept).reshape(n_features, -1)
            level_feature[open_], level_value[open_] = _best_splits(
                x, codes, y, order, counts[open_], sums[:, open_], min_leaf
            )

        splits = level_feature >= 0
        level_value[~splits] = (sums[0] / counts)[~splits]  # a leaf's value: its mean
        rank = np.cumsum(splits) - 1
        children = first + width + 2 * rank[splits]
        tree[children] = tree[children + 1] = tree[level][splits]

        inside = splits.take(node)
        rows, node = rows[inside], node[inside]
        cell = n_features * rows + level_feature.take(node)
        goes_right = x.ravel().take(cell) > level_value.take(node)
        node = 2 * rank.take(node) + goes_right
        first, width, depth = first + width, 2 * len(children), depth + 1

    # Put the nodes tree by tree, keeping their order; siblings stay adjacent.
    tree = tree[:first]
    by_tree = np.argsort(tree, kind="stable")
    return {
        "feature": feature[by_tree],
        "tree_sizes": np.bincount(tree, minlength=n_trees),
        "value": value[by_tree],
    }


def _left_children(feature: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each node's left child, counted across the forest: the j-th split
    node of a tree, in node order, has its children at 2j + 1 and 2j + 2
    within the tree. At a leaf it is where a split there would put its
    left child, which ``_descent_tables`` reads. Built in place, so at most
    about three node-count arrays are live at once."""
    start = np.cumsum(sizes) - sizes
    split = feature >= 0
    left = np.cumsum(split)
    left -= split  # split nodes before each node
    left -= np.repeat(left[start], sizes)  # ... within its tree
    left *= 2
    left += np.repeat(start + 1, sizes)
    return left


def _descent_tables(forest: dict[str, np.ndarray]) -> tuple[np.ndarray, int]:
    """What a descent needs beyond the forest's arrays: each node's left
    child, a leaf its own, and the depth of the deepest tree.

    The depth comes from a walk over each tree's levels: level 0 is the
    root, and a level's split nodes imply the next level, which ends just
    before the left child that a split after the level's last node would
    have. Raises ValueError unless every tree's levels end at its last node
    and its last level holds no split node; then each split node's children
    lie in the next level of its tree, so every descent stays in its tree
    and ends at a leaf within the depth.
    """
    feature, sizes = forest["feature"], forest["tree_sizes"]
    split = feature >= 0
    left = _left_children(feature, sizes)
    ends = np.cumsum(sizes) - 1  # each tree's last node
    last = ends - sizes + 1  # the last node of each tree's level, from the root
    depth = 0
    while True:
        below = left.take(last) + 2 * split.take(last) - 1  # the next level's last node
        done = below == last
        if ((below < last) | (below > ends) | (done & (last != ends))).any():
            raise ValueError("a tree's nodes are not the levels its split nodes imply")
        if done.all():
            break
        last, depth = below, depth + 1
    leaf = ~split
    left[leaf] = np.flatnonzero(leaf)
    return left, depth


def _forest_outputs(
    forest: dict[str, np.ndarray], X: np.ndarray, descent: tuple[np.ndarray, int] | None = None
) -> np.ndarray:
    """Every tree's prediction for every row, as a C-ordered (rows, trees) array.

    A forest is three flat arrays: ``tree_sizes`` counts each tree's nodes,
    which follow tree after tree, each tree's level by level from its root,
    children in the order of their parents and siblings adjacent. So the
    layout implies the children (``_left_children``). A split node sends
    ``x[feature] <= value`` to its left child and the rest to the right
    one; a leaf has ``feature`` -1 and predicts ``value``. ``descent`` is
    the forest's ``_descent_tables``, built here when not given.

    The rows descend in blocks of ``_DESCENT_PAIRS // trees`` rows (at
    least one), so a step's temporaries stay cache-sized however many rows
    there are. A block steps its (row, tree) pairs one level at a time, as
    many steps as the forest is deep, then writes its leaves' values into
    the output. A step adds ``x[feature] > value`` to the node's left
    child. Each row is laid out after a -inf cell, which a leaf's feature
    -1 reads, and a leaf is its own left child, so a leaf stays put. A
    pair's path depends on its row and tree alone, so the block size never
    changes a bit. ``x > t`` is "not ``x <= t``" only where ``x`` is not
    NaN, so the rows must hold no NaN.
    """
    feature, value, sizes = forest["feature"], forest["value"], forest["tree_sizes"]
    left, depth = _descent_tables(forest) if descent is None else descent
    roots = np.cumsum(sizes) - sizes
    padded = np.full((len(X), X.shape[1] + 1), -np.inf)
    padded[:, 1:] = X
    x = padded.ravel()
    row_start = padded.shape[1] * np.arange(len(X))[:, None] + 1

    def leaves(starts: np.ndarray) -> np.ndarray:
        """The leaf of each (row, tree) pair; its temporaries die with it."""
        node = np.tile(roots, (len(starts), 1))
        for _ in range(depth):
            cell = feature.take(node)
            cell += starts
            moved = x.take(cell) > value.take(node)
            node = left.take(node)
            node += moved
        return node

    out = np.empty((len(X), len(sizes)))
    per_block = max(1, _DESCENT_PAIRS // len(sizes))
    for first in range(0, len(X), per_block):
        block = slice(first, first + per_block)
        value.take(leaves(row_start[block]), out=out[block])
    return out


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's distinct rows, by ``==`` (so -0.0 and 0.0 are one), and each
    row's index among them: one lexicographic sort, then a new run wherever
    a row differs from the one before it."""
    order = np.lexsort(X.T)
    ordered = X[order]
    starts = np.ones(len(X), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    row_of = np.empty(len(X), dtype=np.intp)
    row_of[order] = np.cumsum(starts) - 1
    return ordered[starts], row_of


def _batch_plan(n: int, spec: ModelSpec) -> tuple[int, Iterator[np.ndarray]]:
    """How many batches a forest on ``n`` rows grows in, and each batch's
    samples (trees x ``n`` row indices), in batch order. A batch holds as
    many trees as fit ``_BATCH_ROWS`` rows, at least one; the last holds the
    rest. Each tree's rows are drawn as its batch is reached, one draw per
    tree in tree order from one generator seeded by ``spec.seed``, so a
    batch's samples do not depend on which process draws them, and none
    holds more than one batch's."""
    rng = np.random.default_rng(spec.seed)
    rows = (rng.integers(0, n, n) if spec.bootstrap else np.arange(n) for _ in range(spec.n_trees))
    per_batch = max(1, _BATCH_ROWS // n)
    starts = range(0, spec.n_trees, per_batch)
    return len(starts), (np.array(list(islice(rows, per_batch))) for _ in starts)


def _process_count() -> int:
    """How many processes a forest fit grows its batches in: one per CPU this
    process may run on, or one where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_grower(grow: Callable[[], list]) -> tuple[int, BinaryIO] | None:
    """Fork a child that pickles ``grow()`` into a pipe and exits: 0 once the
    whole payload is written, 1 on any exception. Returns the child's pid and
    the pipe's read end, or None when no process can be made."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process left (EAGAIN, ENOMEM)
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:  # the child never returns: os._exit runs no atexit hook and flushes no stdio
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(grow(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _fit_forest(X: np.ndarray, y: np.ndarray, spec: ModelSpec) -> dict:
    """Grow the forest's batches (see ``_batch_plan``) in contiguous slices,
    one per process (``_process_count``) and at most one per batch.

    The caller grows the first slice; a forked child grows each other one
    and pickles its batches into a pipe. The caller reads every pipe, reaps
    every child and keeps the batches in batch order. A batch grows by the
    same code from the same samples in any process, so the forest is the
    same bit for bit at any process count; with one slice no child is made.
    A slice whose child could not be forked, exits non-zero or sends a
    payload that does not unpickle is grown again by the caller, so a fit
    raises what a serial fit raises (a MemoryError, a RuntimeWarning turned
    error). If the caller raises, KeyboardInterrupt too, it kills and reaps
    every child first, so no child outlives the fit or hangs it on a full
    pipe.

    A child runs no BLAS, takes no lock that another thread may hold at the
    fork, and leaves by ``os._exit``. So the DeprecationWarning with which
    Python 3.12 and later meet a fork from a multi-threaded process (one
    with an OpenBLAS pool, say) does not apply to it.
    """
    n = len(y)
    n_batches = _batch_plan(n, spec)[0]
    n_slices = min(n_batches, _process_count())
    ends = [n_batches * k // n_slices for k in range(n_slices + 1)]

    def grow(k: int) -> list[dict[str, np.ndarray]]:
        samples = islice(_batch_plan(n, spec)[1], ends[k], ends[k + 1])
        return [_grow_trees(X, y, s, spec.max_depth, spec.min_leaf) for s in samples]

    pids: list[int] = []  # the children of slices 1, 2, ..., in order
    pipes: list[BinaryIO] = []
    try:
        for k in range(1, n_slices):
            child = _fork_grower(lambda k=k: grow(k))
            if child is None:  # no process left: the caller grows the rest
                break
            pids.append(child[0])
            pipes.append(child[1])
        slices = [grow(0)]
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for k in range(1, n_slices):
        grown = None
        if k <= len(pids) and statuses[k - 1] == 0:
            with suppress(EOFError, pickle.UnpicklingError):
                grown = pickle.loads(payloads[k - 1])
        slices.append(grow(k) if grown is None else grown)
    batches = [batch for part in slices for batch in part]
    return {key: np.concatenate([b[key] for b in batches]) for key in batches[0]}


def fit(spec: ModelSpec, train: Dataset) -> TrainedModel:
    """Fit one regressor on the training rows.

    Linear and ridge solve least squares with an intercept (ridge adds an
    L2 penalty on the slopes only); polynomial expands to all monomials
    of total degree <= poly_degree first. The forest bootstraps seeded
    resamples and grows greedy variance-reduction trees. Rank-deficient
    linear solves raise SingularSystemError rather than regularizing
    silently; a design holding a non-finite value, such as an overflowing
    monomial, raises FloatingPointError before it reaches LAPACK.
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

# A forest's arrays in the model file: base64 of little-endian bytes.
_FOREST_DTYPES = dict(feature=np.dtype("<i4"), tree_sizes=np.dtype("<i4"), value=np.dtype("<f8"))


def save_model(model: TrainedModel, path: str | Path) -> None:
    """Write a self-describing JSON model file, one key per TrainedModel field
    (not ``asdict``, which would copy the arrays); load_model inverts it.
    A forest's arrays go in as base64 strings of their ``_FOREST_DTYPES``
    bytes, the other models' few coefficients as JSON numbers."""
    payload = {"format": MODEL_FILE_FORMAT, "version": MODEL_FILE_VERSION}
    payload.update((f.name, getattr(model, f.name)) for f in fields(model))
    payload["spec"] = asdict(model.spec)
    if model.spec.kind == ModelKind.RANDOM_FOREST:
        payload["params"] = {
            key: base64.b64encode(model.params[key].astype(dtype).tobytes()).decode("ascii")
            for key, dtype in _FOREST_DTYPES.items()
        }
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
    """The JSON document at ``path``; malformed or too deeply nested JSON raises ValueError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: not readable as JSON ({err})") from None


def _forest_from_json(
    params: dict, spec: ModelSpec, n_features: int
) -> tuple[dict[str, np.ndarray], tuple[np.ndarray, int]]:
    """The forest's arrays, checked so that every row's descent through every
    tree stays in that tree and ends at one of its leaves, within the spec's
    ``max_depth`` steps; and the descent tables that the checks built."""
    forest = {}
    for key, dtype in _FOREST_DTYPES.items():
        try:
            raw = base64.b64decode(params[key], validate=True)  # a non-string: TypeError
        except (TypeError, ValueError) as err:
            raise ValueError(f"{key} is not a base64 string ({err})") from None
        if len(raw) % dtype.itemsize:
            raise ValueError(f"{key}: {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
        forest[key] = np.frombuffer(raw, dtype).astype(np.intp if dtype.kind == "i" else float)
    feature, sizes, value = forest["feature"], forest["tree_sizes"], forest["value"]
    n = len(value)
    if len(feature) != n:
        raise ValueError("feature and value differ in length")
    # 32-bit sizes: their int64 sum cannot wrap around.
    if len(sizes) != spec.n_trees or (sizes < 1).any() or sizes.sum() != n:
        raise ValueError(f"tree_sizes is not {spec.n_trees} size(s) >= 1 summing to {n} nodes")
    if not np.isfinite(value).all():
        raise ValueError("value holds a non-finite value")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"feature index outside [0, {n_features})")
    descent = _descent_tables(forest)
    if spec.max_depth is not None and descent[1] > spec.max_depth:
        raise ValueError(f"a tree is {descent[1]} levels deep, past max_depth {spec.max_depth}")
    return forest, descent


def _params_from_json(params, spec: ModelSpec, n_features: int) -> tuple[dict, tuple | None]:
    """The model's params, and a forest's descent tables (None for the others)."""
    if spec.kind == ModelKind.RANDOM_FOREST:
        _require_keys(params, list(_FOREST_DTYPES), "params")
        return _forest_from_json(params, spec, n_features)
    _require_keys(params, ["beta"], "params")
    beta = params["beta"]
    if type(beta) is not list or not all(map(_finite_number, beta)):
        raise ValueError("beta is not a list of finite numbers")
    # One coefficient per monomial of total degree <= d (linear: d = 1),
    # counted without listing them, so a huge degree costs nothing.
    degree = spec.poly_degree if spec.kind == ModelKind.POLYNOMIAL else 1
    if len(beta) != (want := math.comb(degree + n_features, n_features)):
        raise ValueError(f"beta has {len(beta)} coefficient(s), want {want}")
    return {"beta": np.array(beta, dtype=float)}, None


def _model_from_json(payload: dict) -> TrainedModel:
    keys = ["format", "version", *(f.name for f in fields(TrainedModel))]
    _require_keys(payload, keys, "model file")
    spec_d = payload["spec"]
    _require_keys(spec_d, [f.name for f in fields(ModelSpec)], "spec")
    spec = ModelSpec(**{**spec_d, "kind": ModelKind(spec_d["kind"])})
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

# The headline comparison: three model families, each at its ModelSpec
# defaults, x two feature modes. Ridge stays available through fit() but
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
    """``train_and_score`` every COMPARISON_KINDS kind, at its ModelSpec
    defaults, in every feature mode, on one split seed.

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
            except (ValueError, SingularSystemError, FloatingPointError) as err:
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
