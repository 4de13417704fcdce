"""The random forest engine: ``grow``, ``predict``, ``encode`` and ``decode``.

Trees grow level by level, their rows never moving, by an exact split search
over runs of equal feature values in a fixed summation order (``_grow_trees``),
bit-reproducible under a seed, in batches that forked processes share (``grow``).
Rows descend in blocks that threads take from one queue (``_forest_outputs``).
"""

from __future__ import annotations

import base64
import os
import pickle
import signal
import threading
from contextlib import suppress
from itertools import islice
from typing import BinaryIO, Callable, Iterator

import numpy as np

# Trees x training rows per batch (at least one tree). A batch's trees share each
# level's NumPy calls: a bigger batch grows faster serially, but shares out worse.
# Chosen on report-stock (17 trees of 1,037 rows a batch); the grouped log is unmeasured.
_BATCH_ROWS = 18_000

# (Row, tree) pairs per descent block (at least one row). A block's node and
# row temporaries stay cache-sized; from 6,400 to 51,200 pairs time the same.
_DESCENT_PAIRS = 25_600

# A forest's arrays in a model file, as base64 of these little-endian bytes:
# a feature index takes one byte. The node values are a table of the distinct
# ones and, per node, an index into it, in the type ``_index_dtype`` gives.
DTYPES = dict(feature=np.dtype("<i1"), tree_sizes=np.dtype("<i4"), value_table=np.dtype("<f8"))
KEYS = (*DTYPES, "value_index")


def _running_sums(values: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Running sums along every segment ``values[:, start:start + size]``, which
    tile the columns, each from its start, one term at a time; a segment's last
    term, which ends no cut, gets 0. Each segment but its last term is padded
    to a power of 4 of its length, one block per width, so the work stays
    within 4 times the terms plus 4 per segment. A running sum never reads
    past its own term, so the padding may hold whatever follows the segment."""
    padded, base, offset = [np.zeros((len(values), 1))], np.zeros(len(sizes), dtype=np.intp), 1
    low, width, terms = 0, 4, sizes - 1
    while low < terms.max():
        seg = np.flatnonzero((terms > low) & (terms <= width))
        block = values.take(starts[seg, None] + np.arange(width), axis=1, mode="clip")
        np.cumsum(block, axis=2, out=block)
        padded.append(block.reshape(len(values), -1))
        base[seg] = offset + width * np.arange(len(seg)) - starts[seg]
        offset += width * len(seg)
        low, width = width, 4 * width
    at = np.repeat(base, sizes) + np.arange(values.shape[1])  # each term's padded place; 0: none
    at[starts + terms] = 0
    return np.concatenate(padded, axis=1).take(at, axis=1)


def _best_splits(
    feature: np.ndarray, node: np.ndarray, value: np.ndarray, count: np.ndarray,
    run_sums: np.ndarray, n: np.ndarray, sums: np.ndarray, min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The best cut of every node of a level, by the rules of ``_grow_trees``:
    node i holds ``n[i]`` rows with target sums ``sums[:, i]``; run r, the equal
    ``value[r]`` of ``feature[r]`` in ``node[r]``, holds ``count[r]`` rows with
    sums ``run_sums[:, r]``, and the runs of each (feature, node) are one block,
    in ascending value, the blocks in any order. Returns (feature, threshold)
    per node, feature -1 where the node is not cut."""
    new = np.ones(len(node), dtype=bool)  # each block's first run
    new[1:] = (node[1:] != node[:-1]) | (feature[1:] != feature[:-1])
    block = np.cumsum(new) - 1
    starts, sizes = np.flatnonzero(new), np.bincount(block)
    left = _running_sums(run_sums, starts, sizes)
    left_n = np.cumsum(count)
    left_n -= (left_n.take(starts) - count.take(starts)).take(block)
    right_n = n.take(node) - left_n
    with np.errstate(divide="ignore", invalid="ignore"):  # right_n is 0 at each node's end
        right = sums.take(node, axis=1) - left
        node_sse = sums[1] - sums[0] * sums[0] / n
        gains = (node_sse.take(node) - (left[1] - left[0] * left[0] / left_n)) - (
            right[1] - right[0] * right[0] / right_n
        )
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    gains[~valid] = -np.inf
    # each block's first max: the lowest threshold wins ties; NaN gains leave no max
    top = np.maximum.reduceat(gains, starts)
    at = np.arange(len(gains))
    k = np.minimum.reduceat(np.where(valid & (gains == top.take(block)), at, len(at)), starts)
    top[k == len(at)] = -np.inf
    blocks = np.empty((len(starts) // len(n), len(n)), dtype=np.intp)  # by (feature, node)
    blocks[feature.take(starts), node.take(starts)] = np.arange(len(starts))
    best = blocks[np.argmax(top.take(blocks), axis=0), np.arange(len(n))]  # lowest feature first
    split = top.take(best) > 0
    k = k.take(best[split])
    lo, hi = value.take(k), value.take(k + 1)  # the values of the cut's two runs
    mid = (lo + hi) / 2.0
    threshold = np.zeros(len(n))
    threshold[split] = np.where(mid < hi, mid, lo)  # adjacent floats: the lower value
    return np.where(split, feature.take(starts.take(best)), -1), threshold


def _grow_trees(
    X: np.ndarray, y: np.ndarray, samples: np.ndarray, max_depth: int | None, min_leaf: int
) -> dict[str, np.ndarray]:
    """Grow one tree per row of ``samples`` (row indices into ``X``/``y``).

    The trees grow together, breadth-first: every node of one depth, in every
    tree, is searched at once. A node becomes a leaf at ``max_depth``, below
    ``2 * min_leaf`` rows, when its targets are all equal, or when no cut
    reduces the squared error. The batch comes back in the forest layout (see
    ``_forest_outputs``), which implies every node's children, so none are stored.

    The rows never move: each carries its node's label and, per feature, its
    run's (a run is that feature's equal values, by ``==``, so -0.0 and 0.0
    too, in a searched node); each level relabels both through small tables.
    A cut falls between two adjacent runs of a node, at the midpoint of their
    values, or at the lower value where the midpoint rounds to the upper one.
    Ties go to the lowest feature index, then the lowest threshold; a node
    whose gains on a feature hold NaN is not cut on it.

    Summation rule: the target sum S and sum of squares S2 of a node, and of
    each run within it, add one row at a time in sample order (``np.bincount``).
    A cut's left sums add the node's runs one at a time in ascending value
    (``np.cumsum``); its right sums are the node's minus the left's. A squared
    error is ``S2 - S * S / n``, and a cut's gain is the node's error minus the
    left's, minus the right's.
    """
    (n_trees, n), rows = samples.shape, samples.ravel()
    y = y[rows]
    y2 = y * y
    # Level -1: one node of all rows, whose children are the trees, and a run per
    # distinct value of each feature; ranks stay in the smallest unsigned type.
    ranked = [np.unique(column, return_inverse=True) for column in X.T]
    run_value = np.concatenate([values for values, _ in ranked])
    run_feature = np.repeat(np.arange(len(ranked)), [len(values) for values, _ in ranked])
    runs = np.array([  # each row's run of each feature
        np.add(codes.astype(np.min_scalar_type(len(values) - 1)).take(rows), start, dtype=np.intp)
        for (values, codes), start in zip(ranked, np.searchsorted(run_feature, range(len(ranked))))
    ])
    run_left = np.zeros(len(run_value), dtype=np.intp)  # the first child of each run's node
    # Nodes of all trees are numbered level by level, each level ordered by
    # tree and then by parent, so each tree's nodes keep their order.
    levels, trees = [], [np.arange(n_trees)]  # per level: (feature, value); each node's tree
    node = np.repeat(np.arange(n_trees), n)  # each row's node in the level; width: none
    width, depth = n_trees, 0
    while width:
        counts = np.bincount(node, minlength=width + 1)[:width]
        sums = np.array([np.bincount(node, w, width + 1)[:width] for w in (y, y2)])
        some = np.empty(width + 1)
        some[node] = y  # one target of each node
        open_ = (counts >= 2 * min_leaf) & (np.bincount(node, y != some.take(node))[:width] > 0)
        open_ &= max_depth is None or depth < max_depth
        level_feature, level_value = np.full(width, -1), np.zeros(width)
        levels.append((level_feature, level_value))
        if open_.any():
            # Old run r's rows in open child run_left[r] + w make run (w, r); R is none.
            R, ways = len(run_left), n_trees if depth == 0 else 2
            runs += (node if depth == 0 else node & 1) * (R + 1)  # each row's (way, old run)
            pc = np.bincount(runs.ravel(), minlength=ways * (R + 1))
            child = run_left + np.arange(ways)[:, None]
            occupied = np.append(open_, np.zeros(ways, bool)).take(child)
            occupied &= pc.reshape(ways, R + 1)[:, :R] > 0
            pair = np.flatnonzero(occupied)  # each new run's (way, old run)
            way = pair // R
            table = np.full(ways * (R + 1), len(pair), np.intp)
            table[pair + way] = np.arange(len(pair))
            table.take(runs, out=runs, mode="clip")  # in place: every label is in the table
            r, run_count = pair - way * R, pc.take(pair + way)
            run_node = np.cumsum(open_).take(child.take(pair)) - 1  # among the open nodes
            run_feature, run_value, R = run_feature.take(r), run_value.take(r), len(pair)
            del pc, child, occupied, pair, way, table, r  # before the search's peak
            # Adding the other features' 0.0 changes at most a zero's sign: only squares see it.
            run_sums = np.array([sum(np.bincount(f, w, R + 1) for f in runs)[:R] for w in (y, y2)])
            cut, cut_value = level_feature[open_], level_value[open_] = _best_splits(
                run_feature, run_node, run_value, run_count, run_sums, counts[open_],
                sums[:, open_], min_leaf,
            )

        splits = level_feature >= 0
        level_value[~splits] = (sums[0] / counts)[~splits]  # a leaf's value: its mean
        rank = np.cumsum(splits) - 1
        trees.append(np.repeat(trees[-1][splits], 2))  # siblings are adjacent
        width, depth = len(trees[-1]), depth + 1
        if not width:
            break
        # A row's child is that of its run of the feature its node is cut on.
        run_left = np.where(cut >= 0, 2 * rank[open_], width).take(run_node)
        right = run_value > cut_value.take(run_node)
        run_child = np.where(cut.take(run_node) == run_feature, run_left + right, width)
        run_child = np.append(run_child, width)
        node = run_child.take(runs[0])
        for labels in runs[1:]:  # one gather per feature: no features x rows temporary
            np.minimum(node, run_child.take(labels), out=node)

    # Put the nodes tree by tree, keeping their order; siblings stay adjacent.
    tree = np.concatenate(trees)
    by_tree, sizes = np.argsort(tree, kind="stable"), np.bincount(tree, minlength=n_trees)
    feature, value = map(np.concatenate, zip(*levels))
    return {"feature": feature[by_tree], "tree_sizes": sizes, "value": value[by_tree]}


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

    The rows descend in blocks of at most ``_DESCENT_PAIRS // trees`` rows
    (at least one), so a step's temporaries stay cache-sized however many
    rows there are. The blocks are as equal as the rows allow, and their
    count is a multiple of the workers, so the workers that get a CPU share
    the rows evenly. A block steps its (row, tree) pairs one level at a
    time, as many steps as the forest is deep, then writes its leaves'
    values into the output. A step adds ``x[feature] > value`` to the
    node's left child. Each row is laid out after a -inf cell, which a
    leaf's feature -1 reads, and a leaf is its own left child, so a leaf
    stays put. ``x > t`` is "not ``x <= t``" only where ``x`` is not NaN,
    so the rows must hold no NaN.

    The caller and a thread per further CPU (``_process_count``), as long
    as there are ``_DESCENT_PAIRS // trees`` rows per worker, take the
    blocks in turn from one queue;
    NumPy's ``take`` and comparisons let go of the GIL. A thread that
    cannot be started, or gets no CPU, leaves its blocks to the others. A
    pair's path depends on its row and tree alone, so neither the block
    size nor who descends a block changes a bit. A step only gathers,
    compares and adds integers, none of which warns, so no ``np.errstate``
    needs to reach a thread. After an error no worker takes another block,
    and the first error is raised here once every thread has joined: none
    outlives the call.
    """
    feature, value, sizes = forest["feature"], forest["value"], forest["tree_sizes"]
    left, depth = _descent_tables(forest) if descent is None else descent
    roots = np.cumsum(sizes) - sizes
    padded = np.full((len(X), X.shape[1] + 1), -np.inf)
    padded[:, 1:] = X
    x = padded.ravel()
    row_start = padded.shape[1] * np.arange(len(X))[:, None] + 1
    out = np.empty((len(X), len(sizes)))
    per_block = max(1, _DESCENT_PAIRS // len(sizes))
    workers = max(1, min(_process_count(), len(X) // per_block))
    n_blocks = workers * -(-len(X) // (workers * per_block))  # a multiple of the workers
    per_block = -(-len(X) // max(1, n_blocks)) or 1  # equal blocks, none above the budget
    blocks, lock = iter(range(0, len(X), per_block)), threading.Lock()
    errors: list[BaseException] = []

    def leaves(starts: np.ndarray) -> np.ndarray:
        """The leaf of each (row, tree) pair; its temporaries die with it."""
        node = np.tile(roots, (len(starts), 1))
        for _ in range(depth):
            cell = feature.take(node)
            cell += starts
            cell = x.take(cell)  # the values there: the indices die before the next gather
            moved = cell > value.take(node)
            node = left.take(node)
            node += moved
        return node

    def descend() -> None:
        try:
            while not errors:
                with lock:
                    first = next(blocks, None)
                if first is None:
                    return
                block = slice(first, first + per_block)
                value.take(leaves(row_start[block]), out=out[block])
        except BaseException as err:  # for the caller to raise
            errors.append(err)

    threads: list[threading.Thread] = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=descend)
            try:
                thread.start()
            except RuntimeError:  # no thread left: the others take its blocks
                break
            threads.append(thread)
        descend()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
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


def _batch_plan(n: int, n_trees: int, bootstrap: bool, seed: int) -> tuple[int, Iterator]:
    """How many batches a forest of ``n_trees`` trees on ``n`` rows grows in,
    and each batch's samples (trees x ``n`` row indices), in batch order. A
    batch holds as many trees as fit ``_BATCH_ROWS`` rows, at least one; the
    last holds the rest. Each tree's rows are drawn as its batch is reached,
    a bootstrap resample or else every row, one draw per tree in tree order
    from one generator seeded by ``seed``, so a batch's samples do not
    depend on which process draws them, and none holds more than one batch's."""
    rng = np.random.default_rng(seed)
    rows = (rng.integers(0, n, n) if bootstrap else np.arange(n) for _ in range(n_trees))
    per_batch = max(1, _BATCH_ROWS // n)
    starts = range(0, n_trees, per_batch)
    return len(starts), (np.array(list(islice(rows, per_batch))) for _ in starts)


def _process_count() -> int:
    """How many processes grow a fit's batch slices, and how many workers
    (the caller and its threads) take a descent's blocks from one queue:
    one per usable CPU, or one where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_grower(work: Callable[[], list]) -> tuple[int, BinaryIO] | None:
    """Fork a child that pickles ``work()`` into a pipe and exits: 0 once the
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
                pickle.dump(work(), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def grow(
    X: np.ndarray, y: np.ndarray, n_trees: int = 100, max_depth: int | None = 10,
    min_leaf: int = 2, bootstrap: bool = True, seed: int = 0,
) -> dict:
    """A forest of ``n_trees`` trees (``_grow_trees``; ``max_depth`` None: unbounded),
    each on a seeded bootstrap resample of the rows, or on every row without ``bootstrap``.

    The forest's batches (see ``_batch_plan``) grow in contiguous slices,
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
    every child first: none outlives the fit or hangs it on a full pipe.

    A child runs no BLAS, takes no lock that another thread may hold at the
    fork, and leaves by ``os._exit``. So the DeprecationWarning with which
    Python 3.12+ meets a fork from a multi-threaded process does not apply.
    """
    plan = (len(y), n_trees, bootstrap, seed)
    n_batches = _batch_plan(*plan)[0]
    n_slices = min(n_batches, _process_count())
    ends = [n_batches * k // n_slices for k in range(n_slices + 1)]

    def grow_slice(k: int) -> list[dict[str, np.ndarray]]:
        samples = islice(_batch_plan(*plan)[1], ends[k], ends[k + 1])
        return [_grow_trees(X, y, s, max_depth, min_leaf) for s in samples]

    pids: list[int] = []  # the children of slices 1, 2, ..., in order
    pipes: list[BinaryIO] = []
    try:
        for k in range(1, n_slices):
            child = _fork_grower(lambda k=k: grow_slice(k))
            if child is None:  # no process left: the caller grows the rest
                break
            pids.append(child[0])
            pipes.append(child[1])
        slices = [grow_slice(0)]
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
        slices.append(grow_slice(k) if grown is None else grown)
    batches = [batch for part in slices for batch in part]
    return {key: np.concatenate([b[key] for b in batches]) for key in batches[0]}


def predict(forest: dict[str, np.ndarray], X: np.ndarray, descent=None) -> np.ndarray:
    """Each row's mean over the trees; ``descent`` is as in ``_forest_outputs``.
    Equal rows (-0.0 and 0.0 too) descend once: the same bits as one at a time."""
    distinct, row_of = _distinct_rows(X)
    return _forest_outputs(forest, distinct, descent).mean(axis=1)[row_of]


def _index_dtype(table_size: int) -> np.dtype:
    """The smallest little-endian unsigned type that holds ``table_size - 1``."""
    return np.dtype(np.min_scalar_type(max(table_size - 1, 0))).newbyteorder("<")


def _value_table(value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values by bits (so -0.0 and 0.0 are two), in the order
    of their bits as int64, and each value's place among them, in
    ``_index_dtype``: one argsort, then a new entry wherever a sorted value
    differs from the one before it. At most two node-count arrays of eight
    bytes are live at once; np.unique's inverse would take four."""
    bits = np.ascontiguousarray(value, "<f8").view("<i8")
    order = np.argsort(bits)
    ordered = bits.take(order)
    starts = np.ones(len(bits), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    table = ordered[starts]
    del ordered
    places = np.cumsum(starts, dtype=_index_dtype(len(table)))
    places -= 1
    index = np.empty_like(places)
    index[order] = places
    return table.view("<f8"), index


def encode(forest: dict[str, np.ndarray]) -> dict[str, str]:
    """The forest's arrays as base64 strings of their ``DTYPES`` bytes, and
    ``value`` as ``value_table`` and ``value_index`` (``_value_table``). An
    integer that its type cannot hold, such as a feature index past 127,
    raises ValueError."""
    table, index = _value_table(forest["value"])
    arrays = {**forest, "value_table": table}
    encoded = {}
    for key, dtype in DTYPES.items():
        data = arrays[key].astype(dtype)
        if dtype.kind == "i" and not np.array_equal(data, arrays[key]):
            raise ValueError(f"{key} holds a value that {dtype.itemsize}-byte integers cannot")
        encoded[key] = base64.b64encode(data.tobytes()).decode("ascii")
    encoded["value_index"] = base64.b64encode(index.tobytes()).decode("ascii")
    return encoded


def _decoded(params: dict, key: str, dtype: np.dtype) -> np.ndarray:
    """The array of ``params[key]``, a base64 string of whole ``dtype`` items.
    Signed integers widen to intp; on a little-endian host the others stay
    read-only views of the decoded bytes."""
    try:
        raw = base64.b64decode(params[key], validate=True)  # a non-string: TypeError
    except (TypeError, ValueError) as err:
        raise ValueError(f"{key} is not a base64 string ({err})") from None
    if len(raw) % dtype.itemsize:
        raise ValueError(f"{key}: {len(raw)} bytes, not whole {dtype.itemsize}-byte items")
    wide = np.intp if dtype.kind == "i" else dtype.newbyteorder("=")
    return np.frombuffer(raw, dtype).astype(wide, copy=False)


def decode(params: dict, n_features: int) -> tuple[dict, tuple[np.ndarray, int]]:
    """The arrays of ``encode``'s strings, ``value`` gathered from its table,
    checked so that the forest holds one tree or more, every node's value is
    a finite one of the table, and every row's descent through every tree
    stays in that tree and ends at one of its leaves; and the descent tables
    that the checks built, the depth among them. The index's type follows
    from the table's length (``_index_dtype``)."""
    forest = {key: _decoded(params, key, dtype) for key, dtype in DTYPES.items()}
    table = forest.pop("value_table")
    index = _decoded(params, "value_index", _index_dtype(len(table)))
    feature, sizes = forest["feature"], forest["tree_sizes"]
    n = len(index)
    if len(feature) != n:
        raise ValueError("feature and value_index differ in length")
    # 32-bit sizes: their int64 sum cannot wrap around.
    if len(sizes) < 1 or (sizes < 1).any() or sizes.sum() != n:
        raise ValueError(f"tree_sizes is not one or more sizes >= 1 summing to {n} nodes")
    if not len(table):
        raise ValueError(f"value_table is empty, but the forest has {n} nodes")
    if index.max() >= len(table):
        raise ValueError(f"value_index points past value_table's {len(table)} values")
    if not np.isfinite(table).all():
        raise ValueError("value_table holds a non-finite value")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"feature index outside [0, {n_features})")
    forest["value"] = table.take(index)
    return forest, _descent_tables(forest)
