"""Golden outputs of the stock random forest and of the config file.

The all-TX forest pins (its prediction hash, its table row and its model
file hash) were computed with the presorted run-length grower and, with
the same values, with the per-node reference grower of
``test_forest_reference.py``. The median-TX prediction hash dates from the
recursive grower that the array-backed forest replaced and still holds.
Every forest pin held, unchanged, when the grower stopped re-sorting each
feature's rows by node at every level and began to keep the rows in place,
relabelling their nodes and runs through small tables. A forest rewrite
that changes any split, threshold, leaf value or the order of a float
summation moves at least one of them. The forest pins rest on
sequential sums only (``np.bincount``, ``np.cumsum``), not on NumPy's
pairwise ``np.sum`` or the C library's ``pow``; the linear and polynomial
rows of the table rest on LAPACK.

The config hashes were computed with the hand-listed ``config_to_dict``
that ``dataclasses.asdict`` replaced; they pin the file's key order and
number formatting. They were re-pinned for config file version 2, and
only they: the version field moved from 1 to 2 and the
``spread_factor`` and ``bandwidth_hz`` keys, which changed no log, went;
every other line of both files is as before.

The forest array hashes (``feature``, ``tree_sizes`` and ``value`` of the
stock forests, as ``<i8``/``<i8``/``<f8`` bytes) were computed with model
file version 3, whose forests also carried each split node's explicit
``left`` child; the forests that imply their children from the layout must
have the same arrays.

The model file hashes were re-pinned for version 4, and only they: the
version field moved from 3 to 4 in both files, and the forest's arrays
became base64 strings of little-endian bytes in place of JSON numbers,
with no ``left`` array. The arrays themselves are the pinned ones above.
The version 3 hashes were computed with the hand-listed ``save_model``
payload that ``dataclasses.asdict`` replaced.

They were re-pinned again for version 5, and only they: the version field
moved from 4 to 5 in both files, and the polynomial file lost its
``powers`` key, the exponent lists that its spec's ``poly_degree``
already determines. The forest file is otherwise the same bytes, and the
polynomial's coefficients are the same JSON numbers.

They were re-pinned for version 6, and only they: the version field moved
from 5 to 6 in both files, and both lost their ``feature_names`` member,
which the feature mode already determines. Each version 5 file, with that
member removed and its version field set to 6, is the version 6 file byte
for byte.

They were re-pinned for version 7, and only they: the version field moved
from 6 to 7 in both files, and each ``spec`` lost its seven hyperparameter
keys, which the code now fixes, and holds only ``kind``. Each version 6
file, with those keys removed and its version field set to 7, is the
version 7 file byte for byte.

They were re-pinned for version 8, and only they: the version field moved
from 7 to 8 in both files, and the forest's ``feature`` array went from
``<i4`` to ``<i1`` bytes, one byte per node. Each version 7 file, with its
version field set to 8 and its feature array re-encoded at one byte per
node, is the version 8 file byte for byte.

They were re-pinned for version 9, and only they: the version field moved
from 8 to 9 in both files, and the forest's ``value`` array became
``value_table``, its distinct values by bits in the order of their bits as
``<i8``, and ``value_index``, each node's place in the table in the
smallest unsigned type that holds the table's last place (``<u2`` for the
stock all-TX forest's 8,349 values). Each version 8 file, with its version
field set to 9 and its ``value`` array replaced by the table and the index
that ``np.unique(..., return_inverse=True)`` of its ``<i8`` view gives, is
the version 9 file byte for byte.

The other five least-squares model files (linear and ridge in both modes,
polynomial all-TX) were pinned at version 9 with a fit helper per kind,
which built the degree-1 design as ``np.column_stack([ones, X])`` and
ridge's penalty rows apart; the one least-squares design must write the
same bytes. Like the polynomial median-TX file, their coefficients rest
on LAPACK's least-squares solve.

The log hashes were computed with the packet-at-a-time simulator, which
drew one drop decision and one noise sample per packet and recomputed the
path loss for each; the sweep-at-a-time simulator must write the same
bytes. The wrap case covers the 23 dBm quirk, antenna gains, unquantized
noise and drops in one small campaign. The big-seed case was computed
with the simulator that built a SeedSequence per sweep. Its seed is two
32-bit words, so the spawned noise and drop streams hash more entropy
words than the 4-word pool holds; the campaign that derives every sweep's
streams at once must write the same bytes. The gains case was computed
with the simulator whose ``LinkGeometry`` carried the antenna gains; its
gains, 0.1 and 0.2 dB, do not add exactly, so it pins the budget's
addition order, ``(tx + tx_gain) + rx_gain``, which the wrap case's exact
gains cannot. The large case was computed with one ``Generator`` per
stream. Every campaign's probe and drop streams now come from the uint64
PCG64 kernel (``campaign._pcg64_random``), which must write every case's
bytes. The one-sweep case was computed while a campaign of few sweeps
still drew from one ``Generator`` per stream; it asks the kernel for one
row at a time, and for more probe spots than the plan has levels.

The predictions file and curve file hashes were computed with the
hand-kept CSV column tuple and positional cell parsers that the log's
column table replaced, and with the predictions writer that `smol predict`
kept for itself. The predictions pin rests on the stream pins, sequential
forest sums and Python's float ``repr``.
"""

import functools
import hashlib

import numpy as np
import pytest

from smol import calibrate, campaign, cli
from smol.calibrate import FeatureMode, ModelKind, ModelSpec

GOLDEN_PREDICTIONS = {
    FeatureMode.ALL_TX: "a2d83f732a7e900485a9ed5572a77b851061e9a1625f000c9647508a8ce0aafb",
    FeatureMode.MEDIAN_TX: "2e075f4f0c61bc4d6ff2bd30c89474f5c1a9bd8a605bf6d17a3befe8e63b5446",
}

GOLDEN_CONFIG_SHA256 = {
    "stock": "88d27414fdca49f449cd37b51ed34cd1e7017a3acef0b4b4bd0f485f3601b94d",
    "large": "97535afc49378520349cf0a2066cdcbdb2651839f66a9b1e80047fa9769abb3c",
}

GOLDEN_LOG_SHA256 = {
    "stock": "0261881f0a95bb30593914f74f8e82bcf4ac320f4410b431ef7ae062c81c7f0a",
    "no-noise": "c79302d5bbc642e3254e2d5676ebe50cbba742fc786969301023dcc3569cdeb9",
    "inference": "1cb609b8f802038563f705baff711418bc4f3946b217c316ad86e0024d768cf4",
    "large": "054a48df042f4679d91ba7b248647302b2828f9f0677ef276538be3fb8f7aff4",
    "wrap": "0b3490eafb37be270c08c29dfa879ac9152247c3641ab9d3e3205f6e3048c244",
    "big-seed": "ff38c6e4bfe246f7e8ef61a7588e0729c36e7246c3ea98fd9a8615b681fa9a0b",
    "gains": "647601c3f5d1f1384067666be9eed758ce34b1dbf268f638907b1dc45f38e9ce",
    "one-sweep": "0320d90d0fdfe39327bd067bf16c71e3f2c7ecf1e57544cd3ac08f379899052c",
}

# Model files of `smol train` on the stock log, default flags otherwise.
GOLDEN_MODEL_SHA256 = {
    ("random_forest", "all_tx"): "df2d83de23390adeeb42d350f71d9be7003f05b417043ec62a89baabe72efe04",
    ("polynomial", "median_tx"): "e051c75d92525160b4de72259fe4343291b40ec9b4b739559699f1cb95495a48",
    ("polynomial", "all_tx"): "a1dc53c5ed5c86c5c71e0a9610be09fc28b32dbaabbc57fef59347726af905b0",
    ("linear", "all_tx"): "50fc138d4832fa3a485aaae9b978f814aa6d3362e73c8046c8a090b1b535e8c4",
    ("linear", "median_tx"): "92f5430f75ae4202a155fd2b566c580c82158b7d36b398bbb3362418deefacc7",
    ("ridge", "all_tx"): "49cdf821566f6984c33a8c0e79f94137a663bc39925131dde54b43e177248ef7",
    ("ridge", "median_tx"): "8e6c00b92adb8121989a628314225de6e446779281f12bb15b868365fa4ab8d4",
}

# The stock forests' arrays, fit on the 80% split (seed 0), default spec.
GOLDEN_FOREST_ARRAYS = {
    FeatureMode.ALL_TX: {
        "feature": "e696735df31be4eb292d1959bfdfd5c0ea933af4529cfe53d80706c8b9384c12",
        "tree_sizes": "d46f49b34947548d569a83655d565f6872d1a20fc409cdd997af4334beefe7bd",
        "value": "399f273c9dc0b7cdaecf482900663d791783b2f7e30312b60c227aca0a412044",
    },
    FeatureMode.MEDIAN_TX: {
        "feature": "787069be544007f036249226e51392ef69b372193734c45fcc702523e82ad8b0",
        "tree_sizes": "f1cd0ae656eba1e1be9fcceee7d1345374385200bb6d8e27f2abcb55c7c0257e",
        "value": "580ef7c13f2f15341aaac0410195a8871659b15e818754e546db080864b5c650",
    },
}
ARRAY_BYTES = {"feature": "<i8", "tree_sizes": "<i8", "value": "<f8"}

# `smol predict` with the stock all-TX forest on `simulate --inference --seed 11`.
GOLDEN_PREDICTIONS_CSV_SHA256 = "bdd1131506c0ea40d221abb630f5b6113e2d70cb76139fd3a3f157b8a0d2d00b"

# The curve files of `smol report` on the stock log.
GOLDEN_CURVE_SHA256 = {
    "curve_lab_h000_h0cm.csv": "43c6195031d05fd74f897d3162482eda73bc56a46caed5c63a0618439f9f8049",
    "curve_lab_h195_h195cm.csv": "d1e2ca884fc91118814546abfdfcf61647cff1739e9067c3b2f553e2536b2cd0",
    "curve_lab_h265_h265cm.csv": "2fbe9b5315c72f48514ad79a56f5376cb9435f442251f57f34e2c73c75d6188f",
}

GOLDEN_TABLE_CSV = (
    'model,mode,r_squared,mae,best\n'
    'random_forest,all_tx,0.9495755321974654,1.983422763124265,1\n'
    'polynomial,all_tx,0.9333470943924006,2.4495606389054236,0\n'
    'linear,all_tx,0.9298107198264521,2.545015342178257,0\n'
    'random_forest,median_tx,0.8707105477000806,2.3639046897275753,0\n'
    'polynomial,median_tx,0.8690326505980126,2.4466684736824615,0\n'
    'linear,median_tx,0.8584359168449164,2.6740388653204468,0\n'
)


def _probe_grid(features: np.ndarray) -> np.ndarray:
    """Half-dB steps across the training range: every midpoint threshold
    of integer features is hit exactly, and so is each side of it."""
    axes = [
        np.arange(features[:, j].min() - 1.0, features[:, j].max() + 1.5, 0.5)
        for j in range(features.shape[1])
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


@functools.cache
def _stock_forest(mode: FeatureMode) -> tuple[calibrate.Dataset, calibrate.TrainedModel]:
    """The stock dataset in ``mode``, and the default forest fit on its 80% split."""
    dataset = calibrate.assemble(campaign.run_campaign(campaign.CampaignConfig()), mode)
    train, _ = calibrate.split(dataset, seed=0)
    return dataset, calibrate.fit(ModelSpec(ModelKind.RANDOM_FOREST), train)


@pytest.mark.numpy_bits
@pytest.mark.parametrize("mode", list(FeatureMode))
def test_stock_forest_arrays_are_pinned(mode):
    params = _stock_forest(mode)[1].params
    digests = {
        key: hashlib.sha256(np.ascontiguousarray(params[key], dtype=dtype).tobytes()).hexdigest()
        for key, dtype in ARRAY_BYTES.items()
    }
    assert digests == GOLDEN_FOREST_ARRAYS[mode]


@pytest.mark.numpy_bits
@pytest.mark.parametrize("mode", list(FeatureMode))
def test_stock_forest_predictions_are_pinned(mode):
    dataset, model = _stock_forest(mode)
    X = np.vstack([dataset.features, _probe_grid(dataset.features)])
    preds = np.ascontiguousarray(model.predict_many(X), dtype="<f8")
    assert hashlib.sha256(preds.tobytes()).hexdigest() == GOLDEN_PREDICTIONS[mode]


def test_stock_report_table_is_pinned(tmp_path):
    log = tmp_path / "campaign.csv"
    assert cli.main(["simulate", "--out", str(log)]) == cli.EXIT_OK
    assert cli.main(["report", "--log", str(log), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert (tmp_path / "table.csv").read_text() == GOLDEN_TABLE_CSV


@pytest.mark.numpy_bits
def test_stock_report_curves_are_pinned(tmp_path):
    log = tmp_path / "campaign.csv"
    assert cli.main(["simulate", "--out", str(log)]) == cli.EXIT_OK
    report = tmp_path / "report"
    assert cli.main(["report", "--log", str(log), "--out-dir", str(report)]) == cli.EXIT_OK
    curves = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in report.glob("curve_*")}
    assert curves == GOLDEN_CURVE_SHA256


@pytest.mark.numpy_bits
def test_predictions_file_is_pinned(tmp_path):
    log, model = tmp_path / "campaign.csv", tmp_path / "model.json"
    fresh, out = tmp_path / "fresh.csv", tmp_path / "predictions.csv"
    for argv in (
        ["simulate", "--out", log],
        ["train", "--log", log, "--out", model],
        ["simulate", "--inference", "--seed", "11", "--out", fresh],
        ["predict", "--model", model, "--log", fresh, "--out", out],
    ):
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PREDICTIONS_CSV_SHA256


@pytest.mark.numpy_bits
@pytest.mark.parametrize("kind, mode", sorted(GOLDEN_MODEL_SHA256))
def test_model_files_are_pinned(tmp_path, kind, mode):
    log, model = tmp_path / "campaign.csv", tmp_path / "model.json"
    assert cli.main(["simulate", "--out", str(log)]) == cli.EXIT_OK
    argv = ["train", "--log", str(log), "--model", kind, "--mode", mode, "--out", str(model)]
    assert cli.main(argv) == cli.EXIT_OK
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL_SHA256[kind, mode]


def _large_config() -> campaign.CampaignConfig:
    """36 placements x 16 moisture levels with packet drops."""
    return campaign.CampaignConfig(
        scenarios=tuple(
            campaign.Scenario(f"d{depth:02.0f}_h{height:03.0f}", depth, height)
            for depth in (5.0, 12.0, 19.0, 26.0, 33.0, 40.0)
            for height in (0.0, 80.0, 160.0, 240.0, 320.0, 400.0)
        ),
        vwc_grid=tuple(0.025 * k for k in range(1, 17)),
        sweeps_per_cell=3,
        drop_prob=0.02,
        sweep_interval_s=60.0,
        seed=1234,
    )


def _wrap_config() -> campaign.CampaignConfig:
    """Two placements with the 23 dBm wrap quirk, antenna gains, drops and
    unquantized noise."""
    return campaign.CampaignConfig(
        scenarios=(
            campaign.Scenario("wrap_a", 10.0, 50.0),
            campaign.Scenario("wrap_b", 0.0, 120.0),
        ),
        vwc_grid=(0.05, 0.2, 0.4),
        tx_gain_db=2.5,
        rx_gain_db=-1.25,
        power_levels=(23, 5, 9, 14, 22),
        quantize_rssi=False,
        drop_prob=0.1,
        wrap_high_power=True,
        seed=77,
    )


def _big_seed_config() -> campaign.CampaignConfig:
    """The stock placements with a seed above 2**32, drops and two sweeps per cell."""
    return campaign.CampaignConfig(seed=2**40 + 3, drop_prob=0.1, sweeps_per_cell=2)


def _gains_config() -> campaign.CampaignConfig:
    """The stock campaign, unquantized, with gains whose sum rounds."""
    return campaign.CampaignConfig(tx_gain_db=0.1, rx_gain_db=0.2, quantize_rssi=False)


def _one_sweep_config() -> campaign.CampaignConfig:
    """One sweep of one cell, with drops and more probe spots than power levels."""
    return campaign.CampaignConfig(
        scenarios=(campaign.Scenario("one", 15.0, 0.0),),
        vwc_grid=(0.2,),
        sweeps_per_cell=1,
        tdr_spots=25,
        drop_prob=0.3,
        seed=11,
    )


CONFIG_CASES = {
    "large": _large_config,
    "wrap": _wrap_config,
    "big-seed": _big_seed_config,
    "gains": _gains_config,
    "one-sweep": _one_sweep_config,
}


@pytest.mark.numpy_bits
@pytest.mark.parametrize("case", sorted(GOLDEN_LOG_SHA256))
def test_simulated_logs_are_pinned(tmp_path, case):
    out = tmp_path / "log.csv"
    argv = ["simulate", "--out", str(out)]
    if case in CONFIG_CASES:
        config = tmp_path / "config.json"
        campaign.save_config(CONFIG_CASES[case](), config)
        argv += ["--config", str(config)]
    elif case != "stock":
        argv.append(f"--{case}")
    assert cli.main(argv) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_LOG_SHA256[case]


def test_config_files_are_pinned(tmp_path):
    stock = tmp_path / "stock.json"
    argv = ["simulate", "--out", str(tmp_path / "log.csv"), "--dump-config", str(stock)]
    assert cli.main(argv) == cli.EXIT_OK
    large = tmp_path / "large.json"
    campaign.save_config(_large_config(), large)
    for name, path in (("stock", stock), ("large", large)):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_CONFIG_SHA256[name], name
    assert campaign.load_config(large) == _large_config()
