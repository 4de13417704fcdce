"""Fuzzing of the file boundaries: measurement logs, config files, model files.

Each test mutates a valid file, runs the command that reads it, and checks
the command's contract: it either succeeds, or exits 2 (validation) or 3
(I/O) with exactly one stderr line; never a traceback or another code.
A file that is still well formed may also exit 4 (numerical failure), as
a model does whose finite coefficients overflow its predictions. A
mutation that cannot leave the file valid (a non-number in a numeric log
column, a missing or unknown key, a JSON object where none belongs) must
exit 2 or 3.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smol import campaign, cli

# A fixed example sequence and a bounded budget: a few seconds of tier-1 time.
FUZZ = settings(max_examples=50, deadline=1000, derandomize=True)

# Cell values for log rows: no numeric column takes the first kind, the
# second kind is valid in some columns and not in others.
NOT_A_NUMBER = ("x", "nan", "inf", "-inf")
MAYBE_A_NUMBER = (
    "", "-1", "0", "70000", "1e999", "-1e999", "13.5", "4", "23", "24", " 5", '"', "1_0",
)
SCENARIO_COLUMN = campaign.CSV_COLUMNS.index("scenario")

# Values put in place of a JSON node; None and {} fit nowhere in a config.
JSON_TOKENS = (
    None, {}, True, False, 0, -1, 1, 0.5, -0.5, 1.5, 1e308, -1e308,
    math.nan, math.inf, "", "x", [], [1], [0.5, "x"],
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A small training log, its config, and a linear and a forest model."""
    d = tmp_path_factory.mktemp("fuzz")
    config = campaign.CampaignConfig(
        scenarios=(campaign.Scenario("bench", 15.0, 0.0),),
        vwc_grid=(0.05, 0.20, 0.35),
        sweeps_per_cell=1,
        seed=5,
    )
    campaign.save_config(config, d / "config.json")
    campaign.write_measurements(d / "log.csv", campaign.run_campaign(config))
    for kind, extra in (("linear", []), ("random_forest", ["--trees", "2", "--max-depth", "3"])):
        argv = ["train", "--log", d / "log.csv", "--model", kind, "--out", d / f"{kind}.json"]
        assert _run(argv + extra)[0] == cli.EXIT_OK
    return d


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _check(code: int, err: str, must_fail: bool) -> None:
    if code == cli.EXIT_OK and not must_fail:
        return
    prefixes = {cli.EXIT_VALIDATION: "error: ", cli.EXIT_IO: "i/o error: "}
    if not must_fail:
        prefixes[cli.EXIT_NUMERICAL] = "numerical failure: "
    assert code in prefixes, (code, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefixes[code]), err


def _paths(node, prefix=()):
    """Every node of a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate_json(doc, op: str, path: tuple, token):
    """Apply one mutation in place; returns the new document root."""
    if op == "insert":
        if isinstance(_node(doc, path), dict):
            _node(doc, path)["fuzz_extra"] = 1
        return doc
    if not path:
        return token
    parent = _node(doc, path[:-1])
    if op == "replace":
        parent[path[-1]] = token
    else:
        del parent[path[-1]]
    return doc


json_mutations = st.tuples(
    st.sampled_from(["replace", "replace", "delete", "insert"]),
    st.sampled_from(JSON_TOKENS),
)


@FUZZ
@given(data=st.data(), mutation=json_mutations)
def test_mutated_config_file(valid, data, mutation):
    op, token = mutation
    doc = json.loads((valid / "config.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if op == "delete" and not path:
        return
    must_fail = (
        (op == "replace" and (not path or token is None or token == {}))
        or (op == "delete" and isinstance(_node(doc, path[:-1]), dict))
        or (op == "insert" and isinstance(_node(doc, path), dict))
    )
    doc = _mutate_json(doc, op, path, token)
    (valid / "mutant.json").write_text(json.dumps(doc))
    code, err = _run(["simulate", "--config", valid / "mutant.json", "--out", valid / "out.csv"])
    _check(code, err, must_fail)


@FUZZ
@given(
    data=st.data(),
    kind=st.sampled_from(["linear", "random_forest"]),
    mutation=json_mutations,
)
def test_mutated_model_file(valid, data, kind, mutation):
    op, token = mutation
    doc = json.loads((valid / f"{kind}.json").read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if op == "delete" and not path:
        return
    free = "metadata" in path  # anything goes inside the metadata object
    must_fail = not free and (
        (op == "replace" and (not path or token == {}))
        or (op == "delete" and isinstance(_node(doc, path[:-1]), dict))
        or (op == "insert" and isinstance(_node(doc, path), dict))
    )
    doc = _mutate_json(doc, op, path, token)
    (valid / "mutant.json").write_text(json.dumps(doc))
    code, err = _run(["predict", "--model", valid / "mutant.json", "--log", valid / "log.csv",
                      "--out", valid / "out.csv"])
    _check(code, err, must_fail)


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize("column", range(len(campaign.CSV_COLUMNS)))
@settings(FUZZ, max_examples=8)
@given(
    data=st.data(),
    token=st.sampled_from(NOT_A_NUMBER) | st.sampled_from(MAYBE_A_NUMBER),
)
def test_mutated_log_cell(valid, command, column, data, token):
    lines = (valid / "log.csv").read_text().splitlines()
    row = data.draw(st.integers(1, len(lines) - 1))
    cells = lines[row].split(",")
    cells[column] = token
    lines[row] = ",".join(cells)
    (valid / "mutant.csv").write_text("\n".join(lines) + "\n")
    code, err = _run(_log_command(valid, command))
    _check(code, err, must_fail=token in NOT_A_NUMBER and column != SCENARIO_COLUMN)


@FUZZ
@given(
    data=st.data(),
    command=st.sampled_from(["train", "predict"]),
    edit=st.sampled_from(["truncate", "overwrite"]),
    byte=st.sampled_from([0, 10, 13, 34, 44, 45, 46, 48, 0x80, 0xFF]),
)
def test_mutated_log_bytes(valid, data, command, edit, byte):
    raw = (valid / "log.csv").read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1))
    raw = raw[:at] if edit == "truncate" else raw[:at] + bytes([byte]) + raw[at + 1:]
    (valid / "mutant.csv").write_bytes(raw)
    code, err = _run(_log_command(valid, command))
    _check(code, err, must_fail=False)


def _log_command(valid, command: str) -> list:
    if command == "train":
        return ["train", "--log", valid / "mutant.csv", "--model", "linear",
                "--out", valid / "model_out.json"]
    return ["predict", "--model", valid / "linear.json", "--log", valid / "mutant.csv",
            "--out", valid / "out.csv"]
