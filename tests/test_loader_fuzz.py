"""The loaders keep the CLI's exit-code contract on arbitrary input.

One field of a valid model file, one cell of a valid CSV or one entry of a
valid groups JSON is replaced by arbitrary JSON or text. `gska` must then
exit 0, 1 or 2 and never let an exception escape.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from gska.cli import run

FUZZ = settings(max_examples=40, deadline=None, database=None,
                derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["synth", "--n", "40", "--seed", "3", "--noise", "0.1",
                "--out", str(root)]) == 0
    assert run(["fit", "--data", str(root / "features.csv"),
                "--groups", str(root / "groups.json"), "--lambda", "0.05",
                "--out", str(root / "model.json")]) == 0
    return root


def _paths(doc, prefix=()):
    """Key paths to every field and nested field of a JSON document.

    A list longer than 12 (training rows, a coefficient block) is replaced
    whole, not entry by entry.
    """
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, dict) or (isinstance(value, list)
                                       and len(value) <= 12):
            yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


@FUZZ
@given(data=st.data())
def test_model_field(valid, data):
    doc = json.loads((valid / "model.json").read_text())
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    value = data.draw(json_values | st.text())
    bad = valid / "fuzz_model.json"
    bad.write_text(json.dumps(_replaced(doc, path, value)))
    assert run(["predict", "--model", str(bad),
                "--data", str(valid / "features.csv"),
                "--out", str(valid / "pred.csv")]) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_csv_cell(valid, data):
    rows = [line.split(",") for line in
            (valid / "features.csv").read_text().splitlines()]
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[r][c] = data.draw(st.text())
    bad = valid / "fuzz.csv"
    bad.write_text("".join(",".join(row) + "\n" for row in rows),
                   encoding="utf-8")
    assert run(["predict", "--model", str(valid / "model.json"),
                "--data", str(bad),
                "--out", str(valid / "pred.csv")]) in (0, 1, 2)


@FUZZ
@given(data=st.data())
def test_groups_entry(valid, data):
    doc = json.loads((valid / "groups.json").read_text())
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    bad = valid / "fuzz_groups.json"
    bad.write_text(json.dumps(_replaced(doc, path, data.draw(json_values))))
    assert run(["fit", "--data", str(valid / "features.csv"),
                "--groups", str(bad), "--lambda", "0.05",
                "--out", str(valid / "fuzz_model_out.json")]) in (0, 1, 2)
