"""Numeric options keep the CLI's exit-code contract at extreme values.

Each numeric option of `synth`, `select`, `fit`, `cv` and `grid` is set to
NaN, +-inf, 0, -0.0, -1, 1e308, 5e-324 and arbitrary numbers. `gska` must then
either exit 1 with a message that names the option or the field it sets, or
exit 0 with an artifact whose numbers are all finite. No exception may
escape. `synth --n` and `interpret --grid-size` are left out: their values
set the amount of work.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from gska.cli import run

FUZZ = settings(max_examples=4, deadline=None, database=None,
                derandomize=True)
EDGES = ("nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "5e-324")

# the option, and the words a message may name it by (its field's name)
OPTIONS = {
    "synth": {"--seed": r"seed", "--noise": r"noise"},
    "select": {"--mix": r"alpha_mix", "--top-k": r"\bk\b",
               "--folds": r"folds|\bk\b", "--seed": r"seed"},
    "fit": {"--lambda": r"lam", "--sigma": r"sigma", "--gamma": r"gamma",
            "--tol": r"tol", "--max-iters": r"max.iters"},
    "cv": {"--lambda": r"lam", "--sigma": r"sigma", "--gamma": r"gamma",
           "--tol": r"tol", "--max-iters": r"max.iters",
           "--folds": r"folds|\bk\b", "--seed": r"seed"},
    "grid": {"--gamma": r"gamma", "--lambdas": r"lambda",
             "--sigmas": r"sigma", "--tol": r"tol",
             "--max-iters": r"max.iters", "--folds": r"folds|\bk\b",
             "--seed": r"seed"},
}
CASES = [(cmd, opt) for cmd, opts in OPTIONS.items() for opt in opts]


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    root = tmp_path_factory.mktemp("options")
    assert run(["synth", "--n", "40", "--seed", "3", "--noise", "0.1",
                "--out", str(root)]) == 0
    return root


def _argv(command, root, out):
    # small, valid settings; the option under test is appended after them,
    # and argparse keeps an option's last value
    if command == "synth":
        return [command, "--n", "40", "--out", str(out)]
    if command == "select":
        return [command, "--data", str(root / "features.csv"),
                "--out", str(out), "--top-k", "3", "--folds", "2"]
    argv = [command, "--data", str(root / "features.csv"),
            "--groups", str(root / "groups.json"), "--out", str(out)]
    if command == "fit":
        return argv + ["--lambda", "0.05"]
    if command == "cv":
        return argv + ["--lambda", "0.05", "--folds", "3"]
    return argv + ["--lambdas", "0.05", "--sigmas", "1.0", "--folds", "3"]


def _numbers(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _numbers(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _numbers(value)
    elif isinstance(doc, float):
        yield doc


def _with_edges(test):
    for text in EDGES:
        test = example(text=text)(test)
    return test


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,option", CASES,
                         ids=[f"{c}{o}" for c, o in CASES])
@FUZZ
@_with_edges
@given(text=st.floats().map(repr) | st.integers(-10, 10 ** 6).map(str))
def test_numeric_option(synth, command, option, text):
    # synth writes a directory, whose truth.json holds its numbers
    out = synth / (command if command == "synth" else f"{command}.json")
    artifact = out / "truth.json" if command == "synth" else out
    artifact.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = run(_argv(command, synth, out) + [option, text])
    err = err.getvalue()
    assert code in (0, 1), err
    if code == 1:
        assert option in err or re.search(OPTIONS[command][option], err), err
        return
    doc = json.loads(artifact.read_text())
    assert all(math.isfinite(x) for x in _numbers(doc)), (option, text)
