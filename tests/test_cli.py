import json
from dataclasses import replace

import numpy as np
import pytest

from gska import model as model_mod
from gska.cli import run
from gska.data import load_csv
from gska.interpret import read_pd_csv

ALL_FEATURES = [f"f{i}" for i in range(1, 13)]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(["synth", "--n", "120", "--seed", "11", "--noise", "0.1",
                "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_path(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = run(["fit", "--data", str(synth_dir / "features.csv"),
                "--groups", str(synth_dir / "groups.json"),
                "--lambda", "0.05", "--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_artifacts(self, synth_dir):
        assert (synth_dir / "features.csv").exists()
        assert (synth_dir / "groups.json").exists()
        truth = json.loads((synth_dir / "truth.json").read_text())
        assert truth["active_groups"] == ["g1", "g2"]

    def test_feature_shape(self, synth_dir):
        data = load_csv(synth_dir / "features.csv", "label")
        assert (data.n, data.p) == (120, 12)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_seed_reproducible(self, synth_dir, tmp_path):
        run(["synth", "--n", "120", "--seed", "11", "--noise", "0.1",
             "--out", str(tmp_path)])
        assert ((tmp_path / "features.csv").read_bytes()
                == (synth_dir / "features.csv").read_bytes())
        assert ((tmp_path / "groups.json").read_bytes()
                == (synth_dir / "groups.json").read_bytes())

    def test_seed_changes_output(self, synth_dir, tmp_path):
        run(["synth", "--n", "120", "--seed", "12", "--noise", "0.1",
             "--out", str(tmp_path)])
        assert ((tmp_path / "features.csv").read_bytes()
                != (synth_dir / "features.csv").read_bytes())


class TestFit:
    def test_summary_line(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = run(["fit", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambda", "0.05", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["command"] == "fit"
        assert doc["converged"] is True
        assert 0 <= doc["kkt_residual"] <= 0.01
        assert set(doc["active_groups"]) <= {"g1", "g2", "g3", "g4"}

    def test_model_rerun_identical(self, synth_dir, model_path, tmp_path):
        out = tmp_path / "m.json"
        run(["fit", "--data", str(synth_dir / "features.csv"),
             "--groups", str(synth_dir / "groups.json"),
             "--lambda", "0.05", "--out", str(out)])
        assert out.read_bytes() == model_path.read_bytes()

    def _fit(self, synth_dir, out, *extra):
        return run(["fit", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambda", "0.05", *extra, "--out", str(out)])

    def test_default_solver_controls_byte_identical(self, synth_dir,
                                                    model_path, tmp_path):
        out = tmp_path / "m.json"
        assert self._fit(synth_dir, out, "--tol", "0.01",
                         "--max-iters", "1000") == 0
        assert out.read_bytes() == model_path.read_bytes()

    def test_max_iters_cap_warns_and_more_iterations_converge(
            self, synth_dir, tmp_path, capsys):
        assert self._fit(synth_dir, tmp_path / "a.json",
                         "--max-iters", "3") == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out.strip())
        assert (doc["converged"], doc["iterations"]) == (False, 3)
        assert "stopped after 3 iterations (max_iters=3)" in captured.err
        assert self._fit(synth_dir, tmp_path / "b.json",
                         "--max-iters", "300") == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["converged"] is True
        assert "warning" not in captured.err

    def test_loose_tol_stops_sooner(self, synth_dir, tmp_path, capsys):
        iterations = []
        for tol in ("0.01", "1"):
            assert self._fit(synth_dir, tmp_path / f"{tol}.json",
                             "--tol", tol) == 0
            iterations.append(
                json.loads(capsys.readouterr().out.strip())["iterations"])
        assert iterations[1] < iterations[0]

    @pytest.mark.parametrize("option,value", [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
        ("--max-iters", "0"), ("--max-iters", "2.5")])
    def test_bad_solver_control_exit_1(self, synth_dir, tmp_path, capsys,
                                       option, value):
        assert self._fit(synth_dir, tmp_path / "m.json", option, value) == 1
        assert f"argument {option}: must be a positive" in (
            capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_missing_data_file_exit_2(self, synth_dir, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_bad_groups_exit_1(self, synth_dir, tmp_path):
        bad = tmp_path / "groups.json"
        bad.write_text(json.dumps(
            {"groups": [{"name": "g", "features": ["f1", "f1"]}]}))
        code = run(["fit", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 1

    @pytest.mark.parametrize("doc, field", [
        ({"groups": []}, "group"),
        ({"groups": 5}, "'groups'"),
        ({"groups": [{"name": "g", "features": 3}]}, "'features'"),
        ({"groups": [{"name": "g", "features": ALL_FEATURES,
                      "weight": "x"}]}, "'weight'"),
        ({"groups": [{"name": "g", "features": ALL_FEATURES,
                      "weight": None}]}, "'weight'"),
    ], ids=["empty", "not-a-list", "features-int", "weight-str",
            "weight-null"])
    def test_malformed_groups_json_exit_1(self, synth_dir, tmp_path, capsys,
                                          doc, field):
        bad = tmp_path / "groups.json"
        bad.write_text(json.dumps(doc))
        code = run(["fit", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("second, field", [
        (("g", ALL_FEATURES[6:], 1.0), "group name 'g' is used twice"),
        (("", ALL_FEATURES[6:], 1.0), "group 1 has the name ''"),
        (("b/c", ALL_FEATURES[6:], 1.0), "'b/c'"),
        (("b\\c", ALL_FEATURES[6:], 1.0), repr("b\\c")),
        (("b", ALL_FEATURES[5:], 1.0),
         "feature 'f6' is listed again in group 'b'"),
        (("b", ALL_FEATURES[6:], 0.0), "weight of group 'b'"),
    ], ids=["duplicate-name", "empty-name", "slash", "backslash",
            "overlap", "zero-weight"])
    def test_group_error_names_file_and_group(self, synth_dir, tmp_path,
                                              capsys, second, field):
        # the first group is g over f1..f6; the second is the faulty one
        bad = tmp_path / "groups.json"
        bad.write_text(json.dumps({"groups": [
            {"name": name, "features": features, "weight": weight}
            for name, features, weight in [("g", ALL_FEATURES[:6], 1.0),
                                           second]]}))
        code = run(["fit", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(bad), "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert field in err

    def test_malformed_csv_exit_1(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("sample_id,f1,label\na,not_a_number,1\n")
        code = run(["fit", "--data", str(bad),
                    "--groups", str(synth_dir / "groups.json"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 1


@pytest.fixture(scope="module")
def id_csv(synth_dir, tmp_path_factory):
    # the synthetic features CSV with a sample_id column in front
    rows = (synth_dir / "features.csv").read_text().splitlines()
    ids = [f"s{r:03d}" for r in range(len(rows) - 1)]
    path = tmp_path_factory.mktemp("ids") / "features.csv"
    path.write_text("".join(f"{sid},{row}\n" for sid, row
                            in zip(["sample_id"] + ids, rows)))
    return path, ids


class TestSampleIdColumn:
    def test_ids_carried_and_not_a_feature(self, synth_dir, model_path,
                                           id_csv, tmp_path):
        path, ids = id_csv
        model = tmp_path / "m.json"
        assert run(["fit", "--data", str(path),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambda", "0.05", "--out", str(model)]) == 0
        doc, plain = (json.loads(p.read_text()) for p in (model, model_path))
        assert doc.pop("train_sample_ids") == ids
        plain.pop("train_sample_ids")
        assert doc == plain

        assert run(["predict", "--model", str(model), "--data", str(path),
                    "--out", str(tmp_path / "p.csv")]) == 0
        rows = (tmp_path / "p.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ids

        assert run(["interpret", "--model", str(model), "--data", str(path),
                    "--grid-size", "4", "--scatter",
                    "--out", str(tmp_path / "i")]) == 0
        for g in ("g1", "g2", "g3", "g4"):
            rows = (tmp_path / "i" / f"component_scatter_{g}.csv"
                    ).read_text().splitlines()
            assert rows[0] == "sample_id,value"
            assert [r.split(",")[0] for r in rows[1:]] == ids


class TestPredict:
    def test_roundtrip(self, synth_dir, model_path, tmp_path, capsys):
        out = tmp_path / "pred.csv"
        code = run(["predict", "--model", str(model_path),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["n"] == 120
        assert doc["accuracy"] > 60.0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "sample_id,score,prediction"
        assert len(lines) == 121
        for row in lines[1:]:
            sid, score, pred = row.split(",")
            assert pred in ("1", "-1")
            assert np.sign(float(score)) == int(pred) or float(score) == 0.0

    def test_missing_model_exit_2(self, synth_dir, tmp_path):
        code = run(["predict", "--model", str(tmp_path / "no.json"),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_missing_column_names_the_file(self, synth_dir, model_path,
                                           tmp_path, capsys):
        query = _drop_column(synth_dir, tmp_path, "f3")
        code = run(["predict", "--model", str(model_path),
                    "--data", str(query), "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {query}: data is missing the training column 'f3'\n")


def _drop_column(synth_dir, tmp_path, name):
    # the synthetic features CSV without one column
    rows = [row.split(",") for row in
            (synth_dir / "features.csv").read_text().splitlines()]
    col = rows[0].index(name)
    path = tmp_path / "q.csv"
    path.write_text("".join(",".join(r[:col] + r[col + 1:]) + "\n"
                            for r in rows))
    return path


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


class TestMalformedModel:
    @pytest.mark.parametrize("keys,value", [
        (("alpha",), "x"),
        (("gammas",), ["a", "a", "a", "a"]),
        (("train_features",), [["x"]]),
        (("scaling", "means"), ["a"]),
        (("partition", "weights"), "x"),
        (("partition", "groups", 0, 0), float("inf")),
    ], ids=["alpha", "gammas", "train_features", "scaling_means",
            "partition_weights", "group_index_infinity"])
    def test_exit_1_naming_the_file(self, synth_dir, model_path, tmp_path,
                                    capsys, keys, value):
        doc = json.loads(model_path.read_text())
        _set(doc, keys, value)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run(["predict", "--model", str(bad),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("keys,value,message", [
        (("feature_names",), ["f1"],
         "feature name count must match column count"),
        (("partition", "groups", 0), [0, 1, 99],
         "groups must form a contiguous partition of columns"),
        (("scaling", "stds"), [-1.0] * 12, "stds must be non-negative"),
        (("alpha",), [[0.0]],
         "alpha shape must be (group count, training rows)"),
        (("gammas",), [0.0] * 4, "kernel bandwidths must be positive"),
        (("lambda",), "x", "lambda must be a finite number >= 0, got 'x'"),
        (("lambda",), -1.0, "lambda must be a finite number >= 0, got -1.0"),
        (("lambda",), float("inf"),
         "lambda must be a finite number >= 0, got inf"),
        (("report", "iterations"), -5,
         "report.iterations must be an integer >= 0, got -5"),
        (("report", "iterations"), 2.5,
         "report.iterations must be an integer >= 0, got 2.5"),
        (("report", "converged"), "yes",
         "report.converged must be true or false, got 'yes'"),
        (("report", "final_objective"), "x",
         "report.final_objective must be a finite number, got 'x'"),
        (("report", "intercept"), True,
         "report.intercept must be a finite number, got True"),
    ], ids=["dataset", "partition", "scaling", "model_state", "kernel",
            "lambda_string", "lambda_negative", "lambda_infinity",
            "iterations_negative", "iterations_float", "converged_string",
            "final_objective_string", "intercept_bool"])
    def test_record_error_names_the_file(self, synth_dir, model_path,
                                         tmp_path, capsys, keys, value,
                                         message):
        doc = json.loads(model_path.read_text())
        _set(doc, keys, value)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = run(["predict", "--model", str(bad),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_schema_error_not_rewrapped(self, synth_dir, model_path,
                                        tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["schema_version"] = 99
        bad = tmp_path / "old_model.json"
        bad.write_text(json.dumps(doc))
        code = run(["predict", "--model", str(bad),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: unsupported model schema version 99\n"


class TestCv:
    def test_report_and_determinism(self, synth_dir, tmp_path, capsys):
        out1 = tmp_path / "cv1.json"
        out2 = tmp_path / "cv2.json"
        args = ["cv", "--data", str(synth_dir / "features.csv"),
                "--groups", str(synth_dir / "groups.json"),
                "--lambda", "0.05", "--folds", "4", "--seed", "3"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert len(doc["per_fold"]) == 4
        assert 0.0 <= doc["mean"]["auroc"] <= 1.0
        assert len(doc["fold_assignments"]) == 120
        assert doc["group_names"] == ["g1", "g2", "g3", "g4"]

    def test_solver_controls_reach_every_fold(self, synth_dir, tmp_path,
                                              capsys):
        code = run(["cv", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambda", "0.05", "--folds", "3", "--max-iters", "3",
                    "--out", str(tmp_path / "cv.json")])
        assert code == 0
        assert capsys.readouterr().err.count("(max_iters=3)") == 3
        code = run(["cv", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--tol", "0", "--out", str(tmp_path / "cv0.json")])
        assert code == 1
        assert "argument --tol" in capsys.readouterr().err

    def test_too_many_folds_exit_1(self, synth_dir, tmp_path):
        code = run(["cv", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--folds", "200", "--out", str(tmp_path / "cv.json")])
        assert code == 1


class TestGrid:
    def test_best_point(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = run(["grid", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambdas", "0.02", "0.1",
                    "--sigmas", "1.0", "--folds", "3",
                    "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["points"]) == 2
        aurocs = [p["auroc"] for p in doc["points"]]
        assert doc["best"]["auroc"] == max(aurocs)
        assert doc["best"]["lambda"] in (0.02, 0.1)

    @pytest.mark.parametrize("flag,values", [
        ("--lambdas", ["0.1", "0.1"]), ("--sigmas", ["1.0", "1.0"])],
        ids=["lambdas", "sigmas"])
    def test_repeated_grid_value_exit_1(self, synth_dir, tmp_path, capsys,
                                        flag, values):
        grids = {"--lambdas": ["0.02", "0.1"], "--sigmas": ["1.0"]}
        grids[flag] = values
        code = run(["grid", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambdas", *grids["--lambdas"],
                    "--sigmas", *grids["--sigmas"], "--folds", "2",
                    "--out", str(tmp_path / "grid.json")])
        assert code == 1
        assert f"repeats the value {float(values[0])!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "grid.json").exists()

    def test_solver_controls_reach_every_solve(self, synth_dir, tmp_path,
                                               capsys):
        code = run(["grid", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambdas", "0.02", "0.1", "--sigmas", "1.0",
                    "--folds", "2", "--tol", "1e-9", "--max-iters", "3",
                    "--out", str(tmp_path / "grid.json")])
        assert code == 0
        warnings = capsys.readouterr().err.splitlines()
        assert len(warnings) == 2 * 2
        assert all("stopped after 3 iterations (max_iters=3)" in w
                   and w.endswith("tol=1e-09") for w in warnings)

    def test_default_lambda_grid(self, tmp_path):
        # smallest synth set, so the 40-point default grid stays quick
        assert run(["synth", "--n", "40", "--seed", "11", "--noise", "0.1",
                    "--out", str(tmp_path)]) == 0
        out = tmp_path / "grid.json"
        code = run(["grid", "--data", str(tmp_path / "features.csv"),
                    "--groups", str(tmp_path / "groups.json"),
                    "--sigmas", "0.5", "1.0", "--folds", "2",
                    "--out", str(out)])
        assert code == 0
        points = json.loads(out.read_text())["points"]
        assert len(points) == 20 * 2


class TestCorrelate:
    def test_matrix_and_long(self, tmp_path, capsys):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((15, 2))
        feats = tmp_path / "f.csv"
        chars = tmp_path / "c.csv"
        feats.write_text("f1,f2,label\n" + "".join(
            f"{float(a[i, 0])!r},{float(a[i, 1])!r},1\n" for i in range(15)))
        chars.write_text("c1,label\n" + "".join(
            f"{float(2 * a[i, 0] + 1)!r},1\n" for i in range(15)))
        out = tmp_path / "corr.csv"
        code = run(["correlate", "--data", str(feats), "--chars", str(chars),
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == ",c1"
        name, r = rows[1].split(",")
        assert name == "f1"
        np.testing.assert_allclose(float(r), 1.0, atol=1e-12)
        long_rows = (tmp_path / "corr_long.csv").read_text().strip().splitlines()
        assert long_rows[0] == "feature,characteristic,r"
        assert len(long_rows) == 3

    def test_row_count_mismatch_exit_1(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("f1,label\n1.0,1\n2.0,-1\n0.5,1\n")
        b.write_text("c1,label\n1.0,1\n2.0,-1\n")
        code = run(["correlate", "--data", str(a), "--chars", str(b),
                    "--out", str(tmp_path / "o.csv")])
        assert code == 1


class TestInterpret:
    def test_exports(self, synth_dir, model_path, tmp_path, capsys):
        out = tmp_path / "interp"
        out.mkdir()
        code = run(["interpret", "--model", str(model_path),
                    "--data", str(synth_dir / "features.csv"),
                    "--grid-size", "8", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["files"] == 13
        grid, values = read_pd_csv(out / "pd_g1_f1.csv")
        assert grid.size == 8
        imp = (out / "group_importance.csv").read_text().strip().splitlines()
        assert imp[0] == "group,contribution,share"
        assert len(imp) == 5


    def test_permuted_training_csv_same_files(self, synth_dir, model_path,
                                              tmp_path):
        rows = (synth_dir / "features.csv").read_text().splitlines()
        permuted = tmp_path / "reversed.csv"
        permuted.write_text("".join(
            ",".join(reversed(row.split(","))) + "\n" for row in rows))
        outs = []
        for name, csv_path in (("orig", synth_dir / "features.csv"),
                               ("perm", permuted)):
            outs.append(tmp_path / name)
            assert run(["interpret", "--model", str(model_path),
                        "--data", str(csv_path), "--grid-size", "6",
                        "--scatter", "--out", str(outs[-1])]) == 0
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert len(files) == 17
        for name in files:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_missing_column_names_the_file(self, synth_dir, model_path,
                                           tmp_path, capsys):
        train = _drop_column(synth_dir, tmp_path, "f3")
        code = run(["interpret", "--model", str(model_path),
                    "--data", str(train), "--out", str(tmp_path / "i")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {train}: data is missing the training column 'f3'\n")
        # an error from another input does not name the CSV
        code = run(["interpret", "--model", str(model_path),
                    "--data", str(synth_dir / "features.csv"),
                    "--grid-size", "1", "--out", str(tmp_path / "i")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: grid_size must be at least 2\n")

    def _fit_named(self, tmp_path, groups):
        """Fit on random rows whose features and groups carry these names."""
        names = [f for _, feats in groups for f in feats]
        rng = np.random.default_rng(5)
        rows = [",".join(names + ["label"])]
        for i in range(30):
            vals = rng.standard_normal(len(names))
            rows.append(",".join([repr(float(v)) for v in vals]
                                 + ["1" if i % 2 else "-1"]))
        csv_path = tmp_path / "named.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        groups_path = tmp_path / "named_groups.json"
        groups_path.write_text(json.dumps({"groups": [
            {"name": g, "features": feats} for g, feats in groups]}))
        model = tmp_path / "named_model.json"
        assert run(["fit", "--data", str(csv_path), "--groups",
                    str(groups_path), "--lambda", "0.05",
                    "--out", str(model)]) == 0
        return model, csv_path

    def _interpret_fails(self, tmp_path, capsys, groups):
        model, csv_path = self._fit_named(tmp_path, groups)
        capsys.readouterr()
        out = tmp_path / "interp"
        code = run(["interpret", "--model", str(model), "--data",
                    str(csv_path), "--grid-size", "4", "--out", str(out)])
        assert code == 1
        assert not out.exists()        # nothing was written
        return capsys.readouterr().err

    def test_path_separator_in_feature_name_exit_1(self, tmp_path, capsys):
        err = self._interpret_fails(tmp_path, capsys,
                                    [("a", ["x/y", "z"])])
        assert err == ("error: feature 'x/y' contains a path separator, "
                       "so it cannot name a PD file\n")

    def test_colliding_pd_file_names_exit_1(self, tmp_path, capsys):
        err = self._interpret_fails(tmp_path, capsys,
                                    [("a", ["b_c"]), ("a_b", ["c"])])
        assert err == ("error: group 'a' feature 'b_c' and group 'a_b' "
                       "feature 'c' both name the PD file pd_a_b_c.csv\n")


@pytest.fixture(scope="module")
def intercept_fit(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("intercept")
    args = ["fit", "--data", str(synth_dir / "features.csv"),
            "--groups", str(synth_dir / "groups.json"),
            "--lambda", "0.05", "--intercept"]
    assert run(args + ["--out", str(out / "model.json")]) == 0
    return args, out / "model.json"


class TestIntercept:
    def test_fit_writes_nonzero_intercept(self, intercept_fit):
        _, path = intercept_fit
        doc = json.loads(path.read_text())
        assert doc["report"]["intercept"] != 0.0
        assert doc["report"]["converged"] is True

    def test_predict_reproduces_decision_function(self, synth_dir,
                                                  intercept_fit, tmp_path):
        _, path = intercept_fit
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(path),
                    "--data", str(synth_dir / "features.csv"),
                    "--out", str(out)]) == 0
        scores = np.array([float(row.split(",")[1]) for row in
                           out.read_text().strip().splitlines()[1:]])
        model = model_mod.load(path)
        query = load_csv(synth_dir / "features.csv", "label")
        assert np.array_equal(scores,
                              model_mod.decision_function(model, query))
        b = model.report.intercept
        no_b = replace(model, report=replace(model.report, intercept=0.0))
        np.testing.assert_allclose(
            scores - b, model_mod.decision_function(no_b, query),
            rtol=0, atol=1e-12)

    def test_reruns_identical(self, synth_dir, intercept_fit, tmp_path):
        args, path = intercept_fit
        assert run(args + ["--out", str(tmp_path / "m.json")]) == 0
        assert (tmp_path / "m.json").read_bytes() == path.read_bytes()
        cv = ["cv", "--data", str(synth_dir / "features.csv"),
              "--groups", str(synth_dir / "groups.json"),
              "--lambda", "0.05", "--folds", "4", "--seed", "3",
              "--intercept"]
        assert run(cv + ["--out", str(tmp_path / "cv1.json")]) == 0
        assert run(cv + ["--out", str(tmp_path / "cv2.json")]) == 0
        assert ((tmp_path / "cv1.json").read_bytes()
                == (tmp_path / "cv2.json").read_bytes())

    def test_cv_exits_0(self, synth_dir, tmp_path, capsys):
        code = run(["cv", "--data", str(synth_dir / "features.csv"),
                    "--groups", str(synth_dir / "groups.json"),
                    "--lambda", "0.05", "--folds", "3", "--intercept",
                    "--out", str(tmp_path / "cv.json")])
        assert code == 0
        doc = json.loads((tmp_path / "cv.json").read_text())
        assert 0.0 <= doc["mean"]["auroc"] <= 1.0


class TestSelect:
    def test_select_report(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "sel.json"
        code = run(["select", "--data", str(synth_dir / "features.csv"),
                    "--top-k", "4", "--folds", "3", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["selected"]) == 4
        assert doc["chosen_lambda"] in doc["lambda_grid"]

    @pytest.mark.parametrize("label,problem", [
        ("x", "is not numeric"),
        ("2", "outside permitted set {-1, +1, 0, 1}")])
    def test_bad_label_names_the_file(self, tmp_path, capsys, label, problem):
        bad = tmp_path / "badlab.csv"
        bad.write_text(f"f1,f2,label\n1.0,2.0,{label}\n3.0,4.0,1\n")
        code = run(["select", "--data", str(bad),
                    "--out", str(tmp_path / "sel.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: row 0: label {label!r} {problem}\n")


class TestParsing:
    def test_unknown_command_nonzero(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
