import tracemalloc

import numpy as np
import pytest

import gska
from gska.data import DataError, Dataset, GroupPartition, write_csv


def make_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = make_csv(tmp_path, "f1,f2,label\n1,2,1\n3,4,0\n5,6,1\n")
        d = gska.load_csv(path, "label")
        assert d.n == 3 and d.p == 2
        np.testing.assert_array_equal(d.labels, [1, -1, 1])
        np.testing.assert_array_equal(d.samples, [[1, 2], [3, 4], [5, 6]])
        assert d.feature_names == ("f1", "f2")

    def test_nan_cell_reports_location(self, tmp_path):
        path = make_csv(tmp_path, "f1,f2,label\n1,NaN,1\n2,3,0\n")
        with pytest.raises(DataError, match="'f2'"):
            gska.load_csv(path, "label")

    def test_infinite_cell_names_file_row_and_column(self, tmp_path):
        path = make_csv(tmp_path, "f1,label,f2\n1,1,2\n3,0,-inf\n")
        with pytest.raises(DataError) as err:
            gska.load_csv(path, "label")
        assert str(err.value) == (f"{path}: non-finite feature value at "
                                  "row 1, column 'f2'")

    def test_label_outside_set(self, tmp_path):
        path = make_csv(tmp_path, "f1,label\n1,2\n")
        with pytest.raises(DataError, match="outside permitted set"):
            gska.load_csv(path, "label")

    def test_missing_file(self, tmp_path):
        with pytest.raises(gska.data.FileError):
            gska.load_csv(tmp_path / "nope.csv", "label")

    def test_duplicate_header(self, tmp_path):
        path = make_csv(tmp_path, "f1,f1,label\n1,2,1\n")
        with pytest.raises(DataError, match="duplicate"):
            gska.load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = make_csv(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(DataError, match="label column"):
            gska.load_csv(path, "label")

    def test_sample_id_column_gives_ids_not_a_feature(self, tmp_path):
        path = make_csv(tmp_path, "f1,sample_id,label\n1,x7,1\n2,007,0\n")
        d = gska.load_csv(path, "label")
        assert d.feature_names == ("f1",)
        assert d.sample_ids == ("x7", "007")
        np.testing.assert_array_equal(d.samples, [[1], [2]])

    def test_roundtrip_stability(self, tmp_path):
        rng = np.random.default_rng(1)
        d = Dataset(rng.standard_normal((5, 3)),
                    np.array([1, -1, 1, -1, 1.0]),
                    ("a", "b", "c"), tuple("01234"))
        path = tmp_path / "roundtrip.csv"
        write_csv(d, path)
        d2 = gska.load_csv(path, "label")
        np.testing.assert_allclose(d2.samples, d.samples, atol=1e-12)
        np.testing.assert_array_equal(d2.labels, d.labels)


# Small files and what the csv module and float() make of each, row by row:
# the Dataset (samples, labels, feature names, sample ids) or the error text,
# with {path} for the file's path. Each file is read either by numpy's C
# reader or by the row loop; both must give these, bit for bit.
LOADER_CORPUS = {
    "quoted_number": (b'f1,f2,label\n"1.5",2,1\n3,4,0\n',
                      ([[1.5, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
                       ("0", "1"))),
    "quoted_id_with_comma": (b'f1,sample_id,label\n1,"a,b",1\n2,c,0\n',
                             ([[1.0], [2.0]], [1.0, -1.0], ("f1",),
                              ("a,b", "c"))),
    "blank_line_mid": (b"f1,f2,label\n1,2,1\n\n3,4,0\n",
                       "{path}: row 1 has 0 cells, expected 3"),
    "blank_line_end": (b"f1,f2,label\n1,2,1\n3,4,0\n\n",
                       "{path}: row 2 has 0 cells, expected 3"),
    "crlf": (b"f1,f2,label\r\n1,2,1\r\n3,4,0\r\n",
             ([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
              ("0", "1"))),
    "crlf_blank_line": (b"f1,label\r\n1,1\r\n\r\n2,0\r\n",
                        "{path}: row 1 has 0 cells, expected 2"),
    "cr_cr_lf": (b"f1,label\n1,1\r\r\n2,0\n",
                 "{path}: row 1 has 0 cells, expected 2"),
    "cr_in_header": (b"f1\rf2,label\n1,1\n",
                     "{path}: label column 'label' not found"),
    "last_line_cr": (b"f1,label\n1,1\n2,0\r",
                     ([[1.0], [2.0]], [1.0, -1.0], ("f1",), ("0", "1"))),
    "whitespace_line": (b"f1,label\n1,1\n \n2,0\n",
                        "{path}: row 1 has 1 cells, expected 2"),
    "header_only": (b"f1,label\r\n", "{path}: no data rows"),
    "lone_cr": (b"f1,f2,label\r1,2,1\r3,4,0\r",
                ([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
                 ("0", "1"))),
    "underscore": (b"f1,f2,label\n1_000,2,1\n3,4,0\n",
                   ([[1000.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
                    ("0", "1"))),
    "arabic_indic_digits": ("f1,f2,label\n\u0661\u0662,2,1\n3,4,0\n".encode(),
                            ([[12.0, 2.0], [3.0, 4.0]], [1.0, -1.0],
                             ("f1", "f2"), ("0", "1"))),
    "space_and_tab": (b"f1,f2,label\n 1 ,\t2\t,1\n3, 4 , 0\n",
                      ([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
                       ("0", "1"))),
    "nan_cell": (b"f1,f2,label\n1,nan,1\n3,4,0\n",
                 "{path}: non-finite feature value at row 0, column 'f2'"),
    "inf_cell": (b"f1,f2,label\n1,2,1\n-inf,4,0\n",
                 "{path}: non-finite feature value at row 1, column 'f1'"),
    "label_forms": (b"f1,label\n1,+1\n2,1.0\n3,-0\n4,0\n5,-1\n",
                    ([[1.0], [2.0], [3.0], [4.0], [5.0]],
                     [1.0, 1.0, -1.0, -1.0, -1.0], ("f1",),
                     ("0", "1", "2", "3", "4"))),
    "label_out_of_set": (b"f1,label\n1,1\n2,2\n",
                         "{path}: row 1: label '2' outside permitted set "
                         "{{-1, +1, 0, 1}}"),
    "ragged_row": (b"f1,f2,label\n1,2,1\n3,0\n",
                   "{path}: row 1 has 2 cells, expected 3"),
    "trailing_comma": (b"f1,f2,label\n1,2,1,\n3,4,0,\n",
                       "{path}: row 0 has 4 cells, expected 3"),
    "bom": (b"\xef\xbb\xbff1,f2,label\n1,2,1\n3,4,0\n",
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("\ufefff1", "f2"),
             ("0", "1"))),
    "id_mid_row": (b"f1,sample_id,f2,label\n1,x7,2,1\n3, y ,4,0\n",
                   ([[1.0, 2.0], [3.0, 4.0]], [1.0, -1.0], ("f1", "f2"),
                    ("x7", " y "))),
    "id_last_crlf": (b"f1,label,sample_id\r\n1,1,a\r\n2,0,\r\n",
                     ([[1.0], [2.0]], [1.0, -1.0], ("f1",), ("a", ""))),
    "label_first": (b"label,f1,f2\n1,1.5,2\n0,3,4e-3\n",
                    ([[1.5, 2.0], [3.0, 0.004]], [1.0, -1.0], ("f1", "f2"),
                     ("0", "1"))),
    "one_row": (b"f1,f2,label\n1,2,1\n",
                ([[1.0, 2.0]], [1.0], ("f1", "f2"), ("0",))),
    "hash_in_cell": (b"f1,f2,label\n1,2#3,1\n3,4,0\n",
                     "{path}: row 0, column 'f2': cannot parse '2#3'"),
    "extreme_values": (b"f1,f2,label\n0.1,1e-320,1\n"
                       b"-1.7976931348623157e308,2.2250738585072014e-308,0\n",
                       ([[0.1, 1e-320],
                         [-1.7976931348623157e308, 2.2250738585072014e-308]],
                        [1.0, -1.0], ("f1", "f2"), ("0", "1"))),
}


@pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
def test_loader_corpus(tmp_path, name):
    raw, expect = LOADER_CORPUS[name]
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    if isinstance(expect, str):
        with pytest.raises(DataError) as err:
            gska.load_csv(path, "label")
        assert str(err.value) == expect.format(path=path)
        return
    d = gska.load_csv(path, "label")
    samples, labels, names, ids = expect
    assert d.samples.tobytes() == np.array(samples).tobytes()
    assert d.samples.shape == np.shape(samples)
    assert d.samples.flags.c_contiguous
    assert d.labels.tobytes() == np.array(labels).tobytes()
    assert (d.feature_names, d.sample_ids) == (names, ids)


@pytest.mark.parametrize("with_ids", [False, True])
def test_plain_reader_matches_the_row_loop(tmp_path, with_ids):
    # the row loop is the reference: the C reader must give its Dataset
    d, _, _ = gska.synth_generate(300, 5, 0.2)
    path = tmp_path / "synth.csv"
    write_csv(d, path)
    raw = path.read_bytes()
    if with_ids:
        lines = raw.split(b"\r\n")
        raw = b"\r\n".join(line and (b"sample_id," if i == 0 else
                                     b"id%d," % i) + line
                            for i, line in enumerate(lines))
    plain = gska.data._read_plain(raw, "label")
    rows = gska.data._read_rows(path, raw, "label")
    assert plain.samples.tobytes() == rows.samples.tobytes()
    assert plain.samples.flags.c_contiguous
    assert plain.labels.tobytes() == rows.labels.tobytes()
    assert (plain.feature_names, plain.sample_ids) == (rows.feature_names,
                                                       rows.sample_ids)
    assert rows.sample_ids[0] == ("id1" if with_ids else "0")


@pytest.mark.parametrize("text", [
    "f1,f2,label\n1,2,1\n3,4,0\n",
    "sample_id,f1,label\r\na,1,1\r\nb,2,0\r\n"])
def test_plain_file_skips_the_row_loop(tmp_path, monkeypatch, text):
    # a file of plain ASCII is read by numpy's C reader alone
    path = make_csv(tmp_path, text)
    expect = gska.load_csv(path, "label")
    monkeypatch.setattr(gska.data, "_read_rows", None)
    d = gska.load_csv(path, "label")
    assert d.samples.tobytes() == expect.samples.tobytes()
    assert (d.labels.tobytes(), d.sample_ids) == (expect.labels.tobytes(),
                                                  expect.sample_ids)


class TestUnreadableCsv:
    def test_byte_not_utf8_names_its_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b'f1,label\n1,1\n"a\nb",0\n3,\xff\n')
        with pytest.raises(DataError) as err:
            gska.load_csv(path, "label")
        assert str(err.value) == (f"{path}: row 2: byte 0xff at offset 23 "
                                  "is not UTF-8")

    def test_byte_not_utf8_in_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xfff1,label\n1,1\n")
        with pytest.raises(DataError, match=": header: byte 0xff at offset 0"):
            gska.load_csv(path, "label")


class TestStandardize:
    def test_hand_computed_column(self):
        # mean 2, population std sqrt(2/3) = 0.8165
        d = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([1, -1, 1.0]),
                    ("x",), ("0", "1", "2"))
        std, params = gska.standardize(d)
        np.testing.assert_allclose(std.samples[:, 0],
                                   [-1.2247448, 0.0, 1.2247448], atol=1e-6)
        assert params.means[0] == 2.0
        np.testing.assert_allclose(params.stds[0], 0.8164966, atol=1e-6)

    def test_columns_zero_mean_unit_std(self):
        rng = np.random.default_rng(2)
        d = Dataset(rng.standard_normal((40, 4)) * 3 + 1,
                    np.where(rng.random(40) > 0.5, 1.0, -1.0),
                    ("a", "b", "c", "d"), tuple(str(i) for i in range(40)))
        std, _ = gska.standardize(d)
        np.testing.assert_allclose(std.samples.mean(axis=0), 0, atol=1e-10)
        np.testing.assert_allclose(std.samples.std(axis=0), 1, atol=1e-10)

    def test_constant_column_maps_to_zero(self):
        d = Dataset(np.array([[5.0, 1], [5.0, 2], [5.0, 3]]),
                    np.array([1, -1, 1.0]), ("c", "x"), ("0", "1", "2"))
        std, params = gska.standardize(d)
        np.testing.assert_array_equal(std.samples[:, 0], 0.0)
        assert params.stds[0] == 0.0

    def test_apply_scaling_idempotent_on_train(self):
        rng = np.random.default_rng(3)
        d = Dataset(rng.standard_normal((10, 3)),
                    np.where(rng.random(10) > 0.5, 1.0, -1.0),
                    ("a", "b", "c"), tuple(str(i) for i in range(10)))
        std, params = gska.standardize(d)
        again = gska.apply_scaling(d, params)
        np.testing.assert_array_equal(again.samples, std.samples)

    def test_n1_errors(self):
        d = Dataset(np.array([[1.0]]), np.array([1.0]), ("x",), ("0",))
        with pytest.raises(DataError):
            gska.standardize(d)


class TestApplyScaling:
    def test_mean_point_maps_to_zero(self):
        d = Dataset(np.array([[1.0, 10], [3.0, 20]]), np.array([1, -1.0]),
                    ("a", "b"), ("0", "1"))
        _, params = gska.standardize(d)
        q = Dataset(np.array([[2.0, 15.0]]), np.array([1.0]), ("a", "b"),
                    ("q",))
        out = gska.apply_scaling(q, params)
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_zero_std_column_new_value(self):
        params = gska.ScalingParams(np.array([0.0]), np.array([0.0]))
        q = Dataset(np.array([[7.0]]), np.array([1.0]), ("a",), ("q",))
        out = gska.apply_scaling(q, params)
        assert out.samples[0, 0] == 0.0

    def test_dimension_mismatch(self):
        params = gska.ScalingParams(np.zeros(2), np.ones(2))
        q = Dataset(np.array([[7.0]]), np.array([1.0]), ("a",), ("q",))
        with pytest.raises(DataError):
            gska.apply_scaling(q, params)


class TestGroupPartition:
    def test_rejects_overlap(self):
        with pytest.raises(DataError, match="overlap"):
            GroupPartition(((0, 1), (1, 2)), ("a", "b"))

    def test_rejects_gap(self):
        with pytest.raises(DataError):
            GroupPartition(((0, 1), (3,)), ("a", "b"))

    def test_far_index_rejected_without_a_range_of_it(self):
        # a model file can carry any integer as a column index
        tracemalloc.start()
        with pytest.raises(DataError, match="contiguous"):
            GroupPartition(((0, 1), (10 ** 6,)), ("a", "b"))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DataError):
            GroupPartition(((0,), (1,)), ("a", "b"), (1.0, 0.0))

    @pytest.mark.parametrize("names", [("a", "a"), ("a", ""), ("a", "b/c"),
                                       ("a", "b\\c")],
                             ids=["duplicate", "empty", "slash", "backslash"])
    def test_rejects_names_that_cannot_name_a_file(self, names):
        with pytest.raises(DataError, match="group"):
            GroupPartition(((0,), (1,)), names)

    def test_sqrt_size_weights(self):
        part = GroupPartition(((0, 1, 2, 3), (4,)), ("a", "b"))
        w = part.sqrt_size_weights().weights
        np.testing.assert_allclose(w, [2.0, 1.0])


class TestSynth:
    def test_noise_zero_labels_are_latent_sign(self):
        d, part, truth = gska.synth_generate(200, 11, 0.0)
        g = gska.data.synth_latent(d.samples)
        np.testing.assert_array_equal(d.labels, np.where(g >= 0, 1.0, -1.0))
        assert truth == (0, 1)

    def test_seed_reproducibility(self):
        d1, _, _ = gska.synth_generate(100, 42, 0.3)
        d2, _, _ = gska.synth_generate(100, 42, 0.3)
        np.testing.assert_array_equal(d1.samples, d2.samples)
        np.testing.assert_array_equal(d1.labels, d2.labels)

    def test_noise_groups_uncorrelated_with_label(self):
        d, part, _ = gska.synth_generate(2000, 5, 0.0)
        for j in (2, 3):
            for col in part.groups[j]:
                r = np.corrcoef(d.samples[:, col], d.labels)[0, 1]
                assert abs(r) < 0.15

    def test_too_small_n(self):
        with pytest.raises(DataError):
            gska.synth_generate(39, 0, 0.0)

    def test_negative_seed(self):
        # numpy's generator would raise a ValueError, which the CLI does
        # not catch
        with pytest.raises(DataError, match="seed must be non-negative"):
            gska.synth_generate(40, -1, 0.0)


class TestGroupsJson:
    def test_roundtrip(self, tmp_path):
        d, part, _ = gska.synth_generate(50, 0, 0.0)
        path = tmp_path / "groups.json"
        gska.dump_groups_json(part, d.feature_names, path)
        loaded = gska.load_groups_json(path, d.feature_names)
        assert loaded.groups == part.groups
        assert loaded.group_names == part.group_names
        assert loaded.weights == part.weights

    def test_default_weight(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text('{"groups": [{"name": "g", "features": ["a", "b"]}]}')
        part = gska.load_groups_json(path, ("a", "b"))
        assert part.weights == (1.0, )[:1]

    def test_unknown_feature(self, tmp_path):
        path = tmp_path / "groups.json"
        path.write_text('{"groups": [{"name": "g", "features": ["zz"]}]}')
        with pytest.raises(DataError, match="zz"):
            gska.load_groups_json(path, ("a",))

    @pytest.mark.parametrize("name,match", [
        ("null", r"'name' of group 1 is None, not a string"),
        ("5", r"'name' of group 1 is 5, not a string"),
        ("[\"g\"]", r"'name' of group 1 is \['g'\], not a string")])
    def test_name_must_be_a_string(self, tmp_path, name, match):
        # the second group is named by its position, as it has no name
        path = tmp_path / "groups.json"
        path.write_text('{"groups": [{"name": "g", "features": ["a"]}, '
                        f'{{"name": {name}, "features": ["b"]}}]}}')
        with pytest.raises(DataError, match=match):
            gska.load_groups_json(path, ("a", "b"))

    @pytest.mark.parametrize("weight", [
        "true", "false", "null", '"2"', "[1]", "1e400", "1" + "0" * 400])
    def test_weight_must_be_a_finite_number(self, tmp_path, weight):
        # true is an int to isinstance, and a 401-digit integer overflows
        # float
        path = tmp_path / "groups.json"
        path.write_text('{"groups": [{"name": "g", "features": ["a"], '
                        f'"weight": {weight}}}]}}')
        with pytest.raises(DataError,
                           match=r"'weight' of group 'g' is .*, not a finite"):
            gska.load_groups_json(path, ("a",))
