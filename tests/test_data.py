import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapprune as sp
from helpers import (
    reference_build_vocabulary,
    reference_encode_rows,
    reference_synthetic_rows,
    reference_toy_rows,
)
from shapprune.serialization import CheckpointError


class TestBucketize:
    def test_log_buckets_above_two(self):
        assert sp.bucketize_numeric(9) == "4"
        assert sp.bucketize_numeric(1024) == "10"
        assert sp.bucketize_numeric(2.9) == "2"
        assert sp.bucketize_numeric(3) == "2"

    def test_small_values_keep_integer_part(self):
        assert sp.bucketize_numeric(2) == "2"
        assert sp.bucketize_numeric(1) == "1"
        assert sp.bucketize_numeric(0.9) == "0"
        assert sp.bucketize_numeric(0) == "0"

    def test_missing_value(self):
        assert sp.bucketize_numeric(None) == sp.MISSING_TOKEN

    def test_bucket_is_monotone_above_two(self):
        values = [2.1, 3.0, 5.0, 17.0, 100.0, 4096.0]
        buckets = [int(sp.bucketize_numeric(v)) for v in values]
        assert buckets == sorted(buckets)

    def test_powers_of_two_map_to_their_exponent(self):
        for exp in range(2, 12):
            assert sp.bucketize_numeric(2.0 ** exp) == str(exp)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_value_is_a_named_value_error(self, value):
        with pytest.raises(ValueError, match=f"non-finite value {value!r}"):
            sp.bucketize_numeric(value)


class TestSchema:
    def test_categorical_constructor(self):
        schema = sp.FieldSchema.categorical(3)
        assert schema.names == ("f0", "f1", "f2")
        assert set(schema.kinds) == {sp.CATEGORICAL}

    def test_rejects_duplicate_names(self):
        with pytest.raises(sp.DataError, match="duplicate"):
            sp.FieldSchema(("a", "a"), (sp.CATEGORICAL, sp.CATEGORICAL))

    @pytest.mark.parametrize("name", [5, None, ["a"]])
    def test_rejects_a_name_that_is_not_a_string(self, name):
        with pytest.raises(sp.DataError, match="is not a string"):
            sp.FieldSchema(("a", name), (sp.CATEGORICAL, sp.CATEGORICAL))

    def test_rejects_unknown_kind(self):
        with pytest.raises(sp.DataError, match="unknown field kind"):
            sp.FieldSchema(("a",), ("textual",))

    def test_rejects_empty(self):
        with pytest.raises(sp.DataError):
            sp.FieldSchema((), ())

    def test_json_round_trip(self, tmp_path):
        schema = sp.FieldSchema(("age", "site"), (sp.NUMERIC_BUCKETED, sp.CATEGORICAL))
        path = tmp_path / "schema.json"
        schema.save(path)
        assert sp.FieldSchema.load(path) == schema

    def test_malformed_schema_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"columns": []}')
        with pytest.raises(sp.DataError, match="malformed schema"):
            sp.FieldSchema.load(path)


class TestVocabularyBuild:
    def rows(self):
        return [
            ["1", "a", "x"],
            ["0", "a", "y"],
            ["0", "b", "x"],
            ["1", "a", "z"],
        ]

    def schema(self):
        return sp.FieldSchema.categorical(2)

    def test_first_appearance_order(self):
        vocab = sp.build_vocabulary(self.rows(), self.schema())
        assert list(vocab.tables[0]) == ["a", "b"]
        assert list(vocab.tables[1]) == ["x", "y", "z"]

    def test_every_field_reserves_an_oov_slot(self):
        vocab = sp.build_vocabulary(self.rows(), self.schema())
        assert vocab.field_sizes == (3, 4)
        assert vocab.n == 7
        assert vocab.oov_id(0) == 2
        assert vocab.oov_id(1) == 6

    def test_min_count_collapses_rare_tokens(self):
        vocab = sp.build_vocabulary(self.rows(), self.schema(), min_count=2)
        assert list(vocab.tables[0]) == ["a"]
        assert list(vocab.tables[1]) == ["x"]
        assert vocab.field_sizes == (2, 2)

    def test_min_count_zero_keeps_everything(self):
        vocab = sp.build_vocabulary(self.rows(), self.schema(), min_count=0)
        assert sum(vocab.field_sizes) == vocab.n == 7

    @pytest.mark.parametrize("min_count", [-1, 2**64])
    def test_min_count_outside_the_recorded_range_rejected(self, min_count):
        with pytest.raises(sp.DataError, match=rf"min_count must be in \[0, 2\*\*64\), got {min_count}"):
            sp.build_vocabulary(self.rows(), self.schema(), min_count=min_count)

    def test_empty_input_rejected(self):
        with pytest.raises(sp.DataError, match="empty dataset"):
            sp.build_vocabulary([], self.schema())

    def test_bad_width_reports_row_number(self):
        rows = self.rows() + [["1", "only-one-field"]]
        with pytest.raises(sp.DataError, match="row 5"):
            sp.build_vocabulary(rows, self.schema())

    @pytest.mark.parametrize("encode", [False, True], ids=["build", "encode"])
    @pytest.mark.parametrize(
        "label_row, width_row, message",
        [(3, 5, "row 3: label"), (5, 3, "row 3: expected 3 columns")],
        ids=["label_first", "width_first"],
    )
    def test_first_malformed_row_is_reported(self, encode, label_row, width_row, message):
        rows = [["1", "a", "x"] for _ in range(6)]
        rows[label_row - 1] = ["2", "a", "x"]
        rows[width_row - 1] = ["1", "a"]
        with pytest.raises(sp.DataError, match=message):
            if encode:
                sp.encode_rows(rows, sp.build_vocabulary(self.rows(), self.schema()))
            else:
                sp.build_vocabulary(rows, self.schema())

    def test_bad_label_reports_row_number(self):
        rows = [["1", "a", "x"], ["7", "a", "x"]]
        with pytest.raises(sp.DataError, match="row 2: label '7' is not 0 or 1"):
            sp.build_vocabulary(rows, self.schema())

    def test_float_like_labels_accepted(self):
        rows = [["1.0", "a", "x"], ["0.0", "b", "y"]]
        vocab = sp.build_vocabulary(rows, self.schema())
        ds = sp.encode_rows(rows, vocab)
        assert ds.labels.tolist() == [1, 0]

    def test_build_is_deterministic_byte_identical(self):
        one = sp.build_vocabulary(self.rows(), self.schema(), min_count=1)
        two = sp.build_vocabulary(self.rows(), self.schema(), min_count=1)
        assert one.to_bytes() == two.to_bytes()


class TestVocabularySerialization:
    def vocab(self):
        schema = sp.FieldSchema(("num", "cat"), (sp.NUMERIC_BUCKETED, sp.CATEGORICAL))
        return sp.Vocabulary(schema, ({"4": 0, "5": 1}, {"x": 0}), 3)

    def test_round_trip(self, tmp_path):
        vocab = self.vocab()
        path = tmp_path / "v.shvr"
        vocab.save(path)
        back = sp.Vocabulary.load(path)
        assert back == vocab
        assert back.to_bytes() == vocab.to_bytes()

    def test_wrong_magic(self):
        data = bytearray(self.vocab().to_bytes())
        data[:4] = b"ZIPX"
        with pytest.raises(CheckpointError, match="not a SHVR checkpoint"):
            sp.Vocabulary.from_bytes(bytes(data))

    def test_unsupported_version(self):
        data = bytearray(self.vocab().to_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(CheckpointError, match="unsupported version 99"):
            sp.Vocabulary.from_bytes(bytes(data))

    def test_corruption_detected(self):
        data = bytearray(self.vocab().to_bytes())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="corrupt"):
            sp.Vocabulary.from_bytes(bytes(data))

    def test_truncation_detected(self):
        data = self.vocab().to_bytes()
        with pytest.raises(CheckpointError, match="truncated"):
            sp.Vocabulary.from_bytes(data[:8])

    def test_wrong_kind_rejected(self):
        # a sealed body whose kind tag is not the vocabulary tag
        from shapprune.serialization import ByteWriter, seal

        w = ByteWriter()
        w.u8(7)
        with pytest.raises(CheckpointError, match="does not hold a vocabulary"):
            sp.Vocabulary.from_bytes(seal(w.getvalue()))

    @staticmethod
    def crafted(fields):
        """A CRC-valid vocabulary file over (name, tokens) pairs, written
        without any of Vocabulary's own checks. A name or token given as
        bytes is written raw, so it need not be valid UTF-8."""
        from shapprune.serialization import TAG_VOCABULARY, ByteWriter, seal

        w = ByteWriter()

        def text(value):
            data = value if isinstance(value, bytes) else value.encode("utf-8")
            w.u32(len(data))
            w.raw(data)

        w.u8(TAG_VOCABULARY)
        w.u64(0)
        w.u64(len(fields))
        for name, tokens in fields:
            text(name)
            w.u8(0)
            w.u64(len(tokens))
            for token in tokens:
                text(token)
        return seal(w.getvalue())

    @pytest.mark.parametrize(
        "fields, message",
        [
            ([("f", ["a", "a", "b"])], "lists a token twice"),
            ([], "at least one field"),
            ([("f", ["a"]), ("f", ["b"])], "duplicate field names"),
            ([("f", ["a", sp.OOV_TOKEN])], "lists the reserved token"),
            ([("f", ["a", b"b\xff"])], "not valid UTF-8"),
            ([(b"f\xff", ["a"])], "not valid UTF-8"),
        ],
        ids=["repeated_token", "zero_fields", "repeated_field_name", "oov_token",
             "token_not_utf8", "field_name_not_utf8"],
    )
    def test_malformed_header_rejected(self, fields, message):
        with pytest.raises(CheckpointError, match=message):
            sp.Vocabulary.from_bytes(self.crafted(fields))


class TestEncoding:
    def setup_method(self):
        self.schema = sp.FieldSchema(("num", "cat"), (sp.NUMERIC_BUCKETED, sp.CATEGORICAL))
        self.rows = [
            ["1", "9", "a"],
            ["0", "1024", "b"],
            ["0", "9", "a"],
            ["1", "", "c"],
        ]
        self.vocab = sp.build_vocabulary(self.rows, self.schema)

    def test_numeric_cells_bucketed_before_lookup(self):
        assert list(self.vocab.tables[0]) == ["4", "10", sp.MISSING_TOKEN]

    def test_encode_known_and_oov(self):
        ds = sp.encode_rows([["1", "9", "a"], ["0", "33", "unseen"]], self.vocab)
        assert ds.ids[0, 0] == self.vocab.offsets[0] + self.vocab.tables[0]["4"]
        # 33 buckets to 6, never seen in the build rows, so it lands on OOV
        assert ds.ids[1, 0] == self.vocab.oov_id(0)
        assert ds.ids[1, 1] == self.vocab.oov_id(1)

    def test_frequency_table_sums_to_row_count_per_field(self):
        ds = sp.encode_rows(self.rows, self.vocab)
        off = self.vocab.offsets
        for j in range(self.vocab.field_count):
            assert ds.frequencies[off[j]:off[j + 1]].sum() == len(ds)

    def test_decode_then_encode_is_identity(self):
        ds = sp.encode_rows(self.rows, self.vocab)
        again = sp.encode_rows(sp.decode_rows(ds), self.vocab)
        assert np.array_equal(again.ids, ds.ids)
        assert np.array_equal(again.labels, ds.labels)

    def test_oov_spelled_cell_encodes_to_the_oov_id(self):
        vocab = sp.build_vocabulary([["1", sp.OOV_TOKEN], ["0", "a"], ["1", "a"]],
                                    sp.FieldSchema.categorical(1))
        ds = sp.encode_rows([["1", sp.OOV_TOKEN], ["0", "a"], ["1", "a"], ["0", "b"]], vocab)
        assert ds.ids[:, 0].tolist() == [1, 0, 0, 1]
        again = sp.encode_rows(sp.decode_rows(ds), vocab)
        assert np.array_equal(again.ids, ds.ids)

    def test_non_finite_numeric_cells_are_their_own_tokens(self):
        rows = [["1", "inf", "a"], ["0", "-inf", "a"], ["1", "1e400", "b"], ["0", "nan", "b"],
                ["1", "9", "a"]]
        vocab = sp.build_vocabulary(rows, self.schema)
        assert list(vocab.tables[0]) == ["inf", "-inf", "1e400", "nan", "4"]
        ds = sp.encode_rows(rows, vocab)
        assert ds.ids[:, 0].tolist() == [0, 1, 2, 3, 4]
        again = sp.encode_rows(sp.decode_rows(ds), vocab)
        assert np.array_equal(again.ids, ds.ids)
        assert np.array_equal(again.labels, ds.labels)

    def test_decode_uses_representative_numeric_values(self):
        ds = sp.encode_rows([["1", "9", "a"]], self.vocab)
        decoded = sp.decode_rows(ds)[0]
        # bucket 4 decodes to 2**4; re-bucketing 16 gives bucket 4 again
        assert decoded[1] == "16"
        assert sp.bucketize_numeric(16) == "4"

    def test_token_of_round_trip(self):
        for fid in range(self.vocab.n):
            field = int(self.vocab.feature_fields[fid])
            table = self.vocab.tables[field]
            local = table.get(self.vocab.token_of(fid), len(table))
            assert self.vocab.offsets[field] + local == fid

    def test_token_of_out_of_range(self):
        with pytest.raises(sp.DataError, match="out of range"):
            self.vocab.token_of(self.vocab.n)

    def test_fingerprint_tracks_content(self):
        ds = sp.encode_rows(self.rows, self.vocab)
        same = sp.encode_rows(self.rows, self.vocab)
        flipped = sp.encode_rows(self.rows[::-1], self.vocab)
        assert ds.fingerprint() == same.fingerprint()
        assert ds.fingerprint() != flipped.fingerprint()


class TestDatasetValidation:
    def small(self):
        schema = sp.FieldSchema.categorical(2)
        vocab = sp.Vocabulary(schema, ({"a": 0}, {"x": 0}), 0)
        ids = np.array([[0, 2], [1, 3]], dtype=np.int64)
        labels = np.array([1, 0], dtype=np.int64)
        return vocab, ids, labels

    def test_valid_dataset_builds(self):
        vocab, ids, labels = self.small()
        ds = sp.dataset_from_encoded(ids, labels, vocab)
        assert len(ds) == 2
        assert ds.labels[1] == 0

    def test_id_outside_field_block(self):
        vocab, ids, labels = self.small()
        ids[0, 1] = 0  # field 1 ids start at offset 2
        with pytest.raises(sp.DataError, match="outside its field's block"):
            sp.dataset_from_encoded(ids, labels, vocab)

    def test_bad_labels(self):
        vocab, ids, labels = self.small()
        labels[0] = 2
        with pytest.raises(sp.DataError, match="labels must be 0 or 1"):
            sp.dataset_from_encoded(ids, labels, vocab)

    def test_empty_rejected(self):
        vocab, ids, labels = self.small()
        with pytest.raises(sp.DataError, match="empty dataset"):
            sp.dataset_from_encoded(ids[:0], labels[:0], vocab)

    def test_subsample_bounds_and_determinism(self):
        rows = [["0", "a", "x"]] * 30 + [["1", "b", "y"]] * 30
        schema = sp.FieldSchema.categorical(2)
        vocab = sp.build_vocabulary(rows, schema)
        ds = sp.encode_rows(rows, vocab)
        half = ds.subsample(0.5, seed=3)
        again = ds.subsample(0.5, seed=3)
        other = ds.subsample(0.5, seed=4)
        assert len(half) == 30
        assert np.array_equal(half.ids, again.ids)
        assert not np.array_equal(half.ids, other.ids)
        assert ds.subsample(1.0, seed=0) is ds
        with pytest.raises(sp.DataError, match="fraction"):
            ds.subsample(0.0, seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(sp.DataError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
                ds.subsample(0.5, seed=seed)
        assert len(ds.subsample(0.5, seed=2**64 - 1)) == 30


class TestCsvFiles:
    def test_csv_round_trip(self, tmp_path):
        rows = [["1", "a", "7"], ["0", "b", ""]]
        path = tmp_path / "data.csv"
        sp.write_csv_rows(path, rows)
        assert sp.read_csv_rows(path) == rows

    def test_load_csv_dataset(self, tmp_path):
        rows = [["1", "a", "9"], ["0", "b", "9"], ["0", "a", "1024"]]
        path = tmp_path / "data.csv"
        sp.write_csv_rows(path, rows)
        schema = sp.FieldSchema(("cat", "num"), (sp.CATEGORICAL, sp.NUMERIC_BUCKETED))
        rows = sp.read_csv_rows(path)
        vocab = sp.build_vocabulary(rows, schema)
        ds = sp.encode_rows(rows, vocab)
        assert len(ds) == 3
        assert list(vocab.tables[1]) == ["4", "10"]


@st.composite
def encoded_rows(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=m, max_size=m))
    n_rows = draw(st.integers(min_value=1, max_value=20))
    tokens = [[f"t{k}" for k in range(size)] for size in sizes]
    rows = []
    for _ in range(n_rows):
        label = draw(st.integers(min_value=0, max_value=1))
        rows.append([str(label)] + [draw(st.sampled_from(tokens[j])) for j in range(m)])
    return m, rows


class TestDatasetProperties:
    @given(encoded_rows())
    @settings(max_examples=40, deadline=None)
    def test_one_active_feature_per_field(self, case):
        m, rows = case
        vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(m))
        ds = sp.encode_rows(rows, vocab)
        off = vocab.offsets
        for row in ds.ids:
            assert row.shape == (m,)
            for j, fid in enumerate(row):
                assert off[j] <= fid < off[j + 1]

    @given(encoded_rows())
    @settings(max_examples=40, deadline=None)
    def test_frequency_conservation(self, case):
        m, rows = case
        vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(m))
        ds = sp.encode_rows(rows, vocab)
        assert ds.frequencies.sum() == m * len(rows)
        off = vocab.offsets
        for j in range(m):
            assert ds.frequencies[off[j]:off[j + 1]].sum() == len(rows)


FIELD_KINDS = (sp.CATEGORICAL, sp.NUMERIC_BUCKETED)
NUMERIC_CELLS = ("2", "2.5", "-3", "9", "1024", "inf", "-inf", "1e400", "nan", "abc", "")
CATEGORICAL_CELLS = ("a", "b", "c", "2", "")
LABEL_CELLS = ("0", "1", "1.0", " 0")


@st.composite
def raw_row_sets(draw):
    """A schema of both field kinds and two raw row sets over it: cells from
    small pools with empty, <oov>-spelled and non-finite numeric text, and
    now and then one row with a bad label or a wrong width."""
    kinds = draw(st.lists(st.sampled_from(FIELD_KINDS), min_size=1, max_size=4))
    schema = sp.FieldSchema(tuple(f"f{j}" for j in range(len(kinds))), tuple(kinds))
    cells = [
        st.sampled_from((NUMERIC_CELLS if kind == sp.NUMERIC_BUCKETED else CATEGORICAL_CELLS)
                        + (sp.OOV_TOKEN,))
        for kind in kinds
    ]
    row = st.tuples(st.sampled_from(LABEL_CELLS), *cells).map(list)

    def row_set():
        rows = draw(st.lists(row, max_size=12))
        fault = draw(st.sampled_from((None, None, None, "label", "width")))
        if fault and rows:
            k = draw(st.integers(0, len(rows) - 1))
            if fault == "label":
                rows[k][0] = draw(st.sampled_from(("2", "", "yes")))
            else:
                rows[k] = rows[k][:-1] if draw(st.booleans()) else rows[k] + ["extra"]
        return rows

    return schema, row_set(), row_set()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except sp.DataError as exc:
        return str(exc)


class TestColumnTokenizer:
    """build_vocabulary and encode_rows against the row-by-row loops they
    replaced (tests/helpers.py): the same bytes, ids, labels and errors."""

    @given(raw_row_sets(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_row_loop(self, case, min_count):
        schema, build_rows, other_rows = case
        vocab = _outcome(sp.build_vocabulary, build_rows, schema, min_count)
        expected = _outcome(reference_build_vocabulary, build_rows, schema, min_count)
        if isinstance(expected, str):
            assert vocab == expected
            return
        assert vocab.to_bytes() == expected.to_bytes()
        for rows in (build_rows, other_rows):
            ds = _outcome(sp.encode_rows, rows, vocab)
            want = _outcome(reference_encode_rows, rows, vocab)
            if isinstance(want, str):
                assert ds == want
            else:
                assert np.array_equal(ds.ids, want.ids)
                assert np.array_equal(ds.labels, want.labels)

    @pytest.mark.parametrize(
        "config",
        [
            sp.SyntheticConfig(fields=2, tokens_per_field=(3, 7), rows=50, seed=5),
            sp.SyntheticConfig(fields=4, tokens_per_field=(400, 30, 2, 1000), rows=3000, seed=11),
        ],
        ids=["small", "wide"],
    )
    def test_synthetic_rows_match_the_row_loop(self, config):
        assert sp.synthetic_rows(config) == reference_synthetic_rows(config)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(fields=0, tokens_per_field=()), "fields must be at least 1"),
            (dict(fields=2, tokens_per_field=(5,)), "tokens_per_field"),
            (dict(fields=2, tokens_per_field=(5, 1)), "at least 2 tokens"),
            (dict(fields=1, tokens_per_field=(5,), rows=0), "rows"),
            (dict(fields=1, tokens_per_field=(5,), seed=-1), "seed must be non-negative, got -1"),
        ],
    )
    def test_synthetic_config_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            sp.SyntheticConfig(**kwargs)


class TestToyCorpus:
    def test_toy_rows_are_pinned_to_the_expit_reference(self):
        """The acceptance criteria and the toy benchmark workload are built
        on this corpus, so its labels must not move by a rounding ulp."""
        for seed in range(64):
            assert sp.toy_rows(seed) == reference_toy_rows(seed)
