import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapprune as sp
from shapprune.serialization import SECTION_KEPT, CheckpointError

from helpers import (
    flat_fm_model,
    lexsort_prune_order,
    pairwise_auc_reference,
    pruned_sections,
    reference_kept,
    traced_peak,
)


class TestParameterBudget:
    def test_rounding_half_to_even(self):
        # 0.5 * 21 = 10.5 rounds to the even neighbor
        assert sp.parameter_budget(0.5, 7, 3) == 10
        assert sp.parameter_budget(0.5, 1, 1) == 0
        assert sp.parameter_budget(0.5, 3, 1) == 2

    def test_extremes(self):
        assert sp.parameter_budget(0.0, 7, 3) == 0
        assert sp.parameter_budget(1.0, 7, 3) == 21

    def test_plain_cases(self):
        assert sp.parameter_budget(0.8, 7, 3) == 17
        assert sp.parameter_budget(0.95, 7, 3) == 20

    def test_range_checked(self):
        with pytest.raises(ValueError, match="sparsity"):
            sp.parameter_budget(-0.1, 4, 4)
        with pytest.raises(ValueError, match="sparsity"):
            sp.parameter_budget(1.5, 4, 4)


class TestPrune:
    def test_budget_is_exact(self, toy_model, toy_exact_scores):
        for t in (0.0, 0.5, 0.8, 0.95, 1.0):
            pruned = sp.prune(toy_model, toy_exact_scores, t)
            expected = sp.parameter_budget(t, 7, 3)
            assert pruned.kept_count == 21 - expected
            assert pruned.prune_mask().count == expected

    def test_threshold_property(self, toy_model, toy_exact_scores):
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5)
        flags = pruned.prune_mask().dense()
        scores = toy_exact_scores.values
        assert scores[flags].max() <= scores[~flags].min()

    def test_kept_values_copied_bit_for_bit(self, toy_model, toy_exact_scores):
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5)
        kept = ~pruned.flags
        assert np.array_equal(
            pruned.effective_values()[kept].view(np.int64),
            toy_model.embedding.values[kept].view(np.int64),
        )

    def test_zero_sparsity_is_bit_exact(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        pruned = sp.prune(toy_model, toy_exact_scores, 0.0)
        dense = sp.predict_proba(toy_model, ds.ids)
        via_pruned = sp.predict_proba_values(
            pruned.effective_values(), pruned.backbone, ds.ids
        )
        assert np.array_equal(dense, via_pruned)

    def test_full_sparsity_with_zero_padding(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        pruned = sp.prune(toy_model, toy_exact_scores, 1.0)
        assert pruned.kept_count == 0
        zeroed = sp.Model(
            sp.EmbeddingTable(
                np.zeros_like(toy_model.embedding.values), toy_model.embedding.offsets
            ),
            toy_model.backbone,
        )
        assert np.array_equal(
            sp.predict_proba_values(pruned.effective_values(), pruned.backbone, ds.ids),
            sp.predict_proba(zeroed, ds.ids),
        )

    def test_monotone_transform_leaves_mask_unchanged(self, toy_model, toy_exact_scores):
        base = sp.prune(toy_model, toy_exact_scores, 0.8)
        shifted = sp.prune(toy_model, 2.0 * toy_exact_scores.values + 5.0, 0.8)
        squashed = sp.prune(toy_model, np.tanh(toy_exact_scores.values), 0.8)
        assert np.array_equal(base.prune_mask().dense(), shifted.prune_mask().dense())
        assert np.array_equal(base.prune_mask().dense(), squashed.prune_mask().dense())

    def test_frequency_breaks_ties_lowest_first(self):
        model, _ = flat_fm_model(3, 2, 2, seed=1)
        scores = np.zeros((model.embedding.n, 2))
        freq = np.array([5, 1, 3, 9, 2, 8], dtype=np.int64)
        pruned = sp.prune(model, scores, 2 / 12, frequencies=freq)
        flags = pruned.prune_mask().dense()
        # both coordinates of the rarest feature (id 1) go first
        assert np.all(flags[1])
        assert flags.sum() == 2

    def test_row_and_column_tie_break(self):
        model, _ = flat_fm_model(2, 2, 2, seed=2)
        scores = np.zeros((model.embedding.n, 2))
        pruned = sp.prune(model, scores, 1 / 8)
        flags = pruned.prune_mask().dense()
        # all else equal, the largest row index and largest column go first
        assert flags[3, 1]
        assert flags.sum() == 1

    def test_deterministic_given_identical_inputs(self, toy_model, toy_exact_scores):
        a = sp.prune(toy_model, toy_exact_scores, 0.6)
        b = sp.prune(toy_model, toy_exact_scores, 0.6)
        assert a.to_bytes() == b.to_bytes()

    def test_validation(self, toy_model, toy_exact_scores):
        with pytest.raises(ValueError, match="score matrix shape"):
            sp.prune(toy_model, np.zeros((2, 2)), 0.5)
        with pytest.raises(ValueError, match="padding"):
            sp.prune(toy_model, toy_exact_scores, 0.5, padding="mean")
        with pytest.raises(ValueError, match="requires a codebook"):
            sp.prune(toy_model, toy_exact_scores, 0.5, padding=sp.CODEBOOK)
        with pytest.raises(ValueError, match="sparsity"):
            sp.prune(toy_model, toy_exact_scores, 1.2)


    @pytest.mark.parametrize("shape", [(6,), (8,), (7, 1)])
    def test_frequencies_need_one_count_per_row(
        self, toy_model, toy_exact_scores, toy_corpus, shape
    ):
        _, _, _, ds = toy_corpus
        freq = np.ones(shape, np.int64)
        with pytest.raises(ValueError, match="frequencies"):
            sp.prune(toy_model, toy_exact_scores, 0.5, frequencies=freq)
        with pytest.raises(ValueError, match="frequencies"):
            sp.prune_curve(toy_model, toy_exact_scores, (0.5,), ds, frequencies=freq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, toy_model, toy_exact_scores, toy_corpus, bad):
        _, _, _, ds = toy_corpus
        scores = toy_exact_scores.values.copy()
        scores[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            sp.prune(toy_model, scores, 0.5)
        with pytest.raises(ValueError, match="finite"):
            sp.prune_curve(toy_model, scores, (0.5,), ds)

    def test_pruning_allocates_no_ranking_keys(self):
        # The ranking holds a tie order and the sorted scores (2 table
        # sizes), and a cut adds its tie group and the imputed table (about
        # 3.2 at peak); n * d key arrays would exceed this.
        model, ds = flat_fm_model(6, 400, 16, seed=1)
        n, d = model.embedding.values.shape
        scores = np.random.default_rng(0).normal(size=(n, d))
        peak = traced_peak(lambda: sp.prune(model, scores, 0.8, frequencies=ds.frequencies))
        table_bytes = n * d * 8
        assert peak < 4.5 * table_bytes, f"peak {peak / table_bytes:.2f} table sizes"


def tied_scores(rng, n, d):
    """Scores with heavy zero ties, +-1e-20 entries and negative zeros."""
    scores = rng.normal(size=(n, d))
    scores[rng.random(n) < 0.6] = 0.0
    tiny = rng.random((n, d)) < 0.1
    scores[tiny] = rng.choice([-1e-20, 1e-20], size=int(tiny.sum()))
    scores[rng.random((n, d)) < 0.1] = -0.0
    return scores


class TestRanking:
    @pytest.mark.parametrize("freq_kind", ["random", "tied", "zero", "none"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_four_key_lexsort(self, seed, freq_kind):
        model, _ = flat_fm_model(4, 25, 6, seed=seed)
        n, d = model.embedding.values.shape
        rng = np.random.default_rng(seed)
        scores = tied_scores(rng, n, d)
        frequencies = {
            "random": rng.integers(0, 50, n),
            "tied": rng.integers(0, 3, n),
            "zero": np.zeros(n, np.int64),
            "none": None,
        }[freq_kind]
        order = lexsort_prune_order(scores, frequencies)
        for t in (0.1, 0.3, 0.5, 0.8, 0.95):
            expected = np.zeros(n * d, bool)
            expected[order[: sp.parameter_budget(t, n, d)]] = True
            pruned = sp.prune(model, scores, t, frequencies=frequencies)
            assert np.array_equal(pruned.prune_mask().dense(), expected.reshape(n, d))

    @given(
        seed=st.integers(0, 2**32 - 1),
        fields=st.integers(1, 4),
        field_size=st.integers(2, 6),
        d=st.integers(1, 5),
        t1=st.floats(0.0, 1.0),
        t2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_pruned_sets_nest(self, seed, fields, field_size, d, t1, t2):
        model, _ = flat_fm_model(fields, field_size, d, seed=0)
        n = model.embedding.n
        rng = np.random.default_rng(seed)
        scores = tied_scores(rng, n, d)
        frequencies = rng.integers(0, 3, n)
        low, high = sorted((t1, t2))
        small = sp.prune(model, scores, low, frequencies=frequencies).prune_mask().dense()
        large = sp.prune(model, scores, high, frequencies=frequencies).prune_mask().dense()
        assert not (small & ~large).any()


class TestPrunedScoring:
    @pytest.mark.parametrize("t", [0.3, 0.7])
    def test_zero_padding_matches_manual_imputation(
        self, toy_model, toy_exact_scores, toy_corpus, t
    ):
        _, _, _, ds = toy_corpus
        pruned = sp.prune(toy_model, toy_exact_scores, t)
        flags = pruned.prune_mask().dense()
        manual = np.where(flags, 0.0, toy_model.embedding.values)
        assert np.array_equal(pruned.effective_values(), manual)
        assert np.array_equal(
            sp.predict_proba_values(pruned.effective_values(), pruned.backbone, ds.ids),
            sp.predict_proba_values(manual, toy_model.backbone, ds.ids),
        )

    def test_codebook_padding_matches_manual_imputation(
        self, toy_model, toy_exact_scores, toy_corpus
    ):
        _, _, vocab, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        pruned = sp.prune(
            toy_model, toy_exact_scores, 0.7, padding=sp.CODEBOOK, codebook=codebook
        )
        flags = pruned.prune_mask().dense()
        expanded = codebook.values[vocab.feature_fields]
        manual = np.where(flags, expanded, toy_model.embedding.values)
        assert np.array_equal(pruned.effective_values(), manual)

    def test_zero_padding_drops_the_codebook(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5, padding=sp.ZERO, codebook=codebook)
        assert pruned.codebook is None


class TestPrunedSerialization:
    def test_round_trip_byte_identical(self, toy_model, toy_exact_scores, tmp_path):
        pruned = sp.prune(toy_model, toy_exact_scores, 0.6)
        path = tmp_path / "pruned.shvr"
        pruned.save(path)
        back = sp.load_pruned(path)
        assert back.to_bytes() == pruned.to_bytes()
        assert np.array_equal(back.effective_values(), pruned.effective_values())
        assert back.sparsity == 0.6
        assert back.padding == sp.ZERO

    def test_codebook_survives_the_trip(self, toy_model, toy_exact_scores, toy_corpus, tmp_path):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        pruned = sp.prune(
            toy_model, toy_exact_scores, 0.8, padding=sp.CODEBOOK, codebook=codebook
        )
        path = tmp_path / "pruned.shvr"
        pruned.save(path)
        back = sp.load_pruned(path)
        assert back.padding == sp.CODEBOOK
        assert np.array_equal(back.codebook.values, codebook.values)
        assert np.array_equal(back.effective_values(), pruned.effective_values())

    def test_missing_kept_section(self):
        from shapprune import serialization as ser

        w = ser.ByteWriter()
        w.u8(ser.TAG_PRUNED)
        w.u8(ser.TAG_MODEL_FM)
        w.u64(1)
        w.u64(2)
        w.u64(1)
        w.array(np.array([0, 2], dtype="<u8"))
        w.u8(0)
        w.f64(0.5)
        w.array(np.zeros(2, dtype="<f8"))
        w.f64(0.0)
        w.u8(0)
        with pytest.raises(CheckpointError, match="missing its kept-entries section"):
            sp.PrunedModel.from_bytes(ser.seal(w.getvalue()))

    @staticmethod
    def crafted(offsets, d, backbone_tag=1, pad_code=0, bitmap=None, value_count=None, csr=False):
        """CRC-valid FM pruned body whose rows each keep column 0, with one
        field optionally overridden; csr=True writes the retired CSR section
        (tag 3) of files from before the kept section instead."""
        from shapprune import serialization as ser

        n = int(offsets[-1])
        bitmap = np.full(n, 0x80) if bitmap is None else np.asarray(bitmap)
        value_count = n if value_count is None else value_count
        w = ser.ByteWriter()
        w.u8(ser.TAG_PRUNED)
        w.u8(backbone_tag)
        w.u64(offsets.shape[0] - 1)
        w.u64(n)
        w.u64(d)
        w.array(offsets.astype("<u8"))
        w.u8(pad_code)
        w.f64(2 / 3)  # columns 1 and 2 of every row
        w.array(np.zeros(n, dtype="<f8"))
        w.f64(0.0)
        w.u8(0)
        if csr:
            w.section(3, np.arange(n + 1, dtype="<u8").tobytes()
                      + np.zeros(n, "<u4").tobytes() + np.ones(n, "<f8").tobytes())
        else:
            w.section(ser.SECTION_KEPT, bitmap.astype(np.uint8).tobytes()
                      + np.ones(value_count, dtype="<f8").tobytes())
        return ser.seal(w.getvalue())

    @pytest.mark.parametrize(
        "bad",
        [
            {"backbone_tag": 7},
            {"pad_code": 9},
            {"bitmap": [0x80] * 6 + [0x90]},
            {"value_count": 8},
            {"csr": True},
        ],
        ids=["backbone_tag", "padding_code", "padding_bits_set", "value_count_mismatch",
             "retired_csr_section"],
    )
    def test_malformed_file_is_a_checkpoint_error(self, bad, toy_corpus, tmp_path):
        from shapprune.cli import main

        rows, _, vocab, _ = toy_corpus
        sp.PrunedModel.from_bytes(self.crafted(vocab.offsets, 3))  # well-formed baseline
        path = tmp_path / "bad.shvr"
        path.write_bytes(self.crafted(vocab.offsets, 3, **bad))
        with pytest.raises(CheckpointError):
            sp.load_pruned(path)
        vocab.save(tmp_path / "toy.vocab")
        sp.write_csv_rows(tmp_path / "toy.csv", rows)
        argv = ["eval", "--model", str(path), "--vocab", str(tmp_path / "toy.vocab"),
                "--data", str(tmp_path / "toy.csv")]
        assert main(argv) == 1

    def test_wrong_kind(self, toy_model, tmp_path):
        path = tmp_path / "model.shvr"
        sp.save_model(toy_model, path)
        with pytest.raises(CheckpointError, match="does not hold a pruned model"):
            sp.load_pruned(path)


def _with_kept_section(blob, kept):
    """blob with its kept section payload replaced by kept and the CRC
    recomputed. When kept holds a whole bitmap, the header sparsity becomes
    the share of coordinates that bitmap prunes, so a well-formed section
    makes a consistent file; every other byte stays as written."""
    from shapprune import serialization as ser

    body = bytearray(blob[len(ser.MAGIC) + 4 : -4])
    m, n, d = struct.unpack_from("<3Q", body, 2)  # after the pruned and kind tags
    bitmap_bytes = n * ((d + 7) // 8)
    if len(kept) >= bitmap_bytes:
        pruned = n * d - sum(bin(b).count("1") for b in kept[:bitmap_bytes])
        struct.pack_into("<d", body, 2 + 8 * 3 + 8 * (m + 1) + 1, pruned / (n * d))
    sections = pruned_sections(blob)
    w = ser.ByteWriter()
    w.raw(body[: len(body) - sum(9 + len(payload) for _, payload in sections)])
    for tag, payload in sections:
        w.section(tag, kept if tag == ser.SECTION_KEPT else payload)
    return ser.seal(w.getvalue())


def _flags(pattern, n, d):
    """A bool (n, d) pruned-flag array of the named pattern."""
    rng = np.random.default_rng(5)
    if pattern == "empty_and_full_rows":
        flags = np.zeros((n, d), bool)
        flags[::3] = True  # emptied rows; rows 1, 4, ... partial; rows 2, 5, ... full
        flags[1::3] = rng.random((len(range(1, n, 3)), d)) < 0.5
        return flags
    fraction = {"nothing_pruned": 0.0, "everything_pruned": 1.0, "random": 0.6}[pattern]
    return rng.random((n, d)) < fraction


class TestKeptCodec:
    """to_bytes writes the kept section a bit-by-bit reference sets, and
    from_bytes reads back the imputed table bit for bit."""

    @pytest.mark.parametrize("padding", [sp.ZERO, sp.CODEBOOK])
    @pytest.mark.parametrize(
        "pattern", ["nothing_pruned", "everything_pruned", "empty_and_full_rows", "random"]
    )
    def test_matches_reference_encoder(self, pattern, padding):
        model, ds = flat_fm_model(3, 4, 11, seed=7)
        table = model.embedding.values
        table[::2, 1] = -0.0
        offsets = model.embedding.offsets
        flags = _flags(pattern, *table.shape)
        codebook = None
        if padding == sp.CODEBOOK:
            codebook = sp.compute_codebook(model, ds)
            codebook.values[0, 0] = -0.0
        fill = sp.ZERO if codebook is None else codebook
        pruned = sp.PrunedModel(
            flags, sp.impute(table, offsets, flags, fill), offsets, model.backbone, codebook,
            float(flags.mean()),
        )
        blob = pruned.to_bytes()
        assert dict(pruned_sections(blob))[SECTION_KEPT] == reference_kept(flags, table)
        back = sp.PrunedModel.from_bytes(blob)
        assert back.padding == padding
        assert np.array_equal(back.flags, flags)
        assert back.effective_values().tobytes() == sp.impute(table, offsets, flags, fill).tobytes()

    @pytest.mark.parametrize("sparsity", [float("nan"), 7.0, -1.0, 0.5], ids=["nan", "7", "-1", "budget"])
    def test_constructor_refuses_a_sparsity_the_reader_would(self, sparsity):
        # 0.5 is in range, but it prunes 66 of 132 coordinates and the flags
        # prune 77; to_bytes would write a file load_pruned refuses
        model, _ = flat_fm_model(3, 4, 11, seed=7)
        table, offsets = model.embedding.values, model.embedding.offsets
        flags = _flags("random", *table.shape)
        assert flags.size == 132 and np.count_nonzero(flags) == 77
        with pytest.raises(ValueError, match=f"sparsity {sparsity} does not give the flags' 77 pruned"):
            sp.PrunedModel(flags, sp.impute(table, offsets, flags, sp.ZERO), offsets, model.backbone, None, sparsity)


@pytest.fixture(scope="module")
def fuzz_files():
    """A zero- and a codebook-padded pruned file over a 6 x 11 table: two
    bitmap bytes per row, the last with five padding bits."""
    model, ds = flat_fm_model(2, 3, 11, seed=9)
    scores = sp.score_magnitude(model)
    codebook = sp.compute_codebook(model, ds)
    return [
        sp.prune(model, scores, 0.6).to_bytes(),
        sp.prune(model, scores, 0.6, sp.CODEBOOK, codebook).to_bytes(),
    ]


def _well_formed_kept(payload, n=6, d=11):
    """The reader's two rules, spelled out byte by byte: no bit set past
    column d - 1 of any row, and one f64 after the bitmap per set bit."""
    width = (d + 7) // 8
    if len(payload) < n * width:
        return False
    padding = (1 << (8 * width - d)) - 1
    if any(payload[(row + 1) * width - 1] & padding for row in range(n)):
        return False
    return len(payload) == n * width + 8 * sum(bin(b).count("1") for b in payload[: n * width])


class TestKeptSectionFuzz:
    """A damaged pruned file is refused with a CheckpointError and nothing
    else; a crafted kept section that keeps both rules loads and re-encodes
    to the same bytes."""

    def test_every_truncation_is_refused(self, fuzz_files):
        from shapprune import serialization as ser

        for blob in fuzz_files:
            body = blob[len(ser.MAGIC) + 4 : -4]
            for cut in range(len(body)):
                for damaged in (blob[: len(ser.MAGIC) + 4 + cut], ser.seal(body[:cut])):
                    with pytest.raises(CheckpointError):
                        sp.PrunedModel.from_bytes(damaged)

    @staticmethod
    def check(blob, payload):
        crafted = _with_kept_section(blob, payload)
        if _well_formed_kept(payload):
            assert sp.PrunedModel.from_bytes(crafted).to_bytes() == crafted
        else:
            with pytest.raises(CheckpointError):
                sp.PrunedModel.from_bytes(crafted)

    @given(which=st.integers(0, 1), payload=st.binary(max_size=6 * 2 + 8 * 66 + 16))
    @settings(max_examples=150, deadline=None)
    def test_random_payload(self, fuzz_files, which, payload):
        self.check(fuzz_files[which], payload)

    @given(
        which=st.integers(0, 1),
        bitmap=st.binary(min_size=12, max_size=12),
        clear_padding=st.booleans(),
        extra=st.integers(-9, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_bitmap(self, fuzz_files, which, bitmap, clear_padding, extra, seed):
        # each row's second byte holds columns 8-10 in its top bits, then padding
        columns = bytearray(bitmap)
        columns[1::2] = bytes(b & 0xE0 for b in bitmap[1::2])
        count = max(0, 8 * sum(bin(b).count("1") for b in columns) + extra)
        values = np.random.default_rng(seed).bytes(count)
        self.check(fuzz_files[which], bytes(columns if clear_padding else bitmap) + values)


class TestLayoutCheck:
    """A model and a dataset over different vocabulary layouts are refused,
    not scored through the wrong rows."""

    @staticmethod
    def mismatched():
        """Toy FM over offsets [0, 2, 4, 7] and a dataset over [0, 3, 5, 8]
        whose ids all fall inside the model's 7 rows."""
        schema = sp.FieldSchema.categorical(3)
        model_vocab = sp.Vocabulary(schema, ({"a": 0}, {"c": 0}, {"d": 0, "e": 1}), 0)
        model = sp.init_model(model_vocab, sp.TrainConfig(backbone=sp.FM, dim=2, seed=1))
        vocab = sp.Vocabulary(schema, ({"a": 0, "b": 1}, {"c": 0}, {"d": 0, "e": 1}), 0)
        ids = np.array([[0, 3, 5], [1, 4, 6], [2, 3, 5], [0, 4, 6]])
        ds = sp.dataset_from_encoded(ids, np.array([1, 0, 1, 0]), vocab)
        return model, ds

    @pytest.mark.parametrize(
        "call",
        [
            lambda model, ds: sp.compute_codebook(model, ds),
            lambda model, ds: sp.evaluate(model, ds),
            lambda model, ds: sp.prune_curve(model, sp.score_magnitude(model), [0.5], ds),
            lambda model, ds: sp.train(ds, sp.TrainConfig(backbone=sp.FM, dim=2), init=model),
            lambda model, ds: sp.estimate_shapley(model, ds),
            lambda model, ds: sp.exact_shapley_global(model, ds),
            lambda model, ds: sp.score_taylor(model, ds),
        ],
        ids=[
            "compute_codebook",
            "evaluate",
            "prune_curve",
            "train_init",
            "estimate_shapley",
            "exact_shapley_global",
            "score_taylor",
        ],
    )
    def test_mismatched_layout_is_refused(self, call):
        model, ds = self.mismatched()
        assert model.embedding.n == 7 and (ds.ids < 7).all()  # every lookup is in range
        with pytest.raises(ValueError, match="do not share a vocabulary layout"):
            call(model, ds)


class TestCompression:
    def test_high_sparsity_shrinks_embedding_storage_ten_fold(self):
        model, ds = flat_fm_model(6, 40, 64, seed=3)
        n, d = model.embedding.values.shape
        assert n == 240
        scores = sp.score_magnitude(model)
        pruned = sp.prune(model, scores, 0.95, frequencies=ds.frequencies)
        dense_bytes = n * d * 8
        kept_bytes = len(dict(pruned_sections(pruned.to_bytes()))[SECTION_KEPT])
        assert dense_bytes >= 10 * kept_bytes
        from shapprune.model import model_to_bytes

        assert len(pruned.to_bytes()) < len(model_to_bytes(model))

    def test_file_bytes_strictly_decrease_with_sparsity(self, toy_model, toy_exact_scores):
        sizes = []
        for t in (0.0, 0.5, 0.8, 0.95):
            pruned = sp.prune(toy_model, toy_exact_scores, t)
            sizes.append(len(pruned.to_bytes()))
        assert all(b < a for a, b in zip(sizes, sizes[1:]))


class TestAuc:
    def test_hand_worked_three_quarters(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0.1, 0.4, 0.35, 0.8])
        assert sp.auc_rank(labels, preds) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_and_reversed(self):
        labels = np.array([0, 0, 1, 1])
        assert sp.auc_rank(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
        assert sp.auc_rank(labels, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0

    def test_all_tied_gives_half(self):
        labels = np.array([0, 1, 0, 1])
        assert sp.auc_rank(labels, np.full(4, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_single_class_is_undefined(self):
        assert sp.auc_rank(np.ones(4, np.int64), np.linspace(0, 1, 4)) is None
        assert sp.auc_rank(np.zeros(4, np.int64), np.linspace(0, 1, 4)) is None

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_counting_reference(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, 60)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        preds = np.round(rng.random(60), 1)  # force ties
        assert sp.auc_rank(labels, preds) == pytest.approx(
            pairwise_auc_reference(labels, preds), abs=1e-12
        )


    def test_heavy_ties_match_pair_counting_reference(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 400)
        preds = rng.integers(0, 4, 400) / 4.0  # four tie groups of ~100 values
        assert sp.auc_rank(labels, preds) == pytest.approx(
            pairwise_auc_reference(labels, preds), abs=1e-12
        )


class TestEvaluate:
    def test_dense_model_report(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        report = sp.evaluate(toy_model, ds)
        preds = sp.predict_proba(toy_model, ds.ids)
        assert report.logloss == pytest.approx(
            float(np.mean(sp.log_loss(preds, ds.labels.astype(float)))), abs=1e-15
        )
        assert report.auc == sp.auc_rank(ds.labels, preds)
        assert report.auc is not None

    def test_pruned_model_report(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5)
        report = sp.evaluate(pruned, ds)
        preds = sp.predict_proba_values(pruned.effective_values(), pruned.backbone, ds.ids)
        assert report.logloss == pytest.approx(
            float(np.mean(sp.log_loss(preds, ds.labels.astype(float)))), abs=1e-15
        )

    def test_single_class_dataset_flags_undefined_auc(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        ones = sp.dataset_from_encoded(ds.ids, np.ones(len(ds), np.int64), vocab)
        report = sp.evaluate(toy_model, ones)
        assert report.auc is None

    def test_reports_only_quality(self):
        assert [f.name for f in dataclasses.fields(sp.EvalReport)] == ["logloss", "auc"]

    def test_does_not_encode(self, toy_model, toy_exact_scores, toy_corpus, monkeypatch):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5, sp.CODEBOOK, codebook)

        def refuse(body):
            raise AssertionError("evaluate encoded a model")

        monkeypatch.setattr("shapprune.serialization.seal", refuse)
        for target in (toy_model, pruned):
            assert np.isfinite(sp.evaluate(target, ds).logloss)


class TestCurve:
    def test_rows_and_monotone_budgets(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        rows = sp.prune_curve(toy_model, toy_exact_scores, (0.2, 0.5, 0.9), ds)
        assert [row["sparsity"] for row in rows] == [0.2, 0.5, 0.9]
        kept = [row["kept_params"] for row in rows]
        assert kept == sorted(kept, reverse=True)
        for row in rows:
            assert set(row) == set(sp.CURVE_HEADER)

    def test_rows_equal_evaluating_prune(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        grid = (0.0, 0.2, 0.5, 0.8, 1.0)
        for padding in (sp.ZERO, sp.CODEBOOK):
            args = (padding, codebook, ds.frequencies)
            rows = sp.prune_curve(toy_model, toy_exact_scores, grid, ds, *args)
            for t, row in zip(grid, rows):
                pruned = sp.prune(toy_model, toy_exact_scores, t, *args)
                report = sp.evaluate(pruned, ds)
                assert row["kept_params"] == pruned.kept_count
                assert row["file_bytes"] == len(pruned.to_bytes())
                assert row["logloss"] == report.logloss
                assert row["auc"] == report.auc

    def test_grid_must_strictly_increase(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        with pytest.raises(ValueError, match="strictly increasing"):
            sp.prune_curve(toy_model, toy_exact_scores, (0.5, 0.5), ds)

    def test_csv_format(self, toy_model, toy_exact_scores, toy_corpus, tmp_path):
        _, _, _, ds = toy_corpus
        rows = sp.prune_curve(toy_model, toy_exact_scores, (0.2, 0.9), ds)
        path = tmp_path / "curve.csv"
        sp.write_curve_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(sp.CURVE_HEADER)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0.2"
        assert len(first) == 5

    def test_csv_spells_undefined_auc_as_nan(self, toy_model, toy_exact_scores, toy_corpus, tmp_path):
        _, _, vocab, ds = toy_corpus
        ones = sp.dataset_from_encoded(ds.ids, np.ones(len(ds), np.int64), vocab)
        rows = sp.prune_curve(toy_model, toy_exact_scores, (0.5,), ones)
        path = tmp_path / "curve.csv"
        sp.write_curve_csv(path, rows)
        assert path.read_text().splitlines()[1].split(",")[1] == "nan"


class TestFrequencyBuckets:
    def test_hand_worked_buckets(self):
        model, _ = flat_fm_model(3, 2, 2, seed=4)
        freq = np.array([10, 1, 5, 7, 2, 3], dtype=np.int64)
        scores = np.arange(12, dtype=float).reshape(6, 2)
        scores[1] = [-5, -6]  # feature 1 pruned entirely
        scores[4, 0] = -7  # one coordinate of feature 4
        pruned = sp.prune(model, scores, 3 / 12, frequencies=freq)
        report = sp.frequency_bucket_report(pruned, freq, buckets=3)
        assert [b["features"] for b in report] == [2, 2, 2]
        # buckets sorted by frequency: {1, 4}, {5, 2}, {3, 0}
        assert report[0]["min_frequency"] == 1
        assert report[0]["max_frequency"] == 2
        assert report[0]["mean_kept_dims"] == pytest.approx(0.5)
        assert report[1]["mean_kept_dims"] == pytest.approx(2.0)
        assert report[2]["mean_kept_dims"] == pytest.approx(2.0)

    def test_bucket_sizes_near_equal(self, toy_model, toy_exact_scores, toy_corpus):
        _, _, _, ds = toy_corpus
        pruned = sp.prune(toy_model, toy_exact_scores, 0.5, frequencies=ds.frequencies)
        report = sp.frequency_bucket_report(pruned, ds.frequencies, buckets=3)
        sizes = [b["features"] for b in report]
        assert sum(sizes) == 7
        assert max(sizes) - min(sizes) <= 1
