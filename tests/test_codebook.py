import numpy as np
import pytest

import shapprune as sp
from shapprune.codebook import (
    codebook_from_section,
    codebook_section_payload,
    fields_from_offsets,
)
from shapprune.serialization import CheckpointError

from helpers import codebook_objective


def one_field_setup():
    """Single field, two features with embeddings [1,0] and [5,4], observed
    once and three times respectively."""
    vocab = sp.Vocabulary(sp.FieldSchema.categorical(1), ({"a": 0},), 0)
    ids = np.array([[0], [1], [1], [1]], dtype=np.int64)
    labels = np.array([0, 1, 0, 1], dtype=np.int64)
    ds = sp.dataset_from_encoded(ids, labels, vocab)
    values = np.array([[1.0, 0.0], [5.0, 4.0]])
    model = sp.Model(
        sp.EmbeddingTable(values, vocab.offsets.copy()),
        sp.BackboneParams(sp.FM, 0.0, np.zeros(2), []),
        vocab,
    )
    return model, ds


class TestComputeCodebook:
    def test_hand_worked_weighted_mean(self):
        model, ds = one_field_setup()
        codebook = sp.compute_codebook(model, ds)
        # (1 * [1,0] + 3 * [5,4]) / 4 = [4, 3]
        assert np.array_equal(codebook.values, np.array([[4.0, 3.0]]))

    def test_weighted_mean_matches_direct_computation(self, toy_corpus, toy_model):
        _, _, vocab, _ = toy_corpus
        cols = [np.arange(int(vocab.offsets[j]), int(vocab.offsets[j + 1]))
                for j in range(vocab.field_count)]
        rows = [[int(c[k % len(c)]) for c in cols] for k in range(6)]
        ids = np.array(rows, dtype=np.int64)
        ds_uniform = sp.dataset_from_encoded(ids, np.zeros(len(ids), np.int64), vocab)
        codebook = sp.compute_codebook(toy_model, ds_uniform)
        for j in range(vocab.field_count):
            lo, hi = int(vocab.offsets[j]), int(vocab.offsets[j + 1])
            freq = ds_uniform.frequencies[lo:hi].astype(float)
            expected = freq @ toy_model.embedding.values[lo:hi] / freq.sum()
            assert np.allclose(codebook.values[j], expected, atol=1e-14)

    def test_fingerprint_tracks_frequencies(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        half = sp.dataset_from_encoded(ds.ids[:20], ds.labels[:20], vocab)
        a = sp.compute_codebook(toy_model, ds)
        b = sp.compute_codebook(toy_model, half)
        assert a.frequency_fingerprint != b.frequency_fingerprint


class TestImpute:
    def test_zero_padding(self, toy_model):
        values = toy_model.embedding.values
        flags = np.zeros(values.shape, bool)
        flags[0, :] = True
        flags[3, 1] = True
        out = sp.impute(values, toy_model.embedding.offsets, flags, sp.ZERO)
        assert np.all(out[0] == 0.0)
        assert out[3, 1] == 0.0
        assert np.array_equal(out[~flags], values[~flags])

    def test_codebook_padding(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        flags = np.ones(toy_model.embedding.values.shape, bool)
        table = toy_model.embedding
        out = sp.impute(table.values, table.offsets, flags, codebook)
        expected = codebook.values[vocab.feature_fields]
        assert np.array_equal(out, expected)

    def test_empty_mask_changes_nothing(self, toy_model):
        flags = np.zeros(toy_model.embedding.values.shape, bool)
        table = toy_model.embedding
        out = sp.impute(table.values, table.offsets, flags, sp.ZERO)
        assert np.array_equal(out, table.values)
        assert out is not table.values

    def test_unknown_padding_rejected(self, toy_model):
        flags = np.zeros(toy_model.embedding.values.shape, bool)
        with pytest.raises(ValueError, match="padding"):
            sp.impute(toy_model.embedding.values, toy_model.embedding.offsets, flags, "median")


class TestObjective:
    def test_zero_budget_is_zero(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        assert codebook_objective(toy_model, ds, codebook, 0.0) == 0.0

    def test_deterministic_for_a_seed(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        a = codebook_objective(toy_model, ds, codebook, 0.5, n_samples=500, seed=3)
        b = codebook_objective(toy_model, ds, codebook, 0.5, n_samples=500, seed=3)
        assert a == b

    def test_identical_rows_make_the_objective_vanish(self):
        vocab = sp.Vocabulary(
            sp.FieldSchema.categorical(2), ({"a": 0}, {"b": 0}), 0
        )
        values = np.array([[0.5, -1.0], [0.5, -1.0], [2.0, 0.0], [2.0, 0.0]])
        model = sp.Model(
            sp.EmbeddingTable(values, vocab.offsets.copy()),
            sp.BackboneParams(sp.FM, 0.0, np.zeros(4), []),
            vocab,
        )
        ids = np.array([[0, 2], [1, 3]], dtype=np.int64)
        ds = sp.dataset_from_encoded(ids, np.array([0, 1], np.int64), vocab)
        codebook = sp.compute_codebook(model, ds)
        assert np.array_equal(codebook.values, np.array([[0.5, -1.0], [2.0, 0.0]]))
        assert codebook_objective(model, ds, codebook, 0.5, n_samples=400, seed=0) == 0.0

    def test_closed_form_beats_perturbations_under_shared_draws(
        self, toy_model, toy_corpus
    ):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        best = codebook_objective(toy_model, ds, codebook, 0.5, n_samples=3000, seed=11)
        rng = np.random.default_rng(7)
        for _ in range(20):
            delta = rng.normal(0.0, 0.05, codebook.values.shape)
            rival = sp.Codebook(codebook.values + delta, codebook.frequency_fingerprint)
            other = codebook_objective(toy_model, ds, rival, 0.5, n_samples=3000, seed=11)
            assert other >= best

    def test_closed_form_beats_zero_codebook(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        zero = sp.Codebook(np.zeros_like(codebook.values))
        best = codebook_objective(toy_model, ds, codebook, 0.5, n_samples=3000, seed=2)
        worse = codebook_objective(toy_model, ds, zero, 0.5, n_samples=3000, seed=2)
        assert worse > best


class TestCodebookSections:
    def test_section_round_trip(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        back = codebook_from_section(codebook_section_payload(codebook), 3, 3)
        assert np.array_equal(back.values, codebook.values)
        assert back.frequency_fingerprint == codebook.frequency_fingerprint

    def test_shape_mismatch_rejected(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        with pytest.raises(CheckpointError, match="codebook shape"):
            codebook_from_section(codebook_section_payload(codebook), 4, 3)

    def test_fields_from_offsets(self):
        offsets = np.array([0, 2, 5], dtype=np.int64)
        assert fields_from_offsets(offsets).tolist() == [0, 0, 1, 1, 1]
