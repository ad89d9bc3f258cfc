import math
import tracemalloc

import numpy as np
import pytest

import shapprune as sp
from shapprune.model import _row_sums, _touched_rows
from shapprune.serialization import CheckpointError

from helpers import (
    batch_loss_mean,
    dense_adam_train,
    dense_batch_gradients,
    flatten_params,
    naive_predict_proba,
    tiny_random_model,
)

SIGMOID_SIX = 1.0 / (1.0 + math.exp(-6.0))
# the hand model's one row: both fields' fallback ids
HAND_IDS = np.array([[0, 1]], dtype=np.int64)


class TestForward:
    def test_hand_worked_fm(self, hand_model):
        # embeddings [2] and [3], everything else zero: z = 2 * 3 = 6
        assert sp.predict_proba(hand_model, HAND_IDS)[0] == pytest.approx(SIGMOID_SIX, abs=1e-15)

    def test_zero_model_predicts_half(self, hand_model):
        hand_model.embedding.values[...] = 0.0
        assert sp.predict_proba(hand_model, HAND_IDS)[0] == 0.5

    def test_linear_and_bias_enter_the_score(self, hand_model):
        hand_model.backbone.bias = 0.25
        hand_model.backbone.linear[...] = [0.5, -1.0]
        z = 0.25 + 0.5 - 1.0 + 6.0
        assert sp.predict_proba(hand_model, HAND_IDS)[0] == pytest.approx(
            1 / (1 + math.exp(-z)), abs=1e-15
        )

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_reference(self, kind, seed):
        model, ids, _ = tiny_random_model(seed, kind, n_fields=4, field_size=3, dim=3)
        for row in ids:
            assert sp.predict_proba(model, row[None])[0] == pytest.approx(
                naive_predict_proba(model, row), abs=1e-12
            )

    def test_predict_proba_matches_forward_and_chunks(self):
        model, ids, _ = tiny_random_model(5, sp.DEEPFM)
        small = sp.predict_proba(model, ids, batch_size=3)
        big = sp.predict_proba(model, ids, batch_size=10_000)
        assert np.array_equal(small, big)
        for k, row in enumerate(ids):
            assert small[k] == pytest.approx(sp.predict_proba(model, row[None])[0], abs=1e-15)

    def test_probabilities_are_clamped(self, hand_model):
        hand_model.embedding.values[...] = [[200.0], [300.0]]
        assert sp.predict_proba(hand_model, HAND_IDS)[0] == 1.0 - 1e-7


class TestNonFinite:
    def test_embedding_stage_named(self, hand_model):
        hand_model.embedding.values[0, 0] = np.nan
        with pytest.raises(sp.NonFiniteError, match="embedding stage"):
            sp.predict_proba(hand_model, HAND_IDS)

    def test_linear_stage_named(self, hand_model):
        hand_model.backbone.linear[0] = np.inf
        with pytest.raises(sp.NonFiniteError, match="linear stage"):
            sp.predict_proba(hand_model, HAND_IDS)

    def test_mlp_stage_named(self):
        model, ids, _ = tiny_random_model(0, sp.DEEPFM)
        model.backbone.layers[0][0][0, 0] = np.nan
        with pytest.raises(sp.NonFiniteError, match="mlp stage"):
            sp.predict_proba(model, ids[:1])


class TestLogLoss:
    def test_half_is_ln_two(self):
        assert sp.log_loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-15)
        assert sp.log_loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_wrong_is_clamped(self):
        # p = 0 against label 1 clamps to exactly 1e-7, giving -log(1e-7)
        assert sp.log_loss(0.0, 1) == pytest.approx(16.118095650958319, abs=1e-12)
        # the mirrored case goes through 1 - 1e-7, which is not exactly
        # representable, so only relative agreement is expected
        assert sp.log_loss(1.0, 0) == pytest.approx(16.118095650958319, rel=1e-9)

    def test_confident_right_is_small(self):
        assert sp.log_loss(1.0, 1) == pytest.approx(1e-7, rel=1e-6)

    def test_vectorized(self):
        out = sp.log_loss(np.array([0.5, 0.9]), np.array([1, 1]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(math.log(2.0))
        assert out[1] == pytest.approx(-math.log(0.9))

    def test_clamp_probability(self):
        clamped = sp.clamp_probability(np.array([-1.0, 0.5, 2.0]))
        assert clamped.tolist() == [1e-7, 0.5, 1.0 - 1e-7]


class TestBackward:
    def test_bias_gradient_zero_model(self, hand_model):
        hand_model.embedding.values[...] = 0.0
        _, grads = dense_batch_gradients(
            hand_model.embedding.values, hand_model.backbone, HAND_IDS, np.array([1])
        )
        # p = 0.5, label 1: dL/dz = p - y = -0.5, and dz/db = 1
        assert grads.bias == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_central_differences(self, kind, seed):
        model, ids, labels = tiny_random_model(seed, kind, n_fields=3, field_size=2, dim=2)
        _, grads = dense_batch_gradients(model.embedding.values, model.backbone, ids[:1], labels[:1])
        flat_grad = np.concatenate(
            [grads.embedding.ravel(), grads.linear.ravel(), [grads.bias]]
            + [g.ravel() for pair in grads.layers for g in pair]
        )
        theta, write_back = flatten_params(model)
        h = 1e-6
        for k in range(theta.size):
            bumped = theta.copy()
            bumped[k] = theta[k] + h
            write_back(bumped)
            up = sp.log_loss(sp.predict_proba(model, ids[:1])[0], labels[0])
            bumped[k] = theta[k] - h
            write_back(bumped)
            down = sp.log_loss(sp.predict_proba(model, ids[:1])[0], labels[0])
            write_back(theta)
            numeric = (up - down) / (2 * h)
            assert flat_grad[k] == pytest.approx(numeric, abs=5e-7)

    def test_untouched_rows_have_zero_gradient(self):
        model, ids, labels = tiny_random_model(6, sp.FM, field_size=4)
        _, grads = dense_batch_gradients(model.embedding.values, model.backbone, ids[:1], labels[:1])
        touched = set(int(i) for i in ids[0])
        for row in range(model.embedding.n):
            if row not in touched:
                assert np.all(grads.embedding[row] == 0.0)
                assert grads.linear[row] == 0.0


class TestInitAndConfig:
    def test_init_is_deterministic(self, toy_corpus):
        _, _, vocab, _ = toy_corpus
        config = sp.TrainConfig(backbone=sp.DEEPFM, dim=4, hidden=(5,), seed=11)
        a = sp.init_model(vocab, config)
        b = sp.init_model(vocab, config)
        assert np.array_equal(a.embedding.values, b.embedding.values)
        for (wa, ba), (wb, bb) in zip(a.backbone.layers, b.backbone.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_init_ranges(self, toy_corpus):
        _, _, vocab, _ = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=16, seed=0)
        model = sp.init_model(vocab, config)
        bound = 1.0 / math.sqrt(16)
        assert np.all(np.abs(model.embedding.values) <= bound)
        assert np.all(model.backbone.linear == 0.0)
        assert model.backbone.bias == 0.0
        assert model.backbone.layers == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown backbone"):
            sp.TrainConfig(backbone="wide-and-deep")
        with pytest.raises(ValueError, match="dim"):
            sp.TrainConfig(dim=0)
        with pytest.raises(ValueError, match="hidden"):
            sp.TrainConfig(backbone=sp.DEEPFM, hidden=(8, 0))


class TestTraining:
    def separable(self):
        rows = [["1", "a", "x"]] * 12 + [["0", "b", "y"]] * 12
        vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(2))
        return sp.encode_rows(rows, vocab)

    def test_loss_decreases_on_separable_data(self):
        ds = self.separable()
        config = sp.TrainConfig(backbone=sp.FM, dim=2, epochs=40, batch_size=8,
                                learning_rate=5e-2, seed=0)
        seen = []
        model = sp.train(ds, config, log_fn=lambda epoch, loss: seen.append(loss))
        assert len(seen) == 40
        assert seen[-1] < 0.1 < seen[0]
        final = batch_loss_mean(model, ds.ids, ds.labels)
        assert final == pytest.approx(seen[-1], abs=0.05)

    def test_retrain_is_byte_identical(self, toy_corpus):
        _, _, _, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.DEEPFM, dim=2, hidden=(3,), epochs=3,
                                batch_size=16, seed=7)
        from shapprune.model import model_to_bytes

        one = sp.train(ds, config)
        two = sp.train(ds, config)
        assert model_to_bytes(one) == model_to_bytes(two)

    def test_init_model_is_not_mutated(self, toy_corpus):
        _, _, vocab, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=2, epochs=2, batch_size=16, seed=3)
        start = sp.init_model(vocab, config)
        snapshot = start.embedding.values.copy()
        trained = sp.train(ds, config, init=start)
        assert np.array_equal(start.embedding.values, snapshot)
        assert not np.array_equal(trained.embedding.values, snapshot)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_and_batch(self, toy_corpus):
        _, _, vocab, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=2, epochs=1, batch_size=64, seed=0)
        start = sp.init_model(vocab, config)
        start.embedding.values[0, 0] = np.inf
        with pytest.raises(sp.TrainingDiverged, match="epoch 0 batch 0"):
            sp.train(ds, config, init=start)

    def test_masked_coordinates_never_move(self, toy_corpus):
        _, _, vocab, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=3, epochs=4, batch_size=16, seed=5)
        base = sp.train(ds, config)
        flags = np.zeros(base.embedding.values.shape, bool)
        flags[::2, 0] = True
        flags[1, :] = True
        mask = sp.PruneMask.from_dense(flags)
        tuned = sp.train(ds, config, init=base, mask=mask, padding=sp.ZERO)
        assert np.all(tuned.embedding.values[flags] == 0.0)
        assert not np.array_equal(tuned.embedding.values[~flags],
                                  base.embedding.values[~flags])

    def test_masked_coordinates_pinned_to_codebook(self, toy_corpus, toy_model):
        _, _, vocab, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        flags = np.zeros(toy_model.embedding.values.shape, bool)
        flags[2:5, 1] = True
        mask = sp.PruneMask.from_dense(flags)
        config = sp.TrainConfig(backbone=sp.DEEPFM, dim=3, hidden=(3, 3), epochs=2,
                                batch_size=16, seed=5)
        tuned = sp.train(ds, config, init=toy_model, mask=mask, padding=codebook)
        expected = codebook.values[vocab.feature_fields]
        assert np.all(tuned.embedding.values[flags] == expected[flags])

    def test_mask_shape_checked(self, toy_corpus):
        _, _, _, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=2, epochs=1, seed=0)
        bad = sp.PruneMask.from_dense(np.zeros((3, 2), bool))
        with pytest.raises(ValueError, match="mask shape"):
            sp.train(ds, config, mask=bad, padding=sp.ZERO)


def small_table_corpus(seed, n_fields=3, field_size=4, count=37):
    """Random encoded dataset over a small table: with few rows per field,
    rows repeat across the instances of every batch."""
    rng = np.random.default_rng(seed)
    tables = tuple({f"f{f}t{k}": k for k in range(field_size - 1)} for f in range(n_fields))
    vocab = sp.Vocabulary(sp.FieldSchema.categorical(n_fields), tables, 0)
    ids = vocab.offsets[:-1] + rng.integers(0, field_size, (count, n_fields))
    labels = rng.integers(0, 2, count)
    return sp.dataset_from_encoded(ids.astype(np.int64), labels.astype(np.int64), vocab)


class TestSparseAdam:
    """The row-sparse, in-place training step against dense Adam: every
    trained parameter must match bit for bit."""

    def assert_bitwise_equal(self, got, want):
        assert got.embedding.values.tobytes() == want.embedding.values.tobytes()
        assert got.backbone.linear.tobytes() == want.backbone.linear.tobytes()
        assert np.float64(got.backbone.bias).tobytes() == np.float64(want.backbone.bias).tobytes()
        assert len(got.backbone.layers) == len(want.backbone.layers)
        for (wg, bg), (ww, bw) in zip(got.backbone.layers, want.backbone.layers):
            assert wg.tobytes() == ww.tobytes() and bg.tobytes() == bw.tobytes()

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    def test_matches_dense_adam(self, kind):
        # 37 instances in batches of 8 end on a partial batch of 5; with 4
        # rows per field, every batch repeats some row across instances
        ds = small_table_corpus(11)
        config = sp.TrainConfig(backbone=kind, dim=3, hidden=(4, 3), epochs=3, batch_size=8,
                                learning_rate=5e-2, seed=2)
        self.assert_bitwise_equal(sp.train(ds, config), dense_adam_train(ds, config))

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("padding", ["zero", "codebook"])
    def test_masked_training_matches_dense_adam(self, kind, padding):
        ds = small_table_corpus(12, field_size=6)
        config = sp.TrainConfig(backbone=kind, dim=3, hidden=(4,), epochs=2, batch_size=8,
                                learning_rate=5e-2, seed=4)
        base = sp.train(ds, config)
        flags = np.random.default_rng(3).random(base.embedding.values.shape) < 0.4
        mask = sp.PruneMask.from_dense(flags)
        pad = sp.ZERO if padding == "zero" else sp.compute_codebook(base, ds)
        got = sp.train(ds, config, init=base, mask=mask, padding=pad)
        want = dense_adam_train(ds, config, init=base, mask=mask, padding=pad)
        self.assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("width", [(), (4,)])
    def test_row_sums_match_add_at(self, width):
        rng = np.random.default_rng(5)
        n = 9
        ids = rng.integers(0, 6, (12, 3))
        ids[:, 0] = 7  # a row every instance repeats
        ids[3, 1] = 8  # a row whose only contribution is -0.0
        rows, where = _touched_rows(ids, n)
        parts = rng.normal(size=(ids.size, *width))
        parts[::5] = -0.0
        parts[6] = -parts[3]  # row 7 cancels to 0.0 midway
        parts[3 * 3 + 1] = -0.0
        dense = np.zeros((n, *width))
        np.add.at(dense, ids.ravel(), parts)
        assert rows.tolist() == sorted(set(ids.ravel().tolist()))
        assert np.array_equal(rows[where], ids.ravel())
        block = _row_sums(where, rows.shape[0], parts)
        assert block.tobytes() == dense[rows].tobytes()
        assert not np.signbit(block[rows.tolist().index(8)]).any()

    def test_training_allocates_no_table_sized_temporaries(self):
        # Budget in table sizes: the parameters, two Adam moments and two
        # scratch buffers (5), plus the linear weights' share and slack. A
        # full-table gradient or temporary per step would exceed it.
        ds = small_table_corpus(13, n_fields=2, field_size=1200, count=96)
        config = sp.TrainConfig(backbone=sp.FM, dim=16, epochs=1, batch_size=8, seed=0)
        table_bytes = ds.vocab.n * config.dim * 8
        outer = tracemalloc.is_tracing()
        if not outer:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sp.train(ds, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not outer:
                tracemalloc.stop()
        assert peak < 6.5 * table_bytes, f"peak {peak / table_bytes:.2f} table sizes"


class TestPruneMask:
    def test_dense_round_trip(self):
        rng = np.random.default_rng(4)
        flags = rng.random((6, 3)) < 0.5
        mask = sp.PruneMask.from_dense(flags)
        assert np.array_equal(mask.dense(), flags)
        assert mask.count == int(flags.sum())
        assert mask.shape == (6, 3)
        flags[:] = False  # the mask keeps its own copy
        assert mask.count > 0


class TestModelSerialization:
    def test_round_trip_byte_identical(self, toy_model, tmp_path):
        from shapprune.model import model_to_bytes

        path = tmp_path / "model.shvr"
        sp.save_model(toy_model, path)
        back = sp.load_model(path)
        assert model_to_bytes(back) == model_to_bytes(toy_model)
        assert back.backbone.kind == sp.DEEPFM
        assert np.array_equal(back.embedding.values, toy_model.embedding.values)

    def test_sections_preserved(self, toy_model, toy_corpus, tmp_path):
        import dataclasses

        _, _, _, ds = toy_corpus
        stamped = dataclasses.replace(toy_model, codebook=sp.compute_codebook(toy_model, ds))
        path = tmp_path / "model.shvr"
        sp.save_model(stamped, path)
        back = sp.load_model(path)
        assert back.codebook is not None
        assert np.allclose(back.codebook.values, stamped.codebook.values)

    def test_vocab_mismatch_rejected(self, toy_model, tmp_path):
        path = tmp_path / "model.shvr"
        sp.save_model(toy_model, path)
        other = sp.Vocabulary(sp.FieldSchema.categorical(1), ({"q": 0},), 0)
        with pytest.raises(CheckpointError, match="vocabulary does not match"):
            sp.load_model(path, vocab=other)

    def test_wrong_kind_rejected(self, toy_corpus, tmp_path):
        _, _, vocab, _ = toy_corpus
        path = tmp_path / "vocab.shvr"
        vocab.save(path)
        with pytest.raises(CheckpointError, match="does not hold a model"):
            sp.load_model(path)
