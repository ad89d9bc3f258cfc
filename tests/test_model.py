import dataclasses
import math

import numpy as np
import pytest

import shapprune as sp
from shapprune.model import _batch_gradients, _row_sums
from shapprune.serialization import CheckpointError

from helpers import (
    batch_loss_mean,
    dense_adam_train,
    dense_batch_gradients,
    flat_gradient,
    flatten_params,
    lazy_adam_train,
    naive_predict_proba,
    reference_batch_gradients,
    small_table_corpus,
    tiny_random_model,
    traced_peak,
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
        _, _, head_grad = dense_batch_gradients(
            hand_model.embedding.values, hand_model.backbone, HAND_IDS, np.array([1])
        )
        # p = 0.5, label 1: dL/dz = p - y = -0.5, and dz/db = 1
        assert head_grad[0] == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_central_differences(self, kind, seed):
        model, ids, labels = tiny_random_model(seed, kind, n_fields=3, field_size=2, dim=2)
        _, grad, head_grad = dense_batch_gradients(
            model.embedding.values, model.backbone, ids[:1], labels[:1]
        )
        flat_grad = flat_gradient(grad, head_grad)
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
        _, grad, _ = dense_batch_gradients(
            model.embedding.values, model.backbone, ids[:1], labels[:1]
        )
        touched = set(int(i) for i in ids[0])
        for row in range(model.embedding.n):
            if row not in touched:
                assert np.all(grad[row] == 0.0)


class TestGradientLayout:
    """_batch_gradients gives the bits of the gradient as it was computed
    before it came back in train's layouts: row_grad is [embedding | linear]
    per touched row and head_grad is [bias, W1.ravel(), b1, ...]."""

    @pytest.mark.parametrize(
        "kind, hidden",
        [(sp.FM, ()), (sp.DEEPFM, ()), (sp.DEEPFM, (4,)), (sp.DEEPFM, (16, 8)),
         (sp.DEEPFM, (6, 5, 3))],
        ids=["fm", "deepfm_linear_head", "deepfm_1_hidden", "deepfm_2_hidden", "deepfm_3_hidden"],
    )
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_matches_reference_bitwise(self, kind, hidden, batch, scale):
        model, ids, labels = tiny_random_model(
            11, kind, n_fields=4, field_size=3, dim=4, hidden=hidden
        )
        ids[1] = ids[0]  # every row of instance 0 repeats in the batch
        ids, labels = ids[:batch], labels[:batch]
        values, backbone = model.embedding.values, model.backbone
        loss, rows, row_grad, head_grad = _batch_gradients(values, backbone, ids, labels, scale)
        want_loss, want_rows, embedding, linear, bias, layers = reference_batch_gradients(
            values, backbone, ids, labels, scale
        )
        assert loss == want_loss
        assert rows.tolist() == want_rows.tolist()
        assert row_grad.tobytes() == np.column_stack((embedding, linear)).tobytes()
        want_head = np.concatenate([[bias]] + [g.ravel() for pair in layers for g in pair])
        assert head_grad.tobytes() == want_head.tobytes()


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
        with pytest.raises(ValueError, match="batch_size"):
            sp.TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            sp.TrainConfig(epochs=-1)
        for rate in (0.0, -0.01, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning_rate"):
                sp.TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            sp.TrainConfig(seed=-1)
        sp.TrainConfig(epochs=0)
        sp.TrainConfig(seed=2**64)


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

    def test_trained_copy_shares_vocab_and_leaves_init_bytes(self, toy_corpus, toy_model):
        _, _, _, ds = toy_corpus
        codebook = sp.compute_codebook(toy_model, ds)
        init = dataclasses.replace(toy_model, codebook=codebook)

        def arrays(model):
            backbone = model.backbone
            return [model.embedding.values, model.embedding.offsets, backbone.linear,
                    np.float64(backbone.bias), model.codebook.values,
                    *(a for pair in backbone.layers for a in pair)]

        before = [a.tobytes() for a in arrays(init)]
        flags = np.zeros(init.embedding.values.shape, bool)
        flags[::3, 1] = True
        config = sp.TrainConfig(backbone=sp.DEEPFM, dim=3, hidden=(3, 3), epochs=2,
                                batch_size=16, seed=5)
        for kwargs in ({}, dict(mask=sp.PruneMask.from_dense(flags), padding=codebook)):
            tuned = sp.train(ds, config, init=init, **kwargs)
            assert tuned.vocab is init.vocab and tuned.codebook is init.codebook
            assert [a.tobytes() for a in arrays(init)] == before
            written = [tuned.embedding.values, tuned.backbone.linear,
                       *(a for pair in tuned.backbone.layers for a in pair)]
            assert not any(np.shares_memory(a, b) for a in written for b in arrays(init))

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


class TestSparseAdam:
    """The row-sparse, in-place lazy Adam step against lazy_adam_train, a
    reference that steps full-size arrays at the batch's rows: every
    trained parameter must match bit for bit. Dense Adam, which lazy Adam
    replaced, stays a quality reference."""

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
        self.assert_bitwise_equal(sp.train(ds, config), lazy_adam_train(ds, config))

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
        want = lazy_adam_train(ds, config, init=base, mask=mask, padding=pad)
        self.assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("padding", [None, "zero", "codebook"])
    def test_rows_first_touched_late_or_never_match_dense_adam(self, kind, padding):
        # 40 rows per field, ids from the first 30 only, batches of 4: first
        # touches spread over many batches and 10 rows per field never occur,
        # so rows sit untouched for many steps before their first update
        ds = small_table_corpus(14, field_size=40, count=61, used=30)
        config = sp.TrainConfig(backbone=kind, dim=3, hidden=(4, 3), epochs=3, batch_size=4,
                                learning_rate=5e-2, seed=6)
        order = np.random.default_rng((config.seed, 1)).permutation(len(ds))
        first = {}
        for position, instance in enumerate(order):
            for row in ds.ids[instance].tolist():
                first.setdefault(row, position // config.batch_size)
        assert sorted(set(first.values()))[-1] > 5
        assert len(first) < ds.vocab.n
        if padding is None:
            got, want = sp.train(ds, config), lazy_adam_train(ds, config)
        else:
            base = sp.train(ds, dataclasses.replace(config, epochs=1))
            flags = np.random.default_rng(7).random(base.embedding.values.shape) < 0.4
            mask = sp.PruneMask.from_dense(flags)
            pad = sp.ZERO if padding == "zero" else sp.compute_codebook(base, ds)
            got = sp.train(ds, config, init=base, mask=mask, padding=pad)
            want = lazy_adam_train(ds, config, init=base, mask=mask, padding=pad)
        self.assert_bitwise_equal(got, want)

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    def test_untouched_rows_keep_their_initial_bits(self, kind):
        # ids from the first 30 of each field's 40 rows: 10 rows per field
        # are in no batch, so every step must leave them as they started
        ds = small_table_corpus(15, field_size=40, count=61, used=30)
        config = sp.TrainConfig(backbone=kind, dim=3, hidden=(4,), epochs=3, batch_size=4,
                                learning_rate=5e-2, seed=8)
        idle = np.setdiff1d(np.arange(ds.vocab.n), ds.ids)
        assert idle.shape[0] >= 30
        start = sp.init_model(ds.vocab, config)
        start.embedding.values[idle[0], 0] = -0.0
        start.backbone.linear[:] = np.random.default_rng(9).normal(size=ds.vocab.n)
        trained = sp.train(ds, config, init=start)
        assert trained.embedding.values[idle].tobytes() == start.embedding.values[idle].tobytes()
        assert trained.backbone.linear[idle].tobytes() == start.backbone.linear[idle].tobytes()
        touched = np.unique(ds.ids)
        assert (trained.embedding.values[touched] != start.embedding.values[touched]).all()

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    def test_held_out_loss_within_a_millinat_of_dense_adam(self, kind):
        # lazy Adam skips the moment decay and momentum steps of rows a batch
        # does not touch, so the trained model differs from dense Adam's;
        # its held-out quality must not
        for seed in range(5):
            rows = sp.synthetic_rows(
                sp.SyntheticConfig(fields=5, tokens_per_field=(300,) * 5, rows=6000, seed=seed)
            )
            vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(5))
            full = sp.encode_rows(rows, vocab)
            train_ds = sp.dataset_from_encoded(full.ids[:5000], full.labels[:5000], vocab)
            test_ids, test_labels = full.ids[5000:], full.labels[5000:]
            config = sp.TrainConfig(backbone=kind, dim=8, epochs=2, seed=seed)
            lazy, dense = (
                float(np.mean(sp.log_loss(sp.predict_proba(model, test_ids), test_labels)))
                for model in (sp.train(train_ds, config), dense_adam_train(train_ds, config))
            )
            assert abs(lazy - dense) < 1e-3, (seed, lazy, dense)

    @pytest.mark.parametrize("width", [(), (4,)])
    def test_row_sums_match_add_at(self, width):
        rng = np.random.default_rng(5)
        n = 9
        ids = rng.integers(0, 6, (12, 3))
        ids[:, 0] = 7  # a row every instance repeats
        ids[3, 1] = 8  # a row whose only contribution is -0.0
        parts = rng.normal(size=(ids.size, *width))
        parts[::5] = -0.0
        parts[6] = -parts[3]  # row 7 cancels to 0.0 midway
        parts[3 * 3 + 1] = -0.0
        dense = np.zeros((n, *width))
        np.add.at(dense, ids.ravel(), parts)
        rows, block = _row_sums(ids, n, parts)
        assert rows.tolist() == sorted(set(ids.ravel().tolist()))
        assert block.tobytes() == dense[rows].tobytes()
        assert not np.signbit(block[rows.tolist().index(8)]).any()

    def test_training_allocates_no_table_sized_temporaries(self):
        # Budget in table sizes: the parameters and two (n, d+1) Adam
        # moments, about 3.2 with the linear weights, plus slack; both runs
        # peak at 3.33. A fine-tune's copy of its initial table is freed once
        # the padding is imputed, before the moments exist. A full-table
        # gradient or temporary per step would exceed the budget.
        ds = small_table_corpus(13, n_fields=2, field_size=1200, count=96)
        config = sp.TrainConfig(backbone=sp.FM, dim=16, epochs=1, batch_size=8, seed=0)
        table_bytes = ds.vocab.n * config.dim * 8
        base = sp.train(ds, config)
        flags = np.random.default_rng(8).random(base.embedding.values.shape) < 0.5
        fine_tune = dict(init=base, mask=sp.PruneMask.from_dense(flags), padding=sp.ZERO)
        for kwargs in ({}, fine_tune):
            peak = traced_peak(lambda: sp.train(ds, config, **kwargs))
            assert peak < 4.0 * table_bytes, f"peak {peak / table_bytes:.2f} table sizes"

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
