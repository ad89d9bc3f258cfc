import hashlib
import math

import numpy as np
import pytest

import shapprune as sp
from shapprune import attribution
from shapprune.serialization import CheckpointError

from helpers import (
    dense_batch_gradients,
    exact_local_shapley_reference,
    full_removal_jumps,
    permutation_shapley_reference,
    reference_estimate_shapley,
    small_table_corpus,
    stacked_walk_shapley,
    tiny_random_model,
    traced_peak,
)


def removal_delta(model, ids, label, removal):
    """Loss increase from zeroing the removed (field, column) coordinates of
    one row's active embeddings: two calls of the game's payoff."""
    payoff = attribution._removal_losses
    empty = np.zeros_like(removal)
    return payoff(model, ids, label, removal[None])[0] - payoff(model, ids, label, empty[None])[0]


class TestRemovalLossDelta:
    def test_empty_removal_is_exactly_zero(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        removal = np.zeros((3, 3), bool)
        for ids, label in zip(ds.ids, ds.labels):
            assert removal_delta(toy_model, ids, label, removal) == 0.0

    def test_hand_worked_value(self, hand_model):
        # base: z = 6, loss = log(1 + exp(-6)); zeroing either active
        # coordinate kills the interaction term, so z = 0 and loss = log 2
        removal = np.zeros((2, 1), bool)
        removal[0, 0] = True
        expected = math.log(2.0) - math.log1p(math.exp(-6.0))
        assert removal_delta(hand_model, np.array([0, 1]), 1, removal) == pytest.approx(
            expected, abs=1e-15
        )


class TestExactLocal:
    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_subset_enumeration_reference(self, kind, seed):
        model, ids, labels = tiny_random_model(seed, kind, n_fields=3, field_size=2, dim=2)
        ours = sp.exact_shapley_local(model, ids[0], labels[0])
        reference = exact_local_shapley_reference(model, ids[0], labels[0], dim=2)
        assert np.allclose(ours, reference, atol=1e-12)

    @pytest.mark.parametrize("kind", [sp.FM, sp.DEEPFM])
    def test_matches_permutation_reference(self, kind):
        # md = 4 players: 24 removal orders, averaged explicitly
        model, ids, labels = tiny_random_model(2, kind, n_fields=2, field_size=2, dim=2)
        ours = sp.exact_shapley_local(model, ids[0], labels[0])
        reference = permutation_shapley_reference(model, ids[0], labels[0], dim=2)
        assert np.allclose(ours, reference, atol=1e-12)

    def test_efficiency_axiom(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        jumps = full_removal_jumps(toy_model, ds.ids, ds.labels)
        for k in range(4):
            phi = sp.exact_shapley_local(toy_model, ds.ids[k], ds.labels[k])
            assert phi.sum() == pytest.approx(jumps[k], abs=1e-10)

    def test_symmetric_players_get_equal_credit(self):
        # duplicated embedding columns make the paired coordinates
        # interchangeable, so their Shapley values must coincide
        schema = sp.FieldSchema.categorical(2)
        vocab = sp.Vocabulary(schema, ({}, {}), 0)
        values = np.array([[0.7, 0.7], [-0.4, -0.4]])
        model = sp.Model(
            sp.EmbeddingTable(values, vocab.offsets.copy()),
            sp.BackboneParams(sp.FM, 0.1, np.zeros(2), []),
            vocab,
        )
        phi = sp.exact_shapley_local(model, np.array([0, 1]), 1)
        assert phi[0, 0] == pytest.approx(phi[0, 1], abs=1e-14)
        assert phi[1, 0] == pytest.approx(phi[1, 1], abs=1e-14)

    def test_zero_coordinate_is_a_null_player(self, toy_model, toy_corpus):
        import copy

        _, _, _, ds = toy_corpus
        model = copy.deepcopy(toy_model)
        fid = int(ds.ids[0, 1])
        model.embedding.values[fid, 2] = 0.0
        phi = sp.exact_shapley_local(model, ds.ids[0], ds.labels[0])
        assert phi[1, 2] == 0.0

    def test_large_instance_refused(self, toy_corpus):
        _, _, vocab, ds = toy_corpus
        config = sp.TrainConfig(backbone=sp.FM, dim=8, seed=0)
        model = sp.init_model(vocab, config)
        with pytest.raises(ValueError, match=r"m\*d = 24 > 22"):
            sp.exact_shapley_local(model, ds.ids[0], ds.labels[0])

    def test_validates_ids(self, hand_model):
        with pytest.raises(ValueError, match="wrong number of fields"):
            sp.exact_shapley_local(hand_model, np.array([0]), 1)
        with pytest.raises(ValueError, match="outside its field's block"):
            sp.exact_shapley_local(hand_model, np.array([1, 1]), 1)


class TestExactGlobal:
    def test_scatter_and_average(self, toy_model, toy_corpus, toy_exact_scores):
        _, _, _, ds = toy_corpus
        manual = np.zeros_like(toy_model.embedding.values)
        for k in range(len(ds)):
            manual[ds.ids[k]] += sp.exact_shapley_local(toy_model, ds.ids[k], ds.labels[k])
        manual /= len(ds)
        assert np.allclose(toy_exact_scores.values, manual, atol=1e-14)

    def test_duplicated_dataset_gives_identical_scores(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        tripled = sp.dataset_from_encoded(
            np.repeat(ds.ids, 3, axis=0), np.repeat(ds.labels, 3), vocab
        )
        base = sp.exact_shapley_global(toy_model, ds)
        dup = sp.exact_shapley_global(toy_model, tripled)
        assert np.allclose(base.values, dup.values, atol=1e-12)

    def test_duplicates_are_cached(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        doubled = sp.dataset_from_encoded(
            np.concatenate([ds.ids, ds.ids]), np.concatenate([ds.labels, ds.labels]), vocab
        )
        base = sp.exact_shapley_global(toy_model, ds)
        dup = sp.exact_shapley_global(toy_model, doubled)
        assert dup.forward_count == base.forward_count

    def test_never_active_features_score_exactly_zero(self, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        active = np.zeros(vocab.n, bool)
        keep = [k for k in range(len(ds)) if ds.ids[k, 2] != vocab.oov_id(2)]
        sub = sp.dataset_from_encoded(ds.ids[keep], ds.labels[keep], vocab)
        scores = sp.exact_shapley_global(toy_model, sub)
        active[np.unique(sub.ids)] = True
        assert not active.all()
        assert np.all(scores.values[~active] == 0.0)


class TestEstimator:
    def test_same_seed_is_bitwise_identical(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        a = sp.estimate_shapley(toy_model, ds, passes=2, seed=9)
        b = sp.estimate_shapley(toy_model, ds, passes=2, seed=9)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        a = sp.estimate_shapley(toy_model, ds, passes=1, seed=0)
        b = sp.estimate_shapley(toy_model, ds, passes=1, seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_forward_counter_and_metadata(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        scores = sp.estimate_shapley(toy_model, ds, passes=3, seed=4)
        md = 3 * 3
        assert scores.forward_count == (md + 1) * len(ds) * 3
        assert scores.method == sp.SHAPLEY
        assert scores.seed == 4
        assert scores.passes == 3
        assert scores.dataset_fingerprint == ds.fingerprint()

    def test_telescoping_sum_identity(self, toy_model, toy_corpus):
        # every walk starts at the full loss and ends at the all-removed
        # loss, so the estimate's total equals the mean full-removal delta
        _, _, _, ds = toy_corpus
        scores = sp.estimate_shapley(toy_model, ds, passes=3, seed=8)
        deltas = full_removal_jumps(toy_model, ds.ids, ds.labels)
        assert scores.values.sum() == pytest.approx(float(np.mean(deltas)), abs=1e-12)

    def test_efficiency_gap(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        scores = sp.estimate_shapley(toy_model, ds, passes=3, seed=8)
        jump = float(np.mean(full_removal_jumps(toy_model, ds.ids, ds.labels)))
        assert attribution.efficiency_gap(toy_model, ds, scores) <= 1e-12
        scores.values[0, 0] += 1e-3
        gap = attribution.efficiency_gap(toy_model, ds, scores)
        assert gap == pytest.approx(1e-3 / max(1.0, abs(jump)), rel=1e-6)

    def test_converges_to_exact_oracle(self, toy_model, toy_corpus, toy_exact_scores):
        _, _, _, ds = toy_corpus
        estimate = sp.estimate_shapley(toy_model, ds, passes=100, seed=0)
        mae = np.abs(estimate.values - toy_exact_scores.values).mean()
        assert mae < 5e-3

    def test_argument_validation(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        with pytest.raises(ValueError, match="passes"):
            sp.estimate_shapley(toy_model, ds, passes=0)
        for threads in (0, 2):
            with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
                sp.estimate_shapley(toy_model, ds, threads=threads)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_the_recorded_range_is_refused(self, monkeypatch, toy_model, toy_corpus, seed):
        _, _, _, ds = toy_corpus

        def no_walk(*args):
            raise AssertionError("a walk ran before the seed was checked")

        monkeypatch.setattr(attribution, "_walk_losses", no_walk)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            sp.estimate_shapley(toy_model, ds, seed=seed)

    def test_largest_seed_round_trips(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        scores = sp.estimate_shapley(toy_model, ds, seed=2**64 - 1)
        assert sp.AttributionScores.from_bytes(scores.to_bytes()).seed == 2**64 - 1

    def test_memory_does_not_grow_with_passes(self, monkeypatch):
        # 96 rows in 64-visit blocks: 8 passes walk 12 blocks, 256 passes
        # 384. The running table and one block's marginals and walk
        # temporaries (about 0.8 table here) peak near 2 table sizes at any
        # pass count; a table held per block would add one per block, and
        # the whole run's visit numbers (8 B each) 0.64 table at 256 passes.
        monkeypatch.setattr(attribution, "_BLOCK_VISITS", 64)
        ds = small_table_corpus(13, n_fields=2, field_size=1200, count=96)
        model = sp.init_model(ds.vocab, sp.TrainConfig(backbone=sp.FM, dim=16, seed=0))
        table_bytes = ds.vocab.n * 16 * 8
        peaks = {
            passes: traced_peak(lambda: sp.estimate_shapley(model, ds, passes=passes, seed=0)) / table_bytes
            for passes in (1, 8, 256)
        }
        assert peaks[8] < 2.5, f"peaks in table sizes: {peaks}"
        assert max(peaks[8], peaks[256]) - peaks[1] <= 0.25, f"peaks in table sizes: {peaks}"

    def test_wide_walk_scratch_stays_small(self):
        # 39 fields x d = 16 (md = 624) and a (64, 32) MLP, the wide-deepfm
        # shape, walking one full block of _WALK_ROWS // 625 visits (78 at
        # 49152 rows). The interior steps run in chunks of _CHUNK_VALUES
        # float32 first-layer values (512 KiB), so the chunk buffer and the
        # tail's products stay one chunk whatever the block; what grows with
        # it is the (B, md) walk arrays and the marginals. A buffer sized by
        # the block's whole interior (3.95 MiB at 26 visits) would raise the
        # peak past the bound along with perfbench's RSS.
        count = attribution._WALK_ROWS // 625
        ds = small_table_corpus(5, n_fields=39, field_size=4, count=count)
        model = sp.init_model(ds.vocab, sp.TrainConfig(backbone=sp.DEEPFM, dim=16, hidden=(64, 32), seed=0))
        peak = traced_peak(lambda: sp.estimate_shapley(model, ds, seed=0)) / 2**20
        assert peak < 8.0, f"walk peak {peak:.2f} MiB"

    def test_vocabulary_layout_mismatch(self, toy_model):
        rows = [["1", "a"], ["0", "b"]]
        vocab = sp.build_vocabulary(rows, sp.FieldSchema.categorical(1))
        other = sp.encode_rows(rows, vocab)
        with pytest.raises(ValueError, match="do not share a vocabulary layout"):
            sp.estimate_shapley(toy_model, other)


class TestIncrementalWalk:
    @staticmethod
    def assert_matches(scores, reference, kind):
        # An FM walk is all float64. A DeepFM walk runs its interior steps in
        # float32, so entries agree to float32 rounding of the logit; its
        # endpoints stay float64, so the total telescopes to the reference's.
        if kind == sp.FM:
            assert np.abs(scores.values - reference).max() <= 1e-12
            return
        assert abs(scores.values.sum() - reference.sum()) <= 1e-12
        assert np.abs(scores.values - reference).max() <= 1e-5 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "kind, hidden, dim",
        [
            (sp.FM, (), 2), (sp.DEEPFM, (4,), 2), (sp.DEEPFM, (4, 3), 2), (sp.DEEPFM, (4, 3, 2), 2),
            (sp.FM, (), 1), (sp.DEEPFM, (4,), 1), (sp.FM, (), 257), (sp.DEEPFM, (4,), 257),
        ],
        ids=["fm", "deepfm-1", "deepfm-2", "deepfm-3", "fm-d1", "deepfm-d1", "fm-d257", "deepfm-d257"],
    )
    @pytest.mark.parametrize(
        "walk_rows, block_visits",
        [(None, None), (6, None), (21, 16)],
        ids=["one-sub-batch", "rows-below-md-plus-1", "partial-last-sub-batch"],
    )
    def test_matches_stacked_walk(self, monkeypatch, kind, hidden, dim, walk_rows, block_visits):
        # 8 instances x 5 passes make 40 visits. At d = 2, md = 3 * 2 = 6:
        # by default the visits are one block; walk_rows 6 < md + 1 leaves
        # one visit per block; 21 rows make 3-visit blocks, under the
        # 16-visit cap, and the last block holds the one visit left over.
        # The pairwise term sorts each removal order by column number in
        # the smallest unsigned type that holds d - 1: d = 1 sorts all-zero
        # uint8 columns, and d = 257 is the first uint16 width.
        model, ids, labels = tiny_random_model(11, kind, n_fields=3, field_size=3, dim=dim, hidden=hidden)
        ds = sp.dataset_from_encoded(ids, labels, model.vocab)
        if walk_rows is not None:
            monkeypatch.setattr(attribution, "_WALK_ROWS", walk_rows)
        if block_visits is not None:
            monkeypatch.setattr(attribution, "_BLOCK_VISITS", block_visits)
        scores = sp.estimate_shapley(model, ds, passes=5, seed=3)
        reference = stacked_walk_shapley(model, ds, passes=5, seed=3)
        self.assert_matches(scores, reference, kind)
        assert scores.forward_count == (3 * dim + 1) * len(ds) * 5

    @pytest.mark.parametrize("steps", [1, 2, 5], ids=["one-step-chunks", "partial-last-chunk", "one-chunk"])
    def test_chunked_interior_matches_stacked_walk(self, monkeypatch, steps):
        # md = 6: 8 instances x 5 passes make one 40-visit block whose
        # 5 interior steps run in chunks of `steps` steps of 40 * 4 values
        # each (2 + 2 + 1 for steps = 2).
        model, ids, labels = tiny_random_model(11, sp.DEEPFM, n_fields=3, field_size=3, dim=2, hidden=(4, 3))
        ds = sp.dataset_from_encoded(ids, labels, model.vocab)
        monkeypatch.setattr(attribution, "_CHUNK_VALUES", steps * 5 * len(ds) * 4)
        scores = sp.estimate_shapley(model, ds, passes=5, seed=3)
        reference = stacked_walk_shapley(model, ds, passes=5, seed=3)
        self.assert_matches(scores, reference, sp.DEEPFM)

    def test_matches_stacked_walk_at_wide_rows(self):
        # md = 6 * 16 = 96 and a (64, 32) MLP: each prefix-sum step adds a
        # row of B * 64 values. 700 visits make a block of
        # 49152 // 97 = 506 visits and a partial one of 194, so the 95
        # interior steps run in 4-step chunks (the last of 3) for the full
        # block and in 10-step chunks (the last of 5) for the partial one.
        model, _, _ = tiny_random_model(5, sp.DEEPFM, n_fields=6, field_size=4, dim=16, hidden=(64, 32))
        ds = small_table_corpus(9, n_fields=6, field_size=4, count=350)
        assert 1 < attribution._WALK_ROWS // 97 < 2 * len(ds)
        scores = sp.estimate_shapley(model, ds, passes=2, seed=4)
        reference = stacked_walk_shapley(model, ds, passes=2, seed=4)
        self.assert_matches(scores, reference, sp.DEEPFM)

    @pytest.mark.parametrize(
        "kind, hidden, dim",
        [(sp.FM, (), 2), (sp.DEEPFM, (4, 3), 2), (sp.DEEPFM, (64, 32), 16), (sp.DEEPFM, (5,), 1)],
        ids=["fm", "deepfm", "deepfm-wide", "deepfm-one-player"],
    )
    def test_endpoints_are_the_float64_payoff(self, kind, hidden, dim):
        # step 0 scores the untouched instance and step md the fully removed
        # one, whatever precision the interior steps run in; with one field
        # and d = 1 the walk has no interior step at all
        fields = 1 if dim == 1 else 3
        model, ids, labels = tiny_random_model(6, kind, n_fields=fields, field_size=3, dim=dim, hidden=hidden)
        md = fields * dim
        perms = attribution._walk_orders(2, np.zeros(len(ids), np.int64), np.arange(len(ids)), md)
        losses = attribution._walk_losses(model, ids, labels, perms)
        assert losses.shape == (len(ids), md + 1)
        removed = np.zeros((2, fields, dim), bool)
        removed[1] = True
        for k in range(len(ids)):
            ends = attribution._removal_losses(model, ids[k], labels[k], removed)
            assert np.abs(losses[k, [0, md]] - ends).max() <= 1e-14

    def test_fm_score_file_is_pinned(self):
        # An FM walk is all float64, so its score file is pinned bit for
        # bit. The digest was recorded on x86_64 with numpy 2.4; exp and log
        # paths that round differently on another platform would move it,
        # and so would a new block size: md = 80 cuts the 900 visits into
        # blocks of 606 and 294, and each block's sums are grouped apart.
        model, _, _ = tiny_random_model(3, sp.FM, n_fields=5, field_size=40, dim=16)
        ds = small_table_corpus(12, n_fields=5, field_size=40, count=300)
        blob = sp.estimate_shapley(model, ds, passes=3, seed=17).to_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "dd863f8af7b0d4620b4153aa7e78d3fbbdd9cd61bc429701e773533e10e28c5b"
        )

    def test_prefix_sums_are_cumsum_bitwise(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 5, 8))
        # lanes of signed zeros, and lanes whose sums cancel to zero
        rows[:, 0] = rng.choice([0.0, -0.0], size=(40, 8))
        rows[1::2, 1] = -rows[0::2, 1]
        want = np.cumsum(rows, axis=0)
        assert np.signbit(want[want == 0.0]).any() and not np.signbit(want[want == 0.0]).all()
        attribution._prefix_sums(rows)
        assert rows.tobytes() == want.tobytes()

    def test_chunked_prefix_sums_are_cumsum_bitwise(self):
        # chunks of 1, 7 and 13 steps (the last one partial), each carrying
        # its last prefix row into the next, add in the order of one pass
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(40, 5, 8)).astype(np.float32)
        rows[:, 0] = rng.choice([0.0, -0.0], size=(40, 8))
        rows[1::2, 1] = -rows[0::2, 1]
        want = np.cumsum(rows, axis=0)
        assert np.signbit(want[want == 0.0]).any() and not np.signbit(want[want == 0.0]).all()
        for span in (1, 7, 13):
            got = rows.copy()
            carry = None
            for k0 in range(0, len(got), span):
                chunk = got[k0 : k0 + span]
                attribution._prefix_sums(chunk, carry)
                carry = chunk[-1]
            assert got.tobytes() == want.tobytes(), span


@pytest.mark.filterwarnings("error")
class TestWalkOrders:
    """The removal orders of attribution._walk_orders: one uniformly random
    permutation per visit, a function of (seed, pass, instance) alone."""

    @staticmethod
    def visits(count, per_pass=1000):
        return np.divmod(np.arange(count), per_pass)

    @pytest.mark.parametrize("md", [1, 9, 80, 624, 4200, 8400])
    def test_rows_are_permutations(self, md):
        # md = 8400 leaves one visit per block: the uint64 arithmetic
        # still runs on arrays and wraps without an overflow warning
        batch = max(1, attribution._WALK_ROWS // (md + 1))
        pass_idx, inst = self.visits(batch)
        for seed in (0, 2**64 - 1):
            orders = attribution._walk_orders(seed, pass_idx, inst, md)
            assert orders.shape == (batch, md) and orders.dtype == np.int64
            assert (np.sort(orders, axis=1) == np.arange(md)).all()

    def test_rows_do_not_depend_on_grouping(self):
        draw = attribution._walk_orders
        pass_idx, inst = self.visits(300, per_pass=70)
        together = draw(5, pass_idx, inst, 9)
        singles = [draw(5, pass_idx[k : k + 1], inst[k : k + 1], 9) for k in range(300)]
        assert np.array_equal(together, np.concatenate(singles))
        shuffled = np.random.default_rng(0).permutation(300)
        for group in np.array_split(shuffled, 7):
            assert np.array_equal(draw(5, pass_idx[group], inst[group], 9), together[group])

    def test_extreme_seeds_draw_distinct_orders(self):
        pass_idx, inst = self.visits(64)
        low = attribution._walk_orders(0, pass_idx, inst, 9)
        high = attribution._walk_orders(2**64 - 1, pass_idx, inst, 9)
        assert (low != high).any(axis=1).sum() >= 60

    def test_orders_are_uniform(self):
        # 200k visits; a uniform sampler reads about 5 (5 dof) and 64 (64 dof)
        count = 200_000
        pass_idx, inst = self.visits(count)
        small = attribution._walk_orders(7, pass_idx, inst, 3)
        _, freq = np.unique(small, axis=0, return_counts=True)
        assert freq.shape == (6,)
        chi_orders = ((freq - count / 6) ** 2 / (count / 6)).sum()
        assert chi_orders < 25.0, chi_orders
        wide = attribution._walk_orders(7, pass_idx, inst, 9)
        table = np.stack([np.bincount(wide[:, k], minlength=9) for k in range(9)])
        chi_positions = ((table - count / 9) ** 2 / (count / 9)).sum()
        assert chi_positions < 120.0, chi_positions

    @pytest.mark.parametrize(
        "seed, pass_idx, inst, order",
        [
            (0, 0, 0, [1, 0, 8, 4, 6, 7, 2, 3, 5]),
            (0, 0, 1, [1, 5, 2, 4, 7, 8, 6, 0, 3]),
            (0, 1, 0, [6, 3, 1, 5, 4, 0, 8, 2, 7]),
            (3, 4, 39, [1, 7, 3, 5, 8, 0, 4, 2, 6]),
            (2**64 - 1, 63, 1023, [1, 4, 5, 2, 6, 3, 7, 8, 0]),
        ],
    )
    def test_golden_draws(self, seed, pass_idx, inst, order):
        # integer hashing gives these orders on every platform; a sampler
        # change must update them on purpose, and every score file with them
        got = attribution._walk_orders(seed, np.array([pass_idx]), np.array([inst]), 9)
        assert got.tolist() == [order]


class TestBlockMerge:
    """estimate_shapley against reference_estimate_shapley, which keeps one
    (n, d) table per block and sums the list at the end: the score files
    must match byte for byte. A block is min(block_visits, walk_rows //
    (md + 1)) visits (md = 6), so both sizes shape the one partition:
    under the default walk rows, blocks of 1 or 16 visits or one block of
    all 8 or 40; at walk_rows 6, one-visit blocks whatever the cap. With 5
    tokens per field, a block of one visit leaves most rows untouched."""

    @pytest.mark.parametrize(
        "kind, hidden",
        [(sp.FM, ()), (sp.DEEPFM, (4,)), (sp.DEEPFM, (4, 3)), (sp.DEEPFM, (4, 3, 2))],
        ids=["fm", "deepfm-1", "deepfm-2", "deepfm-3"],
    )
    @pytest.mark.parametrize("block_visits", [1, 16, 1024])
    @pytest.mark.parametrize("walk_rows", [6, None], ids=["walk-rows-6", "walk-rows-default"])
    def test_matches_per_block_tables(self, monkeypatch, kind, hidden, block_visits, walk_rows):
        model, ids, labels = tiny_random_model(7, kind, n_fields=3, field_size=5, dim=2, hidden=hidden)
        ds = sp.dataset_from_encoded(ids, labels, model.vocab)
        monkeypatch.setattr(attribution, "_BLOCK_VISITS", block_visits)
        if walk_rows is not None:
            monkeypatch.setattr(attribution, "_WALK_ROWS", walk_rows)
        for passes in (1, 5):
            got = sp.estimate_shapley(model, ds, passes=passes, seed=21)
            want = reference_estimate_shapley(model, ds, passes=passes, seed=21)
            assert got.to_bytes() == want.to_bytes(), passes


class TestBaselines:
    def test_magnitude_is_absolute_weights(self, toy_model):
        scores = sp.score_magnitude(toy_model)
        assert np.array_equal(scores.values, np.abs(toy_model.embedding.values))
        assert scores.method == sp.MAGNITUDE

    def test_taylor_matches_per_instance_gradients(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        values, backbone = toy_model.embedding.values, toy_model.backbone
        grad_sum = np.zeros_like(values)
        for k in range(len(ds)):
            _, grad, _ = dense_batch_gradients(values, backbone, ds.ids[k][None], ds.labels[k : k + 1])
            grad_sum += grad[:, :-1]
        expected = np.abs(toy_model.embedding.values * grad_sum / len(ds))
        scores = sp.score_taylor(toy_model, ds)
        assert np.allclose(scores.values, expected, atol=1e-12)
        assert scores.method == sp.TAYLOR
        assert scores.forward_count == len(ds)

    def test_taylor_batches_consistently(self, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        tiny_batches = sp.score_taylor(toy_model, ds, batch_size=7)
        one_batch = sp.score_taylor(toy_model, ds, batch_size=10_000)
        assert np.allclose(tiny_batches.values, one_batch.values, atol=1e-13)


class TestScoresSerialization:
    def test_round_trip(self, toy_model, toy_corpus, tmp_path):
        _, _, _, ds = toy_corpus
        scores = sp.estimate_shapley(toy_model, ds, passes=2, seed=3)
        path = tmp_path / "scores.shvr"
        scores.save(path)
        back = sp.AttributionScores.load(path)
        assert np.array_equal(back.values, scores.values)
        assert (back.method, back.seed, back.passes) == (sp.SHAPLEY, 3, 2)
        assert back.forward_count == scores.forward_count
        assert back.dataset_fingerprint == scores.dataset_fingerprint
        assert back.to_bytes() == scores.to_bytes()

    def test_wrong_kind_rejected(self, toy_corpus, tmp_path):
        _, _, vocab, _ = toy_corpus
        path = tmp_path / "vocab.shvr"
        vocab.save(path)
        with pytest.raises(CheckpointError, match="does not hold a score matrix"):
            sp.AttributionScores.load(path)

    def test_missing_section_rejected(self):
        from shapprune import serialization as ser

        w = ser.ByteWriter()
        w.u8(ser.TAG_SCORES)
        w.u64(2)
        w.u64(2)
        w.section(ser.SECTION_SCORES, np.zeros((2, 2)).tobytes())
        with pytest.raises(CheckpointError, match="missing a required section"):
            sp.AttributionScores.from_bytes(ser.seal(w.getvalue()))

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown scoring method"):
            sp.AttributionScores(np.zeros((2, 2)), "leverage")
        with pytest.raises(ValueError, match="finite"):
            sp.AttributionScores(np.array([[np.nan]]), sp.SHAPLEY)
