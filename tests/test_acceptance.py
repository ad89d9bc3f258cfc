"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one pass/fail line with its measured values and the
tolerance it was held to. The heavyweight synthetic fixture is shared by the
quality and fine-tuning checks; everything else runs on small deterministic
setups.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

import shapprune as sp
from shapprune.serialization import SECTION_KEPT

from helpers import (
    codebook_objective,
    dense_batch_gradients,
    flat_fm_model,
    flat_gradient,
    full_removal_jumps,
    pruned_sections,
    table_game_exact_shapley,
    tiny_random_model,
)


@pytest.fixture(scope="module")
def synth_env():
    """Zipf-distributed synthetic CTR data with planted strong tokens, split
    50k/10k, plus five independently trained FM models with their Shapley and
    magnitude scores."""
    config = sp.SyntheticConfig(rows=60_000, seed=2024)
    rows = sp.synthetic_rows(config)
    vocab = sp.build_vocabulary(rows, sp.synthetic_schema(config), min_count=0)
    full = sp.encode_rows(rows, vocab)
    train_ds = sp.dataset_from_encoded(full.ids[:50_000], full.labels[:50_000], vocab)
    test_ds = sp.dataset_from_encoded(full.ids[50_000:], full.labels[50_000:], vocab)
    runs = []
    for seed in range(5):
        cfg = sp.TrainConfig(
            backbone=sp.FM, dim=8, epochs=4, batch_size=256,
            learning_rate=1e-3, seed=seed,
        )
        model = sp.train(train_ds, cfg)
        runs.append(
            {
                "seed": seed,
                "model": model,
                "shapley": sp.estimate_shapley(model, train_ds, passes=1, seed=seed),
                "magnitude": sp.score_magnitude(model),
            }
        )
    return {"vocab": vocab, "train": train_ds, "test": test_ds, "runs": runs}


class TestAcceptance:
    def test_01_estimator_accuracy_and_speed(
        self, criterion, toy_model, toy_corpus, toy_exact_scores
    ):
        _, _, _, ds = toy_corpus
        passes = 500
        walks = passes * len(ds)
        start = time.perf_counter()
        estimate = sp.estimate_shapley(toy_model, ds, passes=passes, seed=0)
        seconds = time.perf_counter() - start
        mae = float(np.abs(estimate.values - toy_exact_scores.values).mean())
        ok = walks >= 20_000 and mae <= 5e-3 and seconds <= 60.0
        criterion(
            1,
            "estimator-accuracy-and-speed",
            ok,
            f"walks={walks} >= 20000, mae={mae:.6f} <= 0.005, "
            f"seconds={seconds:.2f} <= 60",
        )

    def test_02_attribution_efficiency(self, criterion, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        # sampled estimator: the walk marginals telescope, so the score
        # total must equal the mean full-removal loss delta
        estimate = sp.estimate_shapley(toy_model, ds, passes=3, seed=8)
        deltas = full_removal_jumps(toy_model, ds.ids, ds.labels)
        walk_mean = float(np.mean(deltas))
        total = float(estimate.values.sum())
        normalized_gap = abs(total - walk_mean) / max(1.0, abs(walk_mean))
        # exact oracle: per-instance efficiency axiom
        oracle_gap = 0.0
        for k in range(len(ds)):
            phi = sp.exact_shapley_local(toy_model, ds.ids[k], ds.labels[k])
            oracle_gap = max(oracle_gap, abs(float(phi.sum()) - deltas[k]))
        ok = normalized_gap <= 1e-9 and oracle_gap <= 1e-10
        criterion(
            2,
            "attribution-efficiency",
            ok,
            f"estimator_gap={normalized_gap:.2e} <= 1e-09, "
            f"oracle_gap={oracle_gap:.2e} <= 1e-10",
        )

    def test_03_null_players(self, criterion, toy_model, toy_corpus):
        _, _, vocab, ds = toy_corpus
        victim = vocab.offsets[2] + vocab.tables[2]["d"]
        keep = [k for k in range(len(ds)) if ds.ids[k, 2] != victim]
        sub = sp.dataset_from_encoded(ds.ids[keep], ds.labels[keep], vocab)
        inactive = np.ones(vocab.n, bool)
        inactive[np.unique(sub.ids)] = False
        assert inactive.any()
        estimate = sp.estimate_shapley(toy_model, sub, passes=3, seed=1)
        exact = sp.exact_shapley_global(toy_model, sub)
        est_zero = bool(np.all(estimate.values[inactive] == 0.0))
        exact_zero = bool(np.all(exact.values[inactive] == 0.0))
        ok = est_zero and exact_zero
        criterion(
            3,
            "null-players",
            ok,
            f"inactive_features={int(inactive.sum())}, "
            f"estimator_rows_bitwise_zero={est_zero}, oracle_rows_bitwise_zero={exact_zero}",
        )

    def test_04_variance_scaling(
        self, criterion, toy_model, toy_corpus, toy_exact_scores
    ):
        _, _, _, ds = toy_corpus
        top = np.argsort(np.abs(toy_exact_scores.values).ravel())[::-1][:10]
        seeds = range(20)
        base = np.stack(
            [sp.estimate_shapley(toy_model, ds, passes=4, seed=s).values.ravel()[top]
             for s in seeds]
        )
        quad = np.stack(
            [sp.estimate_shapley(toy_model, ds, passes=16, seed=s).values.ravel()[top]
             for s in seeds]
        )
        ratio = float((quad.std(axis=0, ddof=1) / base.std(axis=0, ddof=1)).mean())
        ok = 0.35 <= ratio <= 0.65
        criterion(
            4,
            "variance-scaling",
            ok,
            f"std_ratio_4x_passes={ratio:.3f} in [0.35, 0.65], "
            "averaged over top-10 |score| parameters, 20 seeds",
        )

    def test_05_field_level_reduction(self, criterion):
        # two fields, four-row table, DeepFM head: the all-coordinates game
        # (12 players) must agree with the per-instance game (6 players)
        # scattered onto the active rows, and inactive rows must be zero
        vocab = sp.Vocabulary(sp.FieldSchema.categorical(2), ({"x": 0}, {"y": 0}), 0)
        config = sp.TrainConfig(backbone=sp.DEEPFM, dim=3, hidden=(4,), seed=9)
        model = sp.init_model(vocab, config)
        rng = np.random.default_rng(42)
        model.backbone.linear[...] = rng.normal(0.0, 0.3, 4)
        model.backbone.bias = 0.17
        ids = np.array([0, 2])

        table_game = table_game_exact_shapley(model, ids, 1, dim=3, n_rows=4)
        local = sp.exact_shapley_local(model, ids, 1)
        scattered = np.zeros((4, 3))
        scattered[[0, 2]] = local
        active_gap = float(np.abs(table_game - scattered).max())
        inactive_zero = bool(np.all(table_game[[1, 3]] == 0.0))
        ok = active_gap <= 1e-10 and inactive_zero
        criterion(
            5,
            "field-level-reduction",
            ok,
            f"max_gap_vs_full_table_game={active_gap:.2e} <= 1e-10, "
            f"inactive_rows_exactly_zero={inactive_zero}",
        )

    def test_06_codebook_optimality(self, criterion, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        closed = sp.compute_codebook(toy_model, ds)
        shape = closed.values.shape
        table = toy_model.embedding.values
        offsets = toy_model.embedding.offsets
        freq = ds.frequencies

        # route 1: numerically minimize the frequency-weighted squared
        # distance between each field's rows and its codebook entry, written
        # out row by row with no shared code
        def weighted_quadratic(flat):
            candidate = flat.reshape(shape)
            total = 0.0
            for j in range(shape[0]):
                block = table[offsets[j]:offsets[j + 1]]
                weights = freq[offsets[j]:offsets[j + 1]]
                resid = block - candidate[j]
                total += (weights[:, None] * resid * resid).sum()
            return total

        result = minimize(
            weighted_quadratic, np.zeros(closed.values.size), method="BFGS",
            options={"gtol": 1e-12},
        )
        numeric_gap = float(np.abs(result.x.reshape(shape) - closed.values).max())

        # route 2: under a common-random-numbers Monte Carlo estimate of the
        # deployment objective, no nearby candidate scores lower
        def sampled(candidate_values):
            return codebook_objective(
                toy_model, ds, sp.Codebook(candidate_values), 0.5,
                n_samples=10_000, seed=77,
            )

        best = sampled(closed.values)
        rng = np.random.default_rng(123)
        beaten = 0
        for _ in range(50):
            delta = rng.normal(size=shape)
            delta *= 0.1 / np.abs(delta).max()
            if sampled(closed.values + delta) < best:
                beaten += 1
        ok = numeric_gap <= 1e-6 and beaten == 0
        criterion(
            6,
            "codebook-optimality",
            ok,
            f"max_entry_gap_vs_bfgs={numeric_gap:.2e} <= 1e-06, "
            f"perturbations_beating_closed_form={beaten}/50 "
            "(sup-norm 0.1, common random numbers)",
        )

    def test_07_budget_and_compression(
        self, criterion, toy_model, toy_exact_scores, toy_corpus
    ):
        _, _, _, ds = toy_corpus
        n, d = toy_model.embedding.values.shape
        budgets_exact = True
        sizes = []
        zero_bit_exact = True
        roundtrip_ok = True
        for t in (0.0, 0.5, 0.8, 0.95):
            pruned = sp.prune(toy_model, toy_exact_scores, t, frequencies=ds.frequencies)
            budgets_exact &= pruned.prune_mask().count == int(np.rint(t * n * d))
            sizes.append(len(pruned.to_bytes()))
            roundtrip_ok &= sp.PrunedModel.from_bytes(pruned.to_bytes()).to_bytes() == pruned.to_bytes()
            if t == 0.0:
                zero_bit_exact = bool(
                    np.array_equal(
                        sp.predict_proba_values(
                            pruned.effective_values(), pruned.backbone, ds.ids
                        ),
                        sp.predict_proba(toy_model, ds.ids),
                    )
                )
        shrinking = all(b < a for a, b in zip(sizes, sizes[1:]))

        big_model, big_ds = flat_fm_model(6, 40, 64, seed=3)
        big = sp.prune(
            big_model, sp.score_magnitude(big_model), 0.95,
            frequencies=big_ds.frequencies,
        )
        dense_bytes = big_model.embedding.values.size * 8
        kept_bytes = len(dict(pruned_sections(big.to_bytes()))[SECTION_KEPT])
        factor = dense_bytes / kept_bytes
        ok = budgets_exact and zero_bit_exact and shrinking and roundtrip_ok and factor >= 10.0
        criterion(
            7,
            "budget-and-compression",
            ok,
            f"budgets_exact={budgets_exact} for t in (0, 0.5, 0.8, 0.95), "
            f"t0_bit_exact={zero_bit_exact}, files_strictly_shrink={shrinking}, "
            f"roundtrip_identical={roundtrip_ok}, "
            f"embedding_compression={factor:.1f}x >= 10x at t=0.95",
        )

    def test_08_end_to_end_quality(self, criterion, synth_env):
        train_ds, test_ds = synth_env["train"], synth_env["test"]
        grid = (0.5, 0.8, 0.95)
        losses = {"shapley": [], "magnitude": [], "random": []}
        for run in synth_env["runs"]:
            model = run["model"]
            random_scores = np.random.default_rng(1000 + run["seed"]).random(
                model.embedding.values.shape
            )
            per_method = {
                "shapley": run["shapley"],
                "magnitude": run["magnitude"],
                "random": random_scores,
            }
            for name, scores in per_method.items():
                row = []
                for t in grid:
                    pruned = sp.prune(
                        model, scores, t, frequencies=train_ds.frequencies
                    )
                    row.append(sp.evaluate(pruned, test_ds).logloss)
                losses[name].append(row)
        mean = {name: np.mean(rows, axis=0) for name, rows in losses.items()}
        dense = np.mean([sp.evaluate(run["model"], test_ds).logloss for run in synth_env["runs"]])
        beats_random = bool(np.all(mean["shapley"] < mean["random"]))
        ties_or_beats_magnitude = int(np.sum(mean["shapley"] <= mean["magnitude"]))
        ok = beats_random and ties_or_beats_magnitude >= 2
        detail = ", ".join(
            f"t={t}: shapley={mean['shapley'][k]:.4f} magnitude={mean['magnitude'][k]:.4f} "
            f"random={mean['random'][k]:.4f}"
            for k, t in enumerate(grid)
        )
        criterion(
            8,
            "end-to-end-quality",
            ok,
            f"shapley_below_random_at_all_t={beats_random}, "
            f"shapley_at_or_below_magnitude={ties_or_beats_magnitude}/3 (need >= 2), "
            f"5-seed means over 10k held-out rows: dense={dense:.4f}, {detail}",
        )

    def test_09_gradient_correctness(self, criterion):
        from helpers import flatten_params

        h = 1e-5
        worst = 0.0
        for index in range(10):
            kind = sp.FM if index % 2 == 0 else sp.DEEPFM
            model, ids, labels = tiny_random_model(
                100 + index, kind, n_fields=3, field_size=2, dim=2
            )
            _, grad, head_grad = dense_batch_gradients(
                model.embedding.values, model.backbone, ids[:1], labels[:1]
            )
            flat_grad = flat_gradient(grad, head_grad)
            theta, write_back = flatten_params(model)
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
                rel = abs(flat_grad[k] - numeric) / max(
                    abs(flat_grad[k]), abs(numeric), 1e-6
                )
                worst = max(worst, rel)
        ok = worst <= 1e-4
        criterion(
            9,
            "gradient-correctness",
            ok,
            f"max_relative_error={worst:.2e} <= 1e-04 over 10 random models, "
            "central differences h=1e-05",
        )

    def test_10_forward_accounting(self, criterion, toy_model, toy_corpus):
        _, _, _, ds = toy_corpus
        passes = 5
        scores = sp.estimate_shapley(toy_model, ds, passes=passes, seed=3)
        md = ds.ids.shape[1] * toy_model.embedding.d
        expected = (md + 1) * len(ds) * passes
        ok = scores.forward_count == expected
        criterion(
            10,
            "forward-accounting",
            ok,
            f"forward_count={scores.forward_count} == (m*d+1)*instances*passes={expected}",
        )

    def test_11_masked_fine_tuning(self, criterion, synth_env):
        vocab = synth_env["vocab"]
        train_ds, test_ds = synth_env["train"], synth_env["test"]
        run = synth_env["runs"][0]
        pruned = sp.prune(
            run["model"], run["shapley"], 0.8, frequencies=train_ds.frequencies
        )
        before = sp.evaluate(pruned, test_ds).logloss
        config = sp.TrainConfig(
            backbone=sp.FM, dim=8, epochs=2, batch_size=256,
            learning_rate=5e-4, seed=0,
        )
        init = sp.Model(
            sp.EmbeddingTable(pruned.effective_values().copy(), pruned.offsets.copy()),
            pruned.backbone,
            vocab,
        )
        mask = pruned.prune_mask()
        tuned = sp.train(train_ds, config, init=init, mask=mask, padding=sp.ZERO)
        after = sp.evaluate(tuned, test_ds).logloss
        frozen = bool(np.all(tuned.embedding.values[mask.dense()] == 0.0))
        ok = after <= before + 2e-3 and frozen
        criterion(
            11,
            "masked-fine-tuning",
            ok,
            f"test_logloss_before={before:.4f} after={after:.4f} "
            f"(allowed +0.002), masked_coords_bitwise_at_padding={frozen}",
        )
