"""
Pruning an embedding table to a parameter budget
================================================

Prunes a trained model to several sparsity targets in one shot, compares
three scoring methods on held-out data, and prints the storage story. No
retraining happens anywhere in this script.
"""

import numpy as np

import shapprune as sp
from shapprune.model import model_to_bytes

config = sp.SyntheticConfig(rows=12_000, seed=21)
rows = sp.synthetic_rows(config)
vocab = sp.build_vocabulary(rows, sp.synthetic_schema(config), min_count=0)
full = sp.encode_rows(rows, vocab)
train_ds = sp.dataset_from_encoded(full.ids[:10_000], full.labels[:10_000], vocab)
test_ds = sp.dataset_from_encoded(full.ids[10_000:], full.labels[10_000:], vocab)

model = sp.train(train_ds, sp.TrainConfig(
    backbone=sp.FM, dim=8, epochs=4, batch_size=256, learning_rate=1e-3, seed=0,
))
dense = sp.evaluate(model, test_ds)
dense_bytes = len(model_to_bytes(model))  # the checkpoint's size on disk
n, d = model.embedding.values.shape
print(f"dense model: {n}x{d} table, test logloss {dense.logloss:.4f}, "
      f"auc {dense.auc:.4f}, {dense_bytes} bytes")

scores = {
    "shapley": sp.estimate_shapley(model, train_ds, passes=1, seed=0),
    "magnitude": sp.score_magnitude(model),
    "random": np.random.default_rng(99).random((n, d)),
}

grid = (0.5, 0.8, 0.95)
print("\nmethod     " + "".join(f"  t={t:<6}" for t in grid) + " (test logloss)")
for name, score in scores.items():
    # one ranking per method; each budget prunes a prefix of it
    curve = sp.prune_curve(model, score, grid, test_ds, frequencies=train_ds.frequencies)
    print(f"{name:10s}" + "".join(f"  {row['logloss']:.4f}" for row in curve))

# budgets are exact: round(t * n * d) coordinates go, never one more or less
pruned = sp.prune(model, scores["shapley"], 0.95, frequencies=train_ds.frequencies)
print(f"\nt=0.95 keeps {pruned.kept_count} of {n * d} parameters "
      f"(budget {sp.parameter_budget(0.95, n, d)} pruned)")
print(f"file shrinks from {dense_bytes} to {len(pruned.to_bytes())} bytes")

# which features lose their parameters? group by training frequency
print("\nmean kept dimensions by frequency tercile (rare -> common):")
for bucket in sp.frequency_bucket_report(pruned, train_ds.frequencies):
    print(f"  {bucket['features']:4d} features seen "
          f"{bucket['min_frequency']}..{bucket['max_frequency']:<5d} times: "
          f"keep {bucket['mean_kept_dims']:.2f} of {d} dims")
