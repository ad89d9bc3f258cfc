"""
Training a click-through model and checkpointing it
===================================================

Fits a small factorization machine with a neural head on a synthetic corpus,
reports held-out quality, and shows that checkpoints restore bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np

import shapprune as sp

config = sp.SyntheticConfig(rows=6000, seed=7)
rows = sp.synthetic_rows(config)
vocab = sp.build_vocabulary(rows, sp.synthetic_schema(config), min_count=2)
full = sp.encode_rows(rows, vocab)
train_ds = sp.dataset_from_encoded(full.ids[:5000], full.labels[:5000], vocab)
test_ds = sp.dataset_from_encoded(full.ids[5000:], full.labels[5000:], vocab)
print(f"{vocab.n} feature ids over {vocab.field_count} fields,",
      f"{len(train_ds)} train rows, {len(test_ds)} test rows")

train_config = sp.TrainConfig(
    backbone=sp.DEEPFM, dim=4, hidden=(8,), epochs=3,
    batch_size=128, learning_rate=5e-3, seed=0,
)
model = sp.train(train_ds, train_config, log_fn=lambda e, loss: print(f"  epoch {e}: train loss {loss:.4f}"))

report = sp.evaluate(model, test_ds)
with tempfile.TemporaryDirectory() as tmp:
    first, second = Path(tmp) / "model.shvr", Path(tmp) / "again.shvr"
    sp.save_model(model, first)
    print(f"held out: logloss {report.logloss:.4f}, auc {report.auc:.4f}, "
          f"{first.stat().st_size} bytes on disk")

    # checkpoints carry the table's row count and field offsets, and loading
    # checks them against the vocabulary, so the wrong vocabulary fails
    # loudly instead of silently misreading ids
    restored = sp.load_model(first, vocab)
    assert np.array_equal(restored.embedding.values, model.embedding.values)
    sp.save_model(restored, second)
    assert first.read_bytes() == second.read_bytes()
    print("checkpoint round trip: bit-identical parameters")

    # training is a pure function of (data, config): same seed, same file
    sp.save_model(sp.train(train_ds, train_config), second)
    assert first.read_bytes() == second.read_bytes()
    print("retrain with the same seed: bit-identical checkpoint")
