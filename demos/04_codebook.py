"""
A field-aware codebook for pruned coordinates
=============================================

Zeroing a pruned coordinate is free but crude. The codebook replaces every
pruned coordinate of field j with the frequency-weighted mean of that
field's embedding rows, which minimizes the expected squared perturbation of
the summed embedding vector. This script computes the closed form, checks
it against the weighted row means, and imputes a table with it.
"""

import numpy as np

import shapprune as sp

rows, schema = sp.toy_rows(seed=0)
vocab = sp.build_vocabulary(rows, schema, min_count=sp.TOY_MIN_COUNT)
ds = sp.encode_rows(rows, vocab)
model = sp.train(ds, sp.TrainConfig(
    backbone=sp.DEEPFM, dim=3, hidden=(3, 3), epochs=150,
    batch_size=16, learning_rate=1e-2, seed=1,
))

codebook = sp.compute_codebook(model, ds)
print("one codebook row per field:")
for j in range(vocab.field_count):
    lo, hi = vocab.offsets[j], vocab.offsets[j + 1]
    weights = ds.frequencies[lo:hi].astype(float)
    manual = (weights[:, None] * model.embedding.values[lo:hi]).sum(0) / weights.sum()
    print(f"  field {j}: {np.round(codebook.values[j], 4)}"
          f"  (weighted row mean, check {np.allclose(manual, codebook.values[j])})")

# imputation writes codebook entries into the pruned slots of a dense table
negative = model.embedding.values < 0
imputed = sp.impute(model.embedding.values, model.embedding.offsets, negative, codebook)
changed = imputed != model.embedding.values
print(f"\nimputed {changed.sum()} negative coordinates with their field's entry")
