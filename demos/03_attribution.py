"""
Scoring embedding parameters by their effect on the loss
========================================================

Each embedding coordinate gets a score: the average change in log loss when
that coordinate is zeroed, averaged over every order in which the active
coordinates of an instance could be removed. The exact value enumerates all
2^(m*d) coordinate subsets per distinct instance, which is affordable here
because the toy setup has m*d = 9. The sampled estimator walks random
removal orders instead and converges at the usual Monte Carlo rate.
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

exact = sp.exact_shapley_global(model, ds)
print(f"exact scores over a {exact.values.shape} table "
      f"({exact.forward_count} forward passes)")

print("\npasses  mae_vs_exact  forwards")
for passes in (1, 4, 16, 64):
    est = sp.estimate_shapley(model, ds, passes=passes, seed=0)
    mae = np.abs(est.values - exact.values).mean()
    print(f"{passes:6d}  {mae:.6f}      {est.forward_count}")

# the estimator is exactly efficient for any number of passes: summed scores
# equal the average loss jump from removing everything, because each sampled
# walk telescopes from the full model to the empty one
est = sp.estimate_shapley(model, ds, passes=2, seed=5)
jump = []
for inst in ds:
    removal = np.ones((inst.field_count, model.embedding.d), bool)
    jump.append(sp.removal_loss_delta(model, inst, removal))
print(f"\nsum of scores       {est.values.sum():+.12f}")
print(f"mean full-removal   {np.mean(jump):+.12f}")

# cheap baselines for comparison live behind the same score-matrix interface
mag = sp.score_magnitude(model)
tay = sp.score_taylor(model, ds)
corr = np.corrcoef(mag.values.ravel(), exact.values.ravel())[0, 1]
print(f"\nmagnitude |E| correlation with exact scores: {corr:+.3f}")
print(f"taylor forward count: {tay.forward_count} (one gradient batch)")

# scores serialize like every other artifact in the system
blob = exact.to_bytes()
assert sp.AttributionScores.from_bytes(blob).to_bytes() == blob
print("score file round trip: byte-identical")
