"""Synthetic CTR data with planted feature importance.

The generator draws one token per field from a Zipf-like popularity curve and
labels each row through a hidden low-rank teacher: every token carries a
latent vector and a scalar effect, a small planted subset per field carries
much stronger ones, and the click probability is the sigmoid of the teacher's
linear plus pairwise-interaction score, centered so classes stay roughly
balanced. Models trained on this data concentrate their useful capacity on
the planted tokens, which is exactly the structure importance scoring is
supposed to find.

Also provides a tiny fixed-size dataset whose per-field token pools collapse
under a count threshold to vocabulary sizes (2, 2, 3) with every id, the
out-of-vocabulary ones included, occurring in the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FieldSchema

ZIPF_EXPONENT = 1.05
LATENT_RANK = 4
NOISE_SCALE = 0.05
STRONG_SCALE = 1.4
# strong tokens are planted among the popular head so the trained model
# actually encounters them; the tail stays noise
STRONG_POOL_FRACTION = 0.3


@dataclass(frozen=True)
class SyntheticConfig:
    fields: int = 5
    tokens_per_field: tuple = (400, 400, 400, 400, 400)
    rows: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.fields < 1:
            raise ValueError("fields must be at least 1")
        if len(self.tokens_per_field) != self.fields:
            raise ValueError("tokens_per_field must list one size per field")
        if any(t < 2 for t in self.tokens_per_field):
            raise ValueError("each field needs at least 2 tokens")
        if self.rows < 1:
            raise ValueError("rows must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def synthetic_rows(config: SyntheticConfig) -> list:
    """Rows of [label, token_0, ..., token_{m-1}] strings."""
    rng = np.random.default_rng(config.seed)
    m = config.fields

    token_idx = []
    latents = []
    effects = []
    for j in range(m):
        size = config.tokens_per_field[j]
        popularity = (1.0 + np.arange(size)) ** -ZIPF_EXPONENT
        popularity /= popularity.sum()
        token_idx.append(rng.choice(size, size=config.rows, p=popularity))
        theta = rng.normal(0.0, NOISE_SCALE, (size, LATENT_RANK))
        beta = np.zeros(size)
        pool = max(2, int(size * STRONG_POOL_FRACTION))
        strong = rng.choice(pool, size=max(2, size // 20), replace=False)
        theta[strong] = rng.normal(0.0, STRONG_SCALE, (strong.shape[0], LATENT_RANK))
        beta[strong] = rng.normal(0.0, 1.2, strong.shape[0])
        latents.append(theta)
        effects.append(beta)

    active = np.stack([latents[j][token_idx[j]] for j in range(m)], axis=1)  # (rows, m, r)
    total = active.sum(axis=1)
    pair = 0.5 * ((total * total).sum(axis=1) - (active * active).sum(axis=(1, 2)))
    logit = pair + sum(effects[j][token_idx[j]] for j in range(m))
    logit -= np.median(logit)
    labels = (rng.random(config.rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)

    columns = [[str(y) for y in labels.tolist()]]
    columns += [[f"t{i}" for i in idx.tolist()] for idx in token_idx]
    return [list(row) for row in zip(*columns)]


def synthetic_schema(config: SyntheticConfig) -> FieldSchema:
    return FieldSchema.categorical(config.fields)


TOY_MIN_COUNT = 4


def toy_rows(seed: int = 0) -> tuple:
    """40 rows over 3 categorical fields whose vocabularies, built with
    min_count=TOY_MIN_COUNT, come out sized (2, 2, 3): one or two kept tokens
    per field plus an out-of-vocabulary id that real rows actually hit,
    because each field also carries a trickle of sub-threshold rare tokens.
    """
    rng = np.random.default_rng(seed)
    rows_count = 40

    def column(spec):
        col = []
        for token, count in spec:
            col.extend([token] * count)
        assert len(col) == rows_count
        rng.shuffle(col)
        return col

    col0 = column([("a", 34), ("r1", 3), ("r2", 2), ("r3", 1)])
    col1 = column([("b", 33), ("r4", 3), ("r5", 3), ("r6", 1)])
    col2 = column([("c", 18), ("d", 14), ("r7", 3), ("r8", 3), ("r9", 2)])

    kept = {0: {"a"}, 1: {"b"}, 2: {"c", "d"}}
    weight = {
        (0, "a"): 1.2, (0, "<oov>"): -0.8,
        (1, "b"): -0.5, (1, "<oov>"): 1.0,
        (2, "c"): 0.9, (2, "d"): -1.1, (2, "<oov>"): 0.3,
    }

    rows = []
    for k in range(rows_count):
        tokens = (col0[k], col1[k], col2[k])
        groups = [t if t in kept[j] else "<oov>" for j, t in enumerate(tokens)]
        logit = sum(weight[(j, g)] for j, g in enumerate(groups))
        if groups[0] == "a" and groups[2] == "d":
            logit += 1.5
        if groups[1] == "<oov>" and groups[2] == "c":
            logit -= 1.3
        label = int(rng.random() < 1.0 / (1.0 + math.exp(-logit)))
        rows.append([str(label), *tokens])
    return rows, FieldSchema.categorical(3)
