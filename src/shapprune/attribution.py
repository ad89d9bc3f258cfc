"""Per-parameter importance scores for the embedding table.

The Shapley scorer treats each column of each field's active embedding row as
a player in a cooperative game per instance: removing a player zeroes that
coordinate before scoring, and the payoff of a removal set is the resulting
increase in that instance's log loss. Per-instance attributions over the
m * d field-level players are scattered onto the (feature id, column)
coordinates that were active and averaged over the dataset, so a table entry
earns credit exactly when its feature participates. Features that never occur
in the dataset keep a bitwise-zero row.

The sampling estimator (Castro et al., 2009) walks one uniformly random
removal order per instance per pass and charges each coordinate the loss
increase its removal causes. A visit's removal order is keyed by (seed, pass,
instance index) alone: the three are folded into one SplitMix64 stream state
(Steele, Lea & Flood, 2014), and the order is the argsort of that stream's
first m * d outputs. The outputs of a stream are distinct, so the order is
uniform and unique. Visits are walked together in blocks of
min(1024, 49152 // (m * d + 1)) visits, one walk call per block, and the
blocks run in order on the calling thread. The block partition depends on
m * d alone; results can move in the last bits if the block or step-chunk
size changes, since a block's sums are grouped by block and a DeepFM's GEMM
rows can round differently with the number of rows multiplied together. A
block draws its orders in a few whole-array integer operations and one
argsort, and gathers the value each step removes once. A walk is not
re-scored from scratch at each step: removing value e from embedding column
c lowers the pairwise term by e * (S_c - e), S_c being that column's sum
over the coordinates still present, which one stable sort of the removal
order by column number turns into cumulative sums; and a DeepFM's first
layer is linear in the flat embedding, so its pre-activations drop by the
removed value times its weight column. Only the later MLP layers run per
step. The scores only rank coordinates, and their noise floor is the
Monte Carlo error, so a DeepFM walk runs its interior steps 1..m * d - 1
(the first-layer shifts and the MLP) in float32, a chunk of consecutive
steps at a time in one 512 KiB buffer that stays in L2 cache; a chunk hands
only its running first-layer sum to the next.
Steps 0 and m * d, the pairwise and linear terms, the losses and the sums
stay float64; the endpoints are computed directly, so each walk's marginals
still add up to its full-removal loss jump. An FM walk is all float64. A
block sums its marginals per touched row, and the blocks are merged into one
running table in block order. A block's visit numbers are made when it
runs, so memory is the table plus one block however many passes run.
Every visit evaluates the payoff at its m * d + 1 steps; the returned
metadata's forward_count tallies these payoff evaluations.

An exact enumeration oracle covers small instances (m * d <= 22), along with
two cheap baselines: absolute weight magnitude, and a first-order estimate
from the average gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialization as ser
from .data import Dataset
from .model import (
    DEEPFM,
    Model,
    NonFiniteError,
    _batch_gradients,
    _forward,
    _linear_term,
    _mlp_tail,
    _pairwise,
    _row_sums,
    _sigmoid,
    log_loss,
    predict_proba_values,
)

SHAPLEY = "shapley"
MAGNITUDE = "magnitude"
TAYLOR = "taylor"
METHODS = (SHAPLEY, MAGNITUDE, TAYLOR)

_METHOD_CODES = {SHAPLEY: 1, MAGNITUDE: 2, TAYLOR: 3}
_CODE_METHODS = {code: name for name, code in _METHOD_CODES.items()}

EXACT_PLAYER_LIMIT = 22

# Visits are walked in blocks of max(1, min(_BLOCK_VISITS, _WALK_ROWS //
# (md + 1))) visits: one _walk_losses call per block. A block sums its
# marginals per touched row, and the sums are added into one running table in
# block order. The partition depends on md alone, so the grouping of every
# sum is fixed by the model and the data. The cap bounds a narrow walk's
# block: uncapped, toy's md = 9 allows 4915-visit blocks, and its perfbench
# peak RSS went 43.7-43.9 -> 47.6 MB.
_BLOCK_VISITS = 1024
# Walk rows (one payoff each) per block. A DeepFM's prefix sum adds one step
# row of B * h1 values per call, so wide rows pay off: at md = 624 a block
# holds 78 visits, a row 4992 values at h1 = 64. The chunk buffer holds one
# chunk of steps (_CHUNK_VALUES), not the block's whole interior, so wider
# blocks cost it nothing; 65536 rows ran no faster and less steadily.
_WALK_ROWS = 49152
# Float32 values in one chunk of a DeepFM walk's interior steps: a chunk's
# first-layer rows are gathered, scaled, summed, subtracted from step 0 and
# run through the MLP while they sit in one 512 KiB buffer, which stays in a
# 2 MiB per-core L2 across those six sweeps. A whole interior (3.95 MiB at
# 26 visits and md = 624) went to L3 on every sweep; 262144 values ran no
# faster. A chunk holds at least one step.
_CHUNK_VALUES = 131072

# SplitMix64's stream increment: odd, so k * _GAMMA mod 2**64 is distinct
# for distinct k < 2**64.
_GAMMA = 0x9E3779B97F4A7C15


def _mix(x: np.ndarray) -> np.ndarray:
    """SplitMix64's output finaliser, a bijection of uint64, in place."""
    x ^= x >> 30
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    x ^= x >> 31
    return x


def _walk_orders(seed: int, pass_idx: np.ndarray, inst: np.ndarray, md: int) -> np.ndarray:
    """Removal orders (B, md) of the visits (pass_idx[b], inst[b]) under seed.

    Each visit's stream state hashes seed, then its pass, then its instance,
    each word xored in before one SplitMix64 step, so for one seed and pass
    distinct instances get distinct states. Its md sort keys are the stream's
    first md outputs, mix(state + k * gamma) for k = 1..md. A bijective mix
    of distinct inputs gives distinct keys, so the argsort is one uniformly
    random permutation whatever the sort algorithm, and row b depends on
    (seed, pass_idx[b], inst[b]) alone. All arithmetic is on arrays, where
    uint64 wraps mod 2**64 without the overflow warning of a numpy scalar."""
    state = _mix(np.full(inst.shape, seed, np.uint64) + _GAMMA)
    for word in (pass_idx, inst):
        state ^= word.astype(np.uint64)
        state = _mix(state + _GAMMA)
    keys = state[:, None] + np.arange(1, md + 1, dtype=np.uint64) * _GAMMA
    return np.argsort(_mix(keys), axis=1)


@dataclass
class AttributionScores:
    """(n, d) importance matrix plus the provenance needed to trust it."""

    values: np.ndarray
    method: str
    seed: int = 0
    passes: int = 0
    forward_count: int = 0
    dataset_fingerprint: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown scoring method {self.method!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("scores must be finite")

    def to_bytes(self) -> bytes:
        w = ser.ByteWriter()
        w.u8(ser.TAG_SCORES)
        w.u64(self.values.shape[0])
        w.u64(self.values.shape[1])
        w.section(ser.SECTION_SCORES, np.ascontiguousarray(self.values, "<f8").tobytes())
        meta = ser.ByteWriter()
        meta.u8(_METHOD_CODES[self.method])
        meta.u64(self.seed)
        meta.u64(self.passes)
        meta.u64(self.forward_count)
        meta.u32(self.dataset_fingerprint)
        w.section(ser.SECTION_METADATA, meta.getvalue())
        return ser.seal(w.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "AttributionScores":
        r = ser.unseal(data)
        ser.expect_kind(r, ser.TAG_SCORES, "a score matrix")
        n, d = r.u64(), r.u64()
        values = method = None
        seed = passes = count = fingerprint = 0
        for tag, payload in r.sections():
            if tag == ser.SECTION_SCORES:
                if len(payload) != 8 * n * d:
                    raise ser.CheckpointError("scores section does not hold n * d values")
                values = np.frombuffer(payload, "<f8").reshape(n, d).copy()
            elif tag == ser.SECTION_METADATA:
                meta = ser.ByteReader(payload)
                code = meta.u8()
                if code not in _CODE_METHODS:
                    raise ser.CheckpointError(f"unknown scoring method code {code}")
                method = _CODE_METHODS[code]
                seed, passes, count = meta.u64(), meta.u64(), meta.u64()
                fingerprint = meta.u32()
                if not meta.exhausted:
                    raise ser.CheckpointError("metadata section has trailing bytes")
        if values is None or method is None:
            raise ser.CheckpointError("score file is missing a required section")
        if not np.isfinite(values).all():
            raise ser.CheckpointError("score file holds non-finite scores")
        return cls(values, method, seed, passes, count, fingerprint)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "AttributionScores":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _removal_losses(model: Model, ids: np.ndarray, label, removed: np.ndarray):
    """The game's payoff: one instance's log loss for each removal set of a
    bool (K, m, d) stack, True where that (field, column) coordinate of the
    active rows is zeroed."""
    emb = model.embedding.values[ids] * ~removed
    return log_loss(_sigmoid(_forward(model.backbone, ids, emb)[0]), label)


def _prefix_sums(rows: np.ndarray, carry=None) -> None:
    """Running sums along axis 0, in place: rows[k] becomes carry + rows[0] +
    ... + rows[k], added left to right, so the bits are those of
    np.cumsum(axis=0) and, chunk after chunk with each chunk's last row as
    the next one's carry, those of one cumsum over all the chunks. Each step
    adds one contiguous row, where numpy's accumulate walks every lane of a
    row separately with a stride of one row."""
    if carry is not None:
        rows[0] += carry
    for k in range(1, rows.shape[0]):
        rows[k] += rows[k - 1]


def _pair_walk(emb: np.ndarray, gone: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The pairwise term (B, md + 1) at every step of B removal walks of the
    (B, m, d) stack emb, column k of it with the first k coordinates of
    perms[b] zeroed, gone[b, k] the value removed at step k. Removing e from
    column c lowers the term by e * (S - e), S being the column's sum over the
    coordinates still present; a stable sort of perms by column lists each
    column's steps in order, so S - e is its total minus a cumulative sum."""
    B, m, d = emb.shape
    md = m * d
    rows = np.arange(B)[:, None]
    pair0, total = _pairwise(emb)
    # a stable sort radix-sorts integers of 16 bits or less; int64 column
    # numbers go to timsort, about 2x slower at md = 624
    steps = np.argsort((perms % d).astype(np.min_scalar_type(d - 1)), axis=1, kind="stable")
    values = np.take_along_axis(gone, steps, axis=1).reshape(B, d, m)
    drop = np.empty((B, md))
    drop[rows, steps] = (values * (total[:, :, None] - np.cumsum(values, axis=-1))).reshape(B, md)
    pair = np.empty((B, md + 1))
    pair[:, 0] = pair0
    np.subtract(pair0[:, None], np.cumsum(drop, axis=1), out=pair[:, 1:])
    pair[:, md] = 0.0
    return pair


def _walk_losses(model: Model, ids: np.ndarray, labels: np.ndarray, perms: np.ndarray):
    """The payoff at every step of B removal walks, shape (B, md + 1): entry
    (b, k) is the loss of instance (ids[b], labels[b]) with the first k
    coordinates of perms[b] zeroed, a coordinate (j, c) being flat index
    j * d + c. Step 0 is the untouched instance and step md the fully
    removed one; both are computed directly in float64, so the walk's total
    does not depend on rounding along the way. A DeepFM's interior steps
    run in float32; an FM's walk is all float64."""
    backbone = model.backbone
    emb = model.embedding.values.take(ids, 0)
    B, m, d = emb.shape
    md = m * d
    gone = np.take_along_axis(emb.reshape(B, md), perms, axis=1)  # removed at each step
    z = _pair_walk(emb, gone, perms)
    z += _linear_term(backbone, ids)[:, None]
    if backbone.kind == DEEPFM:
        # The first layer is linear in the flat embedding: each removal
        # subtracts the removed value times its weight column. Steps 0 and
        # md run the float64 head directly (step md's first layer is b
        # alone); the interior steps 1..md-1 run in float32, step-major, so
        # every step's pre-activations are contiguous, in chunks of steps
        # that fit one _CHUNK_VALUES buffer. A chunk carries only its last
        # prefix row, the running sum, into the next.
        W, b = backbone.layers[0]
        head = [(w.astype(np.float32), c.astype(np.float32)) for w, c in backbone.layers]
        WT = np.ascontiguousarray(head[0][0].T)
        h1 = W.shape[0]
        ends = np.empty((B + 1, h1))
        np.matmul(emb.reshape(B, md), W.T, out=ends[:B])
        ends[:B] += b
        ends[B] = b
        pre0 = ends[:B].astype(np.float32)  # before the tail's ReLU overwrites ends
        tail = _mlp_tail(backbone.layers, ends)
        z[:, 0] += tail[:B]
        z[:, md] += tail[B]
        gone = gone.T.astype(np.float32)  # step-major
        span = max(1, _CHUNK_VALUES // (B * h1))
        work = np.empty(min(md - 1, span) * B * h1, np.float32)
        carry = None
        for k0 in range(1, md, span):
            k1 = min(k0 + span, md)
            shift = work[: (k1 - k0) * B * h1].reshape(k1 - k0, B, h1)
            # perms holds argsort output, so every index is in range, and
            # mode="clip" lets take write straight into out: the default
            # mode="raise" always buffers it.
            np.take(WT, perms.T[k0 - 1 : k1 - 1], axis=0, out=shift, mode="clip")
            np.multiply(shift, gone[k0 - 1 : k1 - 1, :, None], out=shift)
            _prefix_sums(shift, carry)
            carry = shift[-1].copy()
            np.subtract(pre0, shift, out=shift)
            z[:, k0:k1] += _mlp_tail(head, shift.reshape(-1, h1)).reshape(k1 - k0, B).T
    if not np.isfinite(z).all():
        raise NonFiniteError("non-finite score along a removal walk")
    return log_loss(_sigmoid(z), labels[:, None])


def _run_block(model: Model, dataset: Dataset, seed: int, visits: np.ndarray):
    """Touched rows (U,) and summed marginals (U, d) of the block of visit
    numbers visits, walked in one call; each row adds its marginals in visit
    order from 0.0."""
    n, d = model.embedding.values.shape
    md = dataset.ids.shape[1] * d
    pass_idx, inst = np.divmod(visits, len(dataset))
    ids = dataset.ids[inst]
    perms = _walk_orders(seed, pass_idx, inst, md)
    losses = _walk_losses(model, ids, dataset.labels[inst], perms)
    marginals = np.empty((visits.shape[0], md))
    # the marginal of step k belongs to the coordinate removed at step k
    marginals[np.arange(visits.shape[0])[:, None], perms] = np.diff(losses, axis=1)
    return _row_sums(ids, n, marginals.reshape(-1, d))


def estimate_shapley(
    model: Model, dataset: Dataset, passes: int = 1, seed: int = 0, threads: int = 1
) -> AttributionScores:
    """Sampled per-parameter Shapley attribution over the whole dataset.

    Runs `passes` removal walks per instance and averages the scattered
    marginals over len(dataset) * passes walks. The visits are cut into
    blocks whose size depends on m * d alone, and the blocks are walked in
    order on the calling thread, so identical inputs give identical scores.
    The forward counter in the result is always (m * d + 1) * len(dataset) *
    passes. The seed must lie in [0, 2**64), the range a score file records.
    `threads` must be 1; it stays only for the benchmark harness, which
    still passes threads=1.
    """
    dataset.vocab.check_layout(model.embedding.n, model.embedding.offsets)
    if passes < 1:
        raise ValueError("passes must be at least 1")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    total_visits = passes * len(dataset)
    md = dataset.ids.shape[1] * model.embedding.d
    size = max(1, min(_BLOCK_VISITS, _WALK_ROWS // (md + 1)))
    # skipping untouched rows is exact: phi starts at +0.0, and no sum is -0.0
    phi = np.zeros((model.embedding.n, model.embedding.d))
    for start in range(0, total_visits, size):
        visits = np.arange(start, min(start + size, total_visits))
        rows, sums = _run_block(model, dataset, seed, visits)
        phi[rows] += sums
    phi /= total_visits
    return AttributionScores(
        phi,
        SHAPLEY,
        seed=seed,
        passes=passes,
        forward_count=(md + 1) * total_visits,
        dataset_fingerprint=dataset.fingerprint(),
    )


def efficiency_gap(model: Model, dataset: Dataset, scores: AttributionScores) -> float:
    """|sum of the scores - mean loss jump| / max(1, |jump|), a row's jump
    being its loss with the whole table zeroed minus its loss under the
    model, both through predict_proba_values. Every walk runs from the model
    to the zeroed table, so a Shapley estimate over dataset has a gap at
    rounding level whatever its sampling error."""
    values, backbone = model.embedding.values, model.backbone
    full = log_loss(predict_proba_values(values, backbone, dataset.ids), dataset.labels)
    empty = log_loss(predict_proba_values(np.zeros_like(values), backbone, dataset.ids), dataset.labels)
    jump = float(np.mean(empty - full))
    return abs(float(scores.values.sum()) - jump) / max(1.0, abs(jump))


def _subset_weights(md: int) -> np.ndarray:
    # weight of a marginal contribution on top of a size-s removal set
    return np.array([1.0 / (md * math.comb(md - 1, s)) for s in range(md)])


def exact_shapley_local(model: Model, ids: np.ndarray, label) -> np.ndarray:
    """Exact field-level Shapley values of one encoded row, its active ids
    (m,) and label, shape (m, d), by full subset enumeration. Refuses ids
    outside their fields' blocks and rows with m * d > 22."""
    ids = np.asarray(ids)
    off = model.embedding.offsets
    if ids.shape != (model.embedding.field_count,):
        raise ValueError("instance has the wrong number of fields")
    if (ids < off[:-1]).any() or (ids >= off[1:]).any():
        raise ValueError("feature id outside its field's block")
    m, d = ids.shape[0], model.embedding.d
    md = m * d
    if md > EXACT_PLAYER_LIMIT:
        raise ValueError(
            f"instance too large for the exact oracle (m*d = {md} > {EXACT_PLAYER_LIMIT})"
        )
    total = 1 << md
    u = np.empty(total)
    pop = np.empty(total, np.uint8)
    chunk = 1 << 14
    bits_template = np.arange(md)
    for start in range(0, total, chunk):
        ints = np.arange(start, min(start + chunk, total), dtype=np.int64)
        removed = ((ints[:, None] >> bits_template) & 1).astype(bool)
        pop[start : start + ints.shape[0]] = removed.sum(axis=1)
        u[start : start + ints.shape[0]] = _removal_losses(
            model, ids, label, removed.reshape(-1, m, d)
        )
    u -= u[0]
    weights = _subset_weights(md)
    indices = np.arange(total, dtype=np.int64)
    phi = np.empty(md)
    for p in range(md):
        without = indices[(indices >> p) & 1 == 0]
        phi[p] = np.sum(weights[pop[without]] * (u[without + (1 << p)] - u[without]))
    return phi.reshape(m, d)


def exact_shapley_global(model: Model, dataset: Dataset) -> AttributionScores:
    """Dataset-averaged exact attribution: per-instance exact values scattered
    onto active feature rows and divided by len(dataset). Duplicate instances
    are evaluated once and reused."""
    dataset.vocab.check_layout(model.embedding.n, model.embedding.offsets)
    n, d = model.embedding.values.shape
    phi = np.zeros((n, d))
    cache: dict = {}
    forwards = 0
    for k in range(len(dataset)):
        key = (dataset.ids[k].tobytes(), int(dataset.labels[k]))
        local = cache.get(key)
        if local is None:
            local = exact_shapley_local(model, dataset.ids[k], dataset.labels[k])
            md = local.size
            forwards += 1 << md
            cache[key] = local
        phi[dataset.ids[k]] += local
    phi /= len(dataset)
    return AttributionScores(
        phi,
        SHAPLEY,
        seed=0,
        passes=0,
        forward_count=forwards,
        dataset_fingerprint=dataset.fingerprint(),
    )


def score_magnitude(model: Model) -> AttributionScores:
    """Absolute value of each stored embedding entry. No data involved."""
    return AttributionScores(np.abs(model.embedding.values), MAGNITUDE)


def score_taylor(model: Model, dataset: Dataset, batch_size: int = 8192) -> AttributionScores:
    """First-order importance: |entry * average gradient of the loss at that
    entry| over the dataset."""
    dataset.vocab.check_layout(model.embedding.n, model.embedding.offsets)
    grad_sum = np.zeros_like(model.embedding.values)
    for start in range(0, len(dataset), batch_size):
        ids = dataset.ids[start : start + batch_size]
        labels = dataset.labels[start : start + batch_size]
        _, rows, row_grad, _ = _batch_gradients(
            model.embedding.values, model.backbone, ids, labels, scale=1.0
        )
        grad_sum[rows] += row_grad[:, :-1]
    scores = np.abs(model.embedding.values * (grad_sum / len(dataset)))
    return AttributionScores(
        scores,
        TAYLOR,
        passes=1,
        forward_count=len(dataset),
        dataset_fingerprint=dataset.fingerprint(),
    )
