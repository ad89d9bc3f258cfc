"""Factorization-machine CTR models over one-hot-per-field inputs.

Both backbones share the same parameter layout: an embedding table E of shape
(n, d), per-feature linear weights w, a global bias b, and for the deep
variant a small ReLU MLP fed the concatenated active embeddings. The
pre-sigmoid score of an instance with active ids (i_1..i_m) is

    z = b + sum_j w[i_j] + pairwise(E[i_1..i_m])  [+ mlp(concat E[i_j])]

where pairwise is the usual half-of-square-minus-sum-of-squares form, summed
over embedding columns. Predictions are sigmoid(z) clamped away from 0 and 1.

Training is mini-batch Adam. A batch touches few of the table's rows, so its
embedding and linear gradients are computed as a block over the touched rows
only. Training renumbers the rows in the order the data first touches them,
so the rows touched so far are a prefix of the table. Each step decays both
Adam moments over that prefix, adds the gradient terms at the batch's rows
alone, and moves the prefix, all in place in preallocated scratch buffers;
the bias and MLP are stepped in full. A row past the prefix has never had a
gradient, so both its moments are +0.0 and dense Adam's step for it is +0.0,
which leaves it bit for bit as it was. Per coordinate this is the arithmetic
of dense Adam over a full-size gradient that is zero off the touched rows, so
the trained parameters are bit-identical to dense Adam's (see train for the
one signed-zero exception).

Everything runs in float64 and is deterministic under a fixed seed; training
the same config twice yields byte-identical checkpoints.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import serialization as ser
from .codebook import Codebook, codebook_from_section, codebook_section_payload, impute
from .data import Vocabulary

EPS = 1e-7
# Adam moment decay rates and denominator offset
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

FM = "fm"
DEEPFM = "deepfm"

_BACKBONE_TAGS = {FM: ser.TAG_MODEL_FM, DEEPFM: ser.TAG_MODEL_DEEPFM}
_TAG_BACKBONES = {tag: kind for kind, tag in _BACKBONE_TAGS.items()}


class NonFiniteError(ArithmeticError):
    """A forward stage produced a non-finite value."""


class TrainingDiverged(RuntimeError):
    """Training hit a non-finite loss; message carries epoch and batch."""


@dataclass
class EmbeddingTable:
    values: np.ndarray
    offsets: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def d(self) -> int:
        return int(self.values.shape[1])

    @property
    def field_count(self) -> int:
        return int(self.offsets.shape[0]) - 1


@dataclass
class BackboneParams:
    kind: str
    bias: float
    linear: np.ndarray
    layers: list  # [(W, b)] pairs: hidden layers with ReLU, then linear output


@dataclass
class PruneMask:
    """Set of pruned (feature id, embedding column) coordinates: flags is a
    bool (n, d) array, True where the coordinate is pruned."""

    flags: np.ndarray

    @classmethod
    def from_dense(cls, flags: np.ndarray) -> "PruneMask":
        return cls(np.array(flags, bool))

    def dense(self) -> np.ndarray:
        return self.flags

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.flags))

    @property
    def shape(self) -> tuple:
        return self.flags.shape


@dataclass
class Model:
    embedding: EmbeddingTable
    backbone: BackboneParams
    vocab: Vocabulary | None = None
    codebook: Codebook | None = None


@dataclass
class TrainConfig:
    backbone: str = FM
    dim: int = 8
    hidden: tuple = (16, 16)
    epochs: int = 5
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.backbone not in (FM, DEEPFM):
            raise ValueError(f"unknown backbone {self.backbone!r}")
        if self.dim < 1:
            raise ValueError("embedding dim must be at least 1")
        if self.backbone == DEEPFM and any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")


def init_model(vocab: Vocabulary, config: TrainConfig) -> Model:
    """Fresh model: embeddings uniform in +-1/sqrt(d), MLP He-uniform,
    linear weights and bias zero. Draw order is fixed, so a given seed
    always produces the same parameters."""
    rng = np.random.default_rng(config.seed)
    n, d = vocab.n, config.dim
    bound = 1.0 / math.sqrt(d)
    values = rng.uniform(-bound, bound, (n, d))
    layers = []
    if config.backbone == DEEPFM:
        widths = [vocab.field_count * d, *config.hidden, 1]
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            limit = math.sqrt(6.0 / fan_in)
            layers.append((rng.uniform(-limit, limit, (fan_out, fan_in)), np.zeros(fan_out)))
    backbone = BackboneParams(config.backbone, 0.0, np.zeros(n), layers)
    return Model(EmbeddingTable(values, vocab.offsets.copy()), backbone, vocab)


def _linear_term(backbone: BackboneParams, ids: np.ndarray):
    """bias + the linear weights of the active ids, summed over the last
    axis: a float for (m,) ids, (B,) for (B, m)."""
    return backbone.bias + backbone.linear[ids].sum(axis=-1)


def _pairwise(emb: np.ndarray):
    """Pairwise interaction term (B,) of a (B, m, d) embedding stack, and
    its column sums (B, d)."""
    total = emb.sum(axis=1)
    return 0.5 * ((total * total).sum(axis=-1) - (emb * emb).sum(axis=(-2, -1))), total


def _mlp_tail(layers: list, pre: np.ndarray, h=None, acts=None) -> np.ndarray:
    """MLP output (B,) from the first layer's pre-activation pre (B, h1):
    ReLU and each later layer in turn; a single-layer head is linear, so its
    pre-activation is the output. When acts is a list, each hidden layer
    appends its (input, pre-activation) pair, starting from the first
    layer's input h, and the output layer appends (input, None). Each
    hidden pre-activation is overwritten by its ReLU, which keeps the sign
    pattern (pre > 0) that the backward pass reads."""
    for W, b in layers[1:]:
        if acts is not None:
            acts.append((h, pre))
        h = np.maximum(pre, 0.0, out=pre)
        pre = h @ W.T
        pre += b
    if acts is not None:
        acts.append((h, None))
    return pre[:, 0]


def _forward(backbone: BackboneParams, ids: np.ndarray, emb: np.ndarray, acts=None):
    """Pre-sigmoid scores of a (B, m, d) embedding stack and its column sums
    (B, d). ids are the active feature ids: (B, m), one row per stack entry,
    or (m,), shared by every entry of a one-instance stack; they select the
    linear weights. When acts is a list, the MLP records the activations the
    backward pass reads (see _mlp_tail). Raises NonFiniteError naming the
    stage that went non-finite."""
    linear_term = _linear_term(backbone, ids)
    pair, total = _pairwise(emb)
    z = linear_term + pair
    if backbone.kind == DEEPFM:
        h = emb.reshape(emb.shape[0], -1)
        W, b = backbone.layers[0]
        z = z + _mlp_tail(backbone.layers, h @ W.T + b, h, acts)
    if not np.isfinite(z).all():
        for stage, part in (
            ("embedding", emb),
            ("linear", np.asarray(linear_term)),
            ("interaction", pair),
        ):
            if not np.isfinite(part).all():
                raise NonFiniteError(f"non-finite value in {stage} stage")
        raise NonFiniteError("non-finite value in mlp stage")
    return z, total


def clamp_probability(p):
    return np.clip(p, EPS, 1.0 - EPS)


def predict_proba(model: Model, ids_matrix: np.ndarray, batch_size: int = 8192) -> np.ndarray:
    """Clamped click probabilities for a matrix of encoded instances."""
    return predict_proba_values(model.embedding.values, model.backbone, ids_matrix, batch_size)


def predict_proba_values(values, backbone, ids_matrix, batch_size: int = 8192) -> np.ndarray:
    out = np.empty(ids_matrix.shape[0])
    for start in range(0, ids_matrix.shape[0], batch_size):
        chunk = ids_matrix[start : start + batch_size]
        z = _forward(backbone, chunk, values[chunk])[0]
        out[start : start + chunk.shape[0]] = clamp_probability(expit(z))
    return out


def log_loss(prediction, label):
    """Binary cross entropy with predictions clamped to [EPS, 1-EPS].
    Elementwise; returns a float for scalar inputs."""
    p = clamp_probability(np.asarray(prediction, dtype=np.float64))
    y = np.asarray(label, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(out) if out.ndim == 0 else out


@dataclass
class Gradients:
    """Gradients of a mini-batch loss: the embedding and linear parts hold
    only the rows the batch touches (see _batch_gradients); the bias and the
    MLP layers are full."""

    embedding: np.ndarray
    linear: np.ndarray
    bias: float
    layers: list


def _touched_rows(ids: np.ndarray, n: int):
    """The sorted distinct rows (U,) of an id array and, for each id in
    ravelled order, its index into them."""
    flat = ids.ravel()
    flag = np.zeros(n, bool)
    flag[flat] = True
    rows = np.flatnonzero(flag)
    where = np.empty(n, np.intp)
    where[rows] = np.arange(rows.shape[0])
    return rows, where[flat]


def _row_sums(where: np.ndarray, count: int, parts: np.ndarray) -> np.ndarray:
    """Sums of parts (K, ...) into count rows, part k going to row where[k]:
    shape (count, ...). Each row adds its parts in order of k starting from
    0.0, so the result is bitwise what np.add.at into zeros gives, signed
    zeros included; np.bincount does it several times faster."""
    width = math.prod(parts.shape[1:])
    bins = (where[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=parts.ravel(), minlength=count * width)
    return sums.reshape((count,) + parts.shape[1:])


def _batch_gradients(values, backbone, ids, labels, scale=None):
    """Mean loss, the touched rows and summed-then-scaled gradients for one
    mini-batch: (loss, rows, Gradients).

    Only the embedding and linear rows the batch touches can have a nonzero
    gradient, so those two come back row-sparse: rows are the sorted
    distinct ids (U,), the embedding gradient is their (U, d) block and the
    linear gradient is (U,). Every other row's gradient is exactly 0.0, and
    each touched row's is bitwise what np.add.at into a zero table gives
    (see _row_sums).

    scale defaults to 1/B so gradients match the mean loss; pass 1.0 for
    the gradient of the summed loss. Raises
    NonFiniteError when a score goes non-finite.
    """
    B, m = ids.shape
    d = values.shape[1]
    if scale is None:
        scale = 1.0 / B
    emb = values[ids]
    acts = []
    z, total = _forward(backbone, ids, emb, acts)

    p = expit(z)
    y = labels.astype(np.float64)
    loss = float(np.mean(log_loss(p, y)))
    dz = scale * (p - y)

    grad_bias = float(dz.sum())
    rows, where = _touched_rows(ids, values.shape[0])
    grad_linear = _row_sums(where, rows.shape[0], np.repeat(dz, m))

    demb = dz[:, None, None] * (total[:, None, :] - emb)

    grad_layers = []
    if backbone.kind == DEEPFM:
        W, _ = backbone.layers[-1]
        h_last = acts[-1][0]
        dout = dz[:, None]
        grad_layers.append((dout.T @ h_last, dout.sum(axis=0)))
        dh = dout @ W
        for (h_in, pre), (W, _) in zip(acts[-2::-1], backbone.layers[-2::-1]):
            da = dh * (pre > 0)
            grad_layers.append((da.T @ h_in, da.sum(axis=0)))
            dh = da @ W
        grad_layers.reverse()
        demb = demb + dh.reshape(B, m, d)

    grad_block = _row_sums(where, rows.shape[0], demb.reshape(-1, d))
    return loss, rows, Gradients(grad_block, grad_linear, grad_bias, grad_layers)


def _views(flat: np.ndarray, layers) -> list:
    """(W, b) pairs shaped like layers' that are consecutive views of flat."""
    out, start = [], 0
    for W, b in layers:
        stop = start + W.size
        out.append((flat[start:stop].reshape(W.shape), flat[stop : stop + b.size]))
        start = stop + b.size
    return out


def _first_touch_order(ids: np.ndarray, order: np.ndarray, batch_size: int, n: int):
    """Rows in order of the batch that first touches them when the instances
    of ids (N, m) are taken in order in batches of batch_size, ties in row
    order, and rows no instance holds last: (perm (n,), live_at), where
    live_at[b] is how many rows batches 0..b touch. A later epoch holds the
    same instances, so it touches no row past live_at[-1]."""
    batches = -(-ids.shape[0] // batch_size)
    first = np.full(n, batches)
    per_batch = ids.shape[1] * batch_size
    np.minimum.at(first, ids[order].ravel(), np.arange(ids.size) // per_batch)
    live_at = np.cumsum(np.bincount(first, minlength=batches + 1)[:batches]).tolist()
    return np.argsort(first, kind="stable"), live_at


def train(
    dataset,
    config: TrainConfig,
    init: Model | None = None,
    mask: PruneMask | None = None,
    padding=None,
    log_fn=None,
) -> Model:
    """Mini-batch Adam on the log loss. Deterministic for a fixed config.

    The embedding and linear rows are renumbered in the order the epoch-0
    batches first touch them (see _first_touch_order), and a step covers
    only the rows touched so far, a prefix of live rows: it decays both
    moments of those rows, adds the gradient terms at the rows the batch
    touches (the rest of the prefix has a zero gradient), and moves the
    prefix by its bias-corrected Adam step. The bias and the MLP, one flat
    vector that the returned model's layers are views of, are stepped in
    full. A row past the prefix has both moments +0.0, so dense Adam would
    move it by (0/c1)*lr / (sqrt(0/c2)+eps) = +0.0, and p - 0.0 is p bit for
    bit, -0.0 included; skipping it changes nothing. Each row gets the same
    gradient under any numbering, as _row_sums adds in instance order. The
    arithmetic per coordinate is that of dense Adam, so the trained
    parameters are bit-identical to it, with one exception: dense Adam adds
    a zero gradient term to a row the batch does not touch, which turns a
    first moment that underflowed to -0.0 into +0.0, and a parameter that
    is itself -0.0 then ends at -0.0 there and at +0.0 here. The step runs
    in place in two scratch buffers per updated array; the renumbered copy
    replaces the table, and the moments and buffers are freed before the
    rows are put back in order, so peak memory stays at about five
    tables.

    With a mask, the masked embedding coordinates are pinned to their padding
    values (zero or the codebook row) before the first step and their
    gradients are zeroed, so they never move. The input model is not
    modified; a trained copy is returned.
    """
    if init is not None:
        dataset.vocab.check_layout(init.embedding.n, init.embedding.offsets)
    model = copy.deepcopy(init) if init is not None else init_model(dataset.vocab, config)
    table = model.embedding
    backbone = model.backbone

    flags = None
    if mask is not None:
        if mask.shape != table.values.shape:
            raise ValueError("mask shape does not match the embedding table")
        flags = mask.dense()
        table.values = impute(table.values, table.offsets, flags, padding)

    # Train with the rows renumbered in first-touch order (see
    # _first_touch_order), so that every step's touched rows lie in a prefix
    # [:live] of the table; inv maps a row to its new number.
    shuffle_rng = np.random.default_rng((config.seed, 1))
    count = len(dataset)
    order = shuffle_rng.permutation(count)
    n = table.n
    perm, live_at = _first_touch_order(dataset.ids, order, config.batch_size, n)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    ids = inv[dataset.ids]
    values = table.values[perm]
    table.values = None
    backbone.linear = backbone.linear[perm]
    if flags is not None:
        flags = flags[perm]
    del perm

    # The bias and every MLP weight and bias are stepped as one flat vector,
    # which the backbone's layers become views of: one Adam update in place
    # of one per array, which is most of a small model's step.
    head = np.concatenate([[backbone.bias]] + [p.ravel() for pair in backbone.layers for p in pair])
    backbone.layers = _views(head[1:], backbone.layers)
    params = [values, backbone.linear, head]
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]

    step = 0
    for epoch in range(config.epochs):
        if epoch > 0:
            order = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            take = order[start : start + config.batch_size]
            live = live_at[batch_index if epoch == 0 else -1]
            try:
                loss, rows, grads = _batch_gradients(
                    values[:live], backbone, ids[take], dataset.labels[take]
                )
            except NonFiniteError:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} batch {batch_index}"
                ) from None
            if flags is not None:
                grads.embedding[flags[rows]] = 0.0
            head_grad = np.concatenate(
                [[grads.bias]] + [g.ravel() for pair in grads.layers for g in pair]
            )
            step += 1
            correct1 = 1.0 - BETA1 ** step
            correct2 = 1.0 - BETA2 ** step
            for p, g, at, m1, m2, (s1, s2) in zip(
                params, (grads.embedding, grads.linear, head_grad), (rows, rows, None),
                moment1, moment2, scratch,
            ):
                if at is not None and live < n:
                    # rows past live have zero moments, so their step would be +0.0
                    p, m1, m2, s1, s2 = p[:live], m1[:live], m2[:live], s1[:live], s2[:live]
                m1 *= BETA1
                m2 *= BETA2
                if at is None:
                    m1 += (1.0 - BETA1) * g
                    m2 += (1.0 - BETA2) * (g * g)
                else:
                    # gather into scratch, add, scatter back: about half the
                    # cost of m1[at] += ..., which gathers into a new array
                    part = m1.take(at, 0, s1[: at.shape[0]])
                    m1[at] = np.add(part, (1.0 - BETA1) * g, out=part)
                    part = m2.take(at, 0, part)
                    m2[at] = np.add(part, (1.0 - BETA2) * (g * g), out=part)
                # p -= learning_rate * (m1 / correct1) / (sqrt(m2 / correct2) + ADAM_EPS)
                np.divide(m1, correct1, out=s1)
                s1 *= config.learning_rate
                np.divide(m2, correct2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += ADAM_EPS
                s1 /= s2
                p -= s1
            backbone.bias = float(head[0])
            epoch_loss += loss * take.shape[0]
        if log_fn is not None:
            log_fn(epoch, epoch_loss / count)

    # free the moments and buffers before un-permuting allocates a table
    del moment1, moment2, scratch
    table.values = values[inv]
    backbone.linear = backbone.linear[inv]
    return model


def write_head(w: ser.ByteWriter, kind: str, offsets: np.ndarray, n: int, d: int) -> None:
    """Backbone tag, table shape and field offsets: the block every model
    and pruned checkpoint body carries first."""
    w.u8(_BACKBONE_TAGS[kind])
    w.u64(offsets.shape[0] - 1)
    w.u64(n)
    w.u64(d)
    w.array(offsets.astype("<u8"))


def read_head(r: ser.ByteReader) -> tuple:
    """Inverse of write_head: (kind, offsets, n, d). There are m >= 1 fields
    and d >= 1 columns, and the field offsets start at 0, strictly increase
    and end at n."""
    tag = r.u8()
    if tag not in _TAG_BACKBONES:
        raise ser.CheckpointError(f"file does not hold a model (kind tag {tag})")
    m, n, d = r.u64(), r.u64(), r.u64()
    if m == 0 or d == 0:
        raise ser.CheckpointError(f"table has {m} fields and {d} columns; each must be at least 1")
    offsets = np.frombuffer(r.take(8 * (m + 1)), "<u8").astype(np.int64)
    if offsets[0] != 0 or (np.diff(offsets) <= 0).any() or offsets[-1] != n:
        raise ser.CheckpointError("field offsets do not split the table's rows into fields")
    return _TAG_BACKBONES[tag], offsets, n, d


def write_backbone(w: ser.ByteWriter, backbone: BackboneParams) -> None:
    """Linear weights, bias, then each MLP layer's shape, weights and bias."""
    w.array(backbone.linear.astype("<f8"))
    w.f64(backbone.bias)
    w.u8(len(backbone.layers))
    for W, b in backbone.layers:
        w.u64(W.shape[0])
        w.u64(W.shape[1])
        w.array(W.astype("<f8"))
        w.array(b.astype("<f8"))


def read_backbone(r: ser.ByteReader, head: tuple) -> BackboneParams:
    """Inverse of write_backbone for the table a read_head result describes.
    An fm has no MLP layers; a deepfm's layer widths chain from m * d to 1."""
    kind, offsets, n, d = head
    linear = np.frombuffer(r.take(8 * n), "<f8").copy()
    bias = r.f64()
    layers = []
    width = (offsets.shape[0] - 1) * d
    for _ in range(r.u8()):
        rows, cols = r.u64(), r.u64()
        if kind == FM or cols != width:
            raise ser.CheckpointError("MLP layer shapes do not fit the backbone")
        W = np.frombuffer(r.take(8 * rows * cols), "<f8").reshape(rows, cols).copy()
        b = np.frombuffer(r.take(8 * rows), "<f8").copy()
        layers.append((W, b))
        width = rows
    if kind == DEEPFM and (not layers or width != 1):
        raise ser.CheckpointError("MLP layer shapes do not fit the backbone")
    return BackboneParams(kind, bias, linear, layers)


def model_to_bytes(model: Model) -> bytes:
    emb = model.embedding
    w = ser.ByteWriter()
    write_head(w, model.backbone.kind, emb.offsets, emb.n, emb.d)
    w.array(emb.values.astype("<f8"))
    write_backbone(w, model.backbone)
    if model.codebook is not None:
        w.section(ser.SECTION_CODEBOOK, codebook_section_payload(model.codebook))
    return ser.seal(w.getvalue())


def check_vocabulary(vocab: Vocabulary | None, n: int, offsets: np.ndarray) -> None:
    """Raise CheckpointError unless vocab (if given) has the n rows and the
    field offsets of a loaded checkpoint's table."""
    if vocab is not None and not vocab.matches(n, offsets):
        raise ser.CheckpointError("vocabulary does not match this checkpoint")


def model_from_bytes(data: bytes, vocab: Vocabulary | None = None) -> Model:
    r = ser.unseal(data)
    head = _, offsets, n, d = read_head(r)
    values = np.frombuffer(r.take(8 * n * d), "<f8").reshape(n, d).copy()
    backbone = read_backbone(r, head)
    codebook = None
    for tag, payload in r.sections():
        if tag == ser.SECTION_CODEBOOK:
            codebook = codebook_from_section(payload, offsets.shape[0] - 1, d)
    check_vocabulary(vocab, n, offsets)
    return Model(EmbeddingTable(values, offsets), backbone, vocab, codebook)


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path, vocab: Vocabulary | None = None) -> Model:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read(), vocab)
