"""Factorization-machine CTR models over one-hot-per-field inputs.

Both backbones share the same parameter layout: an embedding table E of shape
(n, d), per-feature linear weights w, a global bias b, and for the deep
variant a small ReLU MLP fed the concatenated active embeddings. The
pre-sigmoid score of an instance with active ids (i_1..i_m) is

    z = b + sum_j w[i_j] + pairwise(E[i_1..i_m])  [+ mlp(concat E[i_j])]

where pairwise is the usual half-of-square-minus-sum-of-squares form, summed
over embedding columns. Predictions are sigmoid(z) clamped away from 0 and 1.

Training is mini-batch lazy Adam, as in TF's LazyAdam and PyTorch's
SparseAdam. A batch touches few of the table's rows, so its embedding and
linear gradients are computed as a block over the touched rows only, and
each step updates both Adam moments and the parameters of those rows alone,
with the bias correction of the global step count. A row the batch does not
touch keeps its parameters and moments bit for bit, so a step's update
costs O(U*d) in the U rows it touches, not O(n*d) in the table. The bias
and the MLP get dense Adam.

Training, checkpoints and prediction run in float64 and are deterministic
under a fixed seed; training the same config twice yields byte-identical
checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
        if self.epochs < 0:
            raise ValueError("epochs must be at least 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def _sigmoid(z):
    """1 / (1 + exp(-z)) elementwise. A score below about -709 overflows
    exp(-z) to inf and gives exactly 0.0, without a warning."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def clamp_probability(p):
    return np.clip(p, EPS, 1.0 - EPS)


def predict_proba(model: Model, ids_matrix: np.ndarray, batch_size: int = 8192) -> np.ndarray:
    """Clamped click probabilities for a matrix of encoded instances."""
    return predict_proba_values(model.embedding.values, model.backbone, ids_matrix, batch_size)


def predict_proba_values(values, backbone, ids_matrix, batch_size: int = 8192) -> np.ndarray:
    out = np.empty(ids_matrix.shape[0])
    for start in range(0, ids_matrix.shape[0], batch_size):
        chunk = ids_matrix[start : start + batch_size]
        z = _forward(backbone, chunk, values.take(chunk, 0))[0]
        out[start : start + chunk.shape[0]] = clamp_probability(_sigmoid(z))
    return out


def log_loss(prediction, label):
    """Binary cross entropy with predictions clamped to [EPS, 1-EPS].
    Elementwise; returns a float for scalar inputs."""
    p = clamp_probability(np.asarray(prediction, dtype=np.float64))
    y = np.asarray(label, dtype=np.float64)
    out = -(y * np.log(p) + (1.0 - y) * np.log1p(-p))
    return float(out) if out.ndim == 0 else out


def _row_sums(ids: np.ndarray, n: int, parts: np.ndarray) -> tuple:
    """The sorted distinct rows (U,) of an id array over n table rows, and
    the sums (U, ...) of parts (K, ...), part k going to the row of the k-th
    id in ravelled order. Each row adds its parts in order of k starting
    from 0.0, so the sums are bitwise an in-order scatter-add into zeros,
    signed zeros included; np.bincount does it several times faster."""
    flat = ids.ravel()
    flag = np.zeros(n, bool)
    flag[flat] = True
    rows = np.flatnonzero(flag)
    where = np.empty(n, np.intp)
    where[rows] = np.arange(rows.shape[0])
    width = math.prod(parts.shape[1:])
    bins = (where[flat][:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=parts.ravel(), minlength=rows.shape[0] * width)
    return rows, sums.reshape(rows.shape + parts.shape[1:])


def _batch_gradients(values, backbone, ids, labels, scale=None):
    """Mean loss and summed-then-scaled gradients for one mini-batch, in the
    layouts train steps: (loss, rows, row_grad, head_grad).

    Only the embedding and linear rows the batch touches can have a nonzero
    gradient, so those come back row-sparse: rows are the sorted distinct
    ids (U,), and row_grad (U, d+1) holds each one's d embedding gradients,
    then its linear weight's. Every other row's gradient is exactly 0.0, and
    each touched row's is bitwise an in-order scatter-add into a zero table
    (see _row_sums). head_grad is the flat [bias, W1, b1, W2, b2, ...]
    gradient, each layer's part laid out as _views reads it.

    scale defaults to 1/B so gradients match the mean loss; pass 1.0 for
    the gradient of the summed loss. Raises
    NonFiniteError when a score goes non-finite.
    """
    B, m = ids.shape
    d = values.shape[1]
    if scale is None:
        scale = 1.0 / B
    emb = values.take(ids, 0)
    acts = []
    z, total = _forward(backbone, ids, emb, acts)

    p = _sigmoid(z)
    y = labels.astype(np.float64)
    loss = float(np.mean(log_loss(p, y)))
    dz = scale * (p - y)

    demb = total[:, None, :] - emb
    demb *= dz[:, None, None]

    head_grad = np.empty(1 + sum(W.size + b.size for W, b in backbone.layers))
    head_grad[0] = dz.sum()
    dh = dz[:, None]
    # output layer first; only hidden layers have a ReLU (pre is not None)
    for (h_in, pre), (W, _), (gW, gb) in zip(
        acts[::-1], backbone.layers[::-1], _views(head_grad[1:], backbone.layers)[::-1]
    ):
        da = dh if pre is None else dh * (pre > 0)
        np.matmul(da.T, h_in, out=gW)
        da.sum(axis=0, out=gb)
        dh = da @ W
    if backbone.kind == DEEPFM:
        demb += dh.reshape(B, m, d)

    # each id's embedding gradient, then its linear weight's (dz); the
    # arithmetic above ran about twice as slow on strided views of this buffer
    parts = np.concatenate((demb, np.broadcast_to(dz[:, None, None], (B, m, 1))), axis=2)
    rows, row_grad = _row_sums(ids, values.shape[0], parts.reshape(-1, d + 1))
    return loss, rows, row_grad, head_grad


def _views(flat: np.ndarray, layers) -> list:
    """(W, b) pairs shaped like layers' that are consecutive views of flat."""
    out, start = [], 0
    for W, b in layers:
        stop = start + W.size
        out.append((flat[start:stop].reshape(W.shape), flat[stop : stop + b.size]))
        start = stop + b.size
    return out


def _adam_delta(m1, m2, g, step: int, learning_rate: float) -> np.ndarray:
    """One Adam update of the moments m1 and m2 with the gradient g, in
    place, and the step the parameters move by, in a new array:
    learning_rate * (m1 / c1) / (sqrt(m2 / c2) + ADAM_EPS), where c1 and c2
    are the bias corrections of the given step count."""
    m1 *= BETA1
    m1 += (1.0 - BETA1) * g
    m2 *= BETA2
    m2 += (1.0 - BETA2) * (g * g)
    delta = np.divide(m1, 1.0 - BETA1 ** step)
    delta *= learning_rate
    root = np.divide(m2, 1.0 - BETA2 ** step)
    np.sqrt(root, out=root)
    root += ADAM_EPS
    delta /= root
    return delta


def train(
    dataset,
    config: TrainConfig,
    init: Model | None = None,
    mask: PruneMask | None = None,
    padding=None,
    log_fn=None,
) -> Model:
    """Mini-batch lazy Adam on the log loss. Deterministic for a fixed config.

    Each step gathers the Adam moments of the rows the batch touches, one
    (U, d+1) block per moment (a row's d embedding coordinates, then its
    linear weight), updates them with the batch's gradient block, scatters
    them back and moves those rows by the bias-corrected step of the global
    step count. Every other row keeps its parameters and moments bit for
    bit. The bias and the MLP, one flat vector that the returned model's
    layers are views of, get dense Adam. Beyond the parameters, training
    holds the two moments, about two tables, and per step only arrays the
    size of the batch.

    With a mask, the masked embedding coordinates are pinned to their padding
    values (zero or the codebook row) before the first step and their
    gradients are zeroed, so their moments stay +0.0, their step is exactly
    0.0 and they never move. The input model is not modified: a trained
    model is returned that shares init's vocabulary and codebook and owns
    copies of the arrays training writes.
    """
    if init is None:
        model = init_model(dataset.vocab, config)
    else:
        dataset.vocab.check_layout(init.embedding.n, init.embedding.offsets)
        # the MLP layers become views of a fresh flat vector below
        model = Model(
            EmbeddingTable(init.embedding.values.copy(), init.embedding.offsets),
            replace(init.backbone, linear=init.backbone.linear.copy()),
            init.vocab,
            init.codebook,
        )
    table = model.embedding
    backbone = model.backbone

    flags = None
    if mask is not None:
        if mask.shape != table.values.shape:
            raise ValueError("mask shape does not match the embedding table")
        flags = mask.dense()
        table.values = impute(table.values, table.offsets, flags, padding)
    values, linear = table.values, backbone.linear
    n, d = values.shape

    # The bias and every MLP weight and bias are stepped as one flat vector,
    # which the backbone's layers become views of: one Adam update in place
    # of one per array, which is most of a small model's step.
    head = np.concatenate([[backbone.bias]] + [p.ravel() for pair in backbone.layers for p in pair])
    backbone.layers = _views(head[1:], backbone.layers)
    # Row i of each row moment holds the moment of embedding row i, then of
    # linear weight i, so one gather serves both arrays.
    row_m1, row_m2 = np.zeros((n, d + 1)), np.zeros((n, d + 1))
    head_m1, head_m2 = np.zeros_like(head), np.zeros_like(head)

    shuffle_rng = np.random.default_rng((config.seed, 1))
    count = len(dataset)
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(count)
        epoch_loss = 0.0
        for batch_index, start in enumerate(range(0, count, config.batch_size)):
            take = order[start : start + config.batch_size]
            try:
                loss, rows, row_grad, head_grad = _batch_gradients(
                    values, backbone, dataset.ids[take], dataset.labels[take]
                )
            except NonFiniteError:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} batch {batch_index}"
                ) from None
            if flags is not None:
                row_grad[:, :d][flags[rows]] = 0.0
            step += 1
            m1, m2 = row_m1.take(rows, 0), row_m2.take(rows, 0)
            delta = _adam_delta(m1, m2, row_grad, step, config.learning_rate)
            row_m1[rows], row_m2[rows] = m1, m2
            # take gathers faster than the fancy index in values[rows] -= ...
            part = values.take(rows, 0)
            part -= delta[:, :d]
            values[rows] = part
            linear[rows] -= delta[:, d]
            head -= _adam_delta(head_m1, head_m2, head_grad, step, config.learning_rate)
            backbone.bias = float(head[0])
            epoch_loss += loss * take.shape[0]
        if log_fn is not None:
            log_fn(epoch, epoch_loss / count)
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
