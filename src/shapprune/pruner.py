"""One-shot embedding-table pruning to an exact parameter budget.

Given an (n, d) score matrix, prune(model, scores, t) empties the
round(t * n * d) lowest-scoring coordinates (ties: lower feature frequency
first, then larger row index, then larger column index). The coordinates are
ranked once and every budget prunes a prefix of that ranking, so pruned sets
nest across budgets and prune_curve ranks once for its whole grid. Only the
embedding table is pruned; linear weights, bias, and MLP parameters ride
along untouched. A PrunedModel is the pruned-coordinate flags plus the
padded table the scorer reads; the kept-entries bitmap exists only in its
file codec.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import serialization as ser
from .codebook import Codebook, codebook_from_section, codebook_section_payload, impute
from .data import Dataset
from .model import (
    BackboneParams,
    Model,
    PruneMask,
    log_loss,
    predict_proba_values,
    read_backbone,
    read_head,
    write_backbone,
    write_head,
)

ZERO = "zero"
CODEBOOK = "codebook"
_PAD_CODES = {ZERO: 0, CODEBOOK: 1}
_CODE_PADS = {code: name for name, code in _PAD_CODES.items()}


def parameter_budget(sparsity: float, n: int, d: int) -> int:
    """Number of coordinates to prune: round(t * n * d), ties to even."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    return int(np.rint(sparsity * n * d))


def _gives_budget(sparsity: float, n: int, d: int, pruned: int) -> bool:
    """Whether sparsity is in [0, 1] (so finite) and prunes exactly pruned
    of n * d coordinates: the rule a pruned model and its file obey."""
    return 0.0 <= sparsity <= 1.0 and parameter_budget(sparsity, n, d) == pruned


@dataclass
class PrunedModel:
    """Pruned checkpoint: flags is a bool (n, d) array, True at pruned
    coordinates; values is the (n, d) table the scorer reads, the kept
    entries bit for bit and, at pruned coordinates, zero (codebook None) or
    the row's field codebook entry. Only the file stores the kept entries,
    as a row bitmap and their values (to_bytes, _read_kept)."""

    flags: np.ndarray
    values: np.ndarray
    offsets: np.ndarray
    backbone: BackboneParams
    codebook: Codebook | None
    sparsity: float

    def __post_init__(self):
        pruned = int(np.count_nonzero(self.flags))
        if not _gives_budget(self.sparsity, self.n, self.dim, pruned):
            raise ValueError(
                f"sparsity {self.sparsity} does not give the flags' {pruned} pruned coordinates"
            )

    @property
    def n(self) -> int:
        return int(self.flags.shape[0])

    @property
    def dim(self) -> int:
        return int(self.flags.shape[1])

    @property
    def padding(self) -> str:
        return ZERO if self.codebook is None else CODEBOOK

    @property
    def kept_count(self) -> int:
        return self.flags.size - int(np.count_nonzero(self.flags))

    def prune_mask(self) -> PruneMask:
        return PruneMask.from_dense(self.flags)

    def effective_values(self) -> np.ndarray:
        """The (n, d) table the scorer reads (values itself, not a copy)."""
        return self.values

    def to_bytes(self) -> bytes:
        w = ser.ByteWriter()
        w.u8(ser.TAG_PRUNED)
        write_head(w, self.backbone.kind, self.offsets, self.n, self.dim)
        w.u8(_PAD_CODES[self.padding])
        w.f64(self.sparsity)
        write_backbone(w, self.backbone)
        kept = ~self.flags
        values = self.values.ravel()[np.flatnonzero(kept)].astype("<f8", copy=False)
        w.section(ser.SECTION_KEPT, np.packbits(kept, axis=1).tobytes() + values.tobytes())
        if self.codebook is not None:
            w.section(ser.SECTION_CODEBOOK, codebook_section_payload(self.codebook))
        return ser.seal(w.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrunedModel":
        r = ser.unseal(data)
        ser.expect_kind(r, ser.TAG_PRUNED, "a pruned model")
        head = _, offsets, n, d = read_head(r)
        code = r.u8()
        if code not in _CODE_PADS:
            raise ser.CheckpointError(f"unknown padding code {code}")
        sparsity = r.f64()
        backbone = read_backbone(r, head)
        kept = codebook = None
        for tag, payload in r.sections():
            if tag == ser.SECTION_KEPT:
                kept = _read_kept(payload, n, d)
            elif tag == ser.SECTION_CODEBOOK:
                codebook = codebook_from_section(payload, offsets.shape[0] - 1, d)
        if kept is None:
            raise ser.CheckpointError("pruned model is missing its kept-entries section")
        if (_CODE_PADS[code] == CODEBOOK) != (codebook is not None):
            raise ser.CheckpointError(
                "codebook padding requires a codebook section and zero padding forbids one"
            )
        flags, stored = kept
        pruned = int(np.count_nonzero(flags))
        if not _gives_budget(sparsity, n, d, pruned):
            raise ser.CheckpointError(
                f"header sparsity {sparsity} does not give the file's {pruned} pruned coordinates"
            )
        values = impute(stored, offsets, flags, ZERO if codebook is None else codebook)
        return cls(flags, values, offsets, backbone, codebook, sparsity)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())


def _read_kept(payload: bytes, n: int, d: int) -> tuple:
    """(flags, values) of an n-row kept section as (n, d) arrays, pruned
    coordinates flagged and zero. The section must be exactly what to_bytes
    writes: each row's padding bits past column d - 1 are zero, and one f64
    follows the bitmap for every set bit."""
    r = ser.ByteReader(payload)
    width = (d + 7) // 8
    bits = np.unpackbits(np.frombuffer(r.take(n * width), np.uint8).reshape(n, width), axis=1)
    if bits[:, d:].any():
        raise ser.CheckpointError("kept bitmap has padding bits set")
    kept = np.flatnonzero(bits[:, :d])
    if len(payload) != n * width + 8 * kept.size:
        raise ser.CheckpointError("kept section length does not match its bitmap")
    values = np.zeros(n * d)
    values[kept] = np.frombuffer(r.take(8 * kept.size), "<f8")
    return bits[:, :d] == 0, values.reshape(n, d)


def load_pruned(path) -> PrunedModel:
    with open(path, "rb") as fh:
        return PrunedModel.from_bytes(fh.read())


def _rank(model: Model, scores, padding: str, codebook, frequencies) -> tuple:
    """Validate prune's inputs and rank all n * d coordinates once.

    Returns the flat scores, the same scores sorted ascending, and the flat
    coordinate indices in tie order: lower frequency first, then larger row,
    then larger column. The pruning order is lowest score first, ties in tie
    order; every budget prunes a prefix of it (_cut).
    """
    n, d = model.embedding.values.shape
    score_matrix = np.asarray(scores.values if hasattr(scores, "values") else scores)
    if score_matrix.shape != (n, d):
        raise ValueError("score matrix shape does not match the embedding table")
    if not np.isfinite(score_matrix).all():
        raise ValueError("scores must be finite")
    if padding not in _PAD_CODES:
        raise ValueError(f'padding must be "{ZERO}" or "{CODEBOOK}"')
    if padding == CODEBOOK and codebook is None:
        raise ValueError("codebook padding requires a codebook")
    frequencies = np.zeros(n, np.int64) if frequencies is None else np.asarray(frequencies)
    if frequencies.shape != (n,):
        raise ValueError(f"frequencies must hold one count per embedding row ({n})")
    # a stable sort of the rows read in reverse puts the larger row first
    # among equal frequencies; each row then contributes columns d-1..0
    rows = n - 1 - np.argsort(frequencies[::-1], kind="stable")
    tie_order = (rows[:, None] * d + np.arange(d - 1, -1, -1)).ravel()
    flat_scores = score_matrix.ravel()
    return flat_scores, np.sort(flat_scores), tie_order


def _cut(model: Model, ranking, sparsity, padding, codebook) -> PrunedModel:
    """Empty the first round(sparsity * n * d) coordinates of the _rank
    order: every score below the budget's threshold score, then the
    threshold's tie group in tie order until the budget is spent. -0.0 and
    +0.0 compare equal, so they share one tie group."""
    flat_scores, sorted_scores, tie_order = ranking
    values = model.embedding.values
    n, d = values.shape
    budget = parameter_budget(sparsity, n, d)
    flags = np.zeros(n * d, bool)
    if budget:
        threshold = sorted_scores[budget - 1]
        np.less(flat_scores, threshold, out=flags)
        need = budget - np.count_nonzero(flags)
        flags[tie_order[(flat_scores == threshold)[tie_order]][:need]] = True
        if budget < n * d:
            # every pruned score sits at or below every kept score
            assert flat_scores[flags].max() <= flat_scores[~flags].min()
    flags = flags.reshape(n, d)
    codebook = codebook if padding == CODEBOOK else None
    offsets = model.embedding.offsets
    table = impute(values, offsets, flags, ZERO if codebook is None else codebook)
    return PrunedModel(flags, table, offsets.copy(), model.backbone, codebook, sparsity)


def prune(
    model: Model,
    scores,
    sparsity: float,
    padding: str = ZERO,
    codebook: Codebook | None = None,
    frequencies: np.ndarray | None = None,
) -> PrunedModel:
    """Empty the round(sparsity * n * d) lowest-scoring embedding coordinates.

    scores must be finite. frequencies (one count per feature id) only
    breaks score ties: lower-frequency features go first, then larger row,
    then larger column, making the kept set a deterministic function of the
    inputs. Every budget prunes a prefix of that one ranking, so for
    t1 < t2 the coordinates pruned at t1 are also pruned at t2. Kept values
    are copied bit for bit. Any monotone transform of the scores yields the
    same mask.
    """
    ranking = _rank(model, scores, padding, codebook, frequencies)
    return _cut(model, ranking, sparsity, padding, codebook)


def auc_rank(labels: np.ndarray, predictions: np.ndarray):
    """Area under the ROC curve via tie-averaged ranks, or None when only
    one class is present."""
    labels = np.asarray(labels)
    positives = int(labels.sum())
    negatives = labels.shape[0] - positives
    if positives == 0 or negatives == 0:
        return None
    # each tie group shares the mean of its 1-based ranks, (start + end + 1) / 2
    _, group, counts = np.unique(predictions, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    ranks = ((2 * ends - counts + 1) / 2.0)[group]
    return float(
        (ranks[labels == 1].sum() - positives * (positives + 1) / 2.0)
        / (positives * negatives)
    )


@dataclass(frozen=True)
class EvalReport:
    logloss: float
    auc: float | None


def evaluate(target, dataset: Dataset) -> EvalReport:
    """Log loss and AUC (None for a single-class dataset) of a dense or
    pruned model on a dataset laid out by the model's vocabulary. Sizes
    belong to the codecs: len(to_bytes()) or the file on disk."""
    if isinstance(target, PrunedModel):
        values, offsets = target.effective_values(), target.offsets
    else:
        values, offsets = target.embedding.values, target.embedding.offsets
    dataset.vocab.check_layout(values.shape[0], offsets)
    predictions = predict_proba_values(values, target.backbone, dataset.ids)
    losses = log_loss(predictions, dataset.labels.astype(np.float64))
    return EvalReport(float(np.mean(losses)), auc_rank(dataset.labels, predictions))


def prune_curve(
    model: Model,
    scores,
    sparsities,
    dataset: Dataset,
    padding: str = ZERO,
    codebook: Codebook | None = None,
    frequencies: np.ndarray | None = None,
) -> list:
    """Evaluate a strictly increasing sparsity grid. Returns one row per t
    with keys sparsity, auc, logloss, kept_params, file_bytes.

    Row t equals evaluating prune(model, scores, t, ...), and its
    file_bytes is that model's encoded size. The coordinates
    are ranked once for the whole grid and each point prunes a prefix of
    that ranking, so the pruned sets nest along the grid."""
    grid = list(sparsities)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sparsity grid must be strictly increasing")
    ranking = _rank(model, scores, padding, codebook, frequencies)
    rows = []
    for t in grid:
        pruned = _cut(model, ranking, t, padding, codebook)
        report = evaluate(pruned, dataset)
        rows.append(
            {
                "sparsity": t,
                "auc": report.auc,
                "logloss": report.logloss,
                "kept_params": pruned.kept_count,
                "file_bytes": len(pruned.to_bytes()),
            }
        )
    return rows


CURVE_HEADER = ("sparsity", "auc", "logloss", "kept_params", "file_bytes")


def write_curve_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for row in rows:
            auc = row["auc"]
            writer.writerow(
                [
                    f"{row['sparsity']:g}",
                    "nan" if auc is None else f"{auc:.6f}",
                    f"{row['logloss']:.6f}",
                    row["kept_params"],
                    row["file_bytes"],
                ]
            )


def frequency_bucket_report(pruned: PrunedModel, frequencies: np.ndarray, buckets: int = 3):
    """Mean kept dimensions per frequency bucket.

    Features are sorted by frequency and split into min(buckets, n)
    near-equal groups, lowest first. Shows where the budget went."""
    kept_per_feature = pruned.dim - np.count_nonzero(pruned.flags, axis=1)
    order = np.argsort(frequencies, kind="stable")
    out = []
    for chunk in np.array_split(order, min(buckets, order.shape[0])):
        out.append(
            {
                "features": int(chunk.shape[0]),
                "mean_kept_dims": float(kept_per_feature[chunk].mean()),
                "min_frequency": int(frequencies[chunk].min()),
                "max_frequency": int(frequencies[chunk].max()),
            }
        )
    return out
