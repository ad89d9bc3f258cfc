"""One-shot embedding-table pruning to an exact parameter budget.

Given an (n, d) score matrix, prune(model, scores, t) empties the
round(t * n * d) lowest-scoring coordinates (ties: lower feature frequency
first, then larger row index, then larger column index) and stores the
survivors in CSR form. The coordinates are ranked once and every budget
prunes a prefix of that ranking, so pruned sets nest across budgets and
prune_curve ranks once for its whole grid. Only the embedding table is
pruned; linear weights, bias, and MLP parameters ride along untouched.
Scoring a pruned model reads zero or the field codebook row at emptied
coordinates and is bit-identical to scoring the dense model through an
imputed view of the same table.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import serialization as ser
from .codebook import Codebook, codebook_from_section, codebook_section_payload, impute
from .data import Dataset
from .model import (
    BackboneParams,
    Model,
    PruneMask,
    log_loss,
    model_to_bytes,
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


@dataclass
class PrunedModel:
    """Pruned checkpoint: kept embedding entries in CSR plus the backbone.

    col_idx[row_ptr[i]:row_ptr[i+1]] are the kept columns of feature i in
    strictly increasing order, with their values in csr_values at the same
    slots. padding names what pruned coordinates read at score time.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    csr_values: np.ndarray
    offsets: np.ndarray
    dim: int
    backbone: BackboneParams
    padding: str
    codebook: Codebook | None
    sparsity: float

    def __post_init__(self):
        self._effective = None
        if self.padding == CODEBOOK and self.codebook is None:
            raise ValueError("codebook padding requires a codebook")

    @property
    def n(self) -> int:
        return int(self.row_ptr.shape[0]) - 1

    @property
    def kept_count(self) -> int:
        return int(self.row_ptr[-1])

    def _kept_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def prune_mask(self) -> PruneMask:
        flags = np.ones((self.n, self.dim), bool)
        flags[self._kept_rows(), self.col_idx] = False
        return PruneMask(flags)

    def effective_values(self) -> np.ndarray:
        """Dense (n, d) table the scorer actually reads: kept values in
        place, padding everywhere else."""
        if self._effective is None:
            stored = np.zeros((self.n, self.dim))
            stored[self._kept_rows(), self.col_idx] = self.csr_values
            pad = self.codebook if self.padding == CODEBOOK else ZERO
            self._effective = impute(stored, self.offsets, self.prune_mask().dense(), pad)
        return self._effective

    def to_bytes(self) -> bytes:
        w = ser.ByteWriter()
        w.u8(ser.TAG_PRUNED)
        write_head(w, self.backbone.kind, self.offsets, self.n, self.dim)
        w.u8(_PAD_CODES[self.padding])
        w.f64(self.sparsity)
        write_backbone(w, self.backbone)
        csr = ser.ByteWriter()
        csr.array(self.row_ptr.astype("<u8"))
        csr.array(self.col_idx.astype("<u4"))
        csr.array(self.csr_values.astype("<f8"))
        w.section(ser.SECTION_CSR, csr.getvalue())
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
        csr = codebook = None
        for tag, payload in r.sections():
            if tag == ser.SECTION_CSR:
                csr = _read_csr(payload, n, d)
            elif tag == ser.SECTION_CODEBOOK:
                codebook = codebook_from_section(payload, offsets.shape[0] - 1, d)
        if csr is None:
            raise ser.CheckpointError("pruned model is missing its CSR section")
        if _CODE_PADS[code] == CODEBOOK and codebook is None:
            raise ser.CheckpointError("codebook padding requires a codebook section")
        return cls(*csr, offsets, d, backbone, _CODE_PADS[code], codebook, sparsity)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())


def _read_csr(payload: bytes, n: int, d: int) -> tuple:
    """(row_ptr, col_idx, values) of an n-row CSR section, rejecting any
    layout other than the one prune writes: rows of at most d strictly
    increasing columns below d, and no bytes past the last value."""
    r = ser.ByteReader(payload)
    row_ptr = np.frombuffer(r.take(8 * (n + 1)), "<u8").astype(np.int64)
    per_row = np.diff(row_ptr)
    if row_ptr[0] != 0 or (per_row < 0).any() or (per_row > d).any():
        raise ser.CheckpointError("CSR row pointers are not a valid row index")
    kept = int(row_ptr[-1])
    if len(payload) != 8 * (n + 1) + 12 * kept:
        raise ser.CheckpointError("CSR section length does not match its row pointers")
    col_idx = np.frombuffer(r.take(4 * kept), "<u4")
    flat = np.repeat(np.arange(n), per_row) * d + col_idx
    if (col_idx >= d).any() or (np.diff(flat) <= 0).any():
        raise ser.CheckpointError("CSR columns are out of range or not increasing")
    values = np.frombuffer(r.take(8 * kept), "<f8").copy()
    return row_ptr, col_idx.astype(np.int32), values


def load_pruned(path) -> PrunedModel:
    with open(path, "rb") as fh:
        return PrunedModel.from_bytes(fh.read())


def _rank(model: Model, scores, padding: str, codebook, frequencies) -> tuple:
    """Validate prune's inputs and rank all n * d coordinates once.

    Returns the flat scores and the flat coordinate indices in pruning
    order: lowest score first, ties to lower frequency, then larger row,
    then larger column. Every budget prunes a prefix of this one order.
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
    return flat_scores, tie_order[np.argsort(flat_scores[tie_order], kind="stable")]


def _cut(model: Model, flat_scores, order, sparsity, padding, codebook) -> PrunedModel:
    """Empty the first round(sparsity * n * d) coordinates of a _rank order."""
    values = model.embedding.values
    n, d = values.shape
    budget = parameter_budget(sparsity, n, d)
    flags = np.zeros(n * d, bool)
    flags[order[:budget]] = True
    if budget and budget < n * d:
        # every pruned score sits at or below every kept score
        assert flat_scores[order[:budget]].max() <= flat_scores[~flags].min()
    kept = ~flags.reshape(n, d)
    row_ptr = np.zeros(n + 1, np.int64)
    np.cumsum(kept.sum(axis=1), out=row_ptr[1:])
    kept_rows, kept_cols = np.nonzero(kept)
    return PrunedModel(
        row_ptr,
        kept_cols.astype(np.int32),
        values[kept_rows, kept_cols].copy(),
        model.embedding.offsets.copy(),
        d,
        model.backbone,
        padding,
        codebook if padding == CODEBOOK else None,
        sparsity,
    )


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
    flat_scores, order = _rank(model, scores, padding, codebook, frequencies)
    return _cut(model, flat_scores, order, sparsity, padding, codebook)


def auc_rank(labels: np.ndarray, predictions: np.ndarray):
    """Area under the ROC curve via tie-averaged ranks, or None when only
    one class is present."""
    labels = np.asarray(labels)
    positives = int(labels.sum())
    negatives = labels.shape[0] - positives
    if positives == 0 or negatives == 0:
        return None
    ranks = rankdata(predictions, method="average")
    return float(
        (ranks[labels == 1].sum() - positives * (positives + 1) / 2.0)
        / (positives * negatives)
    )


@dataclass(frozen=True)
class EvalReport:
    logloss: float
    auc: float | None
    auc_defined: bool
    count: int
    storage_bytes: int


def evaluate(target, dataset: Dataset) -> EvalReport:
    """Log loss, AUC, and serialized size of a dense or pruned model on a
    dataset."""
    if isinstance(target, PrunedModel):
        values = target.effective_values()
        backbone = target.backbone
        blob = target.to_bytes()
    else:
        values = target.embedding.values
        backbone = target.backbone
        blob = model_to_bytes(target)
    predictions = predict_proba_values(values, backbone, dataset.ids)
    losses = log_loss(predictions, dataset.labels.astype(np.float64))
    auc = auc_rank(dataset.labels, predictions)
    return EvalReport(
        logloss=float(np.mean(losses)),
        auc=auc,
        auc_defined=auc is not None,
        count=len(dataset),
        storage_bytes=len(blob),
    )


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

    Row t equals evaluating prune(model, scores, t, ...). The coordinates
    are ranked once for the whole grid and each point prunes a prefix of
    that ranking, so the pruned sets nest along the grid."""
    grid = list(sparsities)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("sparsity grid must be strictly increasing")
    flat_scores, order = _rank(model, scores, padding, codebook, frequencies)
    rows = []
    for t in grid:
        pruned = _cut(model, flat_scores, order, t, padding, codebook)
        report = evaluate(pruned, dataset)
        rows.append(
            {
                "sparsity": t,
                "auc": report.auc,
                "logloss": report.logloss,
                "kept_params": pruned.kept_count,
                "file_bytes": report.storage_bytes,
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

    Features are sorted by frequency and split into `buckets` near-equal
    groups, lowest first. Shows where the budget went."""
    kept_per_feature = np.diff(pruned.row_ptr)
    order = np.argsort(frequencies, kind="stable")
    out = []
    for chunk in np.array_split(order, buckets):
        out.append(
            {
                "features": int(chunk.shape[0]),
                "mean_kept_dims": float(kept_per_feature[chunk].mean()),
                "min_frequency": int(frequencies[chunk].min()),
                "max_frequency": int(frequencies[chunk].max()),
            }
        )
    return out
