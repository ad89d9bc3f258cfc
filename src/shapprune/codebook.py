"""Field-aware codebook: one replacement row per field for pruned entries.

When pruning empties a coordinate (i, c), scoring can either read zero there
or fall back to a shared per-field value C[j, c]. The codebook that minimizes
the expected squared perturbation of the embedding sum entering the pairwise
interaction, with instances drawn by feature frequency, is the closed-form
frequency-weighted mean of each field's rows:

    C[j, :] = sum_i p_i * E[i, :] / sum_i p_i   over features i of field j

because each field's residual term can be driven to zero independently and
the per-column quadratic is positive definite. compute_codebook evaluates
exactly that.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import serialization as ser


@dataclass(frozen=True)
class Codebook:
    """values[j, :] replaces pruned coordinates of field j's features.
    frequency_fingerprint ties the codebook to the frequency table that
    produced it."""

    values: np.ndarray
    frequency_fingerprint: int = 0


def fields_from_offsets(offsets: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))


def compute_codebook(model, dataset) -> Codebook:
    """Closed-form codebook from a trained model and the frequency table of
    the dataset it will be pruned against."""
    values = model.embedding.values
    offsets = model.embedding.offsets
    dataset.vocab.check_layout(values.shape[0], offsets)
    freq = dataset.frequencies.astype(np.float64)
    m, d = offsets.shape[0] - 1, values.shape[1]
    out = np.empty((m, d))
    for j in range(m):
        lo, hi = int(offsets[j]), int(offsets[j + 1])
        weight = freq[lo:hi]  # sums to len(dataset) >= 1: one id per field per row
        out[j] = weight @ values[lo:hi] / weight.sum()
    crc = zlib.crc32(np.ascontiguousarray(dataset.frequencies, dtype="<i8").tobytes())
    return Codebook(out, crc)


def impute(values: np.ndarray, offsets: np.ndarray, flags: np.ndarray, padding) -> np.ndarray:
    """Effective embedding rows: a new array holding values where flags is
    False and, where it is True, zero (padding="zero") or the row's field
    codebook entry (padding a Codebook).

    values is (k, d) with its rows grouped into fields by offsets (m+1);
    flags is a bool (k, d) array of pruned coordinates.
    """
    if isinstance(padding, Codebook):
        fill = padding.values[fields_from_offsets(offsets)]
    elif padding == "zero":
        fill = 0.0
    else:
        raise ValueError('padding must be "zero" or a Codebook')
    return np.where(flags, fill, values)


def codebook_section_payload(codebook: Codebook) -> bytes:
    w = ser.ByteWriter()
    w.u64(codebook.values.shape[0])
    w.u64(codebook.values.shape[1])
    w.u32(codebook.frequency_fingerprint)
    w.array(codebook.values.astype("<f8"))
    return w.getvalue()


def codebook_from_section(payload: bytes, m: int, d: int) -> Codebook:
    r = ser.ByteReader(payload)
    rows, cols = r.u64(), r.u64()
    if (rows, cols) != (m, d):
        raise ser.CheckpointError("codebook shape does not match the model")
    crc = r.u32()
    values = np.frombuffer(r.take(8 * m * d), "<f8").reshape(m, d).copy()
    if not r.exhausted:
        raise ser.CheckpointError("codebook section has trailing bytes")
    return Codebook(values, crc)
