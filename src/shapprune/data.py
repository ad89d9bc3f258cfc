"""Tabular CTR data: field schemas, vocabularies, encoded datasets.

Input rows are headerless CSV: column 0 is the binary label, columns 1..m
hold exactly one token per field (multi-valued fields are out of scope by
construction of this layout). Numeric fields are bucketed to log2 tokens
before any vocabulary lookup, so downstream code only ever sees categorical
ids; a numeric cell that is not a finite number (inf, nan, text) has no
bucket and is kept as its own token. Every field always materializes an
out-of-vocabulary id as its last slot, even when no token maps to it.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import serialization as ser
from .codebook import fields_from_offsets

CATEGORICAL = "categorical"
NUMERIC_BUCKETED = "numeric-bucketed"
FIELD_KINDS = (CATEGORICAL, NUMERIC_BUCKETED)

# Reserved token spellings. Angle brackets keep them out of the way of
# ordinary data tokens.
OOV_TOKEN = "<oov>"
MISSING_TOKEN = "<missing>"

_KIND_CODES = {CATEGORICAL: 0, NUMERIC_BUCKETED: 1}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}


class DataError(ValueError):
    """Malformed input rows or inconsistent dataset state."""


@dataclass(frozen=True)
class FieldSchema:
    """Names and kinds of the m input fields, in column order."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) == 0:
            raise DataError("schema needs at least one field")
        if len(self.names) != len(self.kinds):
            raise DataError("schema names and kinds differ in length")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate field names in schema")
        for kind in self.kinds:
            if kind not in FIELD_KINDS:
                raise DataError(f"unknown field kind {kind!r}")

    @property
    def field_count(self) -> int:
        return len(self.names)

    @classmethod
    def categorical(cls, m: int) -> "FieldSchema":
        """All-categorical schema with generated names f0..f{m-1}."""
        return cls(tuple(f"f{j}" for j in range(m)), (CATEGORICAL,) * m)

    def save(self, path) -> None:
        doc = {"fields": [{"name": n, "kind": k} for n, k in zip(self.names, self.kinds)]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FieldSchema":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            fields = doc["fields"]
            names = tuple(f["name"] for f in fields)
            kinds = tuple(f["kind"] for f in fields)
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed schema file {path}") from exc
        return cls(names, kinds)


def bucketize_numeric(value) -> str:
    """Token for a raw numeric value: ceil(log2 x) above 2, the integer part
    at or below 2, a reserved token when missing. A non-finite value (inf,
    -inf, nan) has no bucket and raises ValueError; the CSV tokenizer
    (_cell_token) keeps such a cell as its own token and never calls this
    with it."""
    if value is None:
        return MISSING_TOKEN
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"cannot bucketize non-finite value {value!r}")
    if x > 2:
        return str(math.ceil(math.log2(x)))
    return str(int(x))


def _cell_token(kind: str, cell: str) -> str:
    if cell == "":
        return MISSING_TOKEN
    if kind == NUMERIC_BUCKETED:
        try:
            x = float(cell)
        except ValueError:
            # text that is not a number (reserved tokens, for one) passes
            # through to the vocabulary lookup untouched
            return cell
        return bucketize_numeric(x) if math.isfinite(x) else cell
    return cell


def _parse_label(cell: str, row_number: int) -> int:
    text = cell.strip()
    if text == "":
        raise DataError(f"row {row_number}: missing label")
    try:
        y = float(text)
    except ValueError:
        raise DataError(f"row {row_number}: label {cell!r} is not 0 or 1") from None
    if y not in (0.0, 1.0):
        raise DataError(f"row {row_number}: label {cell!r} is not 0 or 1")
    return int(y)


def _check_width(row, m: int, row_number: int) -> None:
    if len(row) != m + 1:
        raise DataError(
            f"row {row_number}: expected {m + 1} columns (label + {m} fields), got {len(row)}"
        )


def _token_columns(raw_rows, schema: FieldSchema) -> tuple:
    """(labels, columns) of raw rows: each row's 0/1 label, and per field the
    tokens of its cells in row order. Rows are checked in order, each width
    before its label, so an error names the first malformed row."""
    m = schema.field_count
    rows = list(raw_rows)
    labels = []
    for row_number, row in enumerate(rows, 1):
        _check_width(row, m, row_number)
        labels.append(_parse_label(row[0], row_number))
    if not rows:
        raise DataError("empty dataset")
    columns = list(zip(*rows))[1:]
    return labels, [
        [_cell_token(kind, cell) for cell in column] for kind, column in zip(schema.kinds, columns)
    ]


@dataclass(frozen=True)
class Vocabulary:
    """Per-field token tables with globally unique feature ids.

    Field j owns the contiguous id block [offsets[j], offsets[j+1]); the last
    id of each block is that field's OOV id. Kept tokens are numbered in
    order of first appearance in the build data.
    """

    schema: FieldSchema
    tables: tuple[dict, ...]
    min_count: int

    @cached_property
    def offsets(self) -> np.ndarray:
        sizes = [len(t) + 1 for t in self.tables]
        return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)

    @property
    def n(self) -> int:
        return int(self.offsets[-1])

    @property
    def field_count(self) -> int:
        return self.schema.field_count

    def matches(self, n: int, offsets: np.ndarray) -> bool:
        """Whether this vocabulary lays out an n-row table split at offsets."""
        return self.n == n and np.array_equal(self.offsets, offsets)

    def check_layout(self, n: int, offsets: np.ndarray) -> None:
        """Raise ValueError unless a model's n-row table split at offsets is
        laid out by this vocabulary, so a dataset it encoded reads the
        right rows."""
        if not self.matches(n, offsets):
            raise ValueError("model and dataset do not share a vocabulary layout")

    @property
    def field_sizes(self) -> tuple[int, ...]:
        return tuple(len(t) + 1 for t in self.tables)

    @cached_property
    def feature_fields(self) -> np.ndarray:
        """(n,) array mapping each feature id to its field index."""
        return fields_from_offsets(self.offsets)

    def oov_id(self, field: int) -> int:
        return int(self.offsets[field + 1]) - 1

    @cached_property
    def _reverse(self) -> tuple:
        return tuple(list(t.keys()) + [OOV_TOKEN] for t in self.tables)

    def token_of(self, feature_id: int) -> str:
        if not 0 <= feature_id < self.n:
            raise DataError(f"feature id {feature_id} out of range")
        field = int(self.feature_fields[feature_id])
        return self._reverse[field][feature_id - int(self.offsets[field])]

    def to_bytes(self) -> bytes:
        w = ser.ByteWriter()
        w.u8(ser.TAG_VOCABULARY)
        w.u64(self.min_count)
        w.u64(self.field_count)
        for name, kind, table in zip(self.schema.names, self.schema.kinds, self.tables):
            w.text(name)
            w.u8(_KIND_CODES[kind])
            w.u64(len(table))
            for token in table:  # insertion order == id order
                w.text(token)
        return ser.seal(w.getvalue())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Vocabulary":
        r = ser.unseal(data)
        ser.expect_kind(r, ser.TAG_VOCABULARY, "a vocabulary")
        min_count = r.u64()
        m = r.u64()
        names, kinds, tables = [], [], []
        for _ in range(m):
            names.append(r.text())
            code = r.u8()
            if code not in _KIND_NAMES:
                raise ser.CheckpointError(f"unknown field kind code {code}")
            kinds.append(_KIND_NAMES[code])
            count = r.u64()
            table = {r.text(): k for k in range(count)}
            if len(table) != count:
                raise ser.CheckpointError(f"vocabulary field {names[-1]!r} lists a token twice")
            if OOV_TOKEN in table:
                raise ser.CheckpointError(
                    f"vocabulary field {names[-1]!r} lists the reserved token {OOV_TOKEN}"
                )
            tables.append(table)
        try:
            schema = FieldSchema(tuple(names), tuple(kinds))
        except DataError as exc:
            raise ser.CheckpointError(f"vocabulary header: {exc}") from None
        return cls(schema, tuple(tables), min_count)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def build_vocabulary(raw_rows, schema: FieldSchema, min_count: int = 0) -> Vocabulary:
    """Count tokens per field and assign ids to those with count >= min_count,
    in order of first appearance. Everything else encodes to the field's OOV
    id, and so does a cell spelled OOV_TOKEN, which is that id's own spelling
    (see Vocabulary.token_of) and never gets an id of its own. min_count
    must lie in [0, 2**64), the range a vocabulary file records.
    """
    if not 0 <= min_count < 2**64:
        raise DataError(f"min_count must be in [0, 2**64), got {min_count}")
    _, columns = _token_columns(raw_rows, schema)
    tables = []
    for column in columns:
        kept = [t for t, count in Counter(column).items() if count >= min_count and t != OOV_TOKEN]
        tables.append({t: k for k, t in enumerate(kept)})
    return Vocabulary(schema, tuple(tables), min_count)


@dataclass(frozen=True)
class Dataset:
    """Encoded rows: ids[k, j] is the active feature of field j in row k and
    labels[k] is row k's label. Every pipeline stage reads rows through
    these two arrays."""

    ids: np.ndarray
    labels: np.ndarray
    vocab: Vocabulary

    def __post_init__(self):
        ids, labels = self.ids, self.labels
        off = self.vocab.offsets
        if ids.ndim != 2 or ids.shape[1] != self.vocab.field_count:
            raise DataError("id matrix shape does not match the vocabulary")
        if ids.shape[0] == 0:
            raise DataError("empty dataset")
        if labels.shape != (ids.shape[0],):
            raise DataError("label vector length does not match the id matrix")
        if not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        if (ids < off[:-1]).any() or (ids >= off[1:]).any():
            raise DataError("feature id outside its field's block")

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @cached_property
    def frequencies(self) -> np.ndarray:
        """(n,) appearance count of each feature id; each field's block sums
        to len(self)."""
        return np.bincount(self.ids.ravel(), minlength=self.vocab.n).astype(np.int64)

    def fingerprint(self) -> int:
        """CRC32 over the encoded instances; identifies the exact dataset."""
        crc = zlib.crc32(np.ascontiguousarray(self.ids, dtype="<i8").tobytes())
        return zlib.crc32(np.ascontiguousarray(self.labels, dtype="<i8").tobytes(), crc)

    def subsample(self, fraction: float, seed: int) -> "Dataset":
        """Uniform subsample without replacement, original order preserved."""
        if not 0.0 < fraction <= 1.0:
            raise DataError(f"fraction must be in (0, 1], got {fraction}")
        if not 0 <= seed < 2**64:
            raise DataError(f"seed must be in [0, 2**64), got {seed}")
        if fraction == 1.0:
            return self
        count = max(1, int(np.rint(fraction * len(self))))
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(self), size=count, replace=False))
        return dataset_from_encoded(self.ids[keep], self.labels[keep], self.vocab)


def dataset_from_encoded(ids: np.ndarray, labels: np.ndarray, vocab: Vocabulary) -> Dataset:
    return Dataset(np.asarray(ids, dtype=np.int64), np.asarray(labels, dtype=np.int64), vocab)


def encode_rows(raw_rows, vocab: Vocabulary) -> Dataset:
    """Encode raw rows against a fixed vocabulary. Unknown tokens land on the
    field's OOV id; malformed rows raise with their 1-based row number."""
    labels, columns = _token_columns(raw_rows, vocab.schema)
    ids = np.empty((len(labels), vocab.field_count), np.int64)
    for j, (table, column) in enumerate(zip(vocab.tables, columns)):
        # a token the table lacks takes the field's last slot, its OOV id
        ids[:, j] = [table.get(token, len(table)) for token in column]
    ids += vocab.offsets[:-1]
    return dataset_from_encoded(ids, np.array(labels, np.int64), vocab)


def decode_rows(dataset: Dataset) -> list:
    """Rows of tokens that re-encode to exactly this dataset. Bucketed numeric
    ids decode to a representative raw value of their bucket."""
    schema = dataset.vocab.schema
    out = []
    for ids, label in zip(dataset.ids, dataset.labels):
        row = [str(label)]
        for j, fid in enumerate(ids):
            token = dataset.vocab.token_of(int(fid))
            if schema.kinds[j] == NUMERIC_BUCKETED and token not in (OOV_TOKEN, MISSING_TOKEN):
                try:
                    bucket = int(token)
                except ValueError:
                    pass
                else:
                    token = str(2 ** bucket) if bucket > 2 else str(bucket)
            row.append("" if token == MISSING_TOKEN else token)
        out.append(row)
    return out


def read_csv_rows(path) -> list:
    """Every row of a CSV file as a list of cells. A row the csv module
    cannot parse (a cell over its field size limit, say) is a DataError
    naming the file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None


def write_csv_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
