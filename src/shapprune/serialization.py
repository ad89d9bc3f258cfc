"""Versioned binary container shared by every on-disk artifact.

Common layout:

    magic    4 bytes   b"SHVR"
    version  u32 LE
    body     format specific, starts with a kind tag byte
    crc32    u32 LE over every preceding byte

All integers are little-endian. Matrices are flat float64 row-major blocks.
Optional trailing data uses framed sections: tag u8, payload length u64,
payload bytes.

Bodies by kind. Two blocks are shared by dense and pruned models and have
one writer and one reader each (model.write_head/read_head and
model.write_backbone/read_backbone):

    head       backbone tag u8 (1 fm, 2 deepfm), field count m u64 (m >= 1),
               features n u64, dim d u64 (d >= 1), field offsets (m+1) u64
               that start at 0, strictly increase and end at n
    backbone   linear weights n f64, bias f64, layer count u8, then per
               layer: rows u64, cols u64, W rows*cols f64, b rows f64;
               fm has no layers, deepfm's widths chain from m*d to 1

    model      head (its backbone tag is the kind tag), table n*d f64,
               backbone, sections: codebook
    pruned     kind tag 18, head, padding code u8 (0 zero, 1 codebook),
               sparsity f64, backbone, sections: kept (required), codebook
               (present exactly when the padding code is 1)
    vocabulary kind tag 16, min count u64, m u64, then per field: name
               text, field kind u8, token count u64, tokens as text
    scores     kind tag 17, n u64, d u64, sections: scores, metadata

Sections:

    1 retired: held a pruned-coordinate mask; never written, never reused
    2 codebook  m u64, d u64, frequency fingerprint u32, values m*d f64
    3 retired: held the kept entries as CSR (row pointers, column
                indices, values); never written, never reused
    4 metadata  method code u8, seed u64, passes u64, forward count u64,
                dataset fingerprint u32
    5 scores    n*d f64
    6 kept      per row ceil(d/8) bytes of kept flags, column 0 in the high
                bit, zero past column d-1; then one f64 per set bit, the
                kept values in row-major order

Text is a u32 byte length followed by UTF-8 bytes. Readers skip sections
whose tag they do not use.
"""

from __future__ import annotations

import struct
import zlib

MAGIC = b"SHVR"
FORMAT_VERSION = 1
# offset of the body, and so of its kind tag: after the magic and version
BODY_START = len(MAGIC) + 4

# Kind tag: first body byte, identifies what a file holds. Model checkpoints
# use the backbone tag directly; other artifact kinds live in a disjoint
# range so a mismatched load fails cleanly instead of misparsing.
TAG_MODEL_FM = 1
TAG_MODEL_DEEPFM = 2
TAG_VOCABULARY = 16
TAG_SCORES = 17
TAG_PRUNED = 18

MODEL_TAGS = (TAG_MODEL_FM, TAG_MODEL_DEEPFM)

# Section tags for optional framed payloads. Tags 1 and 3 are retired.
SECTION_CODEBOOK = 2
SECTION_METADATA = 4
SECTION_SCORES = 5
SECTION_KEPT = 6


class CheckpointError(ValueError):
    """Malformed, truncated, corrupt, or wrong-kind container file."""


class ByteWriter:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._parts.append(bytes(data))

    def u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def text(self, value: str) -> None:
        data = value.encode("utf-8")
        self.u32(len(data))
        self.raw(data)

    def array(self, values) -> None:
        # caller fixes dtype; bytes are written exactly as laid out in memory
        self.raw(values.tobytes())

    def section(self, tag: int, payload: bytes) -> None:
        self.u8(tag)
        self.u64(len(payload))
        self.raw(payload)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Reads a body front to back. take returns slices of data, which are
    views when data is a memoryview."""

    def __init__(self, data) -> None:
        self._data = data
        self._pos = 0

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise CheckpointError("truncated file")
        out = self._data[self._pos : self._pos + count]
        self._pos += count
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        return str(self.take(self.u32()), "utf-8")

    def sections(self):
        """Yield (tag, payload) for the framed sections occupying the rest
        of the body."""
        while not self.exhausted:
            tag = self.u8()
            length = self.u64()
            yield tag, self.take(length)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)


def seal(body: bytes) -> bytes:
    """Wrap a body with the magic, version header and CRC32 footer."""
    head = MAGIC + struct.pack("<I", FORMAT_VERSION) + body
    return head + struct.pack("<I", zlib.crc32(head))


def unseal(data: bytes) -> ByteReader:
    """Verify the envelope and return a reader positioned at the body. The
    checksum and the reader work on views of data, not on copies."""
    if len(data) < BODY_START + 4:
        raise CheckpointError("truncated file")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a SHVR checkpoint")
    version = struct.unpack_from("<I", data, len(MAGIC))[0]
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    stored = struct.unpack_from("<I", data, len(data) - 4)[0]
    view = memoryview(data)
    if zlib.crc32(view[:-4]) != stored:
        raise CheckpointError("checksum mismatch, file is corrupt")
    return ByteReader(view[BODY_START:-4])


def expect_kind(reader: ByteReader, expected: int, what: str) -> int:
    tag = reader.u8()
    if tag != expected:
        raise CheckpointError(f"file does not hold {what} (kind tag {tag})")
    return tag
