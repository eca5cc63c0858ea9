"""Low-level wire-format helpers shared by the BGP codecs.

The same parsing code must run in two modes (paper section 3.2):

* **production** — over plain ``bytes``, at full speed;
* **exploration** — over :class:`~repro.concolic.symbolic.SymBytes`, where
  multi-byte reads yield :class:`SymInt` values whose use in branches
  records path constraints (the whole-message-symbolic ablation parses
  through here; the selective policy marks fields after a concrete parse).

:class:`Cursor` abstracts over both buffer kinds.  Reads used as lengths
or offsets concretize through ``__index__`` — recorded as concretization
constraints, keeping the path condition sound.  Fixed-width reads from
concrete ``bytes`` take a direct path that never reaches the symbolic
branch, since convergence decodes every delivered UPDATE through them.
"""

from __future__ import annotations

from typing import List, Union

from repro.concolic.symbolic import SymBytes, SymInt
from repro.util.errors import WireFormatError

Buffer = Union[bytes, SymBytes]
IntLike = Union[int, SymInt]


def as_concrete_int(value: IntLike) -> int:
    """Silently strip the symbolic layer for serialization purposes.

    Encoding happens after the decision logic exploration cares about, and
    encoded exploratory messages never leave the isolation sandbox, so no
    constraint is recorded here (unlike ``__index__``).
    """
    if isinstance(value, SymInt):
        return value.concrete
    return int(value)


def pack_u8(value: IntLike) -> bytes:
    concrete = as_concrete_int(value)
    if not 0 <= concrete <= 0xFF:
        raise WireFormatError(f"u8 out of range: {concrete}")
    return bytes((concrete,))


def pack_u16(value: IntLike) -> bytes:
    concrete = as_concrete_int(value)
    if not 0 <= concrete <= 0xFFFF:
        raise WireFormatError(f"u16 out of range: {concrete}")
    return concrete.to_bytes(2, "big")


def pack_u32(value: IntLike) -> bytes:
    concrete = as_concrete_int(value)
    if not 0 <= concrete <= 0xFFFFFFFF:
        raise WireFormatError(f"u32 out of range: {concrete}")
    return concrete.to_bytes(4, "big")


class Cursor:
    """A read cursor over ``bytes`` or ``SymBytes``.

    Every read advances the position; running off the end raises
    :class:`WireFormatError` (the malformed-message error a BGP speaker
    would answer with a NOTIFICATION).
    """

    def __init__(self, buffer: Buffer, position: int = 0):
        self.buffer = buffer
        self.position = position

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def remaining(self) -> int:
        return len(self.buffer) - self.position

    def _require(self, count: int) -> None:
        if count < 0 or self.position + count > len(self.buffer):
            raise WireFormatError(
                f"truncated message: need {count} bytes at offset "
                f"{self.position}, have {self.remaining}",
                code=1, subcode=2,  # Message Header Error / Bad Message Length
            )

    def _read(self, width: int) -> IntLike:
        position = self.position
        buffer = self.buffer
        end = position + width
        if end > len(buffer):
            self._require(width)  # raises
        if type(buffer) is bytes:
            value = int.from_bytes(buffer[position:end], "big")
        else:
            value = self._field(position, width)
        self.position = end
        return value

    def read_u8(self) -> IntLike:
        position = self.position
        buffer = self.buffer
        if type(buffer) is bytes and position < len(buffer):
            self.position = position + 1
            return buffer[position]
        return self._read(1)

    def read_u16(self) -> IntLike:
        return self._read(2)

    def read_u32(self) -> IntLike:
        return self._read(4)

    def read_bytes(self, count: int) -> Buffer:
        count = int(count)  # concretizes a SymInt length (recorded)
        self._require(count)
        chunk = self.buffer[self.position:self.position + count]
        self.position += count
        return chunk

    def skip(self, count: int) -> None:
        count = int(count)
        self._require(count)
        self.position += count

    def at_end(self) -> bool:
        return self.position >= len(self.buffer)

    def _field(self, offset: int, width: int) -> IntLike:
        if isinstance(self.buffer, SymBytes):
            return self.buffer.to_uint(offset, width)
        return int.from_bytes(self.buffer[offset:offset + width], "big")


def concat(parts: List[Buffer]) -> Buffer:
    """Join buffer fragments, staying symbolic if any part is symbolic."""
    if any(isinstance(part, SymBytes) for part in parts):
        out = SymBytes([])
        for part in parts:
            out = out + (part if isinstance(part, SymBytes) else bytes(part))
        return out
    return b"".join(bytes(part) for part in parts)


def to_plain_bytes(buffer: Buffer) -> bytes:
    """The concrete bytes of a possibly-symbolic buffer."""
    if isinstance(buffer, SymBytes):
        return buffer.concrete
    return bytes(buffer)
