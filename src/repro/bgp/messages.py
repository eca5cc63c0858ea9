"""BGP-4 message codecs (RFC 4271 section 4).

Every message starts with the 19-byte header: a 16-byte all-ones marker,
a 2-byte total length, and a 1-byte type.  The four message types the
paper's BIRD integration handles are implemented; UPDATE carries the
NLRI and path attributes that DiCE marks symbolic.

Decoding accepts both ``bytes`` and :class:`SymBytes` buffers: lengths
and type codes concretize (they steer parsing), while field *values*
remain symbolic.  That asymmetry is exactly the paper's argument for
selective marking — and the whole-message ablation measures what happens
without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.bgp.attributes import PathAttributes, decode_attributes, encode_attributes
from repro.bgp.nlri import NlriEntry, decode_nlri, encode_nlri
from repro.bgp.wire import (
    Buffer,
    Cursor,
    as_concrete_int,
    pack_u16,
    pack_u32,
    pack_u8,
    to_plain_bytes,
)
from repro.concolic.symbolic import SymInt
from repro.util.errors import WireFormatError
from repro.util.memo import Memo

IntLike = Union[int, SymInt]

HEADER_SIZE = 19
MARKER = b"\xff" * 16
MAX_MESSAGE_SIZE = 4096
BGP_VERSION = 4

# Message type codes.
MSG_OPEN = 1
MSG_UPDATE = 2
MSG_NOTIFICATION = 3
MSG_KEEPALIVE = 4

# NOTIFICATION error codes (RFC 4271 section 6.1).
ERR_MESSAGE_HEADER = 1
ERR_OPEN_MESSAGE = 2
ERR_UPDATE_MESSAGE = 3
ERR_HOLD_TIMER_EXPIRED = 4
ERR_FSM = 5
ERR_CEASE = 6


class Message:
    """Base class for the four BGP message kinds."""

    type_code: int = 0

    def body(self) -> bytes:
        """The encoded message body (everything after the header)."""
        raise NotImplementedError

    def encode(self) -> bytes:
        """The full wire message including header."""
        body = self.body()
        total = HEADER_SIZE + len(body)
        if total > MAX_MESSAGE_SIZE:
            raise WireFormatError(
                f"message of {total} bytes exceeds the 4096-byte maximum",
                code=ERR_MESSAGE_HEADER, subcode=2,
            )
        return MARKER + total.to_bytes(2, "big") + bytes((self.type_code,)) + body


@dataclass
class OpenMessage(Message):
    """OPEN: advertises version, AS number, hold time, and router id."""

    my_as: IntLike
    hold_time: IntLike = 90
    bgp_identifier: IntLike = 0
    version: IntLike = BGP_VERSION
    # Optional parameters kept as raw bytes; none are interpreted.
    opt_params: bytes = b""

    type_code = MSG_OPEN

    def body(self) -> bytes:
        return (
            pack_u8(self.version)
            + pack_u16(self.my_as)
            + pack_u16(self.hold_time)
            + pack_u32(self.bgp_identifier)
            + pack_u8(len(self.opt_params))
            + self.opt_params
        )

    @classmethod
    def decode_body(cls, buffer: Buffer) -> "OpenMessage":
        cursor = Cursor(buffer)
        version = cursor.read_u8()
        if version != BGP_VERSION:  # recorded when symbolic
            raise WireFormatError(
                f"unsupported BGP version {as_concrete_int(version)}",
                code=ERR_OPEN_MESSAGE, subcode=1,
            )
        my_as = cursor.read_u16()
        hold_time = cursor.read_u16()
        if (hold_time != 0) and (hold_time < 3):
            raise WireFormatError(
                "hold time must be 0 or >= 3", code=ERR_OPEN_MESSAGE, subcode=6
            )
        identifier = cursor.read_u32()
        params_len = int(cursor.read_u8())
        params = to_plain_bytes(cursor.read_bytes(params_len))
        if not cursor.at_end():
            raise WireFormatError(
                "trailing bytes after OPEN", code=ERR_OPEN_MESSAGE, subcode=0
            )
        return cls(my_as, hold_time, identifier, version, params)


@dataclass
class UpdateMessage(Message):
    """UPDATE: withdrawn routes, path attributes, and announced NLRI."""

    withdrawn: List[NlriEntry] = field(default_factory=list)
    attributes: PathAttributes = field(default_factory=PathAttributes)
    nlri: List[NlriEntry] = field(default_factory=list)

    type_code = MSG_UPDATE

    def body(self) -> bytes:
        withdrawn_bytes = encode_nlri(self.withdrawn)
        attr_bytes = encode_attributes(self.attributes) if (self.nlri or self._has_attrs()) else b""
        nlri_bytes = encode_nlri(self.nlri)
        return (
            len(withdrawn_bytes).to_bytes(2, "big")
            + withdrawn_bytes
            + len(attr_bytes).to_bytes(2, "big")
            + attr_bytes
            + nlri_bytes
        )

    def _has_attrs(self) -> bool:
        return bool(
            self.attributes.as_path.segments
            or self.attributes.next_hop is not None
            or self.attributes.communities
        )

    @classmethod
    def decode_body(cls, buffer: Buffer) -> "UpdateMessage":
        cursor = Cursor(buffer)
        withdrawn_len = int(cursor.read_u16())
        if withdrawn_len > cursor.remaining:
            raise WireFormatError(
                "withdrawn length overruns message", code=ERR_UPDATE_MESSAGE, subcode=1
            )
        withdrawn = decode_nlri(cursor.read_bytes(withdrawn_len))
        attrs_len = int(cursor.read_u16())
        if attrs_len > cursor.remaining:
            raise WireFormatError(
                "attribute length overruns message", code=ERR_UPDATE_MESSAGE, subcode=1
            )
        attributes = decode_attributes(cursor.read_bytes(attrs_len))
        nlri = decode_nlri(cursor.read_bytes(cursor.remaining))
        return cls(withdrawn, attributes, nlri)

    @property
    def is_withdrawal_only(self) -> bool:
        return bool(self.withdrawn) and not self.nlri

    def describe(self) -> str:
        parts = []
        if self.withdrawn:
            parts.append(f"withdraw {len(self.withdrawn)}")
        if self.nlri:
            parts.append(f"announce {len(self.nlri)} [{self.attributes.describe()}]")
        return "UPDATE " + ("; ".join(parts) if parts else "(empty)")


@dataclass
class KeepaliveMessage(Message):
    """KEEPALIVE: header only."""

    type_code = MSG_KEEPALIVE

    def body(self) -> bytes:
        return b""

    @classmethod
    def decode_body(cls, buffer: Buffer) -> "KeepaliveMessage":
        if len(buffer) != 0:
            raise WireFormatError(
                "KEEPALIVE must have no body", code=ERR_MESSAGE_HEADER, subcode=2
            )
        return cls()


@dataclass
class NotificationMessage(Message):
    """NOTIFICATION: error report; the sender closes the session after it."""

    code: IntLike
    subcode: IntLike = 0
    data: bytes = b""

    type_code = MSG_NOTIFICATION

    def body(self) -> bytes:
        return pack_u8(self.code) + pack_u8(self.subcode) + self.data

    @classmethod
    def decode_body(cls, buffer: Buffer) -> "NotificationMessage":
        cursor = Cursor(buffer)
        code = cursor.read_u8()
        subcode = cursor.read_u8()
        data = to_plain_bytes(cursor.read_bytes(cursor.remaining))
        return cls(code, subcode, data)


_DECODERS = {
    MSG_OPEN: OpenMessage.decode_body,
    MSG_UPDATE: UpdateMessage.decode_body,
    MSG_KEEPALIVE: KeepaliveMessage.decode_body,
    MSG_NOTIFICATION: NotificationMessage.decode_body,
}


#: Decoded messages kept by :func:`decode_message`, evicted oldest first.
#: Sized to the burst a convergence delivers: one update group's bytes
#: reach all its peers within a few hundred deliveries of each other.
_DECODED = Memo(1024, "bgp.decode")


def decode_message(buffer: Buffer) -> Message:
    """Decode one complete wire message (header + body).

    Concrete ``bytes`` payloads are decoded once: an update group sends
    the same bytes to every member, so each recipient after the first gets
    the message decoded for the first.  Decoded messages are therefore
    shared and must never be mutated (see :class:`PathAttributes`).  A
    payload that fails to decode is never cached and raises on every
    call.  :class:`SymBytes` buffers always take the full parse, so
    whole-message exploration records every branch of it.
    """
    if type(buffer) is not bytes:
        return _decode(buffer)
    message = _DECODED.get(buffer)
    if message is None:
        message = _decode(buffer)
        _DECODED.put(buffer, message)
    return message


def _decode(buffer: Buffer) -> Message:
    if len(buffer) < HEADER_SIZE:
        raise WireFormatError(
            f"message shorter than header ({len(buffer)} bytes)",
            code=ERR_MESSAGE_HEADER, subcode=2,
        )
    cursor = Cursor(buffer)
    marker = to_plain_bytes(cursor.read_bytes(16))
    if marker != MARKER:
        raise WireFormatError("bad marker", code=ERR_MESSAGE_HEADER, subcode=1)
    length = int(cursor.read_u16())
    if length != len(buffer):
        raise WireFormatError(
            f"header length {length} != buffer length {len(buffer)}",
            code=ERR_MESSAGE_HEADER, subcode=2,
        )
    if length > MAX_MESSAGE_SIZE:
        raise WireFormatError(
            f"length {length} exceeds maximum", code=ERR_MESSAGE_HEADER, subcode=2
        )
    type_code = int(cursor.read_u8())
    decoder = _DECODERS.get(type_code)
    if decoder is None:
        raise WireFormatError(
            f"unknown message type {type_code}", code=ERR_MESSAGE_HEADER, subcode=3
        )
    return decoder(buffer[HEADER_SIZE:])
