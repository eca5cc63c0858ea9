"""BGP path attributes (RFC 4271 sections 4.3 and 5.1).

Attribute values flow through route processing possibly as
:class:`SymInt` — the paper's selective marking makes, e.g., the MED or an
AS-path ASN symbolic while keeping the attribute's type/length structure
concrete and consistent ("one needs to be careful that the symbolic
length matches the actual length of the value field", section 3.2).  The
classes here therefore never force values to plain int except when
serializing to the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.bgp.wire import (
    Buffer,
    Cursor,
    as_concrete_int,
    pack_u8,
    pack_u16,
    pack_u32,
)
from repro.concolic.symbolic import SymInt
from repro.util.errors import WireFormatError
from repro.util.ip import int_to_ip

IntLike = Union[int, SymInt]

# Attribute type codes.
ORIGIN = 1
AS_PATH = 2
NEXT_HOP = 3
MULTI_EXIT_DISC = 4
LOCAL_PREF = 5
ATOMIC_AGGREGATE = 6
AGGREGATOR = 7
COMMUNITIES = 8

# ORIGIN values (lower is preferred in the decision process).
ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

# AS_PATH segment types.
SEG_AS_SET = 1
SEG_AS_SEQUENCE = 2

# Attribute flag bits.
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_PARTIAL = 0x20
FLAG_EXTENDED = 0x10

# Well-known community values (RFC 1997).
NO_EXPORT = 0xFFFFFF01
NO_ADVERTISE = 0xFFFFFF02
NO_EXPORT_SUBCONFED = 0xFFFFFF03


@dataclass(frozen=True)
class AsPathSegment:
    """One AS_PATH segment: an ordered AS_SEQUENCE or an unordered AS_SET."""

    kind: int
    asns: Tuple[IntLike, ...]

    def __post_init__(self) -> None:
        if self.kind not in (SEG_AS_SET, SEG_AS_SEQUENCE):
            raise WireFormatError(
                f"invalid AS_PATH segment type {self.kind}", code=3, subcode=11
            )

    @property
    def hop_count(self) -> int:
        """Decision-process length: an AS_SET counts as a single hop."""
        return 1 if self.kind == SEG_AS_SET else len(self.asns)


class AsPath:
    """An AS_PATH: a sequence of segments.

    Immutable in style — mutating operations return new paths — so routes
    can share path objects safely across RIBs and clones.  A path is never
    mutated once it is in a RIB: checkpoint clones share it with the live
    node (:meth:`repro.bgp.rib.LocRib.fork`).
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Optional[List[AsPathSegment]] = None):
        self.segments: Tuple[AsPathSegment, ...] = tuple(segments or ())

    @classmethod
    def sequence(cls, asns: List[IntLike]) -> "AsPath":
        """A path that is a single AS_SEQUENCE (the common case)."""
        if not asns:
            return cls()
        return cls([AsPathSegment(SEG_AS_SEQUENCE, tuple(asns))])

    def prepend(self, asn: IntLike) -> "AsPath":
        """The path with ``asn`` prepended (what an AS does when exporting)."""
        if self.segments and self.segments[0].kind == SEG_AS_SEQUENCE:
            head = self.segments[0]
            new_head = AsPathSegment(SEG_AS_SEQUENCE, (asn,) + head.asns)
            return AsPath([new_head, *self.segments[1:]])
        return AsPath([AsPathSegment(SEG_AS_SEQUENCE, (asn,)), *self.segments])

    def hop_count(self) -> int:
        """Path length for the decision process (AS_SET = 1 hop)."""
        return sum(segment.hop_count for segment in self.segments)

    def contains(self, asn: IntLike):
        """Loop check; returns bool or SymBool if ASNs are symbolic.

        Written with explicit accumulation (not ``any``) so a symbolic
        comparison chain records one branch per compared ASN.
        """
        for segment in self.segments:
            for member in segment.asns:
                if member == asn:
                    return True
        return False

    def origin_as(self) -> Optional[IntLike]:
        """The AS that originated the route: the last ASN on the path.

        None when the path is empty or ends in an AS_SET (aggregated
        routes have no single origin) — the hijack checker treats that as
        "unknown origin".
        """
        if not self.segments:
            return None
        last = self.segments[-1]
        if last.kind != SEG_AS_SEQUENCE or not last.asns:
            return None
        return last.asns[-1]

    def first_as(self) -> Optional[IntLike]:
        """The neighboring AS the route was learned from."""
        if not self.segments:
            return None
        head = self.segments[0]
        if head.kind != SEG_AS_SEQUENCE or not head.asns:
            return None
        return head.asns[0]

    def as_list(self) -> List[IntLike]:
        """All ASNs in wire order (sets flattened)."""
        out: List[IntLike] = []
        for segment in self.segments:
            out.extend(segment.asns)
        return out

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AsPath):
            return NotImplemented
        # Compared on concrete values, so a symbolic ASN records nothing.
        if len(self.segments) != len(other.segments):
            return False
        for mine, theirs in zip(self.segments, other.segments):
            if mine.kind != theirs.kind or len(mine.asns) != len(theirs.asns):
                return False
            for a, b in zip(mine.asns, theirs.asns):
                if as_concrete_int(a) != as_concrete_int(b):
                    return False
        return True

    def __hash__(self) -> int:
        return hash(
            tuple(
                (s.kind, tuple(as_concrete_int(a) for a in s.asns))
                for s in self.segments
            )
        )

    def __len__(self) -> int:
        return self.hop_count()

    def __str__(self) -> str:
        parts = []
        for segment in self.segments:
            asns = " ".join(str(as_concrete_int(a)) for a in segment.asns)
            parts.append(f"{{{asns}}}" if segment.kind == SEG_AS_SET else asns)
        return " ".join(parts) if parts else "(empty)"

    def __repr__(self) -> str:
        return f"AsPath({self})"


@dataclass
class PathAttributes:
    """The parsed attribute set of one route/UPDATE.

    Assigned to only while being decoded; never mutated once a route
    carrying it is in a RIB (filters build a new set, others ``copy()``
    first): checkpoint clones share it with the live node.  Decoded
    messages are shared too — :func:`repro.bgp.messages.decode_message`
    hands every recipient of the same bytes the same object, and one
    update group's members the same exported set — so a set reached
    through a message must never be mutated either.
    """

    origin: IntLike = ORIGIN_INCOMPLETE
    as_path: AsPath = field(default_factory=AsPath)
    next_hop: Optional[IntLike] = None
    med: Optional[IntLike] = None
    local_pref: Optional[IntLike] = None
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[IntLike, IntLike]] = None
    communities: Tuple[IntLike, ...] = ()
    unknown: Dict[int, Tuple[int, bytes]] = field(default_factory=dict)

    def copy(self) -> "PathAttributes":
        return replace(self, unknown=dict(self.unknown))

    def has_community(self, value: IntLike):
        for community in self.communities:
            if community == value:
                return True
        return False

    def describe(self) -> str:
        next_hop = (
            int_to_ip(as_concrete_int(self.next_hop)) if self.next_hop is not None else "-"
        )
        return (
            f"origin={as_concrete_int(self.origin)} path=[{self.as_path}] "
            f"next_hop={next_hop} med={self.med} local_pref={self.local_pref}"
        )


def encode_attributes(attrs: PathAttributes) -> bytes:
    """Serialize to the wire attribute list (concretizing symbolic values)."""
    out = bytearray()

    def emit(flags: int, type_code: int, value: bytes) -> None:
        if len(value) > 0xFF:
            flags |= FLAG_EXTENDED
            out.extend((flags, type_code))
            out.extend(len(value).to_bytes(2, "big"))
        else:
            out.extend((flags, type_code, len(value)))
        out.extend(value)

    emit(FLAG_TRANSITIVE, ORIGIN, pack_u8(attrs.origin))

    path_bytes = bytearray()
    for segment in attrs.as_path.segments:
        path_bytes.append(segment.kind)
        path_bytes.append(len(segment.asns))
        for asn in segment.asns:
            path_bytes.extend(pack_u16(asn))
    emit(FLAG_TRANSITIVE, AS_PATH, bytes(path_bytes))

    if attrs.next_hop is not None:
        emit(FLAG_TRANSITIVE, NEXT_HOP, pack_u32(attrs.next_hop))
    if attrs.med is not None:
        emit(FLAG_OPTIONAL, MULTI_EXIT_DISC, pack_u32(attrs.med))
    if attrs.local_pref is not None:
        emit(FLAG_TRANSITIVE, LOCAL_PREF, pack_u32(attrs.local_pref))
    if attrs.atomic_aggregate:
        emit(FLAG_TRANSITIVE, ATOMIC_AGGREGATE, b"")
    if attrs.aggregator is not None:
        asn, address = attrs.aggregator
        emit(FLAG_OPTIONAL | FLAG_TRANSITIVE, AGGREGATOR, pack_u16(asn) + pack_u32(address))
    if attrs.communities:
        body = b"".join(pack_u32(c) for c in attrs.communities)
        emit(FLAG_OPTIONAL | FLAG_TRANSITIVE, COMMUNITIES, body)
    for type_code, (flags, value) in sorted(attrs.unknown.items()):
        emit(flags | FLAG_PARTIAL, type_code, value)
    return bytes(out)


def decode_attributes(buffer: Buffer) -> PathAttributes:
    """Parse a wire attribute list; symbolic value bytes stay symbolic."""
    cursor = Cursor(buffer)
    attrs = PathAttributes()
    seen: set[int] = set()
    while not cursor.at_end():
        flags = int(cursor.read_u8())
        type_code = int(cursor.read_u8())
        if flags & FLAG_EXTENDED:
            length = int(cursor.read_u16())
        else:
            length = int(cursor.read_u8())
        if length > cursor.remaining:
            raise WireFormatError(
                f"attribute {type_code} length {length} overruns message",
                code=3, subcode=5,
            )
        if type_code in seen:
            raise WireFormatError(
                f"duplicate attribute {type_code}", code=3, subcode=1
            )
        seen.add(type_code)
        value = cursor.read_bytes(length)
        _decode_one(attrs, flags, type_code, value, length)
    return attrs


def _decode_one(
    attrs: PathAttributes, flags: int, type_code: int, value: Buffer, length: int
) -> None:
    field_cursor = Cursor(value)
    if type_code == ORIGIN:
        if length != 1:
            raise WireFormatError("ORIGIN must be 1 byte", code=3, subcode=5)
        origin = field_cursor.read_u8()
        if origin > ORIGIN_INCOMPLETE:  # symbolic-aware validity branch
            raise WireFormatError(
                f"invalid ORIGIN {as_concrete_int(origin)}", code=3, subcode=6
            )
        attrs.origin = origin
    elif type_code == AS_PATH:
        segments: List[AsPathSegment] = []
        while not field_cursor.at_end():
            kind = int(field_cursor.read_u8())
            count = int(field_cursor.read_u8())
            asns = tuple(field_cursor.read_u16() for _ in range(count))
            segments.append(AsPathSegment(kind, asns))
        attrs.as_path = AsPath(segments)
    elif type_code == NEXT_HOP:
        if length != 4:
            raise WireFormatError("NEXT_HOP must be 4 bytes", code=3, subcode=5)
        attrs.next_hop = field_cursor.read_u32()
    elif type_code == MULTI_EXIT_DISC:
        if length != 4:
            raise WireFormatError("MED must be 4 bytes", code=3, subcode=5)
        attrs.med = field_cursor.read_u32()
    elif type_code == LOCAL_PREF:
        if length != 4:
            raise WireFormatError("LOCAL_PREF must be 4 bytes", code=3, subcode=5)
        attrs.local_pref = field_cursor.read_u32()
    elif type_code == ATOMIC_AGGREGATE:
        if length != 0:
            raise WireFormatError("ATOMIC_AGGREGATE must be empty", code=3, subcode=5)
        attrs.atomic_aggregate = True
    elif type_code == AGGREGATOR:
        if length != 6:
            raise WireFormatError("AGGREGATOR must be 6 bytes", code=3, subcode=5)
        attrs.aggregator = (field_cursor.read_u16(), field_cursor.read_u32())
    elif type_code == COMMUNITIES:
        if length % 4 != 0:
            raise WireFormatError("COMMUNITIES length not multiple of 4", code=3, subcode=5)
        attrs.communities = tuple(
            field_cursor.read_u32() for _ in range(length // 4)
        )
    else:
        if not flags & FLAG_OPTIONAL:
            raise WireFormatError(
                f"unrecognized well-known attribute {type_code}", code=3, subcode=2
            )
        if flags & FLAG_TRANSITIVE:
            from repro.bgp.wire import to_plain_bytes

            attrs.unknown[type_code] = (flags, to_plain_bytes(value))
        # Non-transitive optional attributes we don't know are dropped.


def validate_mandatory(attrs: PathAttributes, has_nlri: bool, is_ebgp: bool) -> None:
    """RFC 4271 section 6.3 mandatory-attribute checks for an UPDATE."""
    if not has_nlri:
        return
    if attrs.next_hop is None:
        raise WireFormatError("missing NEXT_HOP", code=3, subcode=3)
    if is_ebgp and attrs.local_pref is not None:
        # Tolerated in practice; BIRD logs and ignores.  We keep the value.
        pass
