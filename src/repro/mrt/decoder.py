"""Binary MRT decoder.

Parses the byte streams produced by :mod:`repro.mrt.encoder` (and any other
standards-conforming writer of the supported record types) back into the
record dataclasses of :mod:`repro.mrt.records`.  This is the entry point of
the measurement pipeline: collector archives are decoded here before
sanitation and inference.

Reading.  The decoder wraps its input (``bytes``, ``bytearray`` or
``memoryview``) in one ``memoryview`` and walks it with an explicit offset.
Fixed-layout fields -- the MRT common header, the RIB sequence / prefix
length / entry count, each RIB entry's ``(peer_index, originated,
attr_len)``, the BGP4MP peer and local fields, the BGP message header, and
the attribute ``flags/type/length`` headers -- are read with precompiled
module-level :class:`struct.Struct` ``unpack_from`` calls.  AS_PATH segments,
COMMUNITIES and LARGE_COMMUNITIES are read whole, one ``unpack_from`` per
payload with a cached ``struct.Struct`` per element count.  Every read is
preceded by an explicit bounds check against the end of the structure that
encloses it (record body, BGP message, attribute), so a short or corrupt
buffer raises :class:`MRTDecodeError` -- never ``struct.error``,
``IndexError`` or a bare ``ValueError``.

Attribute memo.  In a RIB dump one attribute blob (AS_PATH + COMMUNITIES)
repeats across many prefixes, and update streams re-announce the same
attributes over and over.  Each :class:`MRTDecoder` therefore keeps a memo
from ``(asn_size, bytes(attribute_blob))`` to the decoded
:class:`~repro.bgp.messages.PathAttributes` -- one dict per ASN size, keyed
by the bytes -- so a repeated blob costs one dict probe.  The ASN size is
part of the key because the same bytes mean different paths under 2-byte
(``BGP4MP_MESSAGE``) and 4-byte encodings.

* Sharing one instance between records is safe: ``PathAttributes`` is a
  frozen dataclass whose fields (``ASPath``, ``CommunitySet``, ints, an
  ``Origin``) are immutable, so no consumer can observe the sharing.
* Keys are ``bytes`` copies, so the memo never pins the input buffer, and
  a blob that fails to decode is never cached -- it raises again every time
  it is seen.
* The memo lives as long as its decoder, which is one collector's blob in
  :func:`repro.collectors.archive.iter_observations_from_mrt` (and so in
  ``MRTReplaySource``).  Each dict is cleared whenever it reaches
  :data:`MEMO_LIMIT` entries, which bounds the memory of arbitrarily large
  archives.

Everything else is decoded per record with all its checks: the common
header, prefixes, peer indexes, timestamps, the BGP4MP framing and NLRI.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.bgp.asn import ASN
from repro.bgp.community import AnyCommunity, Community, CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import Prefix
from repro.mrt.constants import (
    AFI_IPV4,
    AFI_IPV6,
    ATTR_FLAG_EXTENDED_LENGTH,
    BGP_MARKER,
    BGP4MPSubtype,
    BGPMessageType,
    MRT_COMMON_HEADER_SIZE,
    MRTType,
    PathAttributeType,
    TableDumpV2Subtype,
)
from repro.mrt.records import (
    BGP4MPMessage,
    MRTDecodeError,
    MRTRecord,
    PeerEntry,
    PeerIndexTable,
    RIBAfiEntry,
    RIBEntryRecord,
)

#: Any input the decoder accepts; it is read through one ``memoryview``.
Buffer = Union[bytes, bytearray, memoryview]

#: Entries a per-ASN-size attribute memo holds before it is cleared.
MEMO_LIMIT = 1 << 16

_HEADER = struct.Struct(">IHHI")  # timestamp, type, subtype, body length
_RIB_HEADER = struct.Struct(">IB")  # sequence number, prefix length
_RIB_ENTRY = struct.Struct(">HIH")  # peer index, originated time, attribute length
_PEER_TABLE_HEADER = struct.Struct(">IH")  # collector BGP id, view name length
_PEER_HEADER = struct.Struct(">BI")  # peer type, peer BGP id
_BGP4MP_PEERS_AS2 = struct.Struct(">HHHH")  # peer AS, local AS, interface, AFI
_BGP4MP_PEERS_AS4 = struct.Struct(">IIHH")
_IPV4_PAIR = struct.Struct(">II")  # peer IP, local IP
_BGP_HEADER = struct.Struct(">16sHB")  # marker, message length, message type
_ATTR_HEADER = struct.Struct(">BBB")  # flags, type code, length
_ATTR_HEADER_EXTENDED = struct.Struct(">BBH")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")

#: ``_UINT_ARRAYS[code][count]`` reads *count* big-endian unsigned ints of
#: struct *code* (``"H"`` or ``"I"``): every AS_PATH segment count and any
#: COMMUNITIES attribute up to 255 values.
_UINT_ARRAYS = {code: tuple(struct.Struct(f">{n}{code}") for n in range(256)) for code in "HI"}

_ASN_CODES = {2: "H", 4: "I"}
_ORIGINS = (Origin.IGP, Origin.EGP, Origin.INCOMPLETE)
_SEGMENT_TYPES = {int(member): member for member in SegmentType}
_TABLE_DUMP_V2_SUBTYPES = {int(member): member for member in TableDumpV2Subtype}
_BGP4MP_SUBTYPES = {int(member): member for member in BGP4MPSubtype}
_BGP4MP_TYPES = {int(member): member for member in (MRTType.BGP4MP, MRTType.BGP4MP_ET)}
#: The unicast RIB subtypes (by wire value) with their address family.
_RIB_SUBTYPES = {
    int(TableDumpV2Subtype.RIB_IPV4_UNICAST): (TableDumpV2Subtype.RIB_IPV4_UNICAST, AFI_IPV4),
    int(TableDumpV2Subtype.RIB_IPV6_UNICAST): (TableDumpV2Subtype.RIB_IPV6_UNICAST, AFI_IPV6),
}


def _truncated(count: int, available: int) -> MRTDecodeError:
    """The error for a read of *count* bytes with only *available* left."""
    return MRTDecodeError(f"truncated record: wanted {count} bytes, {available} available")


def _uint(view: memoryview, pos: int, size: int) -> int:
    """An unsigned big-endian integer of *size* bytes (bounds already checked)."""
    return int.from_bytes(view[pos : pos + size], "big")


def _uint_array(code: str, count: int) -> struct.Struct:
    """The ``Struct`` reading *count* big-endian unsigned ints of *code*."""
    table = _UINT_ARRAYS[code]
    # Longer payloads (extended-length COMMUNITIES) build theirs on the spot.
    return table[count] if count < len(table) else struct.Struct(f">{count}{code}")


def _read_prefix(
    view: memoryview, pos: int, end: int, length: int, afi: int
) -> Tuple[Prefix, int]:
    """Decode the network bytes of a prefix of *length* bits at *pos*.

    Returns the prefix and the offset after it.  *afi* must be
    :data:`AFI_IPV4` or :data:`AFI_IPV6`.
    """
    total_bytes = 4 if afi == AFI_IPV4 else 16
    if length > total_bytes * 8:
        raise MRTDecodeError(f"prefix length {length} exceeds maximum {total_bytes * 8}")
    n_bytes = (length + 7) >> 3
    if end - pos < n_bytes:
        raise _truncated(n_bytes, end - pos)
    network = _uint(view, pos, n_bytes) << (8 * (total_bytes - n_bytes))
    return Prefix(network, length, afi), pos + n_bytes


def _read_nlri(view: memoryview, pos: int, end: int, afi: int) -> Tuple[Prefix, ...]:
    """Decode the NLRI-encoded prefixes (length byte + network) in [pos, end)."""
    prefixes: List[Prefix] = []
    while pos < end:
        prefix, pos = _read_prefix(view, pos + 1, end, view[pos], afi)
        prefixes.append(prefix)
    return tuple(prefixes)


def _decode_as_path(view: memoryview, pos: int, end: int, asn_size: int) -> ASPath:
    """Decode the AS_PATH attribute value in [pos, end)."""
    code = _ASN_CODES[asn_size]
    segments: List[PathSegment] = []
    while pos < end:
        if end - pos < 2:
            raise _truncated(2, end - pos)
        segment_type = view[pos]
        count = view[pos + 1]
        pos += 2
        size = count * asn_size
        if end - pos < size:
            raise _truncated(size, end - pos)
        asns = _uint_array(code, count).unpack_from(view, pos)
        pos += size
        segment_enum = _SEGMENT_TYPES.get(segment_type)
        if segment_enum is None:
            raise MRTDecodeError(f"unknown AS path segment type {segment_type}")
        segments.append(PathSegment(segment_enum, asns))
    return ASPath.from_segments(segments)


def _decode_attributes(view: memoryview, pos: int, end: int, asn_size: int) -> PathAttributes:
    """Decode the path attribute blob in [pos, end)."""
    as_path: Optional[ASPath] = None
    origin = Origin.INCOMPLETE
    next_hop = 0
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: List[AnyCommunity] = []

    while pos < end:
        header = _ATTR_HEADER_EXTENDED if view[pos] & ATTR_FLAG_EXTENDED_LENGTH else _ATTR_HEADER
        if end - pos < header.size:
            raise _truncated(header.size, end - pos)
        _flags, type_code, length = header.unpack_from(view, pos)
        start = pos + header.size
        if end - start < length:
            raise _truncated(length, end - start)
        pos = start + length

        if type_code == PathAttributeType.ORIGIN and length:
            code = view[start]
            origin = _ORIGINS[code] if code < 3 else Origin.INCOMPLETE
        elif type_code == PathAttributeType.AS_PATH:
            as_path = _decode_as_path(view, start, pos, asn_size)
        elif type_code == PathAttributeType.NEXT_HOP and length >= 4:
            next_hop = _U32.unpack_from(view, start)[0]
        elif type_code == PathAttributeType.MULTI_EXIT_DISC and length >= 4:
            med = _U32.unpack_from(view, start)[0]
        elif type_code == PathAttributeType.LOCAL_PREF and length >= 4:
            local_pref = _U32.unpack_from(view, start)[0]
        elif type_code == PathAttributeType.COMMUNITIES:
            if length % 4:
                raise MRTDecodeError("COMMUNITIES attribute length not a multiple of 4")
            values = _uint_array("I", length >> 2).unpack_from(view, start)
            communities.extend(Community(value >> 16, value & 0xFFFF) for value in values)
        elif type_code == PathAttributeType.LARGE_COMMUNITIES:
            if length % 12:
                raise MRTDecodeError("LARGE_COMMUNITIES attribute length not a multiple of 12")
            values = _uint_array("I", length >> 2).unpack_from(view, start)
            communities.extend(
                LargeCommunity(values[i], values[i + 1], values[i + 2])
                for i in range(0, len(values), 3)
            )
        # Unknown attributes are skipped, as a tolerant MRT consumer must.

    if as_path is None:
        raise MRTDecodeError("path attributes lack a mandatory AS_PATH")
    return PathAttributes(
        as_path=as_path,
        communities=CommunitySet(communities),
        origin=origin,
        next_hop=next_hop,
        med=med,
        local_pref=local_pref,
    )


def decode_path_attributes(value: Buffer, *, asn_size: int = 4) -> PathAttributes:
    """Decode a BGP path attribute blob into :class:`PathAttributes`.

    *value* may be ``bytes``, ``bytearray`` or a ``memoryview``; *asn_size*
    is 2 or 4.  This is the memo-free decode of one blob.
    """
    if asn_size not in _ASN_CODES:
        raise ValueError(f"ASN size must be 2 or 4, got {asn_size}")
    with memoryview(value) as view:
        return _decode_attributes(view, 0, len(view), asn_size)


class MRTDecoder:
    """Iterator over the MRT records contained in a byte blob.

    The decoder reads through one ``memoryview`` over *data*; nothing is
    copied until a value (an int, an ASN, a prefix) is materialised, and
    decoded records never retain views, so the blob's lifetime is not
    extended.  Attribute blobs are memoised per decoder (see the module
    docstring).
    """

    def __init__(self, data: Buffer) -> None:
        self._view = memoryview(data)
        self._pos = 0
        self._end = len(self._view)
        self._peer_table: Optional[PeerIndexTable] = None
        self._memos: Dict[int, Dict[bytes, PathAttributes]] = {size: {} for size in _ASN_CODES}

    @property
    def peer_table(self) -> Optional[PeerIndexTable]:
        """The most recently decoded PEER_INDEX_TABLE, if any."""
        return self._peer_table

    def __iter__(self) -> Iterator[MRTRecord]:
        return self

    def iter_blocks(self, size: int) -> Iterator[List[MRTRecord]]:
        """Decode records into blocks of up to *size*.

        Yields the same records in the same order as plain iteration, just
        grouped, so downstream block consumers (sanitation, the streaming
        engine) can amortize per-record dispatch.  The final block may be
        short.
        """
        if size < 1:
            raise ValueError(f"block size must be >= 1, got {size}")
        block: List[MRTRecord] = []
        append = block.append
        for record in self:
            append(record)
            if len(block) >= size:
                yield block
                block = []
                append = block.append
        if block:
            yield block

    def __next__(self) -> MRTRecord:
        pos, end = self._pos, self._end
        if pos >= end:
            raise StopIteration
        if end - pos < MRT_COMMON_HEADER_SIZE:
            raise MRTDecodeError("trailing bytes shorter than an MRT header")
        timestamp, mrt_type, subtype, length = _HEADER.unpack_from(self._view, pos)
        pos += MRT_COMMON_HEADER_SIZE
        if end - pos < length:
            raise _truncated(length, end - pos)
        body_end = pos + length
        self._pos = body_end

        if mrt_type == MRTType.TABLE_DUMP_V2:
            rib = _RIB_SUBTYPES.get(subtype)
            if rib is not None:
                return self._decode_rib(timestamp, rib[0], rib[1], pos, body_end)
            return self._decode_table_dump_v2(timestamp, subtype, pos, body_end)
        bgp4mp_type = _BGP4MP_TYPES.get(mrt_type)
        if bgp4mp_type is not None:
            return self._decode_bgp4mp(timestamp, bgp4mp_type, subtype, pos, body_end)
        try:
            mrt_type_enum = MRTType(mrt_type)
        except ValueError as exc:
            raise MRTDecodeError(f"unsupported MRT type {mrt_type}") from exc
        raise MRTDecodeError(f"MRT type {mrt_type_enum.name} not supported by this decoder")

    def _attributes(self, pos: int, end: int, asn_size: int) -> PathAttributes:
        """The attributes of the blob in [pos, end), through the memo."""
        key = bytes(self._view[pos:end])
        memo = self._memos[asn_size]
        attributes = memo.get(key)
        if attributes is None:
            attributes = _decode_attributes(self._view, pos, end, asn_size)
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[key] = attributes
        return attributes

    # -- TABLE_DUMP_V2 -------------------------------------------------------
    def _decode_table_dump_v2(self, timestamp: int, subtype: int, pos: int, end: int) -> MRTRecord:
        """The TABLE_DUMP_V2 subtypes other than the unicast RIBs."""
        subtype_enum = _TABLE_DUMP_V2_SUBTYPES.get(subtype)
        if subtype_enum is None:
            raise MRTDecodeError(f"unknown TABLE_DUMP_V2 subtype {subtype}")
        if subtype_enum == TableDumpV2Subtype.PEER_INDEX_TABLE:
            return self._decode_peer_index_table(timestamp, pos, end)
        raise MRTDecodeError(f"TABLE_DUMP_V2 subtype {subtype_enum.name} not supported")

    def _decode_peer_index_table(self, timestamp: int, pos: int, end: int) -> PeerIndexTable:
        view = self._view
        if end - pos < _PEER_TABLE_HEADER.size:
            raise _truncated(_PEER_TABLE_HEADER.size, end - pos)
        collector_id, view_len = _PEER_TABLE_HEADER.unpack_from(view, pos)
        pos += _PEER_TABLE_HEADER.size
        if end - pos < view_len + 2:
            raise _truncated(view_len + 2, end - pos)
        view_name = bytes(view[pos : pos + view_len]).decode(errors="replace")
        pos += view_len
        (peer_count,) = _U16.unpack_from(view, pos)
        pos += 2
        peers: List[PeerEntry] = []
        for _ in range(peer_count):
            if end - pos < _PEER_HEADER.size:
                raise _truncated(_PEER_HEADER.size, end - pos)
            peer_type, bgp_id = _PEER_HEADER.unpack_from(view, pos)
            pos += _PEER_HEADER.size
            ipv6 = bool(peer_type & 0x01)
            ip_size = 16 if ipv6 else 4
            asn_size = 4 if peer_type & 0x02 else 2
            if end - pos < ip_size + asn_size:
                raise _truncated(ip_size + asn_size, end - pos)
            peer_ip = _uint(view, pos, ip_size)
            peer_asn = _uint(view, pos + ip_size, asn_size)
            pos += ip_size + asn_size
            peers.append(
                PeerEntry(peer_asn=peer_asn, peer_ip=peer_ip, peer_bgp_id=bgp_id, ipv6=ipv6)
            )
        table = PeerIndexTable(
            timestamp=timestamp,
            mrt_type=MRTType.TABLE_DUMP_V2,
            subtype=TableDumpV2Subtype.PEER_INDEX_TABLE,
            collector_bgp_id=collector_id,
            view_name=view_name,
            peers=tuple(peers),
        )
        self._peer_table = table
        return table

    def _decode_rib(
        self, timestamp: int, subtype: TableDumpV2Subtype, afi: int, pos: int, end: int
    ) -> RIBEntryRecord:
        view = self._view
        if end - pos < _RIB_HEADER.size:
            raise _truncated(_RIB_HEADER.size, end - pos)
        sequence, prefix_length = _RIB_HEADER.unpack_from(view, pos)
        prefix, pos = _read_prefix(view, pos + _RIB_HEADER.size, end, prefix_length, afi)
        if end - pos < 2:
            raise _truncated(2, end - pos)
        (entry_count,) = _U16.unpack_from(view, pos)
        pos += 2
        entries: List[RIBAfiEntry] = []
        for _ in range(entry_count):
            if end - pos < _RIB_ENTRY.size:
                raise _truncated(_RIB_ENTRY.size, end - pos)
            peer_index, originated, attr_len = _RIB_ENTRY.unpack_from(view, pos)
            pos += _RIB_ENTRY.size
            if end - pos < attr_len:
                raise _truncated(attr_len, end - pos)
            attributes = self._attributes(pos, pos + attr_len, 4)
            pos += attr_len
            entries.append(RIBAfiEntry(peer_index, originated, attributes))
        # Positional: keyword arguments cost a measurable share per record.
        return RIBEntryRecord(
            timestamp, MRTType.TABLE_DUMP_V2, subtype, sequence, prefix, tuple(entries)
        )

    # -- BGP4MP ---------------------------------------------------------------
    def _decode_bgp4mp(
        self, timestamp: int, mrt_type: MRTType, subtype: int, pos: int, end: int
    ) -> BGP4MPMessage:
        subtype_enum = _BGP4MP_SUBTYPES.get(subtype)
        if subtype_enum is None:
            raise MRTDecodeError(f"unknown BGP4MP subtype {subtype}")
        if subtype_enum not in (BGP4MPSubtype.BGP4MP_MESSAGE, BGP4MPSubtype.BGP4MP_MESSAGE_AS4):
            raise MRTDecodeError(f"BGP4MP subtype {subtype_enum.name} not supported")
        as4 = subtype_enum == BGP4MPSubtype.BGP4MP_MESSAGE_AS4
        asn_size = 4 if as4 else 2

        view = self._view
        if mrt_type == MRTType.BGP4MP_ET:
            if end - pos < 4:
                raise _truncated(4, end - pos)
            pos += 4  # microsecond timestamp, ignored
        peers = _BGP4MP_PEERS_AS4 if as4 else _BGP4MP_PEERS_AS2
        if end - pos < peers.size:
            raise _truncated(peers.size, end - pos)
        peer_asn, local_asn, interface_index, afi = peers.unpack_from(view, pos)
        pos += peers.size
        if afi == AFI_IPV4:
            if end - pos < _IPV4_PAIR.size:
                raise _truncated(_IPV4_PAIR.size, end - pos)
            peer_ip, local_ip = _IPV4_PAIR.unpack_from(view, pos)
            pos += _IPV4_PAIR.size
        elif afi == AFI_IPV6:
            if end - pos < 32:
                raise _truncated(32, end - pos)
            peer_ip = _uint(view, pos, 16)
            local_ip = _uint(view, pos + 16, 16)
            pos += 32
        else:
            raise MRTDecodeError(f"unsupported address family {afi}")

        if end - pos < _BGP_HEADER.size:
            raise _truncated(_BGP_HEADER.size, end - pos)
        marker, message_length, message_type = _BGP_HEADER.unpack_from(view, pos)
        if marker != BGP_MARKER:
            raise MRTDecodeError("BGP message marker mismatch")
        pos += _BGP_HEADER.size
        body_length = message_length - _BGP_HEADER.size
        if body_length < 0:
            raise MRTDecodeError(f"BGP message length {message_length} shorter than its header")
        if end - pos < body_length:
            raise _truncated(body_length, end - pos)
        update: Optional[BGPUpdate] = None
        # Non-UPDATE messages (keepalives, opens) carry no routing data.
        if message_type == BGPMessageType.UPDATE:
            update = self._decode_bgp_update(
                pos, pos + body_length, peer_asn, timestamp, asn_size, afi
            )

        return BGP4MPMessage(
            timestamp=timestamp,
            mrt_type=mrt_type,
            subtype=subtype_enum,
            peer_asn=peer_asn,
            local_asn=local_asn,
            interface_index=interface_index,
            afi=afi,
            peer_ip=peer_ip,
            local_ip=local_ip,
            update=update,
        )

    def _decode_bgp_update(
        self, pos: int, end: int, peer_asn: ASN, timestamp: int, asn_size: int, afi: int
    ) -> BGPUpdate:
        view = self._view
        if end - pos < 2:
            raise _truncated(2, end - pos)
        (withdrawn_len,) = _U16.unpack_from(view, pos)
        pos += 2
        if end - pos < withdrawn_len:
            raise _truncated(withdrawn_len, end - pos)
        withdrawn = _read_nlri(view, pos, pos + withdrawn_len, afi)
        pos += withdrawn_len
        if end - pos < 2:
            raise _truncated(2, end - pos)
        (attr_len,) = _U16.unpack_from(view, pos)
        pos += 2
        if end - pos < attr_len:
            raise _truncated(attr_len, end - pos)
        attributes = self._attributes(pos, pos + attr_len, asn_size) if attr_len else None
        announced = _read_nlri(view, pos + attr_len, end, afi)
        if announced and attributes is None:
            raise MRTDecodeError("UPDATE announces prefixes without path attributes")
        return BGPUpdate(
            peer_asn=peer_asn,
            timestamp=timestamp,
            announced=announced,
            withdrawn=withdrawn,
            attributes=attributes,
        )


def decode_records(data: Buffer) -> List[MRTRecord]:
    """Decode every record in *data* into a list."""
    return list(MRTDecoder(data))


def decode_record_blocks(data: Buffer, size: int) -> Iterator[List[MRTRecord]]:
    """Decode *data* lazily into record blocks of up to *size*."""
    return MRTDecoder(data).iter_blocks(size)
