"""Unit tests for the MRT encoder and decoder."""

import struct
from dataclasses import replace

import pytest

from repro.bgp.community import CommunitySet
from repro.bgp.messages import BGPUpdate, Origin, PathAttributes
from repro.bgp.path import ASPath, PathSegment, SegmentType
from repro.bgp.prefix import parse_prefix
from repro.mrt import (
    BGP4MPMessage,
    MRTDecodeError,
    MRTDecoder,
    MRTEncoder,
    PeerIndexTable,
    RIBEntryRecord,
    decode_records,
    encode_records,
)
from repro.collectors.archive import ArchiveConfig, observations_from_mrt
from repro.mrt.constants import MRTType, TableDumpV2Subtype
from repro.mrt import decoder as decoder_module
from repro.mrt.decoder import decode_path_attributes
from repro.mrt.encoder import encode_path_attributes


@pytest.fixture()
def attributes():
    return PathAttributes(
        as_path=ASPath([3356, 1299, 200000]),
        communities=CommunitySet.from_strings(["3356:100", "200000:5:6"]),
        origin=Origin.EGP,
        next_hop=0x0A000001,
        med=50,
        local_pref=120,
    )


class TestPathAttributeCodec:
    def test_round_trip(self, attributes):
        blob = encode_path_attributes(attributes, asn_size=4)
        decoded = decode_path_attributes(blob, asn_size=4)
        assert decoded.as_path == attributes.as_path
        assert decoded.communities == attributes.communities
        assert decoded.origin is Origin.EGP
        assert decoded.next_hop == attributes.next_hop
        assert decoded.med == 50
        assert decoded.local_pref == 120

    def test_two_byte_asn_encoding(self):
        attrs = PathAttributes(as_path=ASPath([3356, 1299]))
        blob = encode_path_attributes(attrs, asn_size=2)
        decoded = decode_path_attributes(blob, asn_size=2)
        assert decoded.as_path == attrs.as_path

    def test_missing_as_path_rejected(self):
        with pytest.raises(MRTDecodeError):
            decode_path_attributes(b"", asn_size=4)

    def test_extended_length_communities_round_trip(self):
        # 300 communities need the extended-length attribute header.
        communities = CommunitySet.from_strings([f"{upper}:1" for upper in range(300)])
        attrs = PathAttributes(as_path=ASPath([3356]), communities=communities)
        decoded = decode_path_attributes(encode_path_attributes(attrs, asn_size=4), asn_size=4)
        assert decoded.communities == communities

    def test_malformed_communities_length_rejected(self):
        # COMMUNITIES attribute with a 3-byte body is invalid.
        blob = bytes([0x40, 2, 4, 2, 1, 0, 0, 0, 3356 >> 8, 3356 & 0xFF])
        blob += bytes([0xC0, 8, 3, 1, 2, 3])
        with pytest.raises(MRTDecodeError):
            decode_path_attributes(blob, asn_size=2)


class TestRIBRoundTrip:
    def test_rib_entries_round_trip(self, attributes):
        prefix = parse_prefix("8.8.8.0/24")
        blob = encode_records([3356, 1299], rib=[(prefix, [(3356, 111, attributes)])], timestamp=42)
        records = decode_records(blob)
        assert isinstance(records[0], PeerIndexTable)
        assert isinstance(records[1], RIBEntryRecord)
        assert records[1].prefix == prefix
        entries = records[1].to_rib_entries(records[0])
        assert entries[0].peer_asn == 3356
        assert entries[0].as_path == attributes.as_path
        assert entries[0].communities == attributes.communities
        assert entries[0].timestamp == 111

    def test_peer_table_metadata(self):
        blob = encode_records([10, 20, 200000], timestamp=7)
        (table,) = decode_records(blob)
        assert [p.peer_asn for p in table.peers] == [10, 20, 200000]
        assert table.timestamp == 7

    def test_ipv6_rib_entry(self, attributes):
        prefix = parse_prefix("2001:db8::/32")
        blob = encode_records([3356], rib=[(prefix, [(3356, 0, attributes)])])
        records = decode_records(blob)
        assert records[1].prefix == prefix

    def test_unknown_peer_rejected_at_encode_time(self, attributes):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10])
        with pytest.raises(ValueError):
            encoder.write_rib_entry(parse_prefix("8.8.8.0/24"), [(99, 0, attributes)])


class TestUpdateRoundTrip:
    def _update(self, attributes, peer=3356):
        return BGPUpdate(
            peer_asn=peer,
            timestamp=1621382400,
            announced=(parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16")),
            withdrawn=(parse_prefix("1.2.3.0/24"),),
            attributes=attributes,
        )

    def test_update_round_trip_as4(self, attributes):
        update = self._update(attributes)
        blob = encode_records([3356], updates=[update])
        records = decode_records(blob)
        message = records[-1]
        assert isinstance(message, BGP4MPMessage)
        assert message.is_as4
        decoded = message.update
        assert decoded.peer_asn == 3356
        assert decoded.announced == update.announced
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes.as_path == attributes.as_path
        assert decoded.attributes.communities == attributes.communities

    def test_update_round_trip_2byte(self):
        attrs = PathAttributes(as_path=ASPath([3356, 1299]))
        update = BGPUpdate(
            peer_asn=3356,
            timestamp=5,
            announced=(parse_prefix("8.8.8.0/24"),),
            attributes=attrs,
        )
        encoder = MRTEncoder()
        encoder.write_update(update, as4=False)
        message = decode_records(encoder.getvalue())[0]
        assert not message.is_as4
        assert message.update.attributes.as_path == attrs.as_path

    def test_withdrawal_only_update(self):
        update = BGPUpdate(peer_asn=1, timestamp=0, withdrawn=(parse_prefix("8.8.8.0/24"),))
        encoder = MRTEncoder()
        encoder.write_update(update)
        decoded = decode_records(encoder.getvalue())[0].update
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes is None


class TestDecoderErrors:
    def test_truncated_stream_rejected(self, attributes):
        blob = encode_records([3356], rib=[(parse_prefix("8.8.8.0/24"), [(3356, 0, attributes)])])
        with pytest.raises(MRTDecodeError):
            decode_records(blob[:-5])

    def test_garbage_header_rejected(self):
        with pytest.raises(MRTDecodeError):
            decode_records(b"\x00" * 12)

    def test_trailing_garbage_rejected(self):
        blob = encode_records([3356]) + b"\x01\x02"
        with pytest.raises(MRTDecodeError):
            decode_records(blob)

    def test_empty_stream_yields_nothing(self):
        assert decode_records(b"") == []

    def test_decoder_exposes_peer_table(self):
        blob = encode_records([10, 20])
        decoder = MRTDecoder(blob)
        list(decoder)
        assert decoder.peer_table is not None
        assert len(decoder.peer_table.peers) == 2


#: The input types the decoder accepts; it reads every one through a memoryview.
INPUT_TYPES = [bytes, bytearray, memoryview]


class TestInputTypes:
    """Every accepted input type decodes to the same records."""

    def _mixed_blob(self, attributes):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([3356, 1299], timestamp=9, view_name="rrc00")
        encoder.write_rib_entry(
            parse_prefix("8.8.8.0/24"), [(3356, 111, attributes)], sequence=1
        )
        encoder.write_rib_entry(
            parse_prefix("2001:db8::/32"), [(1299, 222, attributes)], sequence=2
        )
        for peer in (3356, 1299):
            encoder.write_update(
                BGPUpdate(
                    peer_asn=peer,
                    timestamp=1621382400,
                    announced=(parse_prefix("8.8.8.0/24"), parse_prefix("9.9.0.0/16")),
                    withdrawn=(parse_prefix("1.2.3.0/24"),),
                    attributes=attributes,
                )
            )
        return encoder.getvalue()

    @pytest.mark.parametrize("input_type", INPUT_TYPES, ids=lambda t: t.__name__)
    def test_input_type_decodes_identically(self, attributes, input_type):
        blob = self._mixed_blob(attributes)
        records = decode_records(input_type(blob))
        assert records == decode_records(blob)
        assert len(records) == 5

    def test_records_do_not_retain_views(self, attributes):
        """Decoded records must not keep the input buffer alive via views."""
        blob = bytearray(self._mixed_blob(attributes))
        records = decode_records(blob)
        # Releasing the buffer would raise if any exported view survived.
        del records
        blob.clear()

    def test_view_name_is_plain_str(self):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10], view_name="rrc01")
        (table,) = decode_records(encoder.getvalue())
        assert table.view_name == "rrc01"
        assert type(table.view_name) is str

    @pytest.mark.parametrize("input_type", INPUT_TYPES, ids=lambda t: t.__name__)
    def test_truncated_stream_rejected_for_every_input_type(self, attributes, input_type):
        blob = self._mixed_blob(attributes)
        with pytest.raises(MRTDecodeError, match="truncated record"):
            decode_records(input_type(blob[:-3]))


def _rib_record(attr_blob, *, peer_index=0, sequence=0):
    """A RIB_IPV4_UNICAST record for 8.8.8.0/24 carrying *attr_blob* verbatim."""
    body = struct.pack("!IB3sH", sequence, 24, bytes([8, 8, 8]), 1)
    body += struct.pack("!HIH", peer_index, 0, len(attr_blob)) + attr_blob
    header = struct.pack(
        "!IHHI", 0, MRTType.TABLE_DUMP_V2, TableDumpV2Subtype.RIB_IPV4_UNICAST, len(body)
    )
    return header + body


class TestAttributeMemo:
    """The per-decoder attribute memo never changes what a record decodes to."""

    def test_asn_size_is_part_of_the_key(self):
        # Two segments of 2-byte ASNs ("3356" then an empty sequence) are the
        # same bytes as one segment holding the 4-byte ASN 0x0D1C0200.
        two_byte = ASPath.from_segments(
            [
                PathSegment(SegmentType.AS_SEQUENCE, (3356,)),
                PathSegment(SegmentType.AS_SEQUENCE, ()),
            ]
        )
        four_byte = ASPath([(3356 << 16) | 0x0200])
        blob2 = encode_path_attributes(PathAttributes(as_path=two_byte), asn_size=2)
        assert blob2 == encode_path_attributes(PathAttributes(as_path=four_byte), asn_size=4)
        encoder = MRTEncoder()
        for as4, path in ((False, two_byte), (True, four_byte), (False, two_byte)):
            encoder.write_update(
                BGPUpdate(
                    peer_asn=3356,
                    timestamp=1,
                    announced=(parse_prefix("8.8.8.0/24"),),
                    attributes=PathAttributes(as_path=path),
                ),
                as4=as4,
            )
        paths = [record.update.attributes.as_path for record in decode_records(encoder.getvalue())]
        assert [p.asns for p in paths] == [(3356,), ((3356 << 16) | 0x0200,), (3356,)]
        assert paths[0] is paths[2]  # the repeat is served from the memo

    def test_failing_blob_raises_every_time(self, attributes):
        good = encode_path_attributes(attributes, asn_size=4)
        # A 3-byte COMMUNITIES body is invalid wherever it appears.
        bad = good + bytes([0xC0, 8, 3, 1, 2, 3])
        blob = encode_records([3356]) + _rib_record(bad) + _rib_record(bad) + _rib_record(good)
        decoder = MRTDecoder(blob)
        assert isinstance(next(decoder), PeerIndexTable)
        for _ in range(2):
            with pytest.raises(MRTDecodeError, match="COMMUNITIES"):
                next(decoder)
        record = next(decoder)
        assert record.entries[0].attributes == decode_path_attributes(good)
        with pytest.raises(StopIteration):
            next(decoder)

    def test_memo_clears_at_its_limit(self, monkeypatch):
        paths = [ASPath([10, 20 + index % 5]) for index in range(12)]
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10])
        for index, path in enumerate(paths):
            encoder.write_rib_entry(
                parse_prefix(f"10.0.{index}.0/24"), [(10, 0, PathAttributes(as_path=path))]
            )
        blob = encoder.getvalue()
        unbounded = decode_records(blob)
        monkeypatch.setattr(decoder_module, "MEMO_LIMIT", 2)
        bounded = decode_records(blob)
        assert bounded == unbounded
        assert [record.entries[0].attributes.as_path for record in bounded[1:]] == paths

    def test_synthetic_day_matches_per_record_decode(self, tiny_internet):
        archive = tiny_internet.archive_for("ripe", config=ArchiveConfig(seed=7))
        day = archive.generate_day(0)
        # One collector's share of the day keeps the test fast.
        collector = day.observations[0].collector
        expected = [o for o in day.observations if o.collector == collector]
        blob = archive.day_to_mrt(replace(day, observations=expected))[collector]
        decoded = observations_from_mrt(blob, collector)
        assert decoded == expected
        for observation in decoded:
            independent = decode_path_attributes(
                encode_path_attributes(
                    PathAttributes(as_path=observation.path, communities=observation.communities)
                )
            )
            assert observation.path.segments == independent.as_path.segments
            assert observation.communities == independent.communities
        # Repeated blobs really went through the memo.
        assert len({id(o.path) for o in decoded}) < len(decoded)
