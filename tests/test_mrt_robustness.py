"""Decode contract: a malformed MRT archive raises ``MRTDecodeError`` only.

Whatever bytes it is given, :func:`iter_observations_from_mrt` either yields
route observations or raises :class:`MRTDecodeError` -- never ``IndexError``,
``struct.error`` or a bare ``ValueError``.  The corpus is generated in-repo
from :mod:`repro.mrt.encoder` with a fixed seed, then corrupted by seeded
byte flips and truncations and by a hypothesis property over both.
"""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.messages import BGPUpdate, PathAttributes
from repro.bgp.path import ASPath
from repro.bgp.prefix import Prefix
from repro.collectors.archive import iter_observations_from_mrt, observations_from_mrt
from repro.mrt import MRTDecodeError, MRTEncoder, decode_records
from repro.mrt.constants import BGP_MARKER, BGP4MPSubtype, MRTType
from repro.mrt.encoder import encode_path_attributes

HEADER = struct.Struct("!IHHI")


def _random_attributes(rng, *, max_asn):
    def asn():
        return rng.randint(1, max_asn)

    def word():
        return rng.randint(0, 0xFFFF)

    path = [asn() for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.1:
        as_path = ASPath.from_string(" ".join(map(str, path)) + " {%d,%d}" % (asn(), asn()))
    else:
        as_path = ASPath(path)
    communities = [Community(word(), word()) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:
        communities.append(LargeCommunity(asn() - 1, rng.randint(0, 99), rng.randint(0, 99)))
    return PathAttributes(as_path=as_path, communities=CommunitySet(communities))


def build_corpus(seed):
    """A mixed MRT archive: peer table, IPv4/IPv6 RIB records, 2- and 4-byte updates.

    Attribute sets are drawn from a small pool, so blobs repeat the way they
    do in real dumps and the decoder's memo is exercised.  Returns the blob
    and the number of observations it holds.
    """
    rng = random.Random(seed)
    peers = [rng.randint(1, 65000) for _ in range(4)]
    peers += [rng.randint(70000, 400000) for _ in range(2)]
    pool = [_random_attributes(rng, max_asn=400000) for _ in range(8)]
    pool2 = [_random_attributes(rng, max_asn=65000) for _ in range(4)]
    encoder = MRTEncoder()
    encoder.write_peer_index_table(peers, timestamp=1621382400, view_name="rrc00")
    observations = 0
    for sequence in range(24):
        if rng.random() < 0.25:
            prefix = Prefix.ipv6(rng.getrandbits(32) << 96, 32)
        else:
            prefix = Prefix.ipv4(rng.getrandbits(24) << 8, 24)
        entries = [
            (peer, 1621382400 + rng.randint(0, 86399), rng.choice(pool))
            for peer in rng.sample(peers, rng.randint(1, 3))
        ]
        observations += len(entries)
        encoder.write_rib_entry(prefix, entries, sequence=sequence, timestamp=1621382400)
    for _ in range(16):
        as4 = rng.random() < 0.6
        announced = tuple(
            Prefix.ipv4(rng.getrandbits(16) << 16, 16) for _ in range(rng.randint(0, 2))
        )
        withdrawn = tuple(
            Prefix.ipv4(rng.getrandbits(24) << 8, 24) for _ in range(rng.randint(0, 2))
        )
        observations += len(announced)
        encoder.write_update(
            BGPUpdate(
                peer_asn=rng.choice(peers[:4]),
                timestamp=1621382400 + rng.randint(0, 86399),
                announced=announced,
                withdrawn=withdrawn,
                attributes=rng.choice(pool if as4 else pool2) if announced else None,
            ),
            as4=as4,
        )
    return encoder.getvalue(), observations


CORPUS, CORPUS_OBSERVATIONS = build_corpus(seed=2021)


def _drain(blob):
    """Decode *blob* fully; ``None`` if it raised ``MRTDecodeError``.

    Any other exception propagates and fails the calling test.
    """
    try:
        return list(iter_observations_from_mrt(blob, "rrc00"))
    except MRTDecodeError:
        return None


def _flip(blob, rng, count):
    corrupted = bytearray(blob)
    for _ in range(count):
        corrupted[rng.randrange(len(corrupted))] ^= rng.randint(1, 255)
    return bytes(corrupted)


class TestCorpus:
    def test_corpus_decodes_cleanly(self):
        assert len(observations_from_mrt(CORPUS, "rrc00")) == CORPUS_OBSERVATIONS
        kinds = {(record.mrt_type, record.subtype) for record in decode_records(CORPUS)}
        assert (MRTType.BGP4MP, BGP4MPSubtype.BGP4MP_MESSAGE) in kinds
        assert (MRTType.BGP4MP, BGP4MPSubtype.BGP4MP_MESSAGE_AS4) in kinds
        assert len(kinds) == 5  # peer table, IPv4 RIB, IPv6 RIB, 2- and 4-byte updates

    def test_seeded_byte_flips_raise_only_decode_errors(self):
        rng = random.Random(7)
        outcomes = {"decoded": 0, "rejected": 0}
        for _ in range(300):
            result = _drain(_flip(CORPUS, rng, rng.randint(1, 8)))
            outcomes["rejected" if result is None else "decoded"] += 1
        # Both outcomes occur, so the flips reach past the framing.
        assert outcomes["decoded"] and outcomes["rejected"]

    def test_every_truncation_raises_only_decode_errors(self):
        for cut in range(len(CORPUS)):
            _drain(CORPUS[:cut])

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), max_size=8),
        cut=st.one_of(st.none(), st.integers(0, 2**20)),
    )
    def test_flips_and_truncations_raise_only_decode_errors(self, flips, cut):
        blob = bytearray(CORPUS)
        for position, mask in flips:
            blob[position % len(blob)] ^= mask
        if cut is not None:
            del blob[cut % (len(blob) + 1) :]
        _drain(bytes(blob))


def _record(mrt_type, subtype, body, timestamp=0):
    return HEADER.pack(timestamp, mrt_type, subtype, len(body)) + body


def _bgp4mp(bgp_body, *, afi=1, subtype=BGP4MPSubtype.BGP4MP_MESSAGE_AS4, message_length=None):
    """A BGP4MP record wrapping one UPDATE whose body is *bgp_body*."""
    if message_length is None:
        message_length = 19 + len(bgp_body)
    addresses = bytes(8 if afi == 1 else 32)
    body = struct.pack("!IIHH", 3356, 0, 0, afi) + addresses
    body += BGP_MARKER + struct.pack("!HB", message_length, 2) + bgp_body
    return _record(MRTType.BGP4MP, subtype, body)


#: An UPDATE body announcing 8.8.8.0/24 with valid attributes (4-byte ASNs).
_ATTRS = encode_path_attributes(PathAttributes(as_path=ASPath([3356, 15169])), asn_size=4)
_UPDATE = struct.pack("!H", 0) + struct.pack("!H", len(_ATTRS)) + _ATTRS + bytes([24, 8, 8, 8])


class TestDecodeContract:
    """Each input that leaked a non-``MRTDecodeError`` now raises one."""

    def test_valid_handmade_update_decodes(self):
        (observation,) = observations_from_mrt(_bgp4mp(_UPDATE), "rrc00")
        assert observation.path == ASPath([3356, 15169])

    def test_unknown_table_dump_v2_subtype(self):
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            decode_records(_record(MRTType.TABLE_DUMP_V2, 99, bytes(8)))

    def test_unknown_bgp4mp_subtype(self):
        with pytest.raises(MRTDecodeError, match="subtype 99"):
            decode_records(_bgp4mp(_UPDATE, subtype=99))

    def test_unsupported_bgp4mp_subtype(self):
        with pytest.raises(MRTDecodeError, match="BGP4MP_STATE_CHANGE"):
            decode_records(_bgp4mp(_UPDATE, subtype=BGP4MPSubtype.BGP4MP_STATE_CHANGE))

    def test_unknown_address_family(self):
        with pytest.raises(MRTDecodeError, match="address family 3"):
            decode_records(_bgp4mp(_UPDATE, afi=3))

    def test_bgp_message_shorter_than_its_header(self):
        with pytest.raises(MRTDecodeError, match="shorter than its header"):
            decode_records(_bgp4mp(_UPDATE, message_length=12))

    def test_announcement_without_attributes(self):
        body = struct.pack("!HH", 0, 0) + bytes([24, 8, 8, 8])
        with pytest.raises(MRTDecodeError, match="without path attributes"):
            decode_records(_bgp4mp(body))

    def test_peer_index_outside_the_peer_table(self):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10, 20])
        table = encoder.getvalue()
        encoder.write_rib_entry(
            Prefix.ipv4(8 << 24, 8), [(20, 0, PathAttributes(as_path=ASPath([20])))]
        )
        blob = bytearray(encoder.getvalue())
        # Header (12) + sequence (4) + /8 NLRI (2) + entry count (2).
        index_at = len(table) + 12 + 4 + 2 + 2
        assert blob[index_at : index_at + 2] == b"\x00\x01"
        blob[index_at + 1] = 2
        with pytest.raises(MRTDecodeError, match="peer index 2"):
            observations_from_mrt(bytes(blob), "rrc00")
        table_record, rib_record = decode_records(bytes(blob))
        with pytest.raises(MRTDecodeError, match="peer index 2"):
            rib_record.to_rib_entries(table_record)

    def test_rib_record_before_peer_table(self):
        encoder = MRTEncoder()
        encoder.write_peer_index_table([10])
        table = encoder.getvalue()
        encoder.write_rib_entry(
            Prefix.ipv4(8 << 24, 8), [(10, 0, PathAttributes(as_path=ASPath([10])))]
        )
        rib_only = encoder.getvalue()[len(table) :]
        with pytest.raises(MRTDecodeError, match="before PEER_INDEX_TABLE"):
            observations_from_mrt(rib_only, "rrc00")
