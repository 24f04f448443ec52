//! The per-frame envelope: our stand-in for the IPv6 header plus the
//! (DSR-style) routing header.
//!
//! Every frame on the air is `Envelope { src_ip, source_route, msg }`:
//!
//! * `src_ip` — the transmitting interface's address (`::` while a host
//!   is still in DAD, exactly like real IPv6 DAD probes). Receivers feed
//!   it into their neighbor cache. It is *unauthenticated*, like a real
//!   IP source field — nothing security-relevant trusts it.
//! * `source_route` + `sr_index` — present on unicast multi-hop packets:
//!   the full path including both endpoints plus a segments-left-style
//!   cursor (the index of the hop the frame is currently addressed to),
//!   the moral equivalent of the IPv6 routing header DSR uses. The
//!   per-message `RR` fields from Table 1 stay untouched payload.

use bytes::BufMut;
use manet_wire::{CodecError, FloodHeader, Ipv6Addr, Message, RouteRecord};

/// A framed packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope {
    /// Transmitter's current address (`UNSPECIFIED` during DAD).
    pub src_ip: Ipv6Addr,
    /// Full forwarding path (source first, final destination last), if
    /// this packet is source-routed unicast.
    pub source_route: Option<RouteRecord>,
    /// Index into `source_route` of the hop this frame is addressed to.
    /// Meaningless when `source_route` is `None`.
    pub sr_index: u16,
    pub msg: Message,
}

impl Envelope {
    /// A locally-originated broadcast (floods: AREQ, RREQ).
    pub fn broadcast(src_ip: Ipv6Addr, msg: Message) -> Self {
        Envelope {
            src_ip,
            source_route: None,
            sr_index: 0,
            msg,
        }
    }

    /// A source-routed unicast along `path` (≥ 2 entries: source first,
    /// destination last), freshly addressed to the second entry.
    pub fn routed(src_ip: Ipv6Addr, path: RouteRecord, msg: Message) -> Self {
        debug_assert!(path.len() >= 2, "source route needs both endpoints");
        Envelope {
            src_ip,
            source_route: Some(path),
            sr_index: 1,
            msg,
        }
    }

    /// The hop this frame is currently addressed to.
    pub fn current_hop(&self) -> Option<Ipv6Addr> {
        let sr = self.source_route.as_ref()?;
        sr.0.get(self.sr_index as usize).copied()
    }

    /// The final destination of the source route.
    pub fn final_dst(&self) -> Option<Ipv6Addr> {
        self.source_route.as_ref()?.0.last().copied()
    }

    /// Is the currently addressed hop the final destination?
    pub fn at_final_hop(&self) -> bool {
        match &self.source_route {
            Some(sr) => self.sr_index as usize == sr.len() - 1,
            None => false,
        }
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize, appending to a caller-owned buffer. With a buffer from
    /// [`manet_sim::Ctx::frame_buf`] this is the zero-alloc transmit
    /// path: header and message encode straight into a recycled frame,
    /// with no intermediate message byte vector.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_slice(&self.src_ip.0);
        match &self.source_route {
            None => out.put_u8(0),
            Some(rr) => {
                out.put_u8(1);
                out.put_u16(self.sr_index);
                out.put_u16(rr.0.len() as u16);
                for a in &rr.0 {
                    out.put_slice(&a.0);
                }
            }
        }
        self.msg.encode_into(out);
    }

    /// If `buf` is a broadcast-enveloped (routeless) flood — AREQ,
    /// RREQ or plain RREQ — return the transmitter address and the
    /// message's [`FloodHeader`] without allocating. Validation is as
    /// strict as the full [`Envelope::decode`]; `None` means "different
    /// frame kind or malformed — take the full decode path". This
    /// powers both stacks' duplicate-flood fast path.
    ///
    /// Always inlined, like [`Message::peek_flood`]: out of line, the
    /// header comes back through memory, which on the duplicate path
    /// costs as much as the peek itself (docs/PERF.md, "PR 30").
    #[inline(always)]
    pub fn peek_flood(buf: &[u8]) -> Option<(Ipv6Addr, FloodHeader)> {
        let (src_ip, rest) = buf.split_first_chunk::<16>()?;
        let (&0, msg) = rest.split_first()? else {
            return None;
        };
        Some((Ipv6Addr(*src_ip), Message::peek_flood(msg)?))
    }

    /// Append to `out` the frame a relay rebroadcasts for the flood
    /// `buf`, spliced rather than re-encoded: `relay` as the
    /// transmitter, then the received message with `relay` appended to
    /// its route record ([`Message::relay_flood_into`]) — byte for byte
    /// what [`Envelope::decode`], the push and [`Envelope::encode_into`]
    /// write for a broadcast from `relay`. `flood` must be
    /// [`Envelope::peek_flood`]'s header of `buf`. The final length is
    /// reserved once, up front, so a recycled frame grows at most once.
    /// `false`, with nothing written, for a secure RREQ.
    pub fn relay_flood_into(
        buf: &[u8],
        flood: &FloodHeader,
        relay: Ipv6Addr,
        out: &mut Vec<u8>,
    ) -> bool {
        let Some((_, [0, msg @ ..])) = buf.split_first_chunk::<16>() else {
            return false;
        };
        let start = out.len();
        out.reserve(buf.len() + relay.0.len());
        out.put_slice(&relay.0);
        out.put_u8(0);
        if Message::relay_flood_into(msg, flood, &relay, out) {
            return true;
        }
        out.truncate(start);
        false
    }

    /// Byte offset of the enveloped message within `buf`, validating
    /// the header exactly as strictly as [`Envelope::decode`]: `None`
    /// means the full decode would fail before reaching the message.
    /// With [`Message::peek_may_verify`] this lets a speculative pass
    /// read the message kind without paying for a frame decode.
    pub fn peek_msg_offset(buf: &[u8]) -> Option<usize> {
        if buf.len() < 17 {
            return None;
        }
        match buf[16] {
            0 => Some(17),
            1 => {
                let rest = &buf[17..];
                if rest.len() < 4 {
                    return None;
                }
                let idx = u16::from_be_bytes([rest[0], rest[1]]) as usize;
                let n = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                if n > 256 || idx >= n || rest.len() < 4 + n * 16 {
                    return None;
                }
                Some(17 + 4 + n * 16)
            }
            _ => None,
        }
    }

    /// Strict decode.
    pub fn decode(buf: &[u8]) -> Result<Envelope, CodecError> {
        let Some((src_ip, [has_route, rest @ ..])) = buf.split_first_chunk::<16>() else {
            return Err(CodecError::Truncated);
        };
        let mut rest = rest;
        let (source_route, sr_index) = match has_route {
            0 => (None, 0),
            1 => {
                if rest.len() < 4 {
                    return Err(CodecError::Truncated);
                }
                let idx = u16::from_be_bytes([rest[0], rest[1]]);
                let n = u16::from_be_bytes([rest[2], rest[3]]) as usize;
                rest = &rest[4..];
                if n > 256 {
                    return Err(CodecError::LengthOverflow);
                }
                if (idx as usize) >= n {
                    return Err(CodecError::LengthOverflow);
                }
                if rest.len() < n * 16 {
                    return Err(CodecError::Truncated);
                }
                let (addrs, _) = rest[..n * 16].as_chunks::<16>();
                let path = addrs.iter().map(|a| Ipv6Addr(*a)).collect();
                rest = &rest[n * 16..];
                (Some(RouteRecord(path)), idx)
            }
            _ => return Err(CodecError::LengthOverflow),
        };
        let msg = Message::decode(rest)?;
        Ok(Envelope {
            src_ip: Ipv6Addr(*src_ip),
            source_route,
            sr_index,
            msg,
        })
    }

    /// Total frame size in bytes.
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_wire::{PlainRerr, Seq};

    fn ip(last: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
    }

    fn msg() -> Message {
        Message::PlainRreq(manet_wire::PlainRreq {
            sip: ip(1),
            dip: ip(2),
            seq: Seq(3),
            rr: RouteRecord(vec![ip(4)]),
        })
    }

    #[test]
    fn broadcast_roundtrip() {
        let e = Envelope::broadcast(ip(1), msg());
        assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
        assert_eq!(e.current_hop(), None);
        assert!(!e.at_final_hop());
    }

    #[test]
    fn routed_roundtrip_and_cursor() {
        let e = Envelope::routed(ip(1), RouteRecord(vec![ip(1), ip(2), ip(3)]), msg());
        let back = Envelope::decode(&e.encode()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.current_hop(), Some(ip(2)));
        assert_eq!(back.final_dst(), Some(ip(3)));
        assert!(!back.at_final_hop());
        let mut last = back.clone();
        last.sr_index = 2;
        assert!(last.at_final_hop());
        assert_eq!(last.current_hop(), Some(ip(3)));
    }

    #[test]
    fn unspecified_source_during_dad() {
        let e = Envelope::broadcast(manet_wire::UNSPECIFIED, msg());
        let back = Envelope::decode(&e.encode()).unwrap();
        assert!(back.src_ip.is_unspecified());
    }

    #[test]
    fn truncation_rejected() {
        let e = Envelope::routed(ip(1), RouteRecord(vec![ip(1), ip(2)]), msg());
        let bytes = e.encode();
        for cut in 0..bytes.len() {
            assert!(Envelope::decode(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_route_flag_rejected() {
        let e = Envelope::broadcast(ip(1), msg());
        let mut bytes = e.encode();
        bytes[16] = 7; // invalid has_route discriminant
        assert!(Envelope::decode(&bytes).is_err());
    }

    #[test]
    fn out_of_range_cursor_rejected() {
        let e = Envelope::routed(ip(1), RouteRecord(vec![ip(1), ip(2)]), msg());
        let mut bytes = e.encode();
        // sr_index bytes sit right after the flag.
        bytes[17] = 0;
        bytes[18] = 9;
        assert_eq!(Envelope::decode(&bytes), Err(CodecError::LengthOverflow));
    }

    /// The three flooded kinds, the secure RREQ with one signed hop.
    fn floods() -> Vec<Message> {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(5);
        let id = crate::identity::HostIdentity::generate(512, &mut rng);
        let proof = id.prove(b"hop");
        vec![
            msg(),
            Message::Areq(manet_wire::Areq {
                sip: ip(1),
                seq: Seq(3),
                dn: Some(manet_wire::DomainName::new("host.manet").unwrap()),
                ch: manet_wire::Challenge(9),
                rr: RouteRecord(vec![ip(4)]),
            }),
            Message::Rreq(manet_wire::Rreq {
                sip: ip(1),
                dip: ip(2),
                seq: Seq(3),
                srr: manet_wire::SecureRouteRecord(vec![manet_wire::SrrEntry {
                    ip: ip(4),
                    proof: proof.clone(),
                }]),
                src_proof: proof,
            }),
        ]
    }

    /// Both header peeks must agree with the strict decode. The offset
    /// peek: `Some(off)` exactly when the header parses, with the
    /// message starting at `off`. The flood peek: a transmitter and
    /// header exactly when the frame decodes to a broadcast flood, and
    /// then the decoded ones. Across broadcast and routed frames of each
    /// flooded kind, every truncation and every bit flip.
    #[test]
    fn msg_offset_peek_matches_decode() {
        let flood_of = |bytes: &[u8]| {
            let e = Envelope::decode(bytes).ok()?;
            e.source_route.is_none().then_some(())?;
            Some((e.src_ip, e.msg.flood_header()?))
        };
        for e in floods().into_iter().flat_map(|m| {
            [
                Envelope::broadcast(ip(1), m.clone()),
                Envelope::routed(ip(1), RouteRecord(vec![ip(1), ip(2), ip(3)]), m),
            ]
        }) {
            let bytes = e.encode();
            assert_eq!(Envelope::peek_flood(&bytes), flood_of(&bytes));
            assert_eq!(
                Envelope::peek_flood(&bytes).is_some(),
                e.source_route.is_none(),
                "{}: only broadcast floods peek",
                e.msg.kind()
            );
            for cut in 0..bytes.len() {
                assert_eq!(Envelope::peek_flood(&bytes[..cut]), None, "cut={cut}");
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_eq!(
                    Envelope::peek_flood(&flipped),
                    flood_of(&flipped),
                    "{} with bit {bit} flipped",
                    e.msg.kind()
                );
            }
            let off = Envelope::peek_msg_offset(&bytes).expect("well-formed header");
            assert_eq!(&bytes[off..], &e.msg.encode()[..], "message starts at off");
            for cut in 0..bytes.len() {
                let peek = Envelope::peek_msg_offset(&bytes[..cut]);
                // A header peek may succeed on a frame whose *message*
                // is truncated; it must never succeed where the header
                // itself is short.
                if let Some(o) = peek {
                    assert!(o <= cut, "cut={cut}: offset past the buffer");
                }
            }
            let mut bad = bytes.clone();
            bad[16] = 7;
            assert_eq!(Envelope::peek_msg_offset(&bad), None);
        }
    }

    /// What a relay rebroadcasts for the frame `bytes`: spliced, and
    /// decoded, pushed and re-encoded. The splice runs on what the flood
    /// peek admits; the re-encode on broadcast AREQs and plain RREQs.
    fn relayed(bytes: &[u8], relay: Ipv6Addr) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        let spliced = Envelope::peek_flood(bytes).and_then(|(_, flood)| {
            let mut out = Vec::new();
            Envelope::relay_flood_into(bytes, &flood, relay, &mut out).then_some(out)
        });
        let reencoded = Envelope::decode(bytes)
            .ok()
            .filter(|e| e.source_route.is_none())
            .and_then(|e| match e.msg {
                Message::Areq(mut m) => {
                    m.rr.push(relay);
                    Some(Message::Areq(m))
                }
                Message::PlainRreq(mut m) => {
                    m.rr.push(relay);
                    Some(Message::PlainRreq(m))
                }
                _ => None,
            })
            .map(|msg| Envelope::broadcast(relay, msg).encode());
        (spliced, reencoded)
    }

    /// The relay splice writes the frame a decode, a push onto the
    /// route record and an encode write, or refuses where they do not
    /// relay: secure RREQs, routed frames, and every truncation and bit
    /// flip the strict decode rejects.
    #[test]
    fn relay_splice_matches_reencode() {
        let relay = ip(99);
        for e in floods().into_iter().flat_map(|m| {
            [
                Envelope::broadcast(ip(1), m.clone()),
                Envelope::routed(ip(1), RouteRecord(vec![ip(1), ip(2), ip(3)]), m),
            ]
        }) {
            let bytes = e.encode();
            let (spliced, reencoded) = relayed(&bytes, relay);
            assert_eq!(spliced, reencoded, "{}", e.msg.kind());
            let relays = e.source_route.is_none() && !matches!(e.msg, Message::Rreq(_));
            assert_eq!(spliced.is_some(), relays, "{}", e.msg.kind());
            for cut in 0..bytes.len() {
                assert_eq!(relayed(&bytes[..cut], relay), (None, None), "cut={cut}");
            }
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let (spliced, reencoded) = relayed(&flipped, relay);
                assert_eq!(
                    spliced,
                    reencoded,
                    "{} with bit {bit} flipped",
                    e.msg.kind()
                );
            }
        }
    }

    /// Like the encode, the splice writes a 256-hop record's count as
    /// 257, and receivers refuse the copy.
    #[test]
    fn relay_splice_of_a_full_record_is_refused_downstream() {
        let rreq = manet_wire::PlainRreq {
            sip: ip(1),
            dip: ip(2),
            seq: Seq(3),
            rr: RouteRecord((0..256).map(ip).collect()),
        };
        let bytes = Envelope::broadcast(ip(1), Message::PlainRreq(rreq)).encode();
        let (spliced, reencoded) = relayed(&bytes, ip(99));
        assert!(spliced.is_some());
        assert_eq!(spliced, reencoded);
        let out = spliced.unwrap_or_default();
        assert_eq!(Envelope::decode(&out), Err(CodecError::LengthOverflow));
        assert_eq!(Envelope::peek_flood(&out), None);
    }

    #[test]
    fn envelope_overhead_is_small_for_broadcast() {
        let m = Message::PlainRerr(PlainRerr {
            iip: ip(1),
            i2ip: ip(2),
        });
        let e = Envelope::broadcast(ip(3), m.clone());
        assert_eq!(e.wire_size(), 16 + 1 + m.wire_size());
    }
}
