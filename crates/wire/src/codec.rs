//! Binary codec for every [`Message`].
//!
//! One tag byte, then fixed fields, then length-prefixed variable fields
//! (u16 lengths for keys/signatures/routes, u32 for data payloads). The
//! decoder is strict: truncation, unknown tags, malformed keys/names, and
//! trailing bytes are all errors — every decode site doubles as a fuzzing
//! surface for the failure-injection tests.

use crate::addr::Ipv6Addr;
use crate::msg::*;
use bytes::BufMut;
use manet_crypto::{PublicKey, Signature};
use std::fmt;

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the message did.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Embedded public key failed validation.
    BadKey,
    /// Embedded domain name failed validation.
    BadDomainName,
    /// Bytes left over after a complete message.
    TrailingBytes,
    /// A length prefix exceeds sane bounds.
    LengthOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::BadKey => write!(f, "malformed public key"),
            CodecError::BadDomainName => write!(f, "malformed domain name"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after message"),
            CodecError::LengthOverflow => write!(f, "length prefix out of bounds"),
        }
    }
}

impl std::error::Error for CodecError {}

mod tag {
    pub const AREQ: u8 = 0x01;
    pub const AREP: u8 = 0x02;
    pub const DREP: u8 = 0x03;
    pub const RREQ: u8 = 0x04;
    pub const RREP: u8 = 0x05;
    pub const CREP: u8 = 0x06;
    pub const RERR: u8 = 0x07;
    pub const DATA: u8 = 0x10;
    pub const ACK: u8 = 0x11;
    pub const PROBE: u8 = 0x12;
    pub const PROBE_ACK: u8 = 0x13;
    pub const DNSQ: u8 = 0x20;
    pub const DNSR: u8 = 0x21;
    pub const IPC_REQ: u8 = 0x30;
    pub const IPC_CH: u8 = 0x31;
    pub const IPC_PRF: u8 = 0x32;
    pub const IPC_RES: u8 = 0x33;
    pub const P_RREQ: u8 = 0x40;
    pub const P_RREP: u8 = 0x41;
    pub const P_RERR: u8 = 0x42;
}

/// Maximum hops in a route record the decoder will accept.
const MAX_ROUTE_LEN: usize = 256;
/// Maximum data payload the decoder will accept.
const MAX_PAYLOAD: usize = 64 * 1024;

// --- checked reader ---------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn addr(&mut self) -> Result<Ipv6Addr, CodecError> {
        let b = self.take(16)?;
        Ok(Ipv6Addr(b.try_into().expect("16 bytes")))
    }

    fn seq(&mut self) -> Result<Seq, CodecError> {
        Ok(Seq(self.u64()?))
    }

    fn challenge(&mut self) -> Result<Challenge, CodecError> {
        Ok(Challenge(self.u64()?))
    }

    fn blob16(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    fn sig(&mut self) -> Result<Signature, CodecError> {
        Ok(Signature::from_bytes(self.blob16()?))
    }

    fn pk(&mut self) -> Result<PublicKey, CodecError> {
        PublicKey::from_bytes(self.blob16()?).map_err(|_| CodecError::BadKey)
    }

    fn proof(&mut self) -> Result<IdentityProof, CodecError> {
        let pk = self.pk()?;
        let rn = self.u64()?;
        let sig = self.sig()?;
        Ok(IdentityProof { pk, rn, sig })
    }

    /// A route record's entry count, bounded by [`MAX_ROUTE_LEN`].
    fn route_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u16()? as usize;
        if n > MAX_ROUTE_LEN {
            return Err(CodecError::LengthOverflow);
        }
        Ok(n)
    }

    fn rr(&mut self) -> Result<RouteRecord, CodecError> {
        let n = self.route_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.addr()?);
        }
        Ok(RouteRecord(v))
    }

    fn srr(&mut self) -> Result<SecureRouteRecord, CodecError> {
        let n = self.route_len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let ip = self.addr()?;
            let proof = self.proof()?;
            v.push(SrrEntry { ip, proof });
        }
        Ok(SecureRouteRecord(v))
    }

    fn name_str(&mut self) -> Result<&'a str, CodecError> {
        core::str::from_utf8(self.blob16()?).map_err(|_| CodecError::BadDomainName)
    }

    fn dn(&mut self) -> Result<DomainName, CodecError> {
        DomainName::new(self.name_str()?).map_err(|_| CodecError::BadDomainName)
    }

    fn has_dn(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::BadDomainName),
        }
    }

    fn dn_opt(&mut self) -> Result<Option<DomainName>, CodecError> {
        if self.has_dn()? {
            self.dn().map(Some)
        } else {
            Ok(None)
        }
    }

    // The `skip_*` readers validate exactly what their building
    // counterparts above do, and build nothing.

    fn skip_dn_opt(&mut self) -> Result<(), CodecError> {
        if self.has_dn()? {
            DomainName::check(self.name_str()?).map_err(|_| CodecError::BadDomainName)?;
        }
        Ok(())
    }

    /// Skip a route record; its entry count.
    fn skip_rr(&mut self) -> Result<u16, CodecError> {
        let n = self.route_len()?;
        self.take(n * 16)?;
        Ok(n as u16)
    }

    fn skip_proof(&mut self) -> Result<(), CodecError> {
        PublicKey::check_bytes(self.blob16()?).map_err(|_| CodecError::BadKey)?;
        self.u64()?;
        self.blob16()?; // any bytes are a `Signature`
        Ok(())
    }

    /// Skip a secure route record; its entry count.
    fn skip_srr(&mut self) -> Result<u16, CodecError> {
        let n = self.route_len()?;
        for _ in 0..n {
            self.addr()?;
            self.skip_proof()?;
        }
        Ok(n as u16)
    }

    fn addr_opt(&mut self) -> Result<Option<Ipv6Addr>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.addr()?)),
            _ => Err(CodecError::LengthOverflow),
        }
    }

    fn payload(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD {
            return Err(CodecError::LengthOverflow);
        }
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

// --- writers ----------------------------------------------------------------

fn put_blob16(out: &mut Vec<u8>, blob: &[u8]) {
    debug_assert!(blob.len() <= u16::MAX as usize);
    out.put_u16(blob.len() as u16);
    out.put_slice(blob);
}

/// A u16 length prefix, then the blob `write` appends: the length is
/// patched in afterwards, so keys and signatures encode straight into
/// the frame.
fn put_blob16_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u16(0);
    write(out);
    let len = out.len() - at - 2;
    debug_assert!(len <= u16::MAX as usize);
    out[at..at + 2].copy_from_slice(&(len as u16).to_be_bytes());
}

fn put_sig(out: &mut Vec<u8>, sig: &Signature) {
    put_blob16_with(out, |out| sig.write_to(out));
}

fn put_pk(out: &mut Vec<u8>, pk: &PublicKey) {
    put_blob16_with(out, |out| pk.write_to(out));
}

fn put_proof(out: &mut Vec<u8>, p: &IdentityProof) {
    put_pk(out, &p.pk);
    out.put_u64(p.rn);
    put_sig(out, &p.sig);
}

fn put_rr(out: &mut Vec<u8>, rr: &RouteRecord) {
    out.put_u16(rr.0.len() as u16);
    for a in &rr.0 {
        out.put_slice(&a.0);
    }
}

fn put_srr(out: &mut Vec<u8>, srr: &SecureRouteRecord) {
    out.put_u16(srr.0.len() as u16);
    for e in &srr.0 {
        out.put_slice(&e.ip.0);
        put_proof(out, &e.proof);
    }
}

fn put_dn(out: &mut Vec<u8>, dn: &DomainName) {
    put_blob16(out, dn.as_str().as_bytes());
}

fn put_dn_opt(out: &mut Vec<u8>, dn: &Option<DomainName>) {
    match dn {
        None => out.put_u8(0),
        Some(d) => {
            out.put_u8(1);
            put_dn(out, d);
        }
    }
}

fn put_addr_opt(out: &mut Vec<u8>, a: &Option<Ipv6Addr>) {
    match a {
        None => out.put_u8(0),
        Some(a) => {
            out.put_u8(1);
            out.put_slice(&a.0);
        }
    }
}

/// The header of a flooded message — what a relay needs to drop a
/// duplicate copy — read without allocating by [`Message::peek_flood`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FloodHeader {
    pub kind: FloodKind,
    pub sip: Ipv6Addr,
    pub seq: Seq,
    /// Route record length: the relays the copy has crossed.
    pub hops: u16,
}

/// The flooded message kinds and the header field each adds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FloodKind {
    /// [`Areq`], by its challenge.
    Areq { ch: Challenge },
    /// Secure [`Rreq`], for `dip`.
    Rreq { dip: Ipv6Addr },
    /// [`PlainRreq`], for `dip`.
    PlainRreq { dip: Ipv6Addr },
}

impl Message {
    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize, appending to a caller-owned buffer — the
    /// allocation-free variant for hot transmit paths feeding recycled
    /// frame buffers.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Areq(m) => {
                out.put_u8(tag::AREQ);
                out.put_slice(&m.sip.0);
                out.put_u64(m.seq.0);
                put_dn_opt(out, &m.dn);
                out.put_u64(m.ch.0);
                put_rr(out, &m.rr);
            }
            Message::Arep(m) => {
                out.put_u8(tag::AREP);
                out.put_slice(&m.sip.0);
                put_rr(out, &m.rr);
                put_proof(out, &m.proof);
            }
            Message::Drep(m) => {
                out.put_u8(tag::DREP);
                out.put_slice(&m.sip.0);
                put_rr(out, &m.rr);
                put_sig(out, &m.sig);
            }
            Message::Rreq(m) => {
                out.put_u8(tag::RREQ);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_srr(out, &m.srr);
                put_proof(out, &m.src_proof);
            }
            Message::Rrep(m) => {
                out.put_u8(tag::RREP);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.rr);
                put_proof(out, &m.proof);
            }
            Message::Crep(m) => {
                out.put_u8(tag::CREP);
                out.put_slice(&m.s2ip.0);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq2.0);
                put_rr(out, &m.rr_s2_to_s);
                put_proof(out, &m.s_proof);
                out.put_u64(m.orig_seq.0);
                put_rr(out, &m.rr_s_to_d);
                put_proof(out, &m.d_proof);
            }
            Message::Rerr(m) => {
                out.put_u8(tag::RERR);
                out.put_slice(&m.iip.0);
                out.put_slice(&m.i2ip.0);
                put_proof(out, &m.proof);
            }
            Message::Data(m) => {
                out.put_u8(tag::DATA);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.route);
                out.put_u32(m.payload.len() as u32);
                out.put_slice(&m.payload);
            }
            Message::Ack(m) => {
                out.put_u8(tag::ACK);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.route);
            }
            Message::Probe(m) => {
                out.put_u8(tag::PROBE);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.route);
            }
            Message::ProbeAck(m) => {
                out.put_u8(tag::PROBE_ACK);
                out.put_slice(&m.sip.0);
                out.put_u64(m.probe_seq.0);
                out.put_slice(&m.hop.0);
                put_proof(out, &m.proof);
            }
            Message::DnsQuery(m) => {
                out.put_u8(tag::DNSQ);
                out.put_slice(&m.requester.0);
                put_dn(out, &m.qname);
                out.put_u64(m.ch.0);
                put_rr(out, &m.route);
            }
            Message::DnsReply(m) => {
                out.put_u8(tag::DNSR);
                out.put_slice(&m.requester.0);
                put_dn(out, &m.qname);
                put_addr_opt(out, &m.answer);
                put_sig(out, &m.sig);
                put_rr(out, &m.route);
            }
            Message::IpChangeRequest(m) => {
                out.put_u8(tag::IPC_REQ);
                put_dn(out, &m.dn);
                out.put_slice(&m.old_ip.0);
                out.put_slice(&m.new_ip.0);
                put_rr(out, &m.route);
            }
            Message::IpChangeChallenge(m) => {
                out.put_u8(tag::IPC_CH);
                put_dn(out, &m.dn);
                out.put_u64(m.ch.0);
                put_rr(out, &m.route);
            }
            Message::IpChangeProof(m) => {
                out.put_u8(tag::IPC_PRF);
                put_dn(out, &m.dn);
                out.put_slice(&m.old_ip.0);
                out.put_slice(&m.new_ip.0);
                out.put_u64(m.old_rn);
                out.put_u64(m.new_rn);
                put_pk(out, &m.pk);
                put_sig(out, &m.sig);
                put_rr(out, &m.route);
            }
            Message::IpChangeResult(m) => {
                out.put_u8(tag::IPC_RES);
                put_dn(out, &m.dn);
                out.put_u8(m.accepted as u8);
                put_sig(out, &m.sig);
                put_rr(out, &m.route);
            }
            Message::PlainRreq(m) => {
                out.put_u8(tag::P_RREQ);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.rr);
            }
            Message::PlainRrep(m) => {
                out.put_u8(tag::P_RREP);
                out.put_slice(&m.sip.0);
                out.put_slice(&m.dip.0);
                out.put_u64(m.seq.0);
                put_rr(out, &m.rr);
            }
            Message::PlainRerr(m) => {
                out.put_u8(tag::P_RERR);
                out.put_slice(&m.iip.0);
                out.put_slice(&m.i2ip.0);
            }
        }
    }

    /// Size of the encoded message in bytes; the unit of the control
    /// overhead experiments (T1, E2).
    pub fn wire_size(&self) -> usize {
        self.encode().len()
    }

    /// If `buf` is a complete, well-formed AREQ, RREQ or plain RREQ,
    /// its header, read without allocating: route records, keys and
    /// signatures are skipped, not built. Validates the whole layout —
    /// lengths, bounds, key shapes, domain names, trailing bytes —
    /// exactly as strictly as [`Message::decode`], so `Some(h)` holds
    /// exactly when `decode` succeeds with a message whose
    /// [`Message::flood_header`] is `h`, and `None` means "another kind,
    /// or malformed: take the full decode path".
    ///
    /// This is the flood hot path: in a dense flood most receptions are
    /// duplicates a node drops on these fields alone, so it is always
    /// inlined into its callers.
    #[inline(always)]
    pub fn peek_flood(buf: &[u8]) -> Option<FloodHeader> {
        let mut r = Reader::new(buf);
        let t = r.u8().ok()?;
        let sip = r.addr().ok()?;
        let (kind, seq, hops) = match t {
            tag::AREQ => {
                let seq = r.seq().ok()?;
                r.skip_dn_opt().ok()?;
                let ch = r.challenge().ok()?;
                (FloodKind::Areq { ch }, seq, r.skip_rr().ok()?)
            }
            tag::RREQ => {
                let dip = r.addr().ok()?;
                let seq = r.seq().ok()?;
                let hops = r.skip_srr().ok()?;
                r.skip_proof().ok()?;
                (FloodKind::Rreq { dip }, seq, hops)
            }
            tag::P_RREQ => {
                let dip = r.addr().ok()?;
                let seq = r.seq().ok()?;
                (FloodKind::PlainRreq { dip }, seq, r.skip_rr().ok()?)
            }
            _ => return None,
        };
        r.finish().ok()?;
        Some(FloodHeader {
            kind,
            sip,
            seq,
            hops,
        })
    }

    /// [`Message::peek_flood`] narrowed to [`PlainRreq`] (the benchmark
    /// times the plain flood peek through this name).
    pub fn peek_plain_rreq(buf: &[u8]) -> Option<FloodHeader> {
        if buf.first() != Some(&tag::P_RREQ) {
            return None;
        }
        Self::peek_flood(buf)
    }

    /// The header [`Message::peek_flood`] reads from this message's
    /// encoding: `Some` for the three flooded kinds.
    pub fn flood_header(&self) -> Option<FloodHeader> {
        let (kind, sip, seq, hops) = match self {
            Message::Areq(m) => (FloodKind::Areq { ch: m.ch }, m.sip, m.seq, m.rr.len()),
            Message::Rreq(m) => (FloodKind::Rreq { dip: m.dip }, m.sip, m.seq, m.srr.len()),
            Message::PlainRreq(m) => (
                FloodKind::PlainRreq { dip: m.dip },
                m.sip,
                m.seq,
                m.rr.len(),
            ),
            _ => return None,
        };
        Some(FloodHeader {
            kind,
            sip,
            seq,
            hops: hops as u16,
        })
    }

    /// Append to `out` the copy of the flood `buf` that `relay`
    /// rebroadcasts, without decoding it: byte for byte what
    /// [`Message::decode`], a push of `relay` onto the route record and
    /// [`Message::encode_into`] write. `flood` must be
    /// [`Message::peek_flood`]'s header of `buf`. In an [`Areq`] and a
    /// [`PlainRreq`] the route record is the last field (a `u16` count,
    /// then 16-byte entries), so the splice copies `buf`, bumps the
    /// count at `len − 2 − 16·hops` and appends the address. Like
    /// `encode`, it writes a 256-hop record's count as 257, which every
    /// receiver refuses. `false`, with nothing written, for a secure
    /// [`Rreq`] — its relays sign their hop — or a `buf` shorter than
    /// `flood`'s record.
    pub fn relay_flood_into(
        buf: &[u8],
        flood: &FloodHeader,
        relay: &Ipv6Addr,
        out: &mut Vec<u8>,
    ) -> bool {
        if matches!(flood.kind, FloodKind::Rreq { .. }) {
            return false;
        }
        let (Some(at), Some(count)) = (
            buf.len().checked_sub(2 + 16 * usize::from(flood.hops)),
            flood.hops.checked_add(1),
        ) else {
            return false;
        };
        let (head, record) = buf.split_at(at);
        out.reserve(buf.len() + relay.0.len());
        out.put_slice(head);
        out.put_u16(count);
        out.put_slice(&record[2..]);
        out.put_slice(&relay.0);
        true
    }

    /// Can the message starting at `buf` (first byte: the kind tag)
    /// carry signature material its *receiver* verifies? Data, acks,
    /// probes, AREQ floods, queries/challenges, and the plain-DSR kinds
    /// are never signature-checked on reception, so a speculative
    /// verification pass can skip decoding them — the bulk of traffic
    /// at scale. Unknown tags and empty buffers return `false`: the
    /// strict decode would reject them before any verification anyway.
    pub fn peek_may_verify(buf: &[u8]) -> bool {
        matches!(
            buf.first(),
            Some(
                &(tag::AREP
                    | tag::DREP
                    | tag::RREQ
                    | tag::RREP
                    | tag::CREP
                    | tag::RERR
                    | tag::PROBE_ACK
                    | tag::DNSR
                    | tag::IPC_PRF
                    | tag::IPC_RES)
            )
        )
    }

    /// Strict decode: consumes the whole buffer or fails.
    pub fn decode(buf: &[u8]) -> Result<Message, CodecError> {
        let mut r = Reader::new(buf);
        let t = r.u8()?;
        let msg = match t {
            tag::AREQ => Message::Areq(Areq {
                sip: r.addr()?,
                seq: r.seq()?,
                dn: r.dn_opt()?,
                ch: r.challenge()?,
                rr: r.rr()?,
            }),
            tag::AREP => Message::Arep(Arep {
                sip: r.addr()?,
                rr: r.rr()?,
                proof: r.proof()?,
            }),
            tag::DREP => Message::Drep(Drep {
                sip: r.addr()?,
                rr: r.rr()?,
                sig: r.sig()?,
            }),
            tag::RREQ => Message::Rreq(Rreq {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                srr: r.srr()?,
                src_proof: r.proof()?,
            }),
            tag::RREP => Message::Rrep(Rrep {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                rr: r.rr()?,
                proof: r.proof()?,
            }),
            tag::CREP => Message::Crep(Crep {
                s2ip: r.addr()?,
                sip: r.addr()?,
                dip: r.addr()?,
                seq2: r.seq()?,
                rr_s2_to_s: r.rr()?,
                s_proof: r.proof()?,
                orig_seq: r.seq()?,
                rr_s_to_d: r.rr()?,
                d_proof: r.proof()?,
            }),
            tag::RERR => Message::Rerr(Rerr {
                iip: r.addr()?,
                i2ip: r.addr()?,
                proof: r.proof()?,
            }),
            tag::DATA => Message::Data(Data {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                route: r.rr()?,
                payload: r.payload()?,
            }),
            tag::ACK => Message::Ack(Ack {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                route: r.rr()?,
            }),
            tag::PROBE => Message::Probe(Probe {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                route: r.rr()?,
            }),
            tag::PROBE_ACK => Message::ProbeAck(ProbeAck {
                sip: r.addr()?,
                probe_seq: r.seq()?,
                hop: r.addr()?,
                proof: r.proof()?,
            }),
            tag::DNSQ => Message::DnsQuery(DnsQuery {
                requester: r.addr()?,
                qname: r.dn()?,
                ch: r.challenge()?,
                route: r.rr()?,
            }),
            tag::DNSR => Message::DnsReply(DnsReply {
                requester: r.addr()?,
                qname: r.dn()?,
                answer: r.addr_opt()?,
                sig: r.sig()?,
                route: r.rr()?,
            }),
            tag::IPC_REQ => Message::IpChangeRequest(IpChangeRequest {
                dn: r.dn()?,
                old_ip: r.addr()?,
                new_ip: r.addr()?,
                route: r.rr()?,
            }),
            tag::IPC_CH => Message::IpChangeChallenge(IpChangeChallenge {
                dn: r.dn()?,
                ch: r.challenge()?,
                route: r.rr()?,
            }),
            tag::IPC_PRF => Message::IpChangeProof(IpChangeProof {
                dn: r.dn()?,
                old_ip: r.addr()?,
                new_ip: r.addr()?,
                old_rn: r.u64()?,
                new_rn: r.u64()?,
                pk: r.pk()?,
                sig: r.sig()?,
                route: r.rr()?,
            }),
            tag::IPC_RES => Message::IpChangeResult(IpChangeResult {
                dn: r.dn()?,
                accepted: r.u8()? != 0,
                sig: r.sig()?,
                route: r.rr()?,
            }),
            tag::P_RREQ => Message::PlainRreq(PlainRreq {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                rr: r.rr()?,
            }),
            tag::P_RREP => Message::PlainRrep(PlainRrep {
                sip: r.addr()?,
                dip: r.addr()?,
                seq: r.seq()?,
                rr: r.rr()?,
            }),
            tag::P_RERR => Message::PlainRerr(PlainRerr {
                iip: r.addr()?,
                i2ip: r.addr()?,
            }),
            other => return Err(CodecError::BadTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn ip(last: u16) -> Ipv6Addr {
        Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
    }

    fn proof() -> IdentityProof {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        let kp = manet_crypto::KeyPair::generate(512, &mut rng);
        IdentityProof {
            pk: kp.public().clone(),
            rn: 42,
            sig: kp.sign(b"test"),
        }
    }

    fn sample_messages() -> Vec<Message> {
        let p = proof();
        let dn = DomainName::new("node1.manet").unwrap();
        let rr = RouteRecord(vec![ip(1), ip(2), ip(3)]);
        let srr = SecureRouteRecord(vec![
            SrrEntry {
                ip: ip(2),
                proof: p.clone(),
            },
            SrrEntry {
                ip: ip(3),
                proof: p.clone(),
            },
        ]);
        vec![
            Message::Areq(Areq {
                sip: ip(1),
                seq: Seq(9),
                dn: Some(dn.clone()),
                ch: Challenge(0xdead),
                rr: rr.clone(),
            }),
            Message::Areq(Areq {
                sip: ip(1),
                seq: Seq(9),
                dn: None,
                ch: Challenge(1),
                rr: RouteRecord::new(),
            }),
            Message::Arep(Arep {
                sip: ip(1),
                rr: rr.clone(),
                proof: p.clone(),
            }),
            Message::Drep(Drep {
                sip: ip(1),
                rr: rr.clone(),
                sig: p.sig.clone(),
            }),
            Message::Rreq(Rreq {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                srr,
                src_proof: p.clone(),
            }),
            Message::Rrep(Rrep {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                rr: rr.clone(),
                proof: p.clone(),
            }),
            Message::Crep(Crep {
                s2ip: ip(7),
                sip: ip(1),
                dip: ip(9),
                seq2: Seq(8),
                rr_s2_to_s: rr.clone(),
                s_proof: p.clone(),
                orig_seq: Seq(5),
                rr_s_to_d: rr.reversed(),
                d_proof: p.clone(),
            }),
            Message::Rerr(Rerr {
                iip: ip(2),
                i2ip: ip(3),
                proof: p.clone(),
            }),
            Message::Data(Data {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(100),
                route: rr.clone(),
                payload: vec![0xab; 512],
            }),
            Message::Ack(Ack {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(100),
                route: rr.clone(),
            }),
            Message::Probe(Probe {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(101),
                route: rr.clone(),
            }),
            Message::ProbeAck(ProbeAck {
                sip: ip(1),
                probe_seq: Seq(101),
                hop: ip(2),
                proof: p.clone(),
            }),
            Message::DnsQuery(DnsQuery {
                requester: ip(1),
                qname: dn.clone(),
                ch: Challenge(77),
                route: rr.clone(),
            }),
            Message::DnsReply(DnsReply {
                requester: ip(1),
                qname: dn.clone(),
                answer: Some(ip(9)),
                sig: p.sig.clone(),
                route: rr.clone(),
            }),
            Message::DnsReply(DnsReply {
                requester: ip(1),
                qname: dn.clone(),
                answer: None,
                sig: p.sig.clone(),
                route: RouteRecord::new(),
            }),
            Message::IpChangeRequest(IpChangeRequest {
                dn: dn.clone(),
                old_ip: ip(1),
                new_ip: ip(2),
                route: rr.clone(),
            }),
            Message::IpChangeChallenge(IpChangeChallenge {
                dn: dn.clone(),
                ch: Challenge(3),
                route: rr.clone(),
            }),
            Message::IpChangeProof(IpChangeProof {
                dn: dn.clone(),
                old_ip: ip(1),
                new_ip: ip(2),
                old_rn: 4,
                new_rn: 5,
                pk: p.pk.clone(),
                sig: p.sig.clone(),
                route: rr.clone(),
            }),
            Message::IpChangeResult(IpChangeResult {
                dn: dn.clone(),
                accepted: true,
                sig: p.sig.clone(),
                route: rr.clone(),
            }),
            Message::PlainRreq(PlainRreq {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                rr: rr.clone(),
            }),
            Message::PlainRrep(PlainRrep {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                rr: rr.clone(),
            }),
            Message::PlainRerr(PlainRerr {
                iip: ip(2),
                i2ip: ip(3),
            }),
        ]
    }

    /// `peek_may_verify` must say yes for exactly the kinds whose
    /// receiver checks a signature — the set the secure node's prefetch
    /// pass handles. A false negative would silently starve batch
    /// verification for that kind (correct but unamortized), so the
    /// set is pinned against every sample message.
    #[test]
    fn verify_peek_matches_the_receiver_checked_kinds() {
        for msg in sample_messages() {
            let expected = matches!(
                msg,
                Message::Arep(_)
                    | Message::Drep(_)
                    | Message::Rreq(_)
                    | Message::Rrep(_)
                    | Message::Crep(_)
                    | Message::Rerr(_)
                    | Message::ProbeAck(_)
                    | Message::DnsReply(_)
                    | Message::IpChangeProof(_)
                    | Message::IpChangeResult(_)
            );
            assert_eq!(
                Message::peek_may_verify(&msg.encode()),
                expected,
                "{}",
                msg.kind()
            );
        }
        assert!(!Message::peek_may_verify(&[]));
        assert!(!Message::peek_may_verify(&[0xff]));
    }

    #[test]
    fn flood_peek_reads_the_decoded_header() {
        let mut floods = 0;
        for msg in sample_messages() {
            let bytes = msg.encode();
            assert_eq!(
                Message::peek_flood(&bytes),
                msg.flood_header(),
                "{}",
                msg.kind()
            );
            floods += usize::from(msg.flood_header().is_some());
            for cut in 0..bytes.len() {
                assert_eq!(Message::peek_flood(&bytes[..cut]), None, "{}", msg.kind());
            }
        }
        assert_eq!(floods, 4, "two AREQs, the RREQ and the plain RREQ");
    }

    /// The relayed copy a splice writes, or `None` where it refuses.
    fn spliced(bytes: &[u8], relay: &Ipv6Addr) -> Option<Vec<u8>> {
        let flood = Message::peek_flood(bytes)?;
        let mut out = Vec::new();
        Message::relay_flood_into(bytes, &flood, relay, &mut out).then_some(out)
    }

    #[test]
    fn relay_splice_writes_the_reencoded_copy() {
        let relay = ip(99);
        let mut relayed = 0;
        for msg in sample_messages() {
            let bytes = msg.encode();
            let expected = match msg {
                Message::Areq(mut m) => {
                    m.rr.push(relay);
                    Some(Message::Areq(m).encode())
                }
                Message::PlainRreq(mut m) => {
                    m.rr.push(relay);
                    Some(Message::PlainRreq(m).encode())
                }
                _ => None,
            };
            relayed += usize::from(expected.is_some());
            assert_eq!(spliced(&bytes, &relay), expected);
        }
        assert_eq!(relayed, 3, "two AREQs and the plain RREQ; the RREQ signs");
    }

    #[test]
    fn relay_splice_of_a_full_record_writes_what_receivers_refuse() {
        let mut rreq = PlainRreq {
            sip: ip(1),
            dip: ip(2),
            seq: Seq(3),
            rr: RouteRecord((0..MAX_ROUTE_LEN as u16).map(ip).collect()),
        };
        let out = spliced(&Message::PlainRreq(rreq.clone()).encode(), &ip(99))
            .expect("a 256-hop record is valid");
        rreq.rr.push(ip(99));
        assert_eq!(out, Message::PlainRreq(rreq).encode());
        assert_eq!(Message::decode(&out), Err(CodecError::LengthOverflow));
        assert_eq!(Message::peek_flood(&out), None);
    }

    #[test]
    fn all_messages_roundtrip() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            let back =
                Message::decode(&bytes).unwrap_or_else(|e| panic!("{} failed: {e}", msg.kind()));
            assert_eq!(back, msg, "{} roundtrip", msg.kind());
            assert_eq!(msg.wire_size(), bytes.len());
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Message::decode(&bytes[..cut]).is_err(),
                    "{} decoded from {cut}/{} bytes",
                    msg.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        for msg in sample_messages() {
            let mut bytes = msg.encode();
            bytes.push(0);
            assert_eq!(Message::decode(&bytes), Err(CodecError::TrailingBytes));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::decode(&[0xff]), Err(CodecError::BadTag(0xff)));
        assert_eq!(Message::decode(&[0x00]), Err(CodecError::BadTag(0x00)));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(Message::decode(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn oversized_route_rejected() {
        // Hand-build a plain RREQ claiming 300 route entries.
        let mut bytes = vec![tag::P_RREQ];
        bytes.extend_from_slice(&[0u8; 16]); // sip
        bytes.extend_from_slice(&[0u8; 16]); // dip
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&300u16.to_be_bytes());
        bytes.extend_from_slice(&vec![0u8; 300 * 16]);
        assert_eq!(Message::decode(&bytes), Err(CodecError::LengthOverflow));
        assert_eq!(Message::peek_flood(&bytes), None);
    }

    #[test]
    fn oversized_key_material_rejected_without_bignum_work() {
        // A blob16 admits 65,535 bytes of key. Before the caps such a
        // modulus cost every receiver a quarter of a second at decode (and
        // seconds if verified), an oversized exponent the same at verify.
        let good = proof().pk;
        let blob = good.to_bytes();
        let (frame, at) = sample_messages()
            .iter()
            .map(Message::encode)
            .find_map(|f| {
                let at = f.windows(blob.len()).position(|w| w == blob)?;
                Some((f, at))
            })
            .expect("a sample message carries the proof");
        let n = good.modulus().to_be_bytes();
        let f4 = vec![1, 0, 1];
        let started = std::time::Instant::now();
        for (n, e) in [
            (vec![0xff; 65_535 - 4 - f4.len()], f4.clone()),
            (vec![0xff; 513], f4), // one byte past MAX_MODULUS_BITS
            (n.clone(), vec![0xff; 65_535 - 4 - n.len()]),
            (n, vec![1, 0, 0, 0, 0, 0, 0, 0, 1]), // one byte past a limb
        ] {
            let mut hostile = frame[..at - 2].to_vec();
            put_blob16(&mut hostile, &{
                let mut key = Vec::new();
                put_blob16(&mut key, &n);
                put_blob16(&mut key, &e);
                key
            });
            hostile.extend_from_slice(&frame[at + blob.len()..]);
            assert_eq!(Message::decode(&hostile), Err(CodecError::BadKey));
            assert_eq!(Message::peek_flood(&hostile), None);
        }
        // Microseconds each when it is only a parse and a bit count.
        assert!(started.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn bad_domain_name_on_wire_rejected() {
        let dn = DomainName::new("ok.name").unwrap();
        let query = Message::DnsQuery(DnsQuery {
            requester: ip(1),
            qname: dn.clone(),
            ch: Challenge(0),
            route: RouteRecord::new(),
        });
        let areq = Message::Areq(Areq {
            sip: ip(1),
            seq: Seq(2),
            dn: Some(dn),
            ch: Challenge(0),
            rr: RouteRecord::new(),
        });
        for msg in [query, areq] {
            let mut bytes = msg.encode();
            // Corrupt the first character of the name ('o' -> '!').
            let pos = bytes.iter().position(|&b| b == b'o').unwrap();
            bytes[pos] = b'!';
            assert_eq!(Message::decode(&bytes), Err(CodecError::BadDomainName));
            assert_eq!(Message::peek_flood(&bytes), None);
        }
    }

    #[test]
    fn secure_messages_cost_more_than_plain() {
        // The T1 exhibit's core fact: security adds signature + key bytes.
        let p = proof();
        let rr = RouteRecord(vec![ip(1), ip(2), ip(3)]);
        let secure = Message::Rrep(Rrep {
            sip: ip(1),
            dip: ip(9),
            seq: Seq(5),
            rr: rr.clone(),
            proof: p,
        });
        let plain = Message::PlainRrep(PlainRrep {
            sip: ip(1),
            dip: ip(9),
            seq: Seq(5),
            rr,
        });
        assert!(secure.wire_size() > plain.wire_size() + 64);
    }
}
