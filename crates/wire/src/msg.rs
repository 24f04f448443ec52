//! Control messages — Table 1 of the paper, plus the auxiliary traffic the
//! protocol needs to actually run (data/ack, DNS resolution, IP change,
//! and the plain-DSR baseline messages used for comparison).
//!
//! Naming follows Table 2: `XIP` an address, `XPK`/`XSK` a key pair, `Xrn`
//! the CGA modifier, `DN` a domain name, `ch` a challenge, `seq` a
//! sequence number, `RR` a route record, `SRR` a secure route record, and
//! `[msg]XSK` a signature by X ([`manet_crypto::Signature`]).

use crate::addr::Ipv6Addr;
use manet_crypto::{PublicKey, Signature};
use std::fmt;

/// A per-initiator unique sequence number (Table 2: `seq`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Seq(pub u64);

/// A random challenge (Table 2: `ch`). Fresh per AREQ; binding it into
/// the signed reply is what stops replay attacks (Section 3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Challenge(pub u64);

/// A validated domain name (Table 2: `DN`).
///
/// Lowercase LDH labels separated by dots, at most 255 bytes total.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName(String);

/// Errors constructing a [`DomainName`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainNameError {
    Empty,
    TooLong,
    BadCharacter,
    BadLabel,
}

impl DomainName {
    /// Validate and construct.
    pub fn new(s: &str) -> Result<Self, DomainNameError> {
        Self::check(s)?;
        Ok(DomainName(s.to_owned()))
    }

    /// Would [`Self::new`] accept `s`? The one definition of a valid
    /// name, also run by the codec's allocation-free peek.
    pub fn check(s: &str) -> Result<(), DomainNameError> {
        if s.is_empty() {
            return Err(DomainNameError::Empty);
        }
        if s.len() > 255 {
            return Err(DomainNameError::TooLong);
        }
        for label in s.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(DomainNameError::BadLabel);
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(DomainNameError::BadLabel);
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            {
                return Err(DomainNameError::BadCharacter);
            }
        }
        Ok(())
    }

    /// The textual name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DomainName({})", self.0)
    }
}

/// A route record (Table 2: `RR`): the addresses traversed so far, source
/// end first.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RouteRecord(pub Vec<Ipv6Addr>);

impl RouteRecord {
    pub fn new() -> Self {
        RouteRecord(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn contains(&self, a: &Ipv6Addr) -> bool {
        self.0.contains(a)
    }

    pub fn push(&mut self, a: Ipv6Addr) {
        self.0.push(a);
    }

    /// The record reversed (reply path).
    pub fn reversed(&self) -> RouteRecord {
        RouteRecord(self.0.iter().rev().copied().collect())
    }

    /// Canonical bytes for signing (`[… RR]XSK` payloads).
    pub fn sign_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.0.len() * 16);
        out.extend_from_slice(&(self.0.len() as u16).to_be_bytes());
        for a in &self.0 {
            out.extend_from_slice(&a.0);
        }
        out
    }
}

/// The identity material every secure message carries for its signer:
/// the public key `XPK`, the CGA modifier `Xrn`, and a signature.
///
/// Verifying a proof means (1) checking `H(XPK, Xrn)` matches the
/// claimed address's interface ID and (2) checking the signature under
/// `XPK` — the two checks Sections 3.1/3.3 repeat for every message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IdentityProof {
    pub pk: PublicKey,
    pub rn: u64,
    pub sig: Signature,
}

/// One entry of the secure route record (Table 2: `SRR`):
/// `([IIP, seq]ISK, IPK, Irn)` keyed by the hop's address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SrrEntry {
    pub ip: Ipv6Addr,
    pub proof: IdentityProof,
}

/// The secure route record: per-hop identity proofs, source side first.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SecureRouteRecord(pub Vec<SrrEntry>);

impl SecureRouteRecord {
    pub fn new() -> Self {
        SecureRouteRecord(Vec::new())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Drop the proofs, keeping only the traversed addresses (the `RR`
    /// that D extracts from the SRR when building the RREP).
    pub fn to_route_record(&self) -> RouteRecord {
        RouteRecord(self.0.iter().map(|e| e.ip).collect())
    }
}

// ---------------------------------------------------------------------------
// Table 1 messages
// ---------------------------------------------------------------------------

/// `AREQ(SIP, seq, DN, ch, RR)` — address request, flooded during secure
/// DAD (Section 3.1). `dn` is empty when no name registration is wanted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Areq {
    pub sip: Ipv6Addr,
    pub seq: Seq,
    pub dn: Option<DomainName>,
    pub ch: Challenge,
    pub rr: RouteRecord,
}

/// `AREP(SIP, RR, [SIP, ch]RSK, RPK, Rrn)` — address reply unicast by the
/// collision holder R back along `RR` (and to the DNS as a warning).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Arep {
    pub sip: Ipv6Addr,
    pub rr: RouteRecord,
    /// R's proof: signature over `[SIP, ch]`, plus `RPK`, `Rrn`.
    pub proof: IdentityProof,
}

/// `DREP(SIP, RR, [DN, ch]NSK)` — DNS server reply on a duplicate domain
/// name. Verified against the globally known DNS public key, so no
/// key/rn material travels with it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Drep {
    pub sip: Ipv6Addr,
    pub rr: RouteRecord,
    /// `[DN, ch]NSK` — the DNS signature over the rejected name + challenge.
    pub sig: Signature,
}

/// `RREQ(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)` — secure route
/// request (Section 3.3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rreq {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    pub seq: Seq,
    pub srr: SecureRouteRecord,
    /// S's proof: signature over `[SIP, seq]`, plus `SPK`, `Srn`.
    pub src_proof: IdentityProof,
}

/// `RREP(SIP, DIP, [SIP, seq, RR]DSK, DPK, Drn)` — route reply unicast by
/// D back along the reverse of `RR` (which is carried in the source-routed
/// header, hence a field here).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rrep {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    /// The original request's sequence number (covered by the signature).
    pub seq: Seq,
    /// The discovered route S→…→D extracted from the SRR.
    pub rr: RouteRecord,
    /// D's proof: signature over `[SIP, seq, RR]`, plus `DPK`, `Drn`.
    pub proof: IdentityProof,
}

/// `CREP(S'IP, SIP, DIP, RR_{S'→S}, [S'IP, seq', RR_{S'→S}]SSK, SPK, Srn,
/// [SIP, seq, RR_{S→D}]DSK, DPK, Drn)` — cached route reply: S answers
/// S'’s request for D by stitching the reverse path to itself onto its
/// cached, destination-signed route to D (Section 3.3, Figure 3).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Crep {
    /// The new requester S'.
    pub s2ip: Ipv6Addr,
    /// The cache holder S.
    pub sip: Ipv6Addr,
    /// The destination D.
    pub dip: Ipv6Addr,
    /// S'’s sequence number (from its pending RREQ).
    pub seq2: Seq,
    /// Route S'→…→S, taken from the RREQ's SRR.
    pub rr_s2_to_s: RouteRecord,
    /// S's proof: signature over `[S'IP, seq', RR_{S'→S}]`, plus SPK, Srn.
    pub s_proof: IdentityProof,
    /// The sequence number of S's original discovery (covered by D's sig).
    pub orig_seq: Seq,
    /// Cached route S→…→D.
    pub rr_s_to_d: RouteRecord,
    /// D's original proof: signature over `[SIP, seq, RR_{S→D}]`, plus DPK, Drn.
    pub d_proof: IdentityProof,
}

/// `RERR(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)` — route error: hop I
/// reports its link to the next hop I' broken (Section 3.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rerr {
    pub iip: Ipv6Addr,
    pub i2ip: Ipv6Addr,
    /// I's proof: signature over `[IIP, I'IP]`, plus IPK, Irn.
    pub proof: IdentityProof,
}

// ---------------------------------------------------------------------------
// Auxiliary traffic (not in Table 1 but required to operate the system)
// ---------------------------------------------------------------------------

/// A source-routed data packet. Credits are granted when the matching
/// [`Ack`] comes back (Section 3.4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Data {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    pub seq: Seq,
    /// Full source route S→…→D, including both endpoints.
    pub route: RouteRecord,
    pub payload: Vec<u8>,
}

/// End-to-end acknowledgement for a [`Data`] packet, returned along the
/// reverse route; drives the credit manager.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ack {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    /// Sequence number of the acknowledged data packet.
    pub seq: Seq,
    pub route: RouteRecord,
}

/// Route probe (Section 3.4: "the source host can traverse the route
/// and test the integrality of each host"). Source-routed along the
/// suspect route; every hop that forwards it returns a signed
/// [`ProbeAck`], letting the source localize where packets die.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Probe {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    pub seq: Seq,
    /// The probed route S→…→D (both endpoints included).
    pub route: RouteRecord,
}

/// Per-hop acknowledgement of a [`Probe`]: hop I proves it saw (and
/// forwarded) probe `seq` with `[SIP, seq, IIP]ISK`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProbeAck {
    pub sip: Ipv6Addr,
    pub probe_seq: Seq,
    /// The acknowledging hop.
    pub hop: Ipv6Addr,
    pub proof: IdentityProof,
}

/// Secure DNS resolution request (Section 3.2): "a host can securely
/// inquire the IP address of the web server".
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DnsQuery {
    pub requester: Ipv6Addr,
    pub qname: DomainName,
    pub ch: Challenge,
    pub route: RouteRecord,
}

/// Signed DNS resolution answer. `answer` is `None` for NXDOMAIN.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DnsReply {
    pub requester: Ipv6Addr,
    pub qname: DomainName,
    pub answer: Option<Ipv6Addr>,
    /// `[qname, answer, ch]NSK` — binds the fresh challenge, so replaying
    /// an old reply fails.
    pub sig: Signature,
    pub route: RouteRecord,
}

/// Section 3.2 IP-change, step 1: host X asks the DNS to move its name to
/// a new address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpChangeRequest {
    pub dn: DomainName,
    pub old_ip: Ipv6Addr,
    pub new_ip: Ipv6Addr,
    pub route: RouteRecord,
}

/// Step 2: the DNS challenges the requester.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpChangeChallenge {
    pub dn: DomainName,
    pub ch: Challenge,
    pub route: RouteRecord,
}

/// Step 3: X proves ownership of both addresses — old/new `rn`, the key,
/// and `[XIP, X'IP, ch]XSK` (the paper's exact reply contents).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpChangeProof {
    pub dn: DomainName,
    pub old_ip: Ipv6Addr,
    pub new_ip: Ipv6Addr,
    pub old_rn: u64,
    pub new_rn: u64,
    pub pk: PublicKey,
    pub sig: Signature,
    pub route: RouteRecord,
}

/// Step 4: signed outcome from the DNS.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpChangeResult {
    pub dn: DomainName,
    pub accepted: bool,
    /// `[dn, accepted, ch]NSK`.
    pub sig: Signature,
    pub route: RouteRecord,
}

// ---------------------------------------------------------------------------
// Plain DSR baseline (no security) — the comparison point for E2/E3
// ---------------------------------------------------------------------------

/// Plain DSR route request: `RREQ(SIP, DIP, seq, RR)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlainRreq {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    pub seq: Seq,
    pub rr: RouteRecord,
}

/// Plain DSR route reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlainRrep {
    pub sip: Ipv6Addr,
    pub dip: Ipv6Addr,
    pub seq: Seq,
    pub rr: RouteRecord,
}

/// Plain DSR route error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlainRerr {
    pub iip: Ipv6Addr,
    pub i2ip: Ipv6Addr,
}

/// Every packet the simulator can carry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Message {
    Areq(Areq),
    Arep(Arep),
    Drep(Drep),
    Rreq(Rreq),
    Rrep(Rrep),
    Crep(Crep),
    Rerr(Rerr),
    Data(Data),
    Ack(Ack),
    Probe(Probe),
    ProbeAck(ProbeAck),
    DnsQuery(DnsQuery),
    DnsReply(DnsReply),
    IpChangeRequest(IpChangeRequest),
    IpChangeChallenge(IpChangeChallenge),
    IpChangeProof(IpChangeProof),
    IpChangeResult(IpChangeResult),
    PlainRreq(PlainRreq),
    PlainRrep(PlainRrep),
    PlainRerr(PlainRerr),
}

impl Message {
    /// Short kind name (Table 1 "Type" column) for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Areq(_) => "AREQ",
            Message::Arep(_) => "AREP",
            Message::Drep(_) => "DREP",
            Message::Rreq(_) => "RREQ",
            Message::Rrep(_) => "RREP",
            Message::Crep(_) => "CREP",
            Message::Rerr(_) => "RERR",
            Message::Data(_) => "DATA",
            Message::Ack(_) => "ACK",
            Message::Probe(_) => "PROBE",
            Message::ProbeAck(_) => "PRACK",
            Message::DnsQuery(_) => "DNSQ",
            Message::DnsReply(_) => "DNSR",
            Message::IpChangeRequest(_) => "IPCREQ",
            Message::IpChangeChallenge(_) => "IPCCH",
            Message::IpChangeProof(_) => "IPCPRF",
            Message::IpChangeResult(_) => "IPCRES",
            Message::PlainRreq(_) => "P-RREQ",
            Message::PlainRrep(_) => "P-RREP",
            Message::PlainRerr(_) => "P-RERR",
        }
    }

    /// Is this one of the seven Table 1 control messages?
    pub fn is_table1_control(&self) -> bool {
        matches!(
            self,
            Message::Areq(_)
                | Message::Arep(_)
                | Message::Drep(_)
                | Message::Rreq(_)
                | Message::Rrep(_)
                | Message::Crep(_)
                | Message::Rerr(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_name_accepts_ldh() {
        assert!(DomainName::new("yahoo.com").is_ok());
        assert!(DomainName::new("a-b.c-1.d").is_ok());
        assert!(DomainName::new("node42").is_ok());
    }

    #[test]
    fn domain_name_rejects_bad_input() {
        assert_eq!(DomainName::new(""), Err(DomainNameError::Empty));
        assert_eq!(
            DomainName::new("UPPER.com"),
            Err(DomainNameError::BadCharacter)
        );
        assert_eq!(DomainName::new("a..b"), Err(DomainNameError::BadLabel));
        assert_eq!(DomainName::new("-x.com"), Err(DomainNameError::BadLabel));
        assert_eq!(DomainName::new("x-.com"), Err(DomainNameError::BadLabel));
        assert_eq!(
            DomainName::new("sp ace"),
            Err(DomainNameError::BadCharacter)
        );
        let long_label = "a".repeat(64);
        assert_eq!(DomainName::new(&long_label), Err(DomainNameError::BadLabel));
        let long_name = format!("{}.{}", "a".repeat(63), "b".repeat(200));
        assert_eq!(DomainName::new(&long_name), Err(DomainNameError::TooLong));
    }

    #[test]
    fn route_record_reverse_and_sign_bytes() {
        let a = Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, 1]);
        let b = Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, 2]);
        let rr = RouteRecord(vec![a, b]);
        assert_eq!(rr.reversed().0, vec![b, a]);
        assert_eq!(rr.reversed().reversed(), rr);
        let bytes = rr.sign_bytes();
        assert_eq!(bytes.len(), 2 + 32);
        assert_ne!(bytes, rr.reversed().sign_bytes(), "order is significant");
    }

    #[test]
    fn srr_projects_to_rr() {
        let srr = SecureRouteRecord(vec![]);
        assert!(srr.to_route_record().is_empty());
    }

    #[test]
    fn message_kind_names_match_table1() {
        let rerr = Message::PlainRerr(PlainRerr {
            iip: crate::addr::UNSPECIFIED,
            i2ip: crate::addr::UNSPECIFIED,
        });
        assert_eq!(rerr.kind(), "P-RERR");
        assert!(!rerr.is_table1_control());
    }
}
