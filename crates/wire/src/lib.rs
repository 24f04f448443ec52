//! # manet-wire
//!
//! Addressing and wire formats for the secure-MANET reproduction:
//!
//! * [`addr`] — 128-bit IPv6 addresses, the site-local prefix, and the
//!   well-known DNS anycast addresses;
//! * [`cga`] — cryptographically generated addresses (Figure 1);
//! * [`msg`] — every control message of Table 1 plus auxiliary traffic;
//! * [`sigdata`] — the canonical byte strings behind each `[…]XSK`
//!   signature;
//! * [`codec`] — strict binary encode/decode with per-message sizes.

pub mod addr;
pub mod cga;
pub mod codec;
pub mod msg;
pub mod sigdata;

pub use addr::{Ipv6Addr, DNS_WELL_KNOWN, UNSPECIFIED};
pub use cga::CgaError;
pub use codec::{CodecError, FloodHeader, FloodKind};
pub use msg::{
    Ack, Arep, Areq, Challenge, Crep, Data, DnsQuery, DnsReply, DomainName, Drep, IdentityProof,
    IpChangeChallenge, IpChangeProof, IpChangeRequest, IpChangeResult, Message, PlainRerr,
    PlainRrep, PlainRreq, Probe, ProbeAck, Rerr, RouteRecord, Rrep, Rreq, SecureRouteRecord, Seq,
    SrrEntry,
};
