//! # manet-secure
//!
//! The paper's contribution (Tseng/Jiang/Lee, "Secure Bootstrapping and
//! Routing in an IPv6-Based Ad Hoc Network"): CGA-based address
//! autoconfiguration with secure duplicate address detection, DNS-backed
//! name services, secure DSR route discovery with per-hop identity
//! proofs, and credit-based route maintenance — plus the plain-DSR
//! baseline and the Section 4 attacker models, all running on the
//! `manet-sim` discrete-event engine.
//!
//! Start with [`scenario`] to build whole networks, or [`node::SecureNode`]
//! for a single protocol instance.
//!
//! ```
//! use manet_secure::scenario::ScenarioBuilder;
//! use manet_sim::SimDuration;
//!
//! // Four hosts + a DNS server on a multi-hop chain. Hosts carry no
//! // pre-assigned addresses — only the DNS public key.
//! let mut net = ScenarioBuilder::new().hosts(4).seed(1).secure().build();
//! assert!(net.bootstrap()); // staggered joins, secure DAD, name registration
//!
//! // Discover a route (signed RREQ/RREP) and send acknowledged data.
//! let report = net.run_flows(&[(0, 3)], 5, SimDuration::from_millis(300));
//! assert!(report.delivery_ratio.unwrap() > 0.9);
//! ```

pub mod arena;
pub mod attacks;
pub mod campaign;
pub mod config;
pub mod credit;
pub mod dns;
mod dsr;
pub mod envelope;
pub mod fxhash;
pub mod identity;
pub mod neighbor;
pub mod node;
pub mod plain;
pub mod routecache;
pub mod scenario;
pub mod sendbuf;
pub mod stats;

pub use config::{Behavior, CreditConfig, ProtocolConfig};
pub use envelope::Envelope;
pub use identity::{
    verify_known_key, verify_known_key_pipeline, verify_proof, verify_proof_pipeline, HostIdentity,
    ProofError,
};
pub use node::SecureNode;
pub use plain::PlainDsrNode;
pub use scenario::{Network, NodeApi, RunReport, ScenarioBuilder, Workload};
pub use stats::{Counter, NodeStats, ResolvedCache};
