//! Exhibits T1, T2, F1, F2, F3 — the paper's own tables and figures,
//! regenerated from the live implementation.

use crate::table::Table;
use manet_crypto::KeyPair;
use manet_secure::scenario::{ScenarioBuilder, Workload};
use manet_secure::{Counter, HostIdentity, ProtocolConfig, SecureNode};
use manet_sim::{Engine, EngineConfig, Mobility, NodeId, Pos, RadioConfig, SimDuration, SimTime};
use manet_wire::{
    sigdata, Arep, Areq, Challenge, Crep, DomainName, Drep, IdentityProof, Message, PlainRerr,
    PlainRrep, PlainRreq, Rerr, RouteRecord, Rrep, Rreq, SecureRouteRecord, Seq, SrrEntry,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn sample_identity(seed: u64) -> HostIdentity {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    HostIdentity::generate(512, &mut rng)
}

fn sample_rr(ids: &[&HostIdentity]) -> RouteRecord {
    RouteRecord(ids.iter().map(|i| i.ip()).collect())
}

/// Table 1: the seven control messages — paper parameters and measured
/// wire sizes (512-bit identities, 3-relay routes), next to the plain-DSR
/// counterpart where one exists.
pub fn exhibit_t1() -> String {
    let s = sample_identity(1);
    let d = sample_identity(2);
    let r1 = sample_identity(3);
    let r2 = sample_identity(4);
    let r3 = sample_identity(5);
    let seq = Seq(7);
    let ch = Challenge(0xC4A11E46E);
    let dn = DomainName::new("host.manet").unwrap();
    let rr = sample_rr(&[&r1, &r2, &r3]);

    let proof = |id: &HostIdentity, payload: &[u8]| IdentityProof {
        pk: id.public().clone(),
        rn: id.rn(),
        sig: id.sign(payload),
    };

    let areq = Message::Areq(Areq {
        sip: s.ip(),
        seq,
        dn: Some(dn.clone()),
        ch,
        rr: rr.clone(),
    });
    let arep = Message::Arep(Arep {
        sip: s.ip(),
        rr: rr.clone(),
        proof: proof(&r1, &sigdata::arep(&s.ip(), ch)),
    });
    let drep = Message::Drep(Drep {
        sip: s.ip(),
        rr: rr.clone(),
        sig: d.sign(&sigdata::drep(&dn, ch)),
    });
    let srr = SecureRouteRecord(
        [&r1, &r2, &r3]
            .iter()
            .map(|id| SrrEntry {
                ip: id.ip(),
                proof: proof(id, &sigdata::srr_hop(&id.ip(), seq)),
            })
            .collect(),
    );
    let rreq = Message::Rreq(Rreq {
        sip: s.ip(),
        dip: d.ip(),
        seq,
        srr,
        src_proof: proof(&s, &sigdata::rreq_src(&s.ip(), seq)),
    });
    let rrep = Message::Rrep(Rrep {
        sip: s.ip(),
        dip: d.ip(),
        seq,
        rr: rr.clone(),
        proof: proof(&d, &sigdata::rrep(&s.ip(), seq, &rr)),
    });
    let crep = Message::Crep(Crep {
        s2ip: r1.ip(),
        sip: s.ip(),
        dip: d.ip(),
        seq2: Seq(9),
        rr_s2_to_s: rr.clone(),
        s_proof: proof(&s, &sigdata::crep_cache_holder(&r1.ip(), Seq(9), &rr)),
        orig_seq: seq,
        rr_s_to_d: rr.clone(),
        d_proof: proof(&d, &sigdata::rrep(&s.ip(), seq, &rr)),
    });
    let rerr = Message::Rerr(Rerr {
        iip: r1.ip(),
        i2ip: r2.ip(),
        proof: proof(&r1, &sigdata::rerr(&r1.ip(), &r2.ip())),
    });

    let p_rreq = Message::PlainRreq(PlainRreq {
        sip: s.ip(),
        dip: d.ip(),
        seq,
        rr: rr.clone(),
    });
    let p_rrep = Message::PlainRrep(PlainRrep {
        sip: s.ip(),
        dip: d.ip(),
        seq,
        rr: rr.clone(),
    });
    let p_rerr = Message::PlainRerr(PlainRerr {
        iip: r1.ip(),
        i2ip: r2.ip(),
    });

    let mut t = Table::new(
        "T1 — Table 1: control messages (wire sizes, 512-bit keys, 3-relay routes)",
        &[
            "Type",
            "Function",
            "Parameters (paper)",
            "bytes",
            "plain-DSR bytes",
        ],
    );
    let rows: Vec<(&str, &str, &str, &Message, Option<&Message>)> = vec![
        (
            "AREQ",
            "Address REQuest",
            "(SIP, seq, DN, ch, RR)",
            &areq,
            None,
        ),
        (
            "AREP",
            "Address REPly",
            "(SIP, RR, [SIP, ch]RSK, RPK, Rrn)",
            &arep,
            None,
        ),
        (
            "DREP",
            "DNS server REPly",
            "(SIP, RR, [DN, ch]NSK)",
            &drep,
            None,
        ),
        (
            "RREQ",
            "Route REQuest",
            "(SIP, DIP, seq, SRR, [SIP, seq]SSK, SPK, Srn)",
            &rreq,
            Some(&p_rreq),
        ),
        (
            "RREP",
            "Route REPly",
            "(SIP, DIP, [SIP, seq, RR]DSK, DPK, Drn)",
            &rrep,
            Some(&p_rrep),
        ),
        (
            "CREP",
            "Cached route REPly",
            "(S'IP, SIP, DIP, RR, [.]SSK, SPK, Srn, [.]DSK, DPK, Drn)",
            &crep,
            None,
        ),
        (
            "RERR",
            "Route ERRor",
            "(IIP, I'IP, [IIP, I'IP]ISK, IPK, Irn)",
            &rerr,
            Some(&p_rerr),
        ),
    ];
    for (ty, f, params, msg, plain) in rows {
        t.rowv(vec![
            ty.into(),
            f.into(),
            params.into(),
            msg.wire_size().to_string(),
            plain
                .map(|m| m.wire_size().to_string())
                .unwrap_or_else(|| "—".into()),
        ]);
    }
    t.note("security cost per message ≈ one 64-byte signature + ~70-byte key + 8-byte rn per identity proof");
    t.note("RREQ grows by one identity proof per hop (the SRR) — see ablation A1");
    t.render()
}

/// Table 2: notation, with live values from a generated identity.
pub fn exhibit_t2() -> String {
    let x = sample_identity(7);
    let sig = x.sign(b"example message");
    let mut t = Table::new(
        "T2 — Table 2: symbols and notations",
        &["Symbol", "Description", "live example / size"],
    );
    t.rowv(vec![
        "XIP".into(),
        "IP address of node X".into(),
        x.ip().to_string(),
    ]);
    t.rowv(vec![
        "XSK".into(),
        "private key of host X".into(),
        "512-bit RSA (CRT form), never transmitted".into(),
    ]);
    t.rowv(vec![
        "XPK".into(),
        "public key of host X".into(),
        format!("{} bytes on the wire", x.public().to_bytes().len()),
    ]);
    t.rowv(vec![
        "Xrn".into(),
        "random number hashing X's IP".into(),
        format!("{:#018x}", x.rn()),
    ]);
    t.rowv(vec![
        "DN".into(),
        "domain name".into(),
        "host.manet (LDH labels, ≤255 bytes)".into(),
    ]);
    t.rowv(vec![
        "ch".into(),
        "random challenge".into(),
        "64-bit, fresh per AREQ/query".into(),
    ]);
    t.rowv(vec![
        "seq".into(),
        "unique sequence number per initiator".into(),
        "64-bit monotonic".into(),
    ]);
    t.rowv(vec![
        "RR".into(),
        "route record of traversed hosts".into(),
        "16 bytes per hop + 2-byte count".into(),
    ]);
    t.rowv(vec![
        "SRR".into(),
        "secure route record (RR + identity proofs)".into(),
        "adds ([IIP,seq]ISK, IPK, Irn) per hop".into(),
    ]);
    t.rowv(vec![
        "[msg]XSK".into(),
        "msg encrypted by X's private key".into(),
        format!(
            "RSA signature w/ SHA-256 recovery frame, {} bytes",
            sig.to_bytes().len()
        ),
    ]);
    t.render()
}

/// Figure 1: the CGA address layout, decomposed from a live address.
pub fn exhibit_f1() -> String {
    let x = sample_identity(8);
    let ip = x.ip();
    let mut t = Table::new(
        "F1 — Figure 1: CGA site-local address layout",
        &["field", "bits", "value", "check"],
    );
    t.rowv(vec![
        "site-local prefix".into(),
        "10".into(),
        "1111 1110 11 (fec0::/10)".into(),
        format!("is_site_local = {}", ip.is_site_local()),
    ]);
    t.rowv(vec![
        "all zeros".into(),
        "38".into(),
        format!("{:#x}", ip.zero_field()),
        format!("zero = {}", ip.zero_field() == 0),
    ]);
    t.rowv(vec![
        "subnet ID".into(),
        "16".into(),
        format!("{:#06x}", ip.subnet_id()),
        "fixed 0 in a MANET".into(),
    ]);
    t.rowv(vec![
        "H(PK, rn)".into(),
        "64".into(),
        format!("{:#018x}", ip.interface_id()),
        format!(
            "verify(ip, PK, rn) = {}",
            manet_wire::cga::verify(&ip, x.public(), x.rn()).is_ok()
        ),
    ]);
    t.note(format!("full address: {ip}"));
    t.note("birthday bound: P[any collision among n honest nodes] ≈ n²/2⁶⁵; n=1000 → ~2.7e-14");
    t.note("an adversary must invert H (SHA-256/64) or steal SK to claim an address");
    t.render()
}

/// Build and run the Figure 2 collision scenario with tracing.
fn run_figure2() -> Engine {
    let cfg = ProtocolConfig::default();
    let mut engine = Engine::new(EngineConfig {
        seed: 60,
        trace: true,
        radio: RadioConfig {
            loss: 0.0,
            ..RadioConfig::default()
        },
        ..EngineConfig::default()
    });
    let dns = SecureNode::new_dns(cfg.clone(), Vec::new(), engine.rng());
    let dns_pk = dns.public_key().clone();
    let kp_r = KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(4242));
    let kp_s = KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(4242));
    let mut ident_r = HostIdentity::from_keypair(kp_r, engine.rng());
    let mut ident_s = HostIdentity::from_keypair(kp_s, engine.rng());
    ident_r.set_rn(0xF1C2);
    ident_s.set_rn(0xF1C2);
    let r = SecureNode::with_identity(
        cfg.clone(),
        ident_r,
        dns_pk.clone(),
        Some(DomainName::new("r.manet").unwrap()),
        Default::default(),
    );
    let s = SecureNode::with_identity(
        cfg,
        ident_s,
        dns_pk,
        Some(DomainName::new("s.manet").unwrap()),
        Default::default(),
    );
    engine.add_node(Box::new(dns), Pos::new(0.0, 0.0), Mobility::Static);
    engine.add_node(Box::new(r), Pos::new(180.0, 0.0), Mobility::Static);
    engine.add_node_at(
        Box::new(s),
        Pos::new(360.0, 0.0),
        Mobility::Static,
        SimTime(2_000_000),
    );
    engine.run_until(SimTime(10_000_000));
    engine
}

/// Figure 2: the secure DAD duplicate-detection exchange as a trace.
pub fn exhibit_f2() -> String {
    let engine = run_figure2();
    let mut out = String::new();
    out.push_str("== F2 — Figure 2: secure DAD detecting a duplicate address ==\n");
    out.push_str("(n0 = DNS, n1 = R [address owner], n2 = S [joining with R's address])\n\n");
    for e in engine.tracer().events() {
        if matches!(e.kind, "AREQ" | "AREP" | "DREP" | "DAD" | "DNS") {
            out.push_str(&format!("{e}\n"));
        }
    }
    let total = |c: Counter| -> u64 {
        (0..engine.node_count())
            .map(|i| engine.protocol_as::<SecureNode>(NodeId(i)).stats()[c])
            .sum()
    };
    out.push_str(&format!(
        "\noutcome: collisions detected = {}, pending registration cancelled at DNS = {}, DAD rounds = {}\n",
        total(Counter::DadCollisions),
        total(Counter::DnsRegCancelled),
        total(Counter::DadAttempts),
    ));
    out
}

/// Figure 3: RREQ/RREP and the cached CREP as a trace.
pub fn exhibit_f3() -> String {
    let mut net = ScenarioBuilder::new()
        .hosts(5)
        .seed(61)
        .trace(true)
        .secure()
        .build();
    assert!(net.bootstrap());
    net.run(&Workload::flows(
        vec![(0, 4)],
        1,
        SimDuration::from_millis(400),
    ));
    net.run(&Workload::flows(
        vec![(1, 4)],
        1,
        SimDuration::from_millis(400),
    ));

    let mut out = String::new();
    out.push_str("== F3 — Figure 3: secure route discovery, route reply, cached route reply ==\n");
    out.push_str("(left half: S=h0 discovers D=h4; right half: S'=h1 answered from S's cache)\n\n");
    let bootstrap_end = net.last_join + SimDuration::from_secs(3);
    for e in net.engine.tracer().events() {
        if e.time < bootstrap_end {
            continue; // skip the DAD phase; Figure 3 is about routing
        }
        if matches!(e.kind, "RREQ" | "RREP" | "CREP" | "ROUTE") {
            out.push_str(&format!("{e}\n"));
        }
    }
    out.push_str(&format!(
        "\noutcome: discovered = {}, via CREP = {}, verification failures = {}\n",
        net.count(Counter::RouteDiscovered),
        net.count(Counter::RouteDiscoveredViaCrep),
        net.count(Counter::SecRreqRejected)
            + net.count(Counter::SecRrepRejected)
            + net.count(Counter::SecCrepRejected),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_secure::Envelope;
    use manet_sim::Dir;
    use manet_wire::{Ack, Data, Ipv6Addr};

    #[test]
    fn t1_lists_all_seven_messages() {
        let s = exhibit_t1();
        for kind in ["AREQ", "AREP", "DREP", "RREQ", "RREP", "CREP", "RERR"] {
            assert!(s.contains(kind), "missing {kind}");
        }
    }

    #[test]
    fn t2_lists_all_symbols() {
        let s = exhibit_t2();
        for sym in [
            "XIP", "XSK", "XPK", "Xrn", "DN", "ch", "seq", "RR", "SRR", "[msg]XSK",
        ] {
            assert!(s.contains(sym), "missing {sym}");
        }
    }

    #[test]
    fn f1_validates_layout() {
        let s = exhibit_f1();
        assert!(s.contains("fec0::/10"));
        assert!(s.contains("verify(ip, PK, rn) = true"));
        assert!(s.contains("zero = true"));
    }

    #[test]
    fn f2_trace_shows_the_exchange() {
        let s = exhibit_f2();
        assert!(s.contains("AREQ"));
        assert!(s.contains("AREP"));
        assert!(s.contains("collisions detected = 1"));
        assert!(s.contains("pending registration cancelled at DNS = 1"));
    }

    #[test]
    fn f3_trace_shows_rrep_and_crep() {
        let s = exhibit_f3();
        assert!(s.contains("RREQ"));
        assert!(s.contains("RREP"));
        assert!(s.contains("CREP"));
        assert!(s.contains("verification failures = 0"));
    }

    #[test]
    fn dir_is_used_in_traces() {
        // Compile-time use of Dir, plus a sanity check the enum renders.
        assert_eq!(format!("{}", Dir::Tx).trim(), "TX");
    }

    #[test]
    fn ipv6_in_t2_is_site_local() {
        let x = sample_identity(7);
        let _: Ipv6Addr = x.ip();
        assert!(x.ip().is_site_local());
    }

    #[test]
    fn sample_messages_have_positive_sizes() {
        let s = sample_identity(1);
        let msg = Message::Ack(Ack {
            sip: s.ip(),
            dip: s.ip(),
            seq: Seq(1),
            route: RouteRecord::new(),
        });
        let env = Envelope::broadcast(s.ip(), msg);
        assert!(env.wire_size() > 16);
        let _ = Data {
            sip: s.ip(),
            dip: s.ip(),
            seq: Seq(1),
            route: RouteRecord::new(),
            payload: vec![],
        };
    }
}
