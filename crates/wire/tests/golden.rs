//! Golden wire-format vectors: exact byte encodings of representative
//! messages, pinned so any codec change that breaks interoperability
//! with previously captured traffic fails loudly (and intentionally).
//!
//! If a format change is deliberate, update the vectors with the
//! `regenerate` test below (`cargo test -p manet-wire --test golden
//! regenerate -- --ignored --nocapture`).

use manet_wire::*;

fn ip(last: u16) -> Ipv6Addr {
    Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 0, 0, 0, last])
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Messages with no key material (fully deterministic content).
fn keyless_samples() -> Vec<(&'static str, Message)> {
    vec![
        (
            "areq_with_name",
            Message::Areq(Areq {
                sip: ip(1),
                seq: Seq(7),
                dn: Some(DomainName::new("host.manet").unwrap()),
                ch: Challenge(0xdead_beef),
                rr: RouteRecord(vec![ip(2), ip(3)]),
            }),
        ),
        (
            "areq_nameless",
            Message::Areq(Areq {
                sip: ip(1),
                seq: Seq(7),
                dn: None,
                ch: Challenge(1),
                rr: RouteRecord::new(),
            }),
        ),
        (
            "data",
            Message::Data(Data {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(100),
                route: RouteRecord(vec![ip(1), ip(2), ip(9)]),
                payload: vec![0x41, 0x42, 0x43],
            }),
        ),
        (
            "ack",
            Message::Ack(Ack {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(100),
                route: RouteRecord(vec![ip(1), ip(9)]),
            }),
        ),
        (
            "probe",
            Message::Probe(Probe {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                route: RouteRecord(vec![ip(1), ip(9)]),
            }),
        ),
        (
            "plain_rreq",
            Message::PlainRreq(PlainRreq {
                sip: ip(1),
                dip: ip(9),
                seq: Seq(5),
                rr: RouteRecord(vec![ip(4)]),
            }),
        ),
        (
            "plain_rerr",
            Message::PlainRerr(PlainRerr {
                iip: ip(2),
                i2ip: ip(3),
            }),
        ),
    ]
}

/// (name, expected-hex) pairs — regenerate with the ignored test below.
const GOLDEN: &[(&str, &str)] = &[
    (
        "areq_with_name",
        "01fec00000000000000000000000000001000000000000000701000a686f73742e6d616e657400000000deadbeef0002fec00000000000000000000000000002fec00000000000000000000000000003",
    ),
    (
        "areq_nameless",
        "01fec0000000000000000000000000000100000000000000070000000000000000010000",
    ),
    (
        "data",
        "10fec00000000000000000000000000001fec0000000000000000000000000000900000000000000640003fec00000000000000000000000000001fec00000000000000000000000000002fec0000000000000000000000000000900000003414243",
    ),
    (
        "ack",
        "11fec00000000000000000000000000001fec0000000000000000000000000000900000000000000640002fec00000000000000000000000000001fec00000000000000000000000000009",
    ),
    (
        "probe",
        "12fec00000000000000000000000000001fec0000000000000000000000000000900000000000000050002fec00000000000000000000000000001fec00000000000000000000000000009",
    ),
    (
        "plain_rreq",
        "40fec00000000000000000000000000001fec0000000000000000000000000000900000000000000050001fec00000000000000000000000000004",
    ),
    (
        "plain_rerr",
        "42fec00000000000000000000000000002fec00000000000000000000000000003",
    ),
];

#[test]
fn encodings_match_golden_vectors() {
    let samples = keyless_samples();
    assert_eq!(samples.len(), GOLDEN.len(), "vector count drifted");
    for ((name, msg), (gname, ghex)) in samples.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "sample order drifted");
        assert_eq!(
            &hex(&msg.encode()),
            ghex,
            "wire format of {name} changed — if intentional, regenerate the vectors"
        );
    }
}

#[test]
fn golden_vectors_decode_back() {
    for (name, ghex) in GOLDEN {
        let bytes: Vec<u8> = (0..ghex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&ghex[i..i + 2], 16).expect("hex"))
            .collect();
        let msg = Message::decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(hex(&msg.encode()), *ghex, "{name} not canonical");
    }
}

/// The flood peek reads a header from exactly the golden frames, and
/// their truncations and bit flips, that decode to a flooded message —
/// and the decoded message's header.
#[test]
fn golden_vectors_peek_as_strictly_as_they_decode() {
    let agrees = |bytes: &[u8]| {
        Message::peek_flood(bytes) == Message::decode(bytes).ok().and_then(|m| m.flood_header())
    };
    let mut floods = 0;
    for (name, ghex) in GOLDEN {
        let bytes: Vec<u8> = (0..ghex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&ghex[i..i + 2], 16).expect("hex"))
            .collect();
        floods += usize::from(Message::peek_flood(&bytes).is_some());
        for cut in 0..=bytes.len() {
            assert!(agrees(&bytes[..cut]), "{name} cut to {cut} bytes");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(agrees(&flipped), "{name} with bit {bit} flipped");
        }
    }
    assert_eq!(floods, 3, "two AREQs and the plain RREQ");
}

/// Prints fresh vectors; run manually after an intentional format change.
#[test]
#[ignore]
fn regenerate() {
    for (name, msg) in keyless_samples() {
        println!("(\n    \"{name}\",\n    \"{}\",\n),", hex(&msg.encode()));
    }
}
