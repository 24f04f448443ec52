//! Property-based tests for the wire codec: arbitrary well-formed
//! messages round-trip; arbitrary byte soup never panics the decoder.

use manet_wire::*;
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv6Addr> {
    any::<[u8; 16]>().prop_map(Ipv6Addr)
}

fn arb_rr() -> impl Strategy<Value = RouteRecord> {
    proptest::collection::vec(arb_addr(), 0..8).prop_map(RouteRecord)
}

fn arb_dn() -> impl Strategy<Value = DomainName> {
    "[a-z0-9]{1,12}(\\.[a-z0-9]{1,12}){0,2}"
        .prop_map(|s| DomainName::new(&s).expect("generated names are valid"))
}

fn arb_seq() -> impl Strategy<Value = Seq> {
    any::<u64>().prop_map(Seq)
}

fn arb_ch() -> impl Strategy<Value = Challenge> {
    any::<u64>().prop_map(Challenge)
}

// A structurally valid (but cryptographically meaningless) public key:
// parseable keys must pass PublicKey::from_parts validation, so we build
// them from a fixed corpus generated once.
fn arb_pk() -> impl Strategy<Value = manet_crypto::PublicKey> {
    use rand::SeedableRng;
    use std::sync::OnceLock;
    static CORPUS: OnceLock<Vec<manet_crypto::PublicKey>> = OnceLock::new();
    prop_oneof![Just(0usize), Just(1), Just(2)].prop_map(|i| {
        CORPUS.get_or_init(|| {
            (0..3u64)
                .map(|j| {
                    let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1000 + j);
                    manet_crypto::KeyPair::generate(512, &mut rng)
                        .public()
                        .clone()
                })
                .collect()
        })[i]
            .clone()
    })
}

fn arb_sig() -> impl Strategy<Value = manet_crypto::Signature> {
    proptest::collection::vec(any::<u8>(), 1..64)
        .prop_map(|b| manet_crypto::Signature::from_bytes(&b))
}

fn arb_proof() -> impl Strategy<Value = IdentityProof> {
    (arb_pk(), any::<u64>(), arb_sig()).prop_map(|(pk, rn, sig)| IdentityProof { pk, rn, sig })
}

fn arb_srr() -> impl Strategy<Value = SecureRouteRecord> {
    proptest::collection::vec(
        (arb_addr(), arb_proof()).prop_map(|(ip, proof)| SrrEntry { ip, proof }),
        0..5,
    )
    .prop_map(SecureRouteRecord)
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Covers every one of the 20 `Message` variants, so the roundtrip
/// property below is a complete codec contract: adding a variant
/// without extending this strategy fails `all_variants_reachable`.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            (arb_addr(), arb_addr(), arb_addr(), arb_seq(), arb_rr()),
            (arb_proof(), arb_seq(), arb_rr(), arb_proof())
        )
            .prop_map(
                |((s2ip, sip, dip, seq2, rr_s2_to_s), (s_proof, orig_seq, rr_s_to_d, d_proof))| {
                    Message::Crep(Crep {
                        s2ip,
                        sip,
                        dip,
                        seq2,
                        rr_s2_to_s,
                        s_proof,
                        orig_seq,
                        rr_s_to_d,
                        d_proof,
                    })
                }
            ),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr()).prop_map(|(sip, dip, seq, route)| {
            Message::Probe(Probe {
                sip,
                dip,
                seq,
                route,
            })
        }),
        (arb_addr(), arb_seq(), arb_addr(), arb_proof()).prop_map(
            |(sip, probe_seq, hop, proof)| {
                Message::ProbeAck(ProbeAck {
                    sip,
                    probe_seq,
                    hop,
                    proof,
                })
            }
        ),
        (arb_dn(), arb_addr(), arb_addr(), arb_rr()).prop_map(|(dn, old_ip, new_ip, route)| {
            Message::IpChangeRequest(IpChangeRequest {
                dn,
                old_ip,
                new_ip,
                route,
            })
        }),
        (arb_dn(), arb_ch(), arb_rr()).prop_map(|(dn, ch, route)| {
            Message::IpChangeChallenge(IpChangeChallenge { dn, ch, route })
        }),
        (
            (arb_dn(), arb_addr(), arb_addr(), any::<u64>(), any::<u64>()),
            (arb_pk(), arb_sig(), arb_rr())
        )
            .prop_map(|((dn, old_ip, new_ip, old_rn, new_rn), (pk, sig, route))| {
                Message::IpChangeProof(IpChangeProof {
                    dn,
                    old_ip,
                    new_ip,
                    old_rn,
                    new_rn,
                    pk,
                    sig,
                    route,
                })
            }),
        (arb_dn(), any::<bool>(), arb_sig(), arb_rr()).prop_map(|(dn, accepted, sig, route)| {
            Message::IpChangeResult(IpChangeResult {
                dn,
                accepted,
                sig,
                route,
            })
        }),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr())
            .prop_map(|(sip, dip, seq, rr)| Message::PlainRrep(PlainRrep { sip, dip, seq, rr })),
        (
            arb_addr(),
            arb_seq(),
            proptest::option::of(arb_dn()),
            arb_ch(),
            arb_rr()
        )
            .prop_map(|(sip, seq, dn, ch, rr)| Message::Areq(Areq {
                sip,
                seq,
                dn,
                ch,
                rr
            })),
        (arb_addr(), arb_rr(), arb_proof()).prop_map(|(sip, rr, proof)| Message::Arep(Arep {
            sip,
            rr,
            proof
        })),
        (arb_addr(), arb_rr(), arb_sig()).prop_map(|(sip, rr, sig)| Message::Drep(Drep {
            sip,
            rr,
            sig
        })),
        (arb_addr(), arb_addr(), arb_seq(), arb_srr(), arb_proof()).prop_map(
            |(sip, dip, seq, srr, src_proof)| Message::Rreq(Rreq {
                sip,
                dip,
                seq,
                srr,
                src_proof
            })
        ),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr(), arb_proof()).prop_map(
            |(sip, dip, seq, rr, proof)| Message::Rrep(Rrep {
                sip,
                dip,
                seq,
                rr,
                proof
            })
        ),
        (arb_addr(), arb_addr(), arb_proof()).prop_map(|(iip, i2ip, proof)| Message::Rerr(Rerr {
            iip,
            i2ip,
            proof
        })),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr(), arb_payload()).prop_map(
            |(sip, dip, seq, route, payload)| Message::Data(Data {
                sip,
                dip,
                seq,
                route,
                payload
            })
        ),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr()).prop_map(|(sip, dip, seq, route)| {
            Message::Ack(Ack {
                sip,
                dip,
                seq,
                route,
            })
        }),
        (arb_addr(), arb_dn(), arb_ch(), arb_rr()).prop_map(|(requester, qname, ch, route)| {
            Message::DnsQuery(DnsQuery {
                requester,
                qname,
                ch,
                route,
            })
        }),
        (
            arb_addr(),
            arb_dn(),
            proptest::option::of(arb_addr()),
            arb_sig(),
            arb_rr()
        )
            .prop_map(|(requester, qname, answer, sig, route)| {
                Message::DnsReply(DnsReply {
                    requester,
                    qname,
                    answer,
                    sig,
                    route,
                })
            }),
        (arb_addr(), arb_addr(), arb_seq(), arb_rr()).prop_map(|(sip, dip, seq, rr)| {
            Message::PlainRreq(PlainRreq { sip, dip, seq, rr })
        }),
        (arb_addr(), arb_addr())
            .prop_map(|(iip, i2ip)| Message::PlainRerr(PlainRerr { iip, i2ip })),
    ]
}

/// The flood peek's contract: it reads a header exactly when the strict
/// decode yields a flooded message, and then the same header.
fn peek_matches_decode(bytes: &[u8]) -> Result<(), proptest::TestCaseError> {
    let decoded = Message::decode(bytes).ok().and_then(|m| m.flood_header());
    prop_assert_eq!(Message::peek_flood(bytes), decoded);
    Ok(())
}

/// Route records from empty up to the 256 hops receivers accept.
fn arb_flood_rr() -> impl Strategy<Value = RouteRecord> {
    prop_oneof![
        arb_rr(),
        proptest::collection::vec(arb_addr(), 250..=256).prop_map(RouteRecord),
    ]
}

/// The three flooded kinds, the relayed ones with long records too.
fn arb_flood() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            arb_addr(),
            arb_seq(),
            proptest::option::of(arb_dn()),
            arb_ch(),
            arb_flood_rr()
        )
            .prop_map(|(sip, seq, dn, ch, rr)| Message::Areq(Areq {
                sip,
                seq,
                dn,
                ch,
                rr
            })),
        (arb_addr(), arb_addr(), arb_seq(), arb_srr(), arb_proof()).prop_map(
            |(sip, dip, seq, srr, src_proof)| Message::Rreq(Rreq {
                sip,
                dip,
                seq,
                srr,
                src_proof
            })
        ),
        (arb_addr(), arb_addr(), arb_seq(), arb_flood_rr())
            .prop_map(|(sip, dip, seq, rr)| Message::PlainRreq(PlainRreq { sip, dip, seq, rr })),
    ]
}

/// The relay splice's contract: on whatever the flood peek admits, it
/// writes byte for byte what decoding, pushing `relay` onto the route
/// record and encoding write; it refuses every secure RREQ, and
/// whatever does not decode to an AREQ or a plain RREQ.
fn splice_matches_reencode(bytes: &[u8], relay: &Ipv6Addr) -> Result<(), proptest::TestCaseError> {
    let mut spliced = None;
    if let Some(flood) = Message::peek_flood(bytes) {
        let mut out = Vec::new();
        let relayed = Message::relay_flood_into(bytes, &flood, relay, &mut out);
        prop_assert_eq!(relayed, !out.is_empty());
        spliced = Some(out).filter(|_| relayed);
    }
    let reencoded = match Message::decode(bytes) {
        Ok(Message::Areq(mut m)) => {
            m.rr.push(*relay);
            Some(Message::Areq(m).encode())
        }
        Ok(Message::PlainRreq(mut m)) => {
            m.rr.push(*relay);
            Some(Message::PlainRreq(m).encode())
        }
        _ => None,
    };
    prop_assert_eq!(spliced, reencoded);
    Ok(())
}

/// Length-prefixed chunk, the key encoding's building block.
fn chunk(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u16).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// An odd big-endian integer of exactly `bits` bits.
fn odd_of(bits: usize) -> Vec<u8> {
    let mut b = vec![0u8; bits.div_ceil(8)];
    b[0] = 1 << ((bits - 1) % 8);
    *b.last_mut().expect("bits > 0") |= 1;
    b
}

/// Key encodings on both sides of every validity rule: modulus even,
/// zero, empty, below `MIN_MODULUS_BITS` (256) or above
/// `MAX_MODULUS_BITS`; exponent even, zero or above one limb; chunks
/// zero-padded, short or followed by trailing bytes. Each comes with
/// its verdict from the integers: both chunks intact, nothing after
/// them, and `PublicKey::from_parts` accepting what they hold.
fn arb_hostile_key() -> impl Strategy<Value = (Vec<u8>, bool)> {
    let max = manet_crypto::rsa::MAX_MODULUS_BITS as usize;
    let modulus = prop_oneof![
        Just(odd_of(512)),
        Just(odd_of(256)),
        Just(odd_of(255)),
        Just(odd_of(max)),
        Just(odd_of(max + 1)),
        Just({
            let mut even = odd_of(512);
            *even.last_mut().expect("non-empty") &= !1;
            even
        }),
        Just(vec![0u8; 64]),
        Just(Vec::new()),
        (1usize..4).prop_map(|pad| [vec![0u8; pad], odd_of(256)].concat()),
        (1usize..4).prop_map(|pad| [vec![0u8; pad], odd_of(255)].concat()),
    ];
    let exponent = prop_oneof![
        Just(vec![1, 0, 1]),
        Just(vec![1, 0, 0]),
        Just(vec![0]),
        Just(Vec::new()),
        Just(vec![0xff; 8]),
        Just(odd_of(65)),
        Just(vec![0, 0, 1, 0, 1]),
        Just([vec![0u8; 3], vec![0xff; 8]].concat()),
    ];
    let tail = prop_oneof![Just(Vec::new()), Just(vec![0u8]), Just(vec![0xff, 0xff])];
    (modulus, exponent, tail, 0usize..3).prop_map(|(n, e, tail, cut)| {
        use manet_crypto::{uint::Ubig, PublicKey};
        // Cutting exactly the tail leaves a clean encoding.
        let valid = cut == tail.len()
            && PublicKey::from_parts(Ubig::from_be_bytes(&n), Ubig::from_be_bytes(&e)).is_ok();
        let mut key = [chunk(&n), chunk(&e), tail].concat();
        key.truncate(key.len() - cut);
        (key, valid)
    })
}

/// An RREQ whose source proof carries `key` in place of its public key.
fn rreq_with_key(key: &[u8]) -> Vec<u8> {
    let mut frame = vec![0x04]; // RREQ
    frame.extend_from_slice(&[0xfe; 16]); // sip
    frame.extend_from_slice(&[0xfd; 16]); // dip
    frame.extend_from_slice(&7u64.to_be_bytes()); // seq
    frame.extend_from_slice(&0u16.to_be_bytes()); // empty SRR
    frame.extend_from_slice(&chunk(key)); // src_proof: key
    frame.extend_from_slice(&42u64.to_be_bytes()); // rn
    frame.extend_from_slice(&chunk(&[0x5a; 64])); // signature
    frame
}

/// An AREQ claiming the domain name `name`.
fn areq_with_name(name: &[u8]) -> Vec<u8> {
    let mut frame = vec![0x01]; // AREQ
    frame.extend_from_slice(&[0xfe; 16]); // sip
    frame.extend_from_slice(&7u64.to_be_bytes()); // seq
    frame.push(1); // name present
    frame.extend_from_slice(&chunk(name));
    frame.extend_from_slice(&9u64.to_be_bytes()); // ch
    frame.extend_from_slice(&0u16.to_be_bytes()); // empty RR
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_message_roundtrips(msg in arb_message()) {
        let bytes = msg.encode();
        let back = Message::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back, msg.clone());
        prop_assert_eq!(bytes.len(), msg.wire_size());
    }

    #[test]
    fn any_truncation_errors_cleanly(msg in arb_message(), frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        let cut = (bytes.len() as f64 * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes); // must not panic; result is irrelevant
    }

    #[test]
    fn single_byte_flips_never_panic(msg in arb_message(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = msg.encode();
        if !bytes.is_empty() {
            // pos_frac < 1.0, so this covers every index including the
            // final byte (len-1), unlike scaling by len-1.
            let pos = (bytes.len() as f64 * pos_frac) as usize;
            bytes[pos] ^= 1 << bit;
            let _ = Message::decode(&bytes); // decode may fail or yield a different message
        }
    }

    #[test]
    fn flood_peek_matches_decode_on_generated_frames(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(Message::peek_flood(&bytes), msg.flood_header());
        peek_matches_decode(&bytes)?;
    }

    #[test]
    fn flood_peek_matches_decode_on_truncated_frames(msg in arb_message(), frac in 0.0f64..1.0) {
        let bytes = msg.encode();
        peek_matches_decode(&bytes[..(bytes.len() as f64 * frac) as usize])?;
    }

    #[test]
    fn flood_peek_matches_decode_on_bit_flips(
        msg in arb_message(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = msg.encode();
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        peek_matches_decode(&bytes)?;
    }

    #[test]
    fn flood_peek_matches_decode_on_spliced_frames(
        a in arb_message(),
        b in arb_message(),
        fa in 0.0f64..=1.0,
        fb in 0.0f64..=1.0,
    ) {
        // The head of one frame on the tail of another: length fields
        // that disagree with what follows them.
        let (a, b) = (a.encode(), b.encode());
        let spliced = [
            &a[..(a.len() as f64 * fa) as usize],
            &b[(b.len() as f64 * fb) as usize..],
        ]
        .concat();
        peek_matches_decode(&spliced)?;
    }

    #[test]
    fn flood_peek_matches_decode_on_byte_soup(
        tag in prop_oneof![Just(0x01u8), Just(0x04), Just(0x40), any::<u8>()],
        rest in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        peek_matches_decode(&[&[tag][..], &rest].concat())?;
    }

    #[test]
    fn relay_splice_matches_reencode_on_generated_floods(
        msg in prop_oneof![arb_flood(), arb_message()],
        relay in arb_addr(),
    ) {
        let bytes = msg.encode();
        splice_matches_reencode(&bytes, &relay)?;
        if let Message::Rreq(_) = msg {
            let flood = Message::peek_flood(&bytes).expect("an RREQ peeks");
            prop_assert!(!Message::relay_flood_into(&bytes, &flood, &relay, &mut Vec::new()));
        }
    }

    #[test]
    fn relay_splice_matches_reencode_on_truncated_floods(
        msg in arb_flood(),
        frac in 0.0f64..1.0,
        relay in arb_addr(),
    ) {
        let bytes = msg.encode();
        splice_matches_reencode(&bytes[..(bytes.len() as f64 * frac) as usize], &relay)?;
    }

    #[test]
    fn relay_splice_matches_reencode_on_bit_flips(
        msg in arb_flood(),
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
        relay in arb_addr(),
    ) {
        let mut bytes = msg.encode();
        let pos = (bytes.len() as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        splice_matches_reencode(&bytes, &relay)?;
    }

    #[test]
    fn relay_splice_matches_reencode_on_spliced_frames(
        a in arb_flood(),
        b in prop_oneof![arb_flood(), arb_message()],
        fa in 0.0f64..=1.0,
        fb in 0.0f64..=1.0,
        relay in arb_addr(),
    ) {
        let (a, b) = (a.encode(), b.encode());
        let spliced = [
            &a[..(a.len() as f64 * fa) as usize],
            &b[(b.len() as f64 * fb) as usize..],
        ]
        .concat();
        splice_matches_reencode(&spliced, &relay)?;
    }

    #[test]
    fn key_check_matches_key_parse(case in arb_hostile_key()) {
        use manet_crypto::PublicKey;
        let (key, valid) = case;
        prop_assert_eq!(PublicKey::check_bytes(&key).is_ok(), valid);
        prop_assert_eq!(PublicKey::from_bytes(&key).is_ok(), valid);
        let frame = rreq_with_key(&key);
        peek_matches_decode(&frame)?;
        prop_assert_eq!(Message::peek_flood(&frame).is_some(), valid);
    }

    #[test]
    fn name_check_matches_name_parse(
        name in prop_oneof![
            "[a-z0-9.-]{0,20}",
            "[ -~]{0,12}",
            Just("a".repeat(64)),
            Just(format!("{}.{}", "a".repeat(63), "b".repeat(200))),
        ],
        utf8 in any::<bool>(),
    ) {
        prop_assert_eq!(DomainName::check(&name).is_ok(), DomainName::new(&name).is_ok());
        let mut bytes = name.into_bytes();
        if !utf8 {
            bytes.push(0xff); // never valid UTF-8
        }
        let frame = areq_with_name(&bytes);
        peek_matches_decode(&frame)?;
        // Names the checker rejects are malformed frames to both.
        if !utf8 {
            prop_assert!(Message::peek_flood(&frame).is_none());
        }
    }

    #[test]
    fn rr_reverse_is_involutive(rr in arb_rr()) {
        prop_assert_eq!(rr.reversed().reversed(), rr);
    }

    #[test]
    fn sign_bytes_injective_on_length(rr in arb_rr(), extra in arb_addr()) {
        let mut longer = rr.clone();
        longer.push(extra);
        prop_assert_ne!(rr.sign_bytes(), longer.sign_bytes());
    }
}

proptest! {
    // Exhaustive-prefix truncation is O(len · decode) per case, so it
    // gets a smaller case budget than the spot-check version above.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_strict_prefix_fails_to_decode(msg in arb_message()) {
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                Message::decode(&bytes[..cut]).is_err(),
                "decoding succeeded on a {}-byte prefix of a {}-byte {}",
                cut, bytes.len(), msg.kind()
            );
        }
    }
}

proptest! {
    // One case of 512 samples: with 20 uniform arms the chance of any
    // variant being absent is ~20·(19/20)^512 ≈ 1e-10, and the case RNG
    // is deterministic, so this either always passes or always fails.
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The strategy must be able to produce all 20 variants — otherwise
    /// the roundtrip "over every variant" claim silently narrows when
    /// someone adds a message kind.
    #[test]
    fn all_variants_reachable(msgs in proptest::collection::vec(arb_message(), 512)) {
        use std::collections::BTreeSet;
        let seen: BTreeSet<&str> = msgs.iter().map(|m| m.kind()).collect();
        let expected: BTreeSet<&str> = [
            "AREQ", "AREP", "DREP", "RREQ", "RREP", "CREP", "RERR", "DATA", "ACK", "PROBE",
            "PRACK", "DNSQ", "DNSR", "IPCREQ", "IPCCH", "IPCPRF", "IPCRES", "P-RREQ", "P-RREP",
            "P-RERR",
        ]
        .into_iter()
        .collect();
        prop_assert_eq!(seen, expected);
    }
}
