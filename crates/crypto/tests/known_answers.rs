//! Known-answer vectors for seeded key generation and signing.
//!
//! "The same seed yields the same keys and signatures" is what golden
//! traces and `RunReport` fingerprints three crates away rest on: a
//! change to the candidate draw order, to a primality verdict or to one
//! carry limb of the kernel fails here, in the crypto crate, in a
//! fraction of a second.
//!
//! Recorded twice. First before the in-place Montgomery kernel replaced
//! the `Ubig`-temporaries path; then once more when Miller–Rabin stopped
//! drawing its bases from the key generator, which re-keyed every seed
//! on purpose. The 1024-bit vector is the same in both: the generator is
//! read in candidate-sized blocks either way, the new search also tries
//! the blocks the old one spent on bases, and for this seed none of
//! those happens to be prime. The 512-bit vector moved.

use manet_crypto::{h_pk_rn, KeyPair, Sha256};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

const MSG: &[u8] = b"[IIP, seq]ISK - known answer";

struct Vector {
    bits: u32,
    seed: u64,
    modulus_hex: &'static str,
    signature_hex: &'static str,
    h_pk_rn_42: u64,
}

const VECTORS: [Vector; 2] = [
    Vector {
        bits: 512,
        seed: 42,
        modulus_hex: concat!(
            "b5a20a133900d65977e5a2694d83173966d62edad87c70fca7bb38bd76113caa",
            "f89499e9aff39fe525223120b9c08c8ad8141f8750f16dc37c79fbca7a343e91",
        ),
        signature_hex: concat!(
            "3da1f941c626ff146fbc1726e711ff67e85436248f144e826154539160ce7a39",
            "fd24f15a53bab81665f7b0217761b8aeebc69e48b5f6d1fcbc7ba2308510c120",
        ),
        h_pk_rn_42: 0xd829_89eb_ba21_dd58,
    },
    Vector {
        bits: 1024,
        seed: 1024,
        modulus_hex: concat!(
            "ca7e230c88e853096a78eab2c662c892ed7b5c5e24eb1d6860e061bc0eecd7f4",
            "3ab0b42c1f2afa37076ef1f51b2a84a6733f345439d3696d131d480e2a1873bc",
            "00d863baed23aa35a7626b5a1da4fd9322d063fccd2a63ca8b7f6cd2c911d5fc",
            "8f16dfb33e707f818cccf41252df27205484247f2bc9a3dd4ca6f1d48bdd1ba1",
        ),
        signature_hex: concat!(
            "1baa26000b3f21f287578218de53d57393754f40e8a4af1ef5cacb5e6c0200ea",
            "0fda8490d037c54584686dea2e86423063b651b4a686fb87c09baf30e88ae2a7",
            "1b4fa277eae888fb272951d998d947e959dd61afa7f948afc9bf57aee31608b2",
            "2240a7eb7b6bac451d81cdd1174da84421fbee6c9870574b9943a6265e8ade57",
        ),
        h_pk_rn_42: 0x7c67_40fb_d143_65c4,
    },
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seeded_keys_and_signatures_match_recorded_vectors() {
    for v in &VECTORS {
        let kp = KeyPair::generate(v.bits, &mut ChaCha12Rng::seed_from_u64(v.seed));
        let pk = kp.public();
        assert_eq!(pk.modulus().to_hex(), v.modulus_hex, "{} bits", v.bits);
        let sig = kp.sign(MSG);
        assert_eq!(hex(&sig.to_bytes()), v.signature_hex, "{} bits", v.bits);
        assert_eq!(kp.sign_no_crt(MSG), sig, "{} bits", v.bits);
        assert_eq!(h_pk_rn(pk, 42), v.h_pk_rn_42, "{} bits", v.bits);
        assert!(pk.verify(MSG, &sig).is_ok());
    }
}

/// SHA-256 over `modulus ‖ signature of MSG` (minimal big-endian bytes,
/// each behind a two-byte length) of the RSA-512 keys of seeds 0..64.
/// Recorded before the base-2 filter and the stack Miller–Rabin round
/// went in: neither may move one key or one CRT signature.
const SEEDS_0_TO_64_DIGEST: &str =
    "298e0eeb6c51151dad8d8f85a64698f3cf45c42327043d353b1bc29a0fa1411b";

#[test]
fn sixty_four_seeded_keys_match_recorded_digest() {
    let mut h = Sha256::new();
    for seed in 0..64 {
        let kp = KeyPair::generate(512, &mut ChaCha12Rng::seed_from_u64(seed));
        let sig = kp.sign(MSG);
        for bytes in [kp.public().modulus().to_be_bytes(), sig.to_bytes()] {
            h.update(&(bytes.len() as u16).to_be_bytes());
            h.update(&bytes);
        }
    }
    assert_eq!(hex(&h.finalize()), SEEDS_0_TO_64_DIGEST);
}
