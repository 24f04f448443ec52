//! Known-answer vectors for seeded key generation and signing.
//!
//! "The same seed yields the same keys and signatures" is what golden
//! traces and `RunReport` fingerprints three crates away rest on. These
//! vectors were recorded before the in-place Montgomery kernel replaced
//! the `Ubig`-temporaries path, so a change to the RNG draw order, to a
//! primality verdict or to one carry limb of the kernel fails here, in
//! the crypto crate, in a fraction of a second.

use manet_crypto::{h_pk_rn, KeyPair};
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
            "be751c3ced91c86d877ed6cddc31e019e93c95fdd9f408cfd33a3170be37b88c",
            "eeba58c7f26e6f88d81d5080c71a59e9f171251e6a9732f413d41b444bbc651f",
        ),
        signature_hex: concat!(
            "633a99f397ddb37a271c2b9d01d8feb021416befd9790a147066a04c064312f5",
            "70e406d8bdaf12adeb3096d24ad7e2ae6628acfdab58cbf06e9cf026d26b74b9",
        ),
        h_pk_rn_42: 0x01d0_82b0_6ebf_d26c,
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
