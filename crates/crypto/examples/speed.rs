//! Quick wall-clock calibration of the crypto substrate — the numbers
//! that set the protocol's per-hop costs (one sign per RREQ relay,
//! hops+1 verifies at the destination).
//!
//! Key generation is a random prime search, so one key's cost varies
//! several-fold from seed to seed: the keygen column is the mean over
//! the keys of [`KEYGEN_SEEDS`] fixed seeds.
//!
//! ```sh
//! cargo run --release -p manet-crypto --example speed
//! ```
//!
//! The repo benchmark's `crypto.*` probes time the 512-bit operations
//! under its own repetition and statistics (`bench/harness/README.md`).

use manet_crypto::{sha256, KeyPair};
use rand::SeedableRng;
use std::time::Instant;

/// Keys per size averaged in the keygen column (seeds `0..KEYGEN_SEEDS`).
const KEYGEN_SEEDS: u64 = 64;

fn main() {
    println!(
        "{:>6} {:>14} {:>12} {:>12}",
        "bits", "keygen (ms)", "sign (µs)", "verify (µs)"
    );
    for bits in [512u32, 768, 1024, 2048] {
        let t0 = Instant::now();
        let keys: Vec<KeyPair> = (0..KEYGEN_SEEDS)
            .map(|seed| KeyPair::generate(bits, &mut rand_chacha::ChaCha12Rng::seed_from_u64(seed)))
            .collect();
        let keygen_ms = t0.elapsed().as_secs_f64() * 1e3 / KEYGEN_SEEDS as f64;
        let kp = &keys[0];

        let msg = b"[IIP, seq]ISK - one SRR hop entry";
        let iters = 50u32;
        let t1 = Instant::now();
        let mut sig = kp.sign(msg);
        for _ in 1..iters {
            sig = kp.sign(msg);
        }
        let sign_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let t2 = Instant::now();
        for _ in 0..iters {
            kp.public().verify(msg, &sig).expect("valid signature");
        }
        let verify_us = t2.elapsed().as_secs_f64() * 1e6 / iters as f64;

        println!("{bits:>6} {keygen_ms:>14.2} {sign_us:>12.0} {verify_us:>12.0}");
    }

    // SHA-256 throughput (the CGA hash H and every digest-before-sign).
    let data = vec![0xabu8; 1 << 20];
    let t = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        let _ = sha256(&data);
    }
    let secs = t.elapsed().as_secs_f64();
    println!("\nsha256: {:.0} MiB/s", reps as f64 / secs);
}
