//! C1 — the cryptographic substrate's costs.
//!
//! These are the per-hop prices the protocol pays: one `sign` per RREQ
//! relay, `hops+1` verifies at the destination, one `H` per CGA check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use manet_crypto::{h_pk_rn, sha256, KeyPair};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;

fn bench_keygen(c: &mut Criterion) {
    let mut g = c.benchmark_group("rsa_keygen");
    g.sample_size(10);
    for bits in [512u32, 1024] {
        g.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let mut rng = ChaCha12Rng::seed_from_u64(1);
            b.iter(|| KeyPair::generate(black_box(bits), &mut rng));
        });
    }
    g.finish();
}

fn bench_sign_verify(c: &mut Criterion) {
    let msg = b"[IIP, seq]ISK - one SRR hop entry";
    let mut g = c.benchmark_group("rsa");
    for bits in [512u32, 1024, 2048] {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let kp = KeyPair::generate(bits, &mut rng);
        g.bench_with_input(BenchmarkId::new("sign_crt", bits), &kp, |b, kp| {
            b.iter(|| kp.sign(black_box(msg)));
        });
        g.bench_with_input(BenchmarkId::new("sign_no_crt", bits), &kp, |b, kp| {
            b.iter(|| kp.sign_no_crt(black_box(msg)));
        });
        let sig = kp.sign(msg);
        g.bench_with_input(BenchmarkId::new("verify", bits), &kp, |b, kp| {
            b.iter(|| kp.public().verify(black_box(msg), black_box(&sig)));
        });
    }
    g.finish();
}

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    g.finish();
}

fn bench_cga_hash(c: &mut Criterion) {
    let mut rng = ChaCha12Rng::seed_from_u64(3);
    let kp = KeyPair::generate(512, &mut rng);
    c.bench_function("h_pk_rn", |b| {
        b.iter(|| h_pk_rn(black_box(kp.public()), black_box(42)));
    });
}

criterion_group!(
    benches,
    bench_keygen,
    bench_sign_verify,
    bench_sha256,
    bench_cga_hash
);
criterion_main!(benches);
