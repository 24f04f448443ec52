//! Steady-state allocation bound for the plain forwarding hot path
//! (ROADMAP item 1, the allocator half of the memory diet).
//!
//! Installs the counting global allocator from `manet_sim::mem` and
//! meters a warmed, static chain: after the first packets have
//! discovered the route, every further round rides the cached route —
//! arena-backed send buffers, recycled event slots — so allocator traffic per delivered payload must stay small
//! and *flat*. A regression that puts a `Vec` clone or a fresh map back
//! on the per-frame path multiplies the per-packet figure and trips the
//! bound long before it would show up in S3's peak RSS.
//!
//! The secure stack gets a second ratchet: allocations per RSA key
//! generation, signature and verification, so bignum temporaries cannot
//! creep back into the Montgomery kernel unnoticed (a composite that
//! fails the base-2 round is held at zero), and a third one
//! covers a relay answering an RREQ from its hop-signature memo. The
//! flood path is held at zero: a duplicate RREQ or AREQ copy, a relay's
//! prefetch of an RREQ it does not answer, the encode of a relayed RREQ
//! into a sized frame, and the splice that relays a first AREQ or plain
//! RREQ copy allocate nothing. The flood storm is held on bytes and on
//! calls: a second round of network-wide floods must reuse the memory
//! the first one drained (the timer wheel's chunks, the frame pool and
//! its `Arc`s) instead of regrowing it.
//!
//! Opt-in (`--features alloc-metrics`) because a counting global
//! allocator perturbs every other test in the same binary for no
//! benefit.

#![cfg(feature = "alloc-metrics")]

use manet_crypto::prime::{gen_prime, is_prime};
use manet_crypto::KeyPair;
use manet_secure::scenario::{Network, Placement, ScenarioBuilder, Workload};
use manet_secure::{Counter, Envelope, HostIdentity, NodeApi, PlainDsrNode, SecureNode};
use manet_sim::mem::{alloc_since, alloc_snapshot, CountingAlloc};
use manet_sim::{ExecMode, LinkCounter, NodeId, Protocol, SimDuration};
use manet_wire::{
    sigdata, Areq, Challenge, DomainName, Ipv6Addr, Message, PlainRreq, RouteRecord, Rreq,
    SecureRouteRecord, Seq, SrrEntry,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is process-wide and the harness runs tests on parallel
/// threads: metered sections must not overlap.
static METER: Mutex<()> = Mutex::new(());

/// Enter a metered section. The mutex guards no data, so a poisoned lock
/// (the other test failed) must not fail this one too.
fn metered() -> MutexGuard<'static, ()> {
    METER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations allowed per delivered payload once the route is cached.
/// Measured at 42 on the 8-host chain (× 1.3): the steady path still
/// decodes each relayed frame into owned route/payload buffers at every
/// hop — 7 hops × ~2 Vecs each way — plus ack bookkeeping. It read 56
/// while every transmission allocated the `Arc` around its frame; an
/// accidental per-frame clone of a neighbor table or stats map lands in
/// the thousands.
const MAX_ALLOCS_PER_DELIVERY: u64 = 55;

/// Ceilings per RSA-512 operation over what the in-place kernel
/// measures: 178 per key (× 1.3 — the Montgomery context and witness
/// stream of the one candidate per prime that passes the base-2 round,
/// and the key's own integers and contexts; a composite the base-2 round
/// rejects allocates nothing), 27 per signature (6 of them the
/// debug-build fault check's verify) and 6 per verification (× 2). Key
/// generation made 1,473 on these keys while `q_inv` came from the
/// extended Euclid (662 of them) and every sieve survivor built a
/// context, workspace and witness stream (732 for the two prime
/// searches). With `Ubig` temporaries per Montgomery step the
/// same operations made ≈150k / ≈2.7k / ≈70 allocations; one stray `Vec`
/// per multiply lands an order of magnitude over these.
const MAX_ALLOCS_PER_KEYGEN: u64 = 231;
const MAX_ALLOCS_PER_SIGN: u64 = 54;
const MAX_ALLOCS_PER_VERIFY: u64 = 12;

/// Ceiling per flood crossing a three-host chain on remembered hop
/// signatures: the middle host relays it, both ends hear that and relay
/// in turn, the middle host drops those two as duplicates on their
/// header — three decodes, three SRR entries (key and signature clones),
/// three encodes and the broadcasts' events. Measured at 52 (55 while
/// each transmission allocated its `Arc`, 256 while every copy was
/// decoded and keys were encoded through temporary vectors); 95 keeps
/// the old bound's half again of headroom. A
/// signature costs 27 more per relay, but the assertion that matters is
/// that the backend's sign counter does not move at all.
const MAX_ALLOCS_PER_MEMO_HIT_FLOOD: u64 = 95;

#[test]
fn memo_hit_relays_sign_nothing_and_allocate_little() {
    let _metered = metered();
    const FLOODS: u64 = 16;
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .placement(Placement::Chain { spacing: 200.0 })
        .seed(19)
        .secure()
        .build();
    assert!(net.bootstrap());
    let (neighbour, relay) = (net.hosts[0], net.hosts[1]);

    // Floods from sources nobody has heard of, all with seq 1 for an
    // address nobody owns: every host relays every one.
    let mut rng = ChaCha12Rng::seed_from_u64(20);
    let frames: Vec<Vec<u8>> = (0..=FLOODS)
        .map(|_| {
            let src = HostIdentity::generate(512, &mut rng);
            let rreq = Rreq {
                sip: src.ip(),
                dip: Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, 9]),
                seq: Seq(1),
                srr: SecureRouteRecord::new(),
                src_proof: src.prove(&sigdata::rreq_src(&src.ip(), Seq(1))),
            };
            Envelope::broadcast(src.ip(), Message::Rreq(rreq)).encode()
        })
        .collect();
    let backend = net.host(1).crypto_backend().clone();
    let mut relay_rreq = |frame: &[u8]| {
        net.engine
            .with_protocol::<SecureNode, _>(relay, |n, ctx| n.on_frame(ctx, neighbour, frame));
        let until = net.engine.now() + SimDuration::from_millis(50);
        net.engine.run_until(until);
    };
    // The first one signs at all three hosts (and grows the maps once).
    relay_rreq(&frames[0]);

    let signs = backend.signs_executed();
    let before = alloc_snapshot();
    for frame in &frames[1..] {
        relay_rreq(frame);
    }
    let per_flood = alloc_since(&before).count / FLOODS;
    eprintln!("memo-hit relays: {per_flood} allocations per flood");
    assert_eq!(backend.signs_executed(), signs, "memo hits must not sign");
    assert!(per_flood > 0, "counting allocator not installed");
    assert!(
        per_flood <= MAX_ALLOCS_PER_MEMO_HIT_FLOOD,
        "{per_flood} allocations per memo-hit flood (bound {MAX_ALLOCS_PER_MEMO_HIT_FLOOD})"
    );
}

#[test]
fn secure_stack_allocs_per_operation_bound() {
    let _metered = metered();
    // Key generation is a random prime search, so its count is an
    // average over a fixed seed's first keys (exact run to run).
    const KEYS: u64 = 8;
    const MESSAGES: u64 = 16;
    let mut rng = ChaCha12Rng::seed_from_u64(2003);

    let before = alloc_snapshot();
    let keys: Vec<KeyPair> = (0..KEYS)
        .map(|_| KeyPair::generate(512, &mut rng))
        .collect();
    let per_keygen = alloc_since(&before).count / KEYS;

    let kp = &keys[0];
    let msg = b"[IIP, seq]ISK - one SRR hop entry";
    let before = alloc_snapshot();
    let sigs: Vec<_> = (0..MESSAGES).map(|_| kp.sign(msg)).collect();
    let per_sign = alloc_since(&before).count / MESSAGES;

    // The first verify also builds the key's lazy Montgomery context;
    // the ratchet is on the steady figure.
    assert!(kp.public().verify(msg, &sigs[0]).is_ok());
    let before = alloc_snapshot();
    for sig in &sigs {
        assert!(kp.public().verify(msg, sig).is_ok());
    }
    let per_verify = alloc_since(&before).count / MESSAGES;

    eprintln!("allocations: {per_keygen} per keygen, {per_sign} per sign, {per_verify} per verify");
    assert!(per_keygen > 0, "counting allocator not installed");
    assert!(
        per_keygen <= MAX_ALLOCS_PER_KEYGEN,
        "{per_keygen} allocations per RSA-512 key (bound {MAX_ALLOCS_PER_KEYGEN})"
    );
    assert!(
        per_sign <= MAX_ALLOCS_PER_SIGN,
        "{per_sign} allocations per signature (bound {MAX_ALLOCS_PER_SIGN})"
    );
    assert!(
        per_verify <= MAX_ALLOCS_PER_VERIFY,
        "{per_verify} allocations per verification (bound {MAX_ALLOCS_PER_VERIFY})"
    );
}

/// Nearly every candidate a prime search tests is a composite that fails
/// the base-2 round, which runs on the stack at 256 bits.
#[test]
fn composite_rejected_at_base_two_allocates_nothing() {
    let _metered = metered();
    let mut rng = ChaCha12Rng::seed_from_u64(31);
    let p = gen_prime(128, &mut rng);
    let pq = &p * &gen_prime(128, &mut rng);
    assert_eq!(pq.bit_len(), 256);

    let before = alloc_snapshot();
    let verdict = is_prime(&pq);
    let allocs = alloc_since(&before).count;
    assert!(!verdict, "p·q taken for a prime");
    assert_eq!(allocs, 0, "is_prime(p·q) allocated {allocs} times");

    // A prime gets past base 2 and builds its context: the meter works.
    let before = alloc_snapshot();
    assert!(is_prime(&p));
    assert!(
        alloc_since(&before).count > 0,
        "counting allocator not installed"
    );
}

#[test]
fn steady_state_forwarding_alloc_bound() {
    let _metered = metered();
    let mut net = ScenarioBuilder::new()
        .hosts(8)
        .placement(Placement::Chain { spacing: 200.0 })
        .seed(17)
        .plain()
        .build();

    // Warm-up: discover the route, populate neighbor caches, touch
    // every lazily-grown structure once.
    let w = |packets| Workload::flows(vec![(0, 7)], packets, SimDuration::from_millis(250));
    let warm = net.run(&w(8));
    assert!(
        warm.totals.data_received >= 6,
        "warm-up barely delivered ({} of 8): chain broken, bound meaningless",
        warm.totals.data_received
    );

    // Measured phase: same flow, routes cached, no discovery floods.
    let before = alloc_snapshot();
    let report = net.run(&w(64));
    let traffic = alloc_since(&before);

    let delivered = report.totals.data_received - warm.totals.data_received;
    assert!(
        delivered >= 56,
        "steady phase lost traffic ({delivered} of 64 delivered)"
    );
    let per_delivery = traffic.count / delivered;
    eprintln!(
        "steady state: {} allocs / {} bytes over {} deliveries = {} allocs each",
        traffic.count, traffic.bytes, delivered, per_delivery
    );
    assert!(
        per_delivery <= MAX_ALLOCS_PER_DELIVERY,
        "steady-state allocation regression: {} allocs / {} deliveries = {} each (bound {}); \
         something re-entered the per-frame path",
        traffic.count,
        delivered,
        per_delivery,
        MAX_ALLOCS_PER_DELIVERY
    );

    // The counting allocator must actually be live in this process —
    // otherwise the numbers above were vacuous zeros.
    assert!(traffic.count > 0, "counting allocator not installed");
    assert!(
        report.alloc_count.is_some(),
        "RunReport should surface alloc totals when the counter is live"
    );
}

/// Bytes allocated per frame delivery while a second round of floods
/// crosses a plain network on top of the first. Measured at 38 (1.19 MB
/// over 30,490 deliveries; × 1.3); 59 while every relay decoded and
/// re-encoded its copy into a pooled buffer that then grew, and 171
/// while every timer-wheel slot grew its own `Vec` and kept it after
/// draining, so a storm passing through fresh slots regrew megabytes
/// that the last ones still held. The sharded executors' in-window
/// heaps and shard buffers come on top (docs/PERF.md has their
/// figures), so the test pins the single one.
const MAX_BYTES_PER_DELIVERY: u64 = 50;

/// Allocations per thousand deliveries in the same storm: 121 measured
/// (3,714 over 30,490; × 1.3). Relays splice their copy into a pooled
/// frame and recycle its `Arc`, so what is left is mostly the dedup
/// tables' and the wheel's growth. It read 367 (11,206) while each
/// relay decoded its copy's route record and each transmission
/// allocated an `Arc`.
const MAX_ALLOCS_PER_KILO_DELIVERY: u64 = 157;

#[test]
fn flood_storm_bytes_per_delivery_bound() {
    let _metered = metered();
    const FLOODS: usize = 4;
    let mut net = ScenarioBuilder::new()
        .hosts(300)
        .placement(Placement::Uniform)
        .density(15.0)
        .seed(29)
        .exec(ExecMode::Single)
        .plain()
        .build();
    let flows = net.scale_flows(2 * FLOODS);
    let (first, second) = flows.split_at(FLOODS);
    let rx = |net: &Network<PlainDsrNode>| net.engine.metrics()[LinkCounter::RxFrames];
    let round = |net: &mut Network<PlainDsrNode>, flows: &[(usize, usize)], run: SimDuration| {
        for &(a, b) in flows {
            net.send(a, b, vec![0; 64]);
        }
        let until = net.engine.now() + run;
        net.engine.run_until(until);
    };

    // Unrouted destinations: every packet floods an RREQ over the whole
    // network, which takes ≈25 ms. The second round starts one level-2
    // slot of the wheel (64² µs) after the first and is metered until
    // both have drained.
    round(&mut net, first, SimDuration::from_micros(4096));
    let rx_before = rx(&net);
    let before = alloc_snapshot();
    round(&mut net, second, SimDuration::from_millis(50));
    let traffic = alloc_since(&before);
    let delivered = rx(&net) - rx_before;
    assert!(
        delivered > 10_000,
        "only {delivered} deliveries: the floods did not cross the network"
    );
    let per_delivery = traffic.bytes / delivered;
    let per_kilo = traffic.count * 1000 / delivered;
    eprintln!(
        "flood storm: {} allocs / {} bytes over {delivered} deliveries = {per_delivery} bytes \
         each, {per_kilo} allocs per thousand",
        traffic.count, traffic.bytes
    );
    assert!(
        per_delivery <= MAX_BYTES_PER_DELIVERY,
        "{per_delivery} bytes allocated per flood delivery (bound {MAX_BYTES_PER_DELIVERY}): \
         drained memory is not being reused"
    );
    assert!(
        per_kilo <= MAX_ALLOCS_PER_KILO_DELIVERY,
        "{per_kilo} allocations per thousand flood deliveries (bound \
         {MAX_ALLOCS_PER_KILO_DELIVERY}): something allocates per relay again"
    );
}

/// A frame `via` hears from `from`, delivered outside the event loop:
/// the allocations the handler made, and the frames it sent.
fn deliver<P: NodeApi>(
    net: &mut Network<P>,
    via: NodeId,
    from: NodeId,
    frame: &[u8],
) -> (u64, u64) {
    net.engine.with_protocol::<P, _>(via, |n, ctx| {
        let sent = n.node_stats()[Counter::CtlTxMsgs];
        let before = alloc_snapshot();
        n.on_frame(ctx, from, frame);
        let allocs = alloc_since(&before).count;
        (allocs, n.node_stats()[Counter::CtlTxMsgs] - sent)
    })
}

/// Let every frame in the air land, so the shard's frame pool holds the
/// buffers and `Arc`s of what was just sent.
fn drain<P: NodeApi>(net: &mut Network<P>) {
    let until = net.engine.now() + SimDuration::from_millis(50);
    net.engine.run_until(until);
}

/// A flood from a source the network has not heard of.
fn areq_frame(tx: Ipv6Addr, seq: u64) -> Vec<u8> {
    Envelope::broadcast(
        tx,
        Message::Areq(Areq {
            sip: Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 8, 8, 8, 8]),
            seq: Seq(seq),
            dn: Some(DomainName::new("newcomer").unwrap()),
            ch: Challenge(77),
            rr: RouteRecord::new(),
        }),
    )
    .encode()
}

#[test]
fn duplicate_flood_copies_and_relay_prefetch_allocate_nothing() {
    let _metered = metered();
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .placement(Placement::Chain { spacing: 200.0 })
        .seed(23)
        .secure()
        .batch_verify(true)
        .build();
    assert!(net.bootstrap());
    let (neighbour, relay) = (net.hosts[0], net.hosts[1]);
    let mut rng = ChaCha12Rng::seed_from_u64(24);
    let src = HostIdentity::generate(512, &mut rng);
    let rreq_for = |dip: Ipv6Addr| {
        let rreq = Rreq {
            sip: src.ip(),
            dip,
            seq: Seq(1),
            srr: SecureRouteRecord::new(),
            src_proof: src.prove(&sigdata::rreq_src(&src.ip(), Seq(1))),
        };
        Envelope::broadcast(src.ip(), Message::Rreq(rreq)).encode()
    };
    let nobody = Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, 9]);
    let rreq = rreq_for(nobody);
    let areq = areq_frame(src.ip(), 1);

    for (kind, frame) in [("RREQ", &rreq), ("AREQ", &areq)] {
        let (_, sent) = deliver(&mut net, relay, neighbour, frame);
        assert_eq!(sent, 1, "the first {kind} copy is relayed");
        let (second, sent) = deliver(&mut net, relay, neighbour, frame);
        assert_eq!(sent, 0, "a duplicate {kind} copy is dropped");
        assert_eq!(
            second, 0,
            "a duplicate {kind} copy allocated {second} times"
        );
    }

    // A first AREQ copy is relayed by splicing its frame into a pooled
    // buffer: with the pool warm, relaying it allocates nothing. What a
    // first copy may still allocate is the growth of the table that
    // remembers it, which doubles its room: of two consecutive first
    // copies, at most one.
    drain(&mut net);
    let firsts = [2, 3].map(|seq| {
        let (allocs, sent) = deliver(&mut net, relay, neighbour, &areq_frame(src.ip(), seq));
        assert_eq!(sent, 1, "the first copy of AREQ {seq} is relayed");
        allocs
    });
    assert!(
        firsts.iter().sum::<u64>() <= 1,
        "relaying two first AREQ copies allocated {firsts:?} times"
    );

    // The prefetch pass decodes an RREQ only at its destination.
    let prefetch = |net: &Network<SecureNode>, frame: &[u8]| {
        let before = alloc_snapshot();
        net.engine
            .protocol_as::<SecureNode>(relay)
            .prefetch_frame(neighbour, frame);
        alloc_since(&before).count
    };
    assert_eq!(prefetch(&net, &rreq), 0, "a relay's prefetch decoded");
    let mine = rreq_for(net.host_ip(1));
    assert!(
        prefetch(&net, &mine) > 0,
        "the destination's prefetch is live"
    );
}

#[test]
fn relayed_plain_rreq_first_copy_allocates_nothing() {
    let _metered = metered();
    let mut net = ScenarioBuilder::new()
        .hosts(3)
        .placement(Placement::Chain { spacing: 200.0 })
        .seed(27)
        .plain()
        .build();
    let (neighbour, relay) = (net.hosts[0], net.hosts[1]);
    let far = Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 7, 7, 7, 7]);
    let nobody = Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, 9]);
    let rreq = |seq| {
        let rreq = PlainRreq {
            sip: far,
            dip: nobody,
            seq: Seq(seq),
            rr: RouteRecord(vec![far]),
        };
        Envelope::broadcast(far, Message::PlainRreq(rreq)).encode()
    };

    // The first flood meets a cold node: its dedup table, neighbour
    // cache and the frame pool grow once.
    let (_, sent) = deliver(&mut net, relay, neighbour, &rreq(1));
    assert_eq!(sent, 1, "the first copy is relayed");
    drain(&mut net);
    let frame = rreq(2);
    let (first, sent) = deliver(&mut net, relay, neighbour, &frame);
    assert_eq!(sent, 1, "the next flood's first copy is relayed");
    assert_eq!(
        first, 0,
        "relaying a first plain RREQ copy allocated {first} times"
    );
    let (second, sent) = deliver(&mut net, relay, neighbour, &frame);
    assert_eq!(
        (second, sent),
        (0, 0),
        "a duplicate copy is dropped, allocating nothing"
    );
}

#[test]
fn relayed_rreq_encodes_into_a_sized_frame_without_allocating() {
    let _metered = metered();
    const HOPS: usize = 4;
    let mut rng = ChaCha12Rng::seed_from_u64(25);
    let ids: Vec<HostIdentity> = (0..=HOPS)
        .map(|_| HostIdentity::generate(512, &mut rng))
        .collect();
    let seq = Seq(3);
    let rreq = Message::Rreq(Rreq {
        sip: ids[0].ip(),
        dip: Ipv6Addr::from_groups([0xfec0, 0, 0, 0, 9, 9, 9, 9]),
        seq,
        srr: SecureRouteRecord(
            ids[1..]
                .iter()
                .map(|id| SrrEntry {
                    ip: id.ip(),
                    proof: id.prove(&sigdata::srr_hop(&id.ip(), seq)),
                })
                .collect(),
        ),
        src_proof: ids[0].prove(&sigdata::rreq_src(&ids[0].ip(), seq)),
    });
    let mut frame = Vec::with_capacity(rreq.wire_size());
    let before = alloc_snapshot();
    rreq.encode_into(&mut frame);
    let allocs = alloc_since(&before).count;
    assert_eq!(frame, rreq.encode());
    assert_eq!(
        allocs, 0,
        "a {HOPS}-hop RREQ encode allocated {allocs} times"
    );
}
