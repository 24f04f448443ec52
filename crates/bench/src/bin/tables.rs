//! Regenerate every table and figure of the paper (plus the quantified
//! evaluation and ablations; the `manet_bench` crate docs have the
//! index).
//!
//! ```sh
//! cargo run --release -p manet-bench --bin tables            # everything, quick seeds
//! cargo run --release -p manet-bench --bin tables -- --full  # everything, 10 seeds
//! cargo run --release -p manet-bench --bin tables -- --exhibit e3
//! cargo run --release -p manet-bench --bin tables -- --check-perf      # CI gate
//! cargo run --release -p manet-bench --bin tables -- --write-baseline  # rebaseline
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = !args.iter().any(|a| a == "--full");

    // Perf-regression gate: fresh S1/S2 engine rates vs the committed
    // baseline; exits nonzero on a regression beyond tolerance.
    if args.iter().any(|a| a == "--check-perf") {
        let (report, pass) =
            manet_bench::perf_gate::check(&manet_bench::perf_gate::baseline_path());
        println!("{report}");
        std::process::exit(if pass { 0 } else { 1 });
    }
    if args.iter().any(|a| a == "--write-baseline") {
        match manet_bench::perf_gate::write_baseline(&manet_bench::perf_gate::baseline_path()) {
            Ok(msg) => println!("{msg}"),
            Err(e) => {
                eprintln!("baseline not written: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let selected: Vec<String> = args
        .iter()
        .position(|a| a == "--exhibit")
        .and_then(|i| args.get(i + 1))
        .map(|id| vec![id.clone()])
        .unwrap_or_else(|| {
            manet_bench::EXHIBITS
                .iter()
                .map(|s| s.to_string())
                .collect()
        });

    if quick {
        println!("(quick mode: 3 seeds per cell; pass --full for 10)\n");
    }
    for id in &selected {
        let t0 = Instant::now();
        match manet_bench::render(id, quick) {
            Some(text) => {
                println!("{text}");
                println!("[{id} generated in {:.1}s]\n", t0.elapsed().as_secs_f64());
            }
            None => {
                eprintln!(
                    "unknown exhibit '{id}'; available: {:?}",
                    manet_bench::EXHIBITS
                );
                std::process::exit(2);
            }
        }
    }
}
