//! The benchmark's one command (see `run.sh`):
//!
//! ```text
//! manet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! manet-benchmark --smoke
//! manet-benchmark probes <seed> short|long                 (one batch of kernel probes, ns per op)
//! manet-benchmark inputs <workload> <seed> <dir>          (write a run's input files)
//! manet-benchmark rep --inputs <dir> [--spans] [--ticks]   (one rep from those files)
//! ```

use manet_benchmark::inputs::Workload;
use manet_benchmark::run::{self, RunConfig};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!("usage: manet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    eprintln!("       manet-benchmark --smoke");
    eprintln!("       manet-benchmark probes <seed> short|long");
    eprintln!("       manet-benchmark inputs <workload> <seed> <dir>");
    eprintln!("       manet-benchmark rep --inputs <dir> [--spans] [--ticks]");
    eprintln!(
        "workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((cmd, rest)) = args.split_first() {
        if cmd == "rep" {
            return manet_benchmark::rep::child_main(rest, origin);
        }
    }
    if let [cmd, workload, seed, dir] = args.as_slice() {
        if cmd == "inputs" {
            let (Some(workload), Ok(seed)) = (Workload::parse(workload), seed.parse()) else {
                return usage();
            };
            return match run::write_inputs(workload, seed, Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    if let [cmd, seed, kind] = args.as_slice() {
        if cmd == "probes" {
            let Ok(seed) = seed.parse() else {
                return usage();
            };
            let mut probes = manet_benchmark::probes::Probes::new(seed);
            match kind.as_str() {
                "short" => probes.batch(),
                "long" => probes.long_batch(),
                _ => return usage(),
            }
            print!("{}", probes.render());
            return ExitCode::SUCCESS;
        }
    }
    if args == ["--smoke"] {
        return match run::smoke(Path::new("BENCHMARK.json")) {
            Ok(log) => {
                for line in log {
                    println!("{line}");
                }
                println!("smoke ok in {:.1} s", origin.elapsed().as_secs_f64());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };

    match run::run(&RunConfig::new(workload, seed, seconds, trace)) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for problem in &outcome.problems {
                println!("# INCORRECT: {problem}");
            }
            let shown = if trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            for (name, value, unit) in shown {
                println!("{name:<32} {value:>18.6} {unit}");
            }
            println!("{}", outcome.result_line(trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
