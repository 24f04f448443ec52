//! The counted rep: the same rep as `manet-benchmark rep`, under the
//! counting allocator. A binary of its own so that the timed reps run on
//! the system allocator users get.

use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: manet_sim::mem::CountingAlloc = manet_sim::mem::CountingAlloc;

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "rep" => manet_benchmark::rep::child_main(rest, origin),
        _ => {
            eprintln!("usage: manet-benchmark-counted rep --inputs <dir>");
            ExitCode::from(2)
        }
    }
}
