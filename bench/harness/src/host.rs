//! The host-noise probe and the host facts printed beside a run. Both
//! are diagnostics: they say how far to trust a run and never drop a
//! rep, rescale a value or extend a run.

use std::time::Instant;

/// 4 MiB of `u64`: larger than the sandbox's L2, so the spin feels a
/// noisy neighbour's cache and memory traffic as well as its CPU time.
const SPIN_WORDS: usize = 512 * 1024;
/// Passes over the buffer; fixed work of about 20 ms on the 2.1 GHz
/// Xeon the baseline was taken on.
const SPIN_PASSES: usize = 48;
/// A rep counts as disturbed when the spin next to it ran this much
/// slower than the run's best spin.
pub const DISTURBED_FACTOR: f64 = 1.10;

/// The fixed spin. Owns its buffer so that every call touches the same
/// memory.
pub struct Spin {
    buf: Vec<u64>,
}

impl Default for Spin {
    fn default() -> Self {
        Spin {
            buf: (0..SPIN_WORDS as u64).collect(),
        }
    }
}

impl Spin {
    /// Run the fixed work once; milliseconds it took.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..SPIN_PASSES {
            for w in self.buf.iter_mut() {
                acc = acc.rotate_left(7) ^ *w;
                *w = w.wrapping_add(acc);
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Share of spins slower than `DISTURBED_FACTOR` × the best spin.
pub fn disturbed_share(spins_ms: &[f64]) -> f64 {
    let Some(best) = crate::stats::best(spins_ms, crate::stats::Better::Lower) else {
        return 0.0;
    };
    let disturbed = spins_ms
        .iter()
        .filter(|&&ms| ms > DISTURBED_FACTOR * best)
        .count();
    disturbed as f64 / spins_ms.len() as f64
}

/// `nproc`, CPU model and kernel, for the diagnostics printed with
/// every run (results that depend on threads must name the core count).
pub fn facts() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpuinfo = read("/proc/cpuinfo");
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let kernel = read("/proc/sys/kernel/osrelease");
    format!("nproc={cores} cpu=\"{model}\" kernel={}", kernel.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbed_share_counts_spins_beyond_the_factor() {
        assert_eq!(disturbed_share(&[20.0, 21.9, 22.1, 40.0]), 0.5);
        assert_eq!(disturbed_share(&[20.0, 20.0]), 0.0);
        assert_eq!(disturbed_share(&[]), 0.0);
    }

    #[test]
    fn spin_does_its_work_and_reports_a_positive_time() {
        let mut spin = Spin::default();
        let before = spin.buf[1];
        assert!(spin.run() > 0.0);
        assert_ne!(spin.buf[1], before, "the buffer is really written");
    }
}
