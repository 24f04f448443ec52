//! Parallel experiment execution.
//!
//! A simulation cell (one parameter point × one seed) is deterministic and
//! single-threaded; experiments are grids of independent cells. This
//! module fans the grid out over rayon's thread pool — the canonical
//! data-parallel shape from the hpc-parallel guides — and aggregates per
//! parameter point.

use rayon::prelude::*;

/// Run `f` once per `(param, seed)` pair in parallel and return
/// `(param, per-seed results)` grouped in input order.
///
/// `f` must build its entire simulation from the given seed so cells stay
/// independent; nothing is shared across cells except read-only params.
pub fn sweep<P, T, F>(params: &[P], seeds: &[u64], f: F) -> Vec<(P, Vec<T>)>
where
    P: Clone + Send + Sync,
    T: Send,
    F: Fn(&P, u64) -> T + Sync,
{
    params
        .par_iter()
        .map(|p| {
            let results: Vec<T> = seeds.par_iter().map(|&s| f(p, s)).collect();
            (p.clone(), results)
        })
        .collect()
}

/// Mean of a per-seed scalar extracted by `f`, or `None` for an empty
/// seed list — the empty denominator is explicit rather than a silent
/// NaN leaking into a table.
pub fn mean_over_seeds<F>(seeds: &[u64], f: F) -> Option<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    if seeds.is_empty() {
        return None;
    }
    let sum: f64 = seeds.par_iter().map(|&s| f(s)).sum();
    Some(sum / seeds.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_param_order_and_runs_all_cells() {
        let params = vec![1u64, 2, 3];
        let seeds = vec![10u64, 20];
        let out = sweep(&params, &seeds, |p, s| p * 1000 + s);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].0, 1);
        assert_eq!(out[0].1, vec![1010, 1020]);
        assert_eq!(out[2].1, vec![3010, 3020]);
    }

    #[test]
    fn mean_over_seeds_averages() {
        assert_eq!(mean_over_seeds(&[1, 2, 3], |s| s as f64), Some(2.0));
    }

    #[test]
    fn mean_over_seeds_is_explicit_about_the_empty_grid() {
        assert_eq!(mean_over_seeds(&[], |_| 0.0), None, "no seeds — no mean");
    }

    #[test]
    fn parallel_execution_is_deterministic_in_aggregate() {
        // Whatever the thread interleaving, per-cell results only depend
        // on (param, seed), so repeated sweeps agree exactly.
        let params = vec![5u64, 7];
        let seeds: Vec<u64> = (0..16).collect();
        let f = |p: &u64, s: u64| {
            use rand::{Rng, SeedableRng};
            let mut rng =
                rand_chacha::ChaCha12Rng::seed_from_u64(p.wrapping_mul(31).wrapping_add(s));
            rng.gen::<u64>()
        };
        assert_eq!(sweep(&params, &seeds, f), sweep(&params, &seeds, f));
    }
}
