//! The four workloads. Each builds one pass — a fixed set of simulation
//! calls derived from the workload seed — and hands it back as prepared
//! [`Job`](crate::run::Job)s, so set-up and simulation time apart.

pub mod domain;
pub mod eigen;
pub mod handoff;
pub mod intruder;

/// Simulator seeds of one pass: `per_pass` consecutive seeds starting at
/// `(seed - 1) * per_pass + 1`, so seed 1 runs seeds `1..=per_pass` and
/// distinct workload seeds never share a simulator seed.
pub fn sim_seeds(seed: u64, per_pass: u64) -> impl Iterator<Item = u64> {
    let first = seed.wrapping_sub(1).wrapping_mul(per_pass).wrapping_add(1);
    (0..per_pass).map(move |k| first.wrapping_add(k))
}
