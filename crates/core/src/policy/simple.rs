//! Simple reference policies used by tests, examples and the experiment binaries.

use crate::mapping::ThreadMapping;
use crate::policy::{predict_mapping_temperatures, Policy, PolicyContext};
use hayat_floorplan::CoreId;
use hayat_workload::WorkloadMix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Maps each thread to a uniformly random feasible core — the "no
/// management at all" lower bound.
///
/// # Example
///
/// ```
/// use hayat::{ChipSystem, Policy, PolicyContext, RandomPolicy, SimulationConfig};
/// use hayat_units::Years;
/// use hayat_workload::WorkloadMix;
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo())?;
/// let ctx = PolicyContext::new(&system, Years::new(1.0), Years::new(0.0));
/// let mapping = RandomPolicy::new(7).map_threads(&ctx, &WorkloadMix::generate(2, 8));
/// assert_eq!(mapping.active_cores(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: StdRng,
}

impl RandomPolicy {
    /// A seeded random policy.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &str {
        "Random"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        let system = ctx.system;
        let fp = system.floorplan();
        let mut mapping = ThreadMapping::empty(fp.core_count());
        let mut cores: Vec<CoreId> = fp.cores().collect();
        cores.shuffle(&mut self.rng);
        for (tid, profile) in workload.threads() {
            if mapping.active_cores() >= system.budget().max_on() {
                break;
            }
            if let Some(&core) = cores
                .iter()
                .find(|&&c| mapping.is_free(c) && system.can_host(c, profile.min_frequency()))
            {
                mapping.assign(tid, core);
            }
        }
        mapping
    }

    fn rng_state(&self) -> Option<u64> {
        Some(self.rng.state())
    }

    fn restore_rng_state(&mut self, state: u64) {
        self.rng = StdRng::from_state(state);
    }
}

/// Maps each thread to the feasible core with the lowest *predicted*
/// temperature given the threads placed so far — temperature-aware but
/// health-blind, isolating the value of Hayat's health term (the Section II
/// observation that "migrating to cores selected only by temperature can
/// lead to frequency degradation of cores that should better be saved").
#[derive(Debug, Clone, Copy, Default)]
pub struct CoolestFirstPolicy;

impl Policy for CoolestFirstPolicy {
    fn name(&self) -> &str {
        "CoolestFirst"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        let system = ctx.system;
        let fp = system.floorplan();
        let mut mapping = ThreadMapping::empty(fp.core_count());
        for (tid, profile) in workload.threads() {
            if mapping.active_cores() >= system.budget().max_on() {
                break;
            }
            let temps = predict_mapping_temperatures(system, &mapping, workload);
            let coolest = fp
                .cores()
                .filter(|&c| mapping.is_free(c) && system.can_host(c, profile.min_frequency()))
                .min_by(|&a, &b| {
                    temps
                        .core(a)
                        .partial_cmp(&temps.core(b))
                        .expect("temperatures are finite")
                });
            if let Some(core) = coolest {
                mapping.assign(tid, core);
            }
        }
        mapping
    }
}

/// Maps threads onto a *fixed* Dark Core Map, hardest thread to the fastest
/// feasible on-core — the policy behind the Fig. 2 analysis, where
/// different explicit DCMs (contiguous vs variation-optimized) are compared
/// under otherwise identical management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedDcmPolicy {
    dcm: crate::dcm::DarkCoreMap,
}

impl FixedDcmPolicy {
    /// A policy pinned to `dcm`.
    #[must_use]
    pub fn new(dcm: crate::dcm::DarkCoreMap) -> Self {
        FixedDcmPolicy { dcm }
    }

    /// The pinned Dark Core Map.
    #[must_use]
    pub const fn dcm(&self) -> &crate::dcm::DarkCoreMap {
        &self.dcm
    }
}

impl Policy for FixedDcmPolicy {
    fn name(&self) -> &str {
        "FixedDCM"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        let system = ctx.system;
        let fp = system.floorplan();
        let mut mapping = ThreadMapping::empty(fp.core_count());
        // Hardest threads first so they can claim the fastest on-cores.
        let mut threads: Vec<_> = workload.threads().collect();
        threads.sort_by(|a, b| {
            b.1.min_frequency()
                .partial_cmp(&a.1.min_frequency())
                .expect("frequencies are finite")
                .then(a.0.cmp(&b.0))
        });
        for (tid, profile) in threads {
            if mapping.active_cores() >= system.budget().max_on() {
                break;
            }
            let fastest_feasible = self
                .dcm
                .on_cores()
                .filter(|&c| mapping.is_free(c) && system.can_host(c, profile.min_frequency()))
                .max_by(|&a, &b| {
                    system
                        .aged_fmax(a)
                        .partial_cmp(&system.aged_fmax(b))
                        .expect("frequencies are finite")
                });
            if let Some(core) = fastest_feasible {
                mapping.assign(tid, core);
            }
        }
        mapping
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;
    use hayat_units::Years;

    fn setup() -> (ChipSystem, WorkloadMix) {
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        (system, WorkloadMix::generate(5, 12))
    }

    fn ctx(system: &ChipSystem) -> PolicyContext<'_> {
        PolicyContext::new(system, Years::new(1.0), Years::new(0.0))
    }

    #[test]
    fn random_policy_is_seeded_and_feasible() {
        let (system, workload) = setup();
        let c = ctx(&system);
        let a = RandomPolicy::new(3).map_threads(&c, &workload);
        let b = RandomPolicy::new(3).map_threads(&c, &workload);
        assert_eq!(a, b);
        for (core, tid) in a.assignments() {
            assert!(system.can_host(core, workload.thread(tid).min_frequency()));
        }
    }

    #[test]
    fn coolest_first_spreads_load() {
        let (system, workload) = setup();
        let c = ctx(&system);
        let mapping = CoolestFirstPolicy.map_threads(&c, &workload);
        assert_eq!(mapping.active_cores(), 12);
        // Spread: active cores should not form one dense block.
        let fp = system.floorplan();
        let active: Vec<CoreId> = mapping.active().collect();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for (i, &a) in active.iter().enumerate() {
            for &b in &active[i + 1..] {
                total += fp.mesh_distance(a, b);
                pairs += 1;
            }
        }
        let mean = total as f64 / pairs as f64;
        assert!(mean > 3.0, "coolest-first placement too clustered: {mean}");
    }

    #[test]
    fn fixed_dcm_policy_stays_inside_its_map() {
        let (system, workload) = setup();
        let dcm = crate::dcm::DarkCoreMap::checkerboard(system.floorplan(), 32);
        let c = ctx(&system);
        let mapping = FixedDcmPolicy::new(dcm.clone()).map_threads(&c, &workload);
        assert_eq!(mapping.active_cores(), 12);
        for (core, _) in mapping.assignments() {
            assert!(dcm.is_on(core), "core {core} is dark in the pinned DCM");
        }
    }

    #[test]
    fn both_respect_the_budget() {
        let mut cfg = SimulationConfig::quick_demo();
        cfg.dark_fraction = 0.8;
        let system = ChipSystem::paper_chip(0, &cfg).unwrap();
        let workload = WorkloadMix::generate(5, 32);
        let c = ctx(&system);
        assert!(
            RandomPolicy::new(1)
                .map_threads(&c, &workload)
                .active_cores()
                <= 12
        );
        assert!(CoolestFirstPolicy.map_threads(&c, &workload).active_cores() <= 12);
    }
}
