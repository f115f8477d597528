//! The VAA baseline: variability- and aging-aware maximum-throughput
//! mapping derived from Fattah et al.'s smart hill climbing (DAC'13, [28]),
//! extended per Section VI for a fair comparison.

use crate::mapping::ThreadMapping;
use crate::policy::{Policy, PolicyContext, PolicyScratch};
use hayat_floorplan::{CoreId, Floorplan};
use hayat_telemetry::RecorderExt;
use hayat_workload::WorkloadMix;
use serde::{Deserialize, Serialize};

/// The extended state-of-the-art baseline of Section VI ("for brevity, we
/// call it VAA").
///
/// Following the paper's description it is variability- and aging-aware —
/// "threads get assigned to cores that fulfill frequency requirements at
/// their current age" — and optimizes for **maximum throughput**: each
/// application claims a contiguous region (smart-hill-climbing placement
/// keeps communicating threads adjacent), and within the region each thread
/// takes the *fastest* feasible core. What it does **not** do is predict
/// temperatures or health: no dark-core-map optimization, no Eq. 9
/// weighting — that is exactly the delta the paper's comparison isolates.
///
/// It shares everything else with Hayat at run time (epoch knowledge, DTM,
/// core-level frequency scaling, temperature-dependent leakage), which the
/// engine provides identically to both policies.
///
/// # Example
///
/// ```
/// use hayat::{ChipSystem, Policy, PolicyContext, SimulationConfig, VaaPolicy};
/// use hayat_units::Years;
/// use hayat_workload::WorkloadMix;
///
/// # fn main() -> Result<(), hayat::BuildSystemError> {
/// let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo())?;
/// let ctx = PolicyContext::new(&system, Years::new(1.0), Years::new(0.0));
/// let mapping = VaaPolicy::default().map_threads(&ctx, &WorkloadMix::generate(2, 12));
/// assert_eq!(mapping.active_cores(), 12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct VaaPolicy;

/// How many of the region's nearest free cores (BFS order) a thread picks
/// its core from: the window keeps the placement contiguous while still
/// preferring speed inside it.
const REGION_WINDOW: usize = 4;

impl VaaPolicy {
    /// Smart-hill-climbing first-node selection. SHiC keeps the overall
    /// allocation compact to avoid fragmenting the free area: after the
    /// first application, new regions start adjacent to already-occupied
    /// cores (most occupied neighbours first), tie-broken toward the fastest
    /// core (max throughput). The very first application starts at the free
    /// core with the most free neighbours. Among exact ties the later core
    /// wins (`max_by`'s rule).
    ///
    /// Reads the decision's occupied-neighbour counts and aged-frequency
    /// snapshot from `scratch`, so one call is a single pass over the cores.
    fn first_node(
        fp: &Floorplan,
        mapping: &ThreadMapping,
        scratch: &PolicyScratch,
    ) -> Option<CoreId> {
        let anything_mapped = mapping.active_cores() > 0;
        let occupied = &scratch.occupied_neighbors;
        let fmax = &scratch.aged_fmax;
        let key = |c: CoreId| {
            let occupied = usize::from(occupied[c.index()]);
            if anything_mapped {
                occupied
            } else {
                fp.neighbors(c).count() - occupied
            }
        };
        fp.cores().filter(|&c| mapping.is_free(c)).max_by(|&a, &b| {
            key(a).cmp(&key(b)).then(
                fmax[a.index()]
                    .partial_cmp(&fmax[b.index()])
                    .expect("frequencies are finite"),
            )
        })
    }

    /// Collects the first [`REGION_WINDOW`] free cores in BFS order from
    /// `start` — the nearest part of the contiguous region an application
    /// expands into. Fills `scratch.region`, reusing the scratch's visited
    /// flags and BFS queue. The BFS stops once the window is full: its first
    /// pops do not depend on what it would visit later.
    fn region_into(
        fp: &Floorplan,
        mapping: &ThreadMapping,
        start: CoreId,
        scratch: &mut PolicyScratch,
    ) {
        scratch.region.clear();
        scratch.seen.clear();
        scratch.seen.resize(fp.core_count(), false);
        scratch.queue.clear();
        scratch.queue.push_back(start);
        scratch.seen[start.index()] = true;
        while let Some(core) = scratch.queue.pop_front() {
            if mapping.is_free(core) {
                scratch.region.push(core);
                if scratch.region.len() == REGION_WINDOW {
                    break;
                }
            }
            for n in fp.neighbors(core) {
                if !scratch.seen[n.index()] && mapping.is_free(n) {
                    scratch.seen[n.index()] = true;
                    scratch.queue.push_back(n);
                }
            }
        }
    }

    /// The full decision against a caller-provided scratch; see
    /// [`PolicyScratch`] for the allocation story.
    fn map_threads_with(
        &self,
        ctx: &PolicyContext<'_>,
        workload: &WorkloadMix,
        scratch: &mut PolicyScratch,
    ) -> ThreadMapping {
        let _decision = ctx.recorder.span("policy.vaa.decision");
        let system = ctx.system;
        let fp = system.floorplan();
        let mut mapping = scratch.take_mapping(fp.core_count());
        let mut candidates_evaluated: u64 = 0;
        system.aged_fmax_into(&mut scratch.aged_fmax);
        scratch.occupied_neighbors.clear();
        scratch.occupied_neighbors.resize(fp.core_count(), 0);

        for app in workload.applications() {
            if mapping.active_cores() >= system.budget().max_on() {
                break;
            }
            let Some(start) = Self::first_node(fp, &mapping, scratch) else {
                break;
            };
            // Threads of the app, hardest-first within the region.
            scratch.threads.clear();
            scratch
                .threads
                .extend(app.threads().map(|(tid, p)| (p.min_frequency(), tid)));
            scratch.threads.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("frequencies are finite")
                    .then(a.1.cmp(&b.1))
            });
            // Indexed loop: `region_into` needs the whole scratch mutably,
            // so the thread list cannot stay borrowed across iterations.
            for ti in 0..scratch.threads.len() {
                if mapping.active_cores() >= system.budget().max_on() {
                    break;
                }
                let (required, tid) = scratch.threads[ti];
                // The contiguous region as currently free, nearest-first.
                Self::region_into(fp, &mapping, start, scratch);
                // Max throughput: the fastest feasible core among the
                // region's nearest cores.
                candidates_evaluated += scratch.region.len() as u64;
                let fmax = &scratch.aged_fmax;
                let fastest = |a: &CoreId, b: &CoreId| {
                    fmax[a.index()]
                        .partial_cmp(&fmax[b.index()])
                        .expect("frequencies are finite")
                };
                let near_best = scratch
                    .region
                    .iter()
                    .copied()
                    .filter(|&c| fmax[c.index()] >= required.value())
                    .max_by(fastest);
                // Fall back to the fastest feasible core anywhere.
                let chosen = near_best.or_else(|| {
                    fp.cores()
                        .filter(|&c| mapping.is_free(c) && fmax[c.index()] >= required.value())
                        .max_by(fastest)
                });
                if let Some(core) = chosen {
                    mapping.assign(tid, core);
                    for n in fp.neighbors(core) {
                        scratch.occupied_neighbors[n.index()] += 1;
                    }
                }
            }
        }
        ctx.recorder
            .counter("policy.vaa.candidates_evaluated", candidates_evaluated);
        ctx.recorder
            .counter("policy.vaa.assignments", mapping.active_cores() as u64);
        mapping
    }
}

impl Policy for VaaPolicy {
    fn name(&self) -> &str {
        "VAA"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        match ctx.scratch {
            Some(cell) => self.map_threads_with(ctx, workload, &mut cell.borrow_mut()),
            None => self.map_threads_with(ctx, workload, &mut PolicyScratch::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;
    use hayat_units::Years;

    fn setup(threads: usize) -> (ChipSystem, WorkloadMix) {
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        let workload = WorkloadMix::generate(5, threads);
        (system, workload)
    }

    fn ctx(system: &ChipSystem) -> PolicyContext<'_> {
        PolicyContext::new(system, Years::new(1.0), Years::new(0.0))
    }

    #[test]
    fn maps_all_threads_within_budget() {
        let (system, workload) = setup(24);
        let mapping = VaaPolicy.map_threads(&ctx(&system), &workload);
        assert_eq!(mapping.active_cores(), 24);
        assert!(mapping.active_cores() <= system.budget().max_on());
    }

    #[test]
    fn respects_frequency_requirements() {
        let (system, workload) = setup(16);
        let mapping = VaaPolicy.map_threads(&ctx(&system), &workload);
        for (core, tid) in mapping.assignments() {
            assert!(system.can_host(core, workload.thread(tid).min_frequency()));
        }
    }

    #[test]
    fn vaa_runs_hotter_than_hayat_at_full_budget() {
        // The paper's central comparison: VAA's max-throughput packing
        // produces hotter peaks than Hayat's DCM-optimized placement when
        // the dark-silicon budget is fully used (50% dark).
        use crate::policy::hayat::HayatPolicy;
        use crate::policy::predict_mapping_temperatures;
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        let workload = WorkloadMix::generate(5, system.budget().max_on());
        let c = ctx(&system);
        let vaa = VaaPolicy.map_threads(&c, &workload);
        let hayat = HayatPolicy::default().map_threads(&c, &workload);
        let t_vaa = predict_mapping_temperatures(&system, &vaa, &workload);
        let t_hayat = predict_mapping_temperatures(&system, &hayat, &workload);
        assert!(
            t_hayat.max() < t_vaa.max(),
            "Hayat peak {} should undercut VAA peak {}",
            t_hayat.max(),
            t_vaa.max()
        );
    }

    #[test]
    fn vaa_uses_the_chip_elite_while_hayat_preserves_it() {
        use crate::policy::hayat::HayatPolicy;
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        let workload = WorkloadMix::generate(5, system.budget().max_on());
        let c = ctx(&system);
        let top_used = |m: &ThreadMapping| {
            m.active()
                .map(|core| system.aged_fmax(core).value())
                .fold(0.0f64, f64::max)
        };
        let vaa = top_used(&VaaPolicy.map_threads(&c, &workload));
        let hayat = top_used(&HayatPolicy::default().map_threads(&c, &workload));
        assert!(
            hayat < vaa,
            "Hayat's fastest used core ({hayat} GHz) should be slower than VAA's ({vaa} GHz)"
        );
        assert!(
            (vaa - system.chip_fmax().value()).abs() < 1e-9,
            "VAA uses the top core"
        );
    }

    #[test]
    fn prefers_fast_cores() {
        // With a single modest thread, VAA's fallback/max-throughput choice
        // should sit in the faster half of the chip.
        let (system, _) = setup(4);
        let workload = WorkloadMix::generate(9, 1);
        let mapping = VaaPolicy.map_threads(&ctx(&system), &workload);
        let (core, _) = mapping.assignments().next().expect("one thread mapped");
        let mut freqs: Vec<f64> = system.aged_fmax_all().iter().map(|f| f.value()).collect();
        freqs.sort_by(f64::total_cmp);
        let median = freqs[freqs.len() / 2];
        assert!(
            system.aged_fmax(core).value() >= median,
            "VAA placed a thread on a below-median core"
        );
    }

    #[test]
    fn budget_is_never_exceeded() {
        let mut cfg = SimulationConfig::quick_demo();
        cfg.dark_fraction = 0.75;
        let system = ChipSystem::paper_chip(0, &cfg).unwrap();
        let workload = WorkloadMix::generate(5, 48);
        let mapping = VaaPolicy.map_threads(&ctx(&system), &workload);
        assert!(mapping.active_cores() <= 16);
    }

    #[test]
    fn shared_scratch_reproduces_the_scratchless_decision() {
        let (system, workload) = setup(16);
        let baseline = VaaPolicy.map_threads(&ctx(&system), &workload);
        let scratch = std::cell::RefCell::new(crate::policy::PolicyScratch::new());
        let shared_ctx = ctx(&system).with_scratch(&scratch);
        let first = VaaPolicy.map_threads(&shared_ctx, &workload);
        scratch.borrow_mut().mapping_pool.push(first.clone());
        let second = VaaPolicy.map_threads(&shared_ctx, &workload);
        assert_eq!(baseline, first);
        assert_eq!(baseline, second);
    }

    #[test]
    fn name_is_vaa() {
        assert_eq!(VaaPolicy.name(), "VAA");
    }
}
