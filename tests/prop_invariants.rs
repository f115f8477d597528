//! Property-based invariants spanning the substrates, checked with
//! proptest: mapping bookkeeping, DCM construction, aging monotonicity and
//! thermal sanity under arbitrary (bounded) inputs.

use hayat::{
    ChipSystem, DarkCoreMap, HayatPolicy, Policy, PolicyContext, PolicyScratch, SimulationConfig,
    SimulationEngine, ThreadMapping, UnprunedHayatPolicy, VaaPolicy,
};
use hayat_aging::{AgingModel, AgingTable, Health, TableAxes};
use hayat_floorplan::{CoreId, Floorplan, FloorplanBuilder};
use hayat_telemetry::MemoryRecorder;
use hayat_thermal::{steady_state, Integrator, RcNetwork, ThermalConfig, ThermalPredictor};
use hayat_units::{DutyCycle, Kelvin, Watts, Years};
use hayat_variation::{Chip, ChipStream, CriticalPathMap, ThetaField};
use hayat_workload::{ThreadId, WorkloadMix};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// One shared aging table: generation is the expensive offline step.
fn table() -> &'static Arc<AgingTable> {
    static TABLE: OnceLock<Arc<AgingTable>> = OnceLock::new();
    TABLE.get_or_init(|| {
        Arc::new(AgingTable::generate(
            &AgingModel::paper(1),
            &TableAxes::paper(),
        ))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mapping_assign_unassign_is_lossless(
        cores in 4usize..64,
        picks in prop::collection::vec((0usize..64, 0usize..32), 1..32),
    ) {
        let mut mapping = ThreadMapping::empty(cores);
        let mut placed = Vec::new();
        for (raw_core, thread) in picks {
            let core = CoreId::new(raw_core % cores);
            let tid = ThreadId::new(0, thread);
            if mapping.is_free(core) && mapping.core_of(tid).is_none() {
                mapping.assign(tid, core);
                placed.push((core, tid));
            }
        }
        prop_assert_eq!(mapping.active_cores(), placed.len());
        // Both directions agree for every placement.
        for (core, tid) in &placed {
            prop_assert_eq!(mapping.thread_on(*core), Some(*tid));
            prop_assert_eq!(mapping.core_of(*tid), Some(*core));
        }
        // Unassign everything: the mapping drains to empty.
        for (core, _) in &placed {
            mapping.unassign(*core);
        }
        prop_assert_eq!(mapping.active_cores(), 0);
        prop_assert_eq!(mapping.free().count(), cores);
    }

    #[test]
    fn dcm_constructions_have_exact_counts(
        rows in 2usize..8,
        cols in 2usize..8,
        frac in 0.0f64..1.0,
    ) {
        let fp = FloorplanBuilder::new(rows, cols).build().expect("valid mesh");
        let n = fp.core_count();
        let n_on = ((n as f64) * frac) as usize;
        for dcm in [
            DarkCoreMap::contiguous(&fp, n_on),
            DarkCoreMap::checkerboard(&fp, n_on),
        ] {
            prop_assert_eq!(dcm.on_count(), n_on);
            prop_assert_eq!(dcm.dark_count(), n - n_on);
            prop_assert_eq!(dcm.on_cores().count() + dcm.dark_cores().count(), n);
        }
    }

    #[test]
    fn aging_advance_is_monotone_in_everything(
        t1 in 310.0f64..420.0,
        dt in 0.0f64..30.0,
        duty in 0.05f64..1.0,
        health in 0.7f64..1.0,
        epoch in 0.05f64..2.0,
    ) {
        let table = table();
        let cooler = Kelvin::new(t1);
        let hotter = Kelvin::new((t1 + dt).min(430.0));
        let d = DutyCycle::new(duty);
        let e = Years::new(epoch);
        let h_cool = table.advance(cooler, d, health, e);
        let h_hot = table.advance(hotter, d, health, e);
        // Health never increases, and heat never helps.
        prop_assert!(h_cool <= health + 1e-12);
        prop_assert!(h_hot <= h_cool + 1e-9, "hot {h_hot} vs cool {h_cool}");
        // Longer epochs age at least as much.
        let h_longer = table.advance(cooler, d, health, Years::new(epoch * 2.0));
        prop_assert!(h_longer <= h_cool + 1e-9);
        // Higher duty ages at least as much.
        let d_low = DutyCycle::new(duty * 0.5);
        let h_low_duty = table.advance(cooler, d_low, health, e);
        prop_assert!(h_cool <= h_low_duty + 1e-9);
    }

    #[test]
    fn aging_epoch_composition_is_consistent(
        t in 320.0f64..400.0,
        duty in 0.1f64..1.0,
        epochs in 2usize..8,
    ) {
        // Advancing in k steps equals advancing once by the total (within
        // interpolation error): the equivalent-age re-entry is consistent.
        let table = table();
        let temp = Kelvin::new(t);
        let d = DutyCycle::new(duty);
        let step = Years::new(0.25);
        let mut h = 1.0;
        for _ in 0..epochs {
            h = table.advance(temp, d, h, step);
        }
        let direct = table.advance(temp, d, 1.0, Years::new(0.25 * epochs as f64));
        prop_assert!((h - direct).abs() < 5e-3, "stepwise {h} vs direct {direct}");
    }

    #[test]
    fn health_aged_fmax_is_linear(h in 0.01f64..1.0, f in 0.5f64..5.0) {
        let health = Health::new(h);
        let aged = health.aged_fmax(hayat_units::Gigahertz::new(f));
        prop_assert!((aged.value() - h * f).abs() < 1e-12);
    }

    #[test]
    fn steady_state_is_monotone_in_power(
        hot_core in 0usize..16,
        p1 in 0.5f64..6.0,
        extra in 0.1f64..6.0,
    ) {
        let fp = FloorplanBuilder::new(4, 4).build().expect("valid mesh");
        let cfg = ThermalConfig::paper();
        let mut low = vec![Watts::new(0.0); 16];
        low[hot_core] = Watts::new(p1);
        let mut high = low.clone();
        high[hot_core] = Watts::new(p1 + extra);
        let t_low = steady_state(&fp, &cfg, &low);
        let t_high = steady_state(&fp, &cfg, &high);
        // More power raises every core's temperature (positive resistance
        // network) and peaks at the powered core.
        for core in fp.cores() {
            prop_assert!(t_high.core(core) >= t_low.core(core));
        }
        prop_assert_eq!(t_high.hottest_core(), CoreId::new(hot_core));
    }

    #[test]
    fn floorplan_distance_is_a_metric(
        rows in 1usize..10,
        cols in 1usize..10,
        a in 0usize..100,
        b in 0usize..100,
        c in 0usize..100,
    ) {
        let fp = FloorplanBuilder::new(rows, cols).build().expect("valid mesh");
        let n = fp.core_count();
        let (a, b, c) = (CoreId::new(a % n), CoreId::new(b % n), CoreId::new(c % n));
        prop_assert_eq!(fp.mesh_distance(a, a), 0);
        prop_assert_eq!(fp.mesh_distance(a, b), fp.mesh_distance(b, a));
        prop_assert!(
            fp.mesh_distance(a, c) <= fp.mesh_distance(a, b) + fp.mesh_distance(b, c)
        );
    }
}

// The checkpoint/resume contract under the implicit integrator: a run cut
// at any epoch boundary, snapshotted, and resumed in a fresh engine must be
// bit-identical to the uninterrupted run. Few cases — each builds a chip
// system — but randomized over the cut point, dark fraction, and workload.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn implicit_snapshot_restore_is_bit_identical_mid_run(
        cut in 1usize..4,
        dark in 0.25f64..0.75,
        seed in 0u64..1_000,
    ) {
        let mut config = SimulationConfig::quick_demo();
        config.mesh = (4, 4);
        config.transient_window_seconds = 0.1;
        config.dark_fraction = dark;
        config.workload_seed = seed;
        config.integrator = Integrator::BackwardEuler;
        let build = || {
            let system = ChipSystem::paper_chip(0, &config).expect("chip builds");
            SimulationEngine::new(system, Box::new(HayatPolicy::default()), &config)
        };
        let reference = build().run();
        let mut first = build();
        let mut metrics = first.start_metrics();
        for epoch in 0..cut {
            metrics.epochs.push(first.run_epoch(epoch));
        }
        let snap = first.snapshot(cut);
        drop(first);
        let mut resumed = build();
        resumed.restore(&snap).expect("snapshot shape matches");
        for epoch in cut..config.epoch_count() {
            metrics.epochs.push(resumed.run_epoch(epoch));
        }
        resumed.finalize_metrics(&mut metrics);
        prop_assert_eq!(metrics, reference);
    }
}

// The stage-2 pruning contract: Hayat's candidate pruning is a pure
// overlay over the exhaustive mapping scan, so an engine running
// `HayatPolicy` and one running the `UnprunedHayatPolicy` reference must
// produce bit-identical runs — every decision, every temperature, every
// health trajectory — across random meshes, chips, dark fractions, and
// workload seeds. Few cases: each one simulates two full multi-epoch runs.
// The generator is seeded by the test's name; its first five cases draw
// every mesh at least once (16×16 once, 4×4 once).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn tiled_and_exhaustive_search_paths_run_identically(
        mesh in 0usize..3,
        chip in 0usize..32,
        dark in 0.25f64..0.75,
        seed in 0u64..1_000,
    ) {
        let mut config = SimulationConfig::quick_demo();
        config.mesh = [(4, 4), (8, 8), (16, 16)][mesh];
        config.transient_window_seconds = 0.1;
        config.dark_fraction = dark;
        config.workload_seed = seed;
        // quick_demo's population is 2 chips; widen it so every sampled
        // chip index picks a distinct variation map.
        config.chip_count = 32;
        let run = |policy: Box<dyn Policy>| {
            let system = ChipSystem::paper_chip(chip, &config).expect("chip builds");
            SimulationEngine::new(system, policy, &config).run()
        };
        prop_assert_eq!(
            run(Box::<HayatPolicy>::default()),
            run(Box::<UnprunedHayatPolicy>::default())
        );
    }
}

/// `VaaPolicy`'s decision as first written, kept as its reference: every
/// first-node comparison recounts both cores' neighbours, and every thread
/// walks the whole free component from its application's start core
/// although only the nearest four cores are read.
struct ReferenceVaa;

impl ReferenceVaa {
    fn first_node(ctx: &PolicyContext<'_>, mapping: &ThreadMapping) -> Option<CoreId> {
        let fp = ctx.system.floorplan();
        let anything_mapped = mapping.active_cores() > 0;
        fp.cores().filter(|&c| mapping.is_free(c)).max_by(|&a, &b| {
            let key = |c: CoreId| {
                if anything_mapped {
                    fp.neighbors(c).filter(|&n| !mapping.is_free(n)).count()
                } else {
                    fp.neighbors(c).filter(|&n| mapping.is_free(n)).count()
                }
            };
            key(a).cmp(&key(b)).then(
                ctx.system
                    .aged_fmax(a)
                    .partial_cmp(&ctx.system.aged_fmax(b))
                    .expect("frequencies are finite"),
            )
        })
    }

    fn region(ctx: &PolicyContext<'_>, mapping: &ThreadMapping, start: CoreId) -> Vec<CoreId> {
        let fp = ctx.system.floorplan();
        let mut region = Vec::new();
        let mut seen = vec![false; fp.core_count()];
        let mut queue = VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(core) = queue.pop_front() {
            if mapping.is_free(core) {
                region.push(core);
            }
            for n in fp.neighbors(core) {
                if !seen[n.index()] && mapping.is_free(n) {
                    seen[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        region
    }
}

impl Policy for ReferenceVaa {
    fn name(&self) -> &str {
        "VAA"
    }

    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping {
        let system = ctx.system;
        let fp = system.floorplan();
        let mut mapping = ThreadMapping::empty(fp.core_count());
        let mut candidates_evaluated: u64 = 0;
        for app in workload.applications() {
            if mapping.active_cores() >= system.budget().max_on() {
                break;
            }
            let Some(start) = Self::first_node(ctx, &mapping) else {
                break;
            };
            let mut threads: Vec<_> = app
                .threads()
                .map(|(tid, p)| (p.min_frequency(), tid))
                .collect();
            threads.sort_unstable_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .expect("frequencies are finite")
                    .then(a.1.cmp(&b.1))
            });
            for (required, tid) in threads {
                if mapping.active_cores() >= system.budget().max_on() {
                    break;
                }
                let region = Self::region(ctx, &mapping, start);
                let window = region.len().min(4);
                candidates_evaluated += window as u64;
                let near_best = region[..window]
                    .iter()
                    .copied()
                    .filter(|&c| system.can_host(c, required))
                    .max_by(|&a, &b| {
                        system
                            .aged_fmax(a)
                            .partial_cmp(&system.aged_fmax(b))
                            .expect("frequencies are finite")
                    });
                let chosen = near_best.or_else(|| {
                    fp.cores()
                        .filter(|&c| mapping.is_free(c) && system.can_host(c, required))
                        .max_by(|&a, &b| {
                            system
                                .aged_fmax(a)
                                .partial_cmp(&system.aged_fmax(b))
                                .expect("frequencies are finite")
                        })
                });
                if let Some(core) = chosen {
                    mapping.assign(tid, core);
                }
            }
        }
        ctx.recorder
            .counter("policy.vaa.candidates_evaluated", candidates_evaluated);
        mapping
    }
}

/// The expensive per-mesh parts of a system (chip stream, RC network,
/// learned predictor), built once per mesh and shared by every case.
struct MeshParts {
    config: SimulationConfig,
    stream: ChipStream,
    network: Arc<RcNetwork>,
    predictor: Arc<ThermalPredictor>,
}

impl MeshParts {
    fn new(mesh: (usize, usize)) -> Self {
        let config = SimulationConfig {
            mesh,
            chip_count: 4,
            ..SimulationConfig::paper(0.5)
        };
        let fp = config.floorplan();
        let network = Arc::new(RcNetwork::new(&fp, &config.thermal));
        MeshParts {
            stream: ChipStream::new(&fp, &config.variation, config.variation_seed)
                .expect("the paper's variation parameters are valid"),
            predictor: Arc::new(ThermalPredictor::learn_on(&network)),
            network,
            config,
        }
    }

    /// Chip `chip` of the population at `dark` (with `None`, a chip whose ϑ
    /// field is uniform: every core equally fast, so at equal health every
    /// aged fmax ties), its cores aged to `healths` (cycled).
    fn system(&self, chip: Option<usize>, dark: f64, healths: &[f64]) -> ChipSystem {
        let fp = self.config.floorplan();
        let params = &self.config.variation;
        let chip = chip.map_or_else(
            || {
                let design =
                    CriticalPathMap::synthesize(&fp, params.sites_per_core, params.design_seed);
                let grid = fp.variation_grid().clone();
                let theta = ThetaField::from_values(
                    grid.clone(),
                    fp.cols(),
                    vec![params.mean; grid.cell_count()],
                );
                Chip::from_theta(0, &fp, &design, theta, params)
            },
            |index| self.stream.chip(index),
        );
        let config = SimulationConfig {
            dark_fraction: dark,
            ..self.config.clone()
        };
        let mut system = ChipSystem::from_parts(
            fp,
            chip,
            &config,
            Arc::clone(&self.network),
            Arc::clone(&self.predictor),
            Arc::clone(table()),
        );
        for (i, &h) in (0..system.floorplan().core_count()).zip(healths.iter().cycle()) {
            system.health_mut().set(CoreId::new(i), Health::new(h));
        }
        system
    }
}

/// Square and non-square meshes from 2×2 to 16×16.
const VAA_MESHES: [(usize, usize); 7] =
    [(2, 2), (2, 5), (3, 5), (4, 4), (8, 8), (12, 20), (16, 16)];

fn vaa_mesh(mesh: usize) -> &'static MeshParts {
    static PARTS: [OnceLock<MeshParts>; VAA_MESHES.len()] =
        [const { OnceLock::new() }; VAA_MESHES.len()];
    PARTS[mesh].get_or_init(|| MeshParts::new(VAA_MESHES[mesh]))
}

/// Maps `workload` with `VaaPolicy` (through a scratch last used for
/// `warm_up`, so stale buffers would show) and with [`ReferenceVaa`], and
/// checks both the mapping and the candidate count agree.
fn assert_vaa_matches_reference(
    system: &ChipSystem,
    warm_up: &WorkloadMix,
    workload: &WorkloadMix,
) {
    let scratch = RefCell::new(PolicyScratch::new());
    let fast_rec = MemoryRecorder::new();
    let ref_rec = MemoryRecorder::new();
    let ctx = PolicyContext::new(system, Years::new(1.0), Years::new(0.0)).with_scratch(&scratch);
    let _ = VaaPolicy.map_threads(&ctx, warm_up);
    let fast = VaaPolicy.map_threads(&ctx.with_recorder(&fast_rec), workload);
    let reference = ReferenceVaa.map_threads(&ctx.with_recorder(&ref_rec), workload);
    assert_eq!(fast, reference);
    let evaluated = "policy.vaa.candidates_evaluated";
    assert_eq!(
        fast_rec.summary().counter_total(evaluated),
        ref_rec.summary().counter_total(evaluated)
    );
}

// VAA's incremental first node and bounded region search against the
// per-comparison recount and the full-component BFS they replaced: the
// same mapping on every mesh, dark fraction, aging state and workload.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vaa_maps_like_its_reference(
        mesh in 0usize..VAA_MESHES.len(),
        chip in 0usize..5,
        dark in 0.0f64..=0.9,
        healths in prop::collection::vec(0.8f64..=1.0, 1..=64),
        load in 0.05f64..=1.2,
        seed in 0u64..1_000,
    ) {
        // Chip 4 stands for the uniform chip at full health, where the
        // later-core-wins tie rule decides every first node.
        let parts = vaa_mesh(mesh);
        let system = if chip < 4 {
            parts.system(Some(chip), dark, &healths)
        } else {
            parts.system(None, dark, &[1.0])
        };
        let n = system.floorplan().core_count();
        let threads = ((n as f64 * load).ceil() as usize).max(1);
        let warm_up = WorkloadMix::generate(seed + 1, threads);
        assert_vaa_matches_reference(&system, &warm_up, &WorkloadMix::generate(seed, threads));
    }
}

/// A few fixed 32×32 cases, outside the proptest so tier-1 stays fast:
/// fresh, aged and uniform chips at the three dark fractions.
#[test]
fn vaa_maps_like_its_reference_at_32x32() {
    let parts = MeshParts::new((32, 32));
    let aged: Vec<f64> = (0..37).map(|i| 0.8 + 0.2 * f64::from(i) / 36.0).collect();
    for (chip, dark, healths, seed) in [
        (Some(0), 0.75, &[1.0][..], 3),
        (Some(1), 0.5, &aged[..], 5),
        (Some(2), 0.25, &aged[..], 7),
        (None, 0.75, &[1.0][..], 9),
    ] {
        let system = parts.system(chip, dark, healths);
        let threads = system.budget().max_on();
        assert_vaa_matches_reference(
            &system,
            &WorkloadMix::generate(seed + 1, threads),
            &WorkloadMix::generate(seed, threads),
        );
    }
}

// A non-proptest sanity anchor so this file also runs under `--test-threads=1`
// quickly when filtering.
#[test]
fn shared_table_generates_once() {
    assert!(table().len() > 1000);
    let _ = Floorplan::paper_8x8();
}
