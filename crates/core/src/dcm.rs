//! Dark Core Maps (Section I-A, Section II).

use hayat_floorplan::{CoreId, Floorplan};
use hayat_thermal::ThermalPredictor;
use hayat_units::Watts;
use hayat_variation::Chip;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Dark Core Map: "the core power state map with a sub-set of cores being
/// kept 'dark' such that `T_peak < T_safe`" (Section I-A).
///
/// Several construction strategies are provided, matching the paper's
/// analysis in Section II and Fig. 2:
///
/// * [`contiguous`](DarkCoreMap::contiguous) — a dense block of on-cores
///   (Fig. 2(a)); runs hot and triggers DTM,
/// * [`checkerboard`](DarkCoreMap::checkerboard) — a naive spread pattern,
/// * [`random`](DarkCoreMap::random) — a seeded random pattern,
/// * [`variation_temperature_aware`](DarkCoreMap::variation_temperature_aware)
///   — the greedy optimizer behind Fig. 2(h)/(p): picks on-cores one by one,
///   trading predicted temperature against the core's variation-dependent
///   frequency, so the DCM differs chip to chip.
///
/// # Example
///
/// ```
/// use hayat::DarkCoreMap;
/// use hayat_floorplan::Floorplan;
///
/// let fp = Floorplan::paper_8x8();
/// let dcm = DarkCoreMap::checkerboard(&fp, 32);
/// assert_eq!(dcm.on_count(), 32);
/// assert_eq!(dcm.dark_count(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DarkCoreMap {
    /// `true` = powered on; indexed by core id.
    on: Vec<bool>,
}

impl DarkCoreMap {
    /// Builds a map from an explicit on-core list.
    ///
    /// # Panics
    ///
    /// Panics if a core id repeats or exceeds `cores`.
    #[must_use]
    pub fn from_on_cores(cores: usize, on_cores: &[CoreId]) -> Self {
        let mut on = vec![false; cores];
        for &c in on_cores {
            assert!(c.index() < cores, "core {c} out of range");
            assert!(!on[c.index()], "core {c} listed twice");
            on[c.index()] = true;
        }
        DarkCoreMap { on }
    }

    /// A dense row-major block of `n_on` on-cores starting at core 0 —
    /// the contiguous DCM of Fig. 2(a).
    ///
    /// # Panics
    ///
    /// Panics if `n_on` exceeds the core count.
    #[must_use]
    pub fn contiguous(floorplan: &Floorplan, n_on: usize) -> Self {
        let n = floorplan.core_count();
        assert!(n_on <= n, "cannot power {n_on} of {n} cores");
        DarkCoreMap {
            on: (0..n).map(|i| i < n_on).collect(),
        }
    }

    /// A checkerboard-style spread of `n_on` on-cores: cores are ranked by
    /// `(row + col) parity` then position, so on-cores interleave with dark
    /// cores as much as the count allows.
    ///
    /// # Panics
    ///
    /// Panics if `n_on` exceeds the core count.
    #[must_use]
    pub fn checkerboard(floorplan: &Floorplan, n_on: usize) -> Self {
        let n = floorplan.core_count();
        assert!(n_on <= n, "cannot power {n_on} of {n} cores");
        let mut order: Vec<CoreId> = floorplan.cores().collect();
        order.sort_by_key(|&c| {
            let p = floorplan.position(c);
            ((p.row + p.col) % 2, p.row, p.col)
        });
        DarkCoreMap::from_on_cores(n, &order[..n_on])
    }

    /// A seeded random pattern of `n_on` on-cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_on` exceeds the core count.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(floorplan: &Floorplan, n_on: usize, rng: &mut R) -> Self {
        let n = floorplan.core_count();
        assert!(n_on <= n, "cannot power {n_on} of {n} cores");
        let mut order: Vec<CoreId> = floorplan.cores().collect();
        order.shuffle(rng);
        DarkCoreMap::from_on_cores(n, &order[..n_on])
    }

    /// The variation- and temperature-aware DCM optimizer of Section II:
    /// greedily selects `n_on` on-cores, at each step choosing the core that
    /// maximizes a capped frequency score minus a temperature penalty from
    /// the superposition predictor, given the cores already selected (each
    /// assumed to dissipate `per_core_power`).
    ///
    /// The frequency term is capped at the chip's 75th fmax percentile —
    /// "fast enough" cores score alike, so the temperature term decides
    /// among them — and the chip's frequency elite (top ~8%) is penalized
    /// so the fastest cores stay dark, preserved "to fulfill the deadline
    /// constraints of a critical application" (Section II). This is what
    /// makes Fig. 2(o)'s DCM-2 hold its maximum frequency over 10 years
    /// while DCM-1 burns it.
    ///
    /// `lambda_ghz_per_kelvin` converts kelvins of predicted rise into GHz
    /// of penalty; the paper-scale default used by the run-time system is
    /// 0.05 GHz/K.
    ///
    /// # Panics
    ///
    /// Panics if `n_on` exceeds the core count.
    #[must_use]
    pub fn variation_temperature_aware(
        floorplan: &Floorplan,
        chip: &Chip,
        predictor: &ThermalPredictor,
        n_on: usize,
        per_core_power: Watts,
        lambda_ghz_per_kelvin: f64,
    ) -> Self {
        /// Penalty per GHz beyond the preserve threshold.
        const EXCESS_PENALTY: f64 = 3.0;
        let n = floorplan.core_count();
        assert!(n_on <= n, "cannot power {n_on} of {n} cores");
        let (cap, preserve) = {
            let mut freqs: Vec<f64> = floorplan.cores().map(|c| chip.fmax(c).value()).collect();
            freqs.sort_by(f64::total_cmp);
            let pick = |q: f64| freqs[((q * (n - 1) as f64).round() as usize).min(n - 1)];
            (pick(0.75), pick(0.92))
        };
        let mut selected: Vec<CoreId> = Vec::with_capacity(n_on);
        let mut power = vec![Watts::new(0.0); n];
        for _ in 0..n_on {
            let mut best: Option<(f64, CoreId)> = None;
            for core in floorplan.cores() {
                if selected.contains(&core) {
                    continue;
                }
                // Predicted temperature at this core if it joins the set.
                // (The constant ambient offset drops out of the argmax.)
                let mut tentative = power.clone();
                tentative[core.index()] = per_core_power;
                let temps = predictor.predict(floorplan, &tentative);
                let f = chip.fmax(core).value();
                let score = f.min(cap)
                    - EXCESS_PENALTY * (f - preserve).max(0.0)
                    - lambda_ghz_per_kelvin * temps.core(core).value();
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, core));
                }
            }
            let (_, core) = best.expect("at least one unselected core remains");
            selected.push(core);
            power[core.index()] = per_core_power;
        }
        DarkCoreMap::from_on_cores(n, &selected)
    }

    /// Number of cores covered by the map.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.on.len()
    }

    /// `true` if `core` is powered on (`ps_i = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn is_on(&self, core: CoreId) -> bool {
        self.on[core.index()]
    }

    /// Number of powered-on cores (`N_on`).
    #[must_use]
    pub fn on_count(&self) -> usize {
        self.on.iter().filter(|&&b| b).count()
    }

    /// Number of dark cores (`N_off`).
    #[must_use]
    pub fn dark_count(&self) -> usize {
        self.on.len() - self.on_count()
    }

    /// Iterator over the powered-on cores.
    pub fn on_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.on
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| b)
            .map(|(i, &_b)| CoreId::new(i))
    }

    /// Iterator over the dark cores.
    pub fn dark_cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.on
            .iter()
            .enumerate()
            .filter(|&(_i, &b)| !b)
            .map(|(i, &_b)| CoreId::new(i))
    }

    /// Turns a core on.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn power_on(&mut self, core: CoreId) {
        self.on[core.index()] = true;
    }

    /// Gates a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn power_off(&mut self, core: CoreId) {
        self.on[core.index()] = false;
    }

    /// Mean pairwise mesh distance between on-cores — a spread measure used
    /// by tests, the DCM ablation among them (contiguous maps score low,
    /// optimized maps score high).
    #[must_use]
    pub fn spread(&self, floorplan: &Floorplan) -> f64 {
        let on: Vec<CoreId> = self.on_cores().collect();
        if on.len() < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        let mut pairs = 0usize;
        for (i, &a) in on.iter().enumerate() {
            for &b in &on[i + 1..] {
                total += floorplan.mesh_distance(a, b);
                pairs += 1;
            }
        }
        total as f64 / pairs as f64
    }
}

impl fmt::Display for DarkCoreMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DCM[{} on / {} dark]",
            self.on_count(),
            self.dark_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat_thermal::ThermalConfig;
    use hayat_variation::{ChipPopulation, VariationParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp() -> Floorplan {
        Floorplan::paper_8x8()
    }

    #[test]
    fn contiguous_fills_row_major() {
        let dcm = DarkCoreMap::contiguous(&fp(), 32);
        assert_eq!(dcm.on_count(), 32);
        assert!(dcm.is_on(CoreId::new(0)));
        assert!(dcm.is_on(CoreId::new(31)));
        assert!(!dcm.is_on(CoreId::new(32)));
    }

    #[test]
    fn checkerboard_spreads_wider_than_contiguous() {
        let f = fp();
        let dense = DarkCoreMap::contiguous(&f, 32);
        let spread = DarkCoreMap::checkerboard(&f, 32);
        assert_eq!(spread.on_count(), 32);
        assert!(
            spread.spread(&f) > dense.spread(&f),
            "checkerboard {} vs contiguous {}",
            spread.spread(&f),
            dense.spread(&f)
        );
    }

    #[test]
    fn random_is_seeded() {
        let f = fp();
        let a = DarkCoreMap::random(&f, 16, &mut StdRng::seed_from_u64(5));
        let b = DarkCoreMap::random(&f, 16, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
        assert_eq!(a.on_count(), 16);
    }

    #[test]
    fn power_toggles() {
        let mut dcm = DarkCoreMap::contiguous(&fp(), 0);
        assert_eq!(dcm.on_count(), 0);
        dcm.power_on(CoreId::new(7));
        assert!(dcm.is_on(CoreId::new(7)));
        dcm.power_off(CoreId::new(7));
        assert_eq!(dcm.on_count(), 0);
    }

    #[test]
    fn iterators_partition_cores() {
        let dcm = DarkCoreMap::checkerboard(&fp(), 20);
        let on: Vec<_> = dcm.on_cores().collect();
        let dark: Vec<_> = dcm.dark_cores().collect();
        assert_eq!(on.len(), 20);
        assert_eq!(dark.len(), 44);
        for c in &on {
            assert!(!dark.contains(c));
        }
    }

    #[test]
    fn optimized_dcm_differs_per_chip_and_spreads() {
        let f = fp();
        let cfg = ThermalConfig::paper();
        let predictor = ThermalPredictor::learn(&f, &cfg);
        let pop = ChipPopulation::generate(&f, &VariationParams::paper(), 2, 77).unwrap();
        let mk = |chip| {
            DarkCoreMap::variation_temperature_aware(
                &f,
                chip,
                &predictor,
                32,
                Watts::new(6.0),
                0.05,
            )
        };
        let a = mk(&pop.chips()[0]);
        let b = mk(&pop.chips()[1]);
        assert_eq!(a.on_count(), 32);
        // Process variation makes the optimized DCM chip-specific (Fig. 2 h vs p).
        assert_ne!(a, b);
        // And it spreads load better than the dense map.
        let dense = DarkCoreMap::contiguous(&f, 32);
        assert!(a.spread(&f) > dense.spread(&f));
    }

    #[test]
    #[should_panic(expected = "cannot power")]
    fn too_many_on_cores_panics() {
        let _ = DarkCoreMap::contiguous(&fp(), 65);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_on_core_panics() {
        let _ = DarkCoreMap::from_on_cores(4, &[CoreId::new(1), CoreId::new(1)]);
    }

    #[test]
    fn display() {
        assert_eq!(
            DarkCoreMap::contiguous(&fp(), 32).to_string(),
            "DCM[32 on / 32 dark]"
        );
    }
}
