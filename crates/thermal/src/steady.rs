//! Steady-state thermal solve.

use crate::config::ThermalConfig;
use crate::profile::TemperatureMap;
use crate::rc_model::RcNetwork;
use hayat_floorplan::Floorplan;
use hayat_units::{Kelvin, Watts};

/// Computes the steady-state (equilibrium) temperature map for a constant
/// per-core power vector.
///
/// This regenerates the paper's steady-state temperature profiles
/// (Fig. 2 d/g/k/n): hand it the power vector implied by a dark-core map
/// and a thread mapping and it returns where the chip settles.
///
/// # Panics
///
/// Panics if `core_power.len()` differs from the floorplan's core count.
///
/// # Example
///
/// ```
/// use hayat_floorplan::Floorplan;
/// use hayat_thermal::{steady_state, ThermalConfig};
/// use hayat_units::Watts;
///
/// let fp = Floorplan::paper_8x8();
/// let cfg = ThermalConfig::paper();
/// let idle = vec![Watts::new(0.019); fp.core_count()];
/// let temps = steady_state(&fp, &cfg, &idle);
/// // A nearly dark chip sits just above ambient.
/// assert!(temps.max() - cfg.ambient < 2.0);
/// ```
#[must_use]
pub fn steady_state(
    floorplan: &Floorplan,
    config: &ThermalConfig,
    core_power: &[Watts],
) -> TemperatureMap {
    let network = RcNetwork::new(floorplan, config);
    steady_state_on(&network, core_power)
}

/// Steady-state solve on a prebuilt [`RcNetwork`], avoiding network
/// reconstruction and refactorization in inner loops (a campaign builds one
/// network and shares it with every chip). Bit-identical to
/// [`steady_state`] on the floorplan and configuration the network was
/// built from.
///
/// # Panics
///
/// Same conditions as [`steady_state`].
#[must_use]
pub fn steady_state_on(network: &RcNetwork, core_power: &[Watts]) -> TemperatureMap {
    let injection = network.injection(core_power);
    let temps = network.solve_steady(&injection);
    TemperatureMap::new(
        temps[..network.core_count()]
            .iter()
            .map(|&t| Kelvin::new(t))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat_floorplan::{CoreId, FloorplanBuilder};

    fn paper_setup() -> (Floorplan, ThermalConfig) {
        (Floorplan::paper_8x8(), ThermalConfig::paper())
    }

    #[test]
    fn zero_power_settles_at_ambient() {
        let (fp, cfg) = paper_setup();
        let temps = steady_state(&fp, &cfg, &vec![Watts::new(0.0); 64]);
        for (_, t) in temps.iter() {
            assert!((t - cfg.ambient).abs() < 1e-6);
        }
    }

    #[test]
    fn more_power_means_higher_temperature() {
        let (fp, cfg) = paper_setup();
        let low = steady_state(&fp, &cfg, &vec![Watts::new(2.0); 64]);
        let high = steady_state(&fp, &cfg, &vec![Watts::new(4.0); 64]);
        assert!(high.mean() > low.mean());
        assert!(high.max() > low.max());
    }

    #[test]
    fn superposition_holds_for_the_linear_network() {
        // The RC network is linear: T(P1 + P2) - Tamb == (T(P1)-Tamb) + (T(P2)-Tamb).
        let (fp, cfg) = paper_setup();
        let mut p1 = vec![Watts::new(0.0); 64];
        let mut p2 = vec![Watts::new(0.0); 64];
        p1[10] = Watts::new(5.0);
        p2[53] = Watts::new(3.0);
        let both: Vec<Watts> = p1.iter().zip(&p2).map(|(&a, &b)| a + b).collect();
        let t1 = steady_state(&fp, &cfg, &p1);
        let t2 = steady_state(&fp, &cfg, &p2);
        let t12 = steady_state(&fp, &cfg, &both);
        let amb = cfg.ambient.value();
        for core in fp.cores() {
            let lhs = t12.core(core).value() - amb;
            let rhs = (t1.core(core).value() - amb) + (t2.core(core).value() - amb);
            assert!((lhs - rhs).abs() < 1e-6, "core {core}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn heat_decays_with_distance_from_the_hot_core() {
        let (fp, cfg) = paper_setup();
        let mut power = vec![Watts::new(0.0); 64];
        let hot = fp.core_at(3, 3).unwrap();
        power[hot.index()] = Watts::new(8.0);
        let temps = steady_state(&fp, &cfg, &power);
        let t_hot = temps.core(hot).value();
        let t_near = temps.core(fp.core_at(3, 4).unwrap()).value();
        let t_far = temps.core(fp.core_at(7, 7).unwrap()).value();
        assert!(t_hot > t_near, "{t_hot} vs {t_near}");
        assert!(t_near > t_far, "{t_near} vs {t_far}");
    }

    #[test]
    fn paper_power_levels_land_in_paper_temperature_band() {
        // Half the chip dark, active cores at a realistic 5-7 W: the paper's
        // Fig. 2 reports steady temperatures of roughly 325-345 K.
        let (fp, cfg) = paper_setup();
        let mut power = vec![Watts::new(0.019); 64];
        for i in 0..32 {
            power[i * 2] = Watts::new(6.0);
        }
        let temps = steady_state(&fp, &cfg, &power);
        assert!(
            temps.max().value() > 325.0 && temps.max().value() < 350.0,
            "peak {} outside plausible band",
            temps.max()
        );
        assert!(
            temps.mean().value() > 320.0 && temps.mean().value() < 345.0,
            "mean {} outside plausible band",
            temps.mean()
        );
    }

    #[test]
    fn clustered_load_runs_hotter_than_spread_load() {
        // The core claim behind dark-core-map optimization: the same total
        // power dissipates better when active cores are spread out.
        let (fp, cfg) = paper_setup();
        let mut clustered = vec![Watts::new(0.019); 64];
        let mut spread = vec![Watts::new(0.019); 64];
        // 16 active cores in a dense 4x4 corner block...
        for r in 0..4 {
            for c in 0..4 {
                clustered[fp.core_at(r, c).unwrap().index()] = Watts::new(7.0);
            }
        }
        // ...vs the same 16 cores on a checkerboard across the whole die.
        for r in 0..8 {
            for c in 0..8 {
                if (r % 2 == 0) && (c % 4 == 0) || (r % 2 == 1) && (c % 4 == 2) {
                    spread[fp.core_at(r, c).unwrap().index()] = Watts::new(7.0);
                }
            }
        }
        let n_spread = spread.iter().filter(|w| w.value() > 1.0).count();
        assert_eq!(n_spread, 16, "checkerboard must activate 16 cores");
        let t_clustered = steady_state(&fp, &cfg, &clustered);
        let t_spread = steady_state(&fp, &cfg, &spread);
        assert!(
            t_clustered.max() > t_spread.max(),
            "clustered peak {} should exceed spread peak {}",
            t_clustered.max(),
            t_spread.max()
        );
    }

    #[test]
    fn works_on_non_square_floorplans() {
        let fp = FloorplanBuilder::new(2, 3).build().unwrap();
        let cfg = ThermalConfig::paper();
        let temps = steady_state(&fp, &cfg, &[Watts::new(3.0); 6]);
        assert_eq!(temps.len(), 6);
        assert!(temps.min() > cfg.ambient);
        let _ = temps.core(CoreId::new(5));
    }
}
