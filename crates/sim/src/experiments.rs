//! One function per table/figure of the paper's evaluation (Section 4).
//!
//! Every figure reports, for the three parameter sets, the percentage of
//! queries resolved by single-peer verification, multi-peer verification,
//! and the server, as one simulation parameter sweeps:
//!
//! | Figure | Sweep | Area |
//! |---|---|---|
//! | 9 / 10 | `Tx_Range` 20–200 m | 2×2 / 30×30 mi |
//! | 11 / 12 | `C_Size` 1–9 / 4–20 | 2×2 / 30×30 mi |
//! | 13 / 14 | `M_Velocity` 10–50 mph | 2×2 / 30×30 mi |
//! | 15 / 16 | `k` 1–9 / 3–15 | 2×2 / 30×30 mi |
//! | 17 | `k` 4–14: EINN vs INN page accesses | all parameter sets |
//! | §4.3 | road-network vs free-movement SQRR | both areas |
//!
//! County-scale (30×30-mile) scenarios are scaled down by a configurable
//! density-preserving divisor (see [`SimParams::scaled_down`]) so a full
//! sweep finishes in minutes; `ExpOptions { scale_30mi: 1.0, .. }`
//! reproduces the unscaled Table 4 worlds.

use crate::metrics::Metrics;
use crate::params::{ParamSet, SimParams};
use crate::simulator::{CachePolicy, MovementMode, SimConfig, Simulator};
use senn_core::multiple::RegionMethod;

/// Options shared by all experiment drivers.
#[derive(Clone, Copy, Debug)]
pub struct ExpOptions {
    /// Master seed.
    pub seed: u64,
    /// Density-preserving scale-down divisor for the 30×30-mile sets.
    pub scale_30mi: f64,
    /// Simulated hours for 2×2-mile runs (paper: 1).
    pub hours_2mi: f64,
    /// Simulated hours for 30×30-mile runs (paper: 5; default 1 to match
    /// the scaled world's faster warm-up).
    pub hours_30mi: f64,
    /// Independent replications per point (different seeds); counters are
    /// pooled, so reported rates are query-weighted means.
    pub reps: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            seed: 20060403,
            scale_30mi: 100.0,
            hours_2mi: 1.0,
            hours_30mi: 1.0,
            reps: 1,
        }
    }
}

impl ExpOptions {
    /// Tiny durations for smoke tests.
    pub fn quick() -> Self {
        ExpOptions {
            seed: 7,
            scale_30mi: 400.0,
            hours_2mi: 0.05,
            hours_30mi: 0.05,
            reps: 1,
        }
    }
}

/// One x-position of a query-mix figure.
#[derive(Clone, Copy, Debug)]
pub struct MixPoint {
    /// The swept parameter value (meters, items, mph or k).
    pub x: f64,
    /// Percent of queries solved by single-peer verification.
    pub single_pct: f64,
    /// Percent solved by multi-peer verification.
    pub multi_pct: f64,
    /// Percent solved by the server (the SQRR).
    pub server_pct: f64,
    /// Total queries behind this point.
    pub queries: u64,
}

/// One parameter set's series in a figure.
#[derive(Clone, Debug)]
pub struct MixSeries {
    /// Which county-derived parameter set the series belongs to.
    pub set: ParamSet,
    /// One point per swept x value.
    pub points: Vec<MixPoint>,
}

/// One x-position of the Figure 17 page-access comparison.
#[derive(Clone, Copy, Debug)]
pub struct PageAccessPoint {
    /// The fixed query k behind this point.
    pub k: usize,
    /// Mean R\*-tree node accesses per server query, EINN.
    pub einn: f64,
    /// Mean R\*-tree node accesses per server query, baseline INN.
    pub inn: f64,
    /// Server-bound queries behind this point.
    pub queries: u64,
}

/// Section 4.3's road-vs-free movement comparison entry.
#[derive(Clone, Copy, Debug)]
pub struct ModeComparison {
    /// Parameter set.
    pub set: ParamSet,
    /// Side of the simulated area in miles (after scaling).
    pub area_miles: f64,
    /// SQRR under road-network movement.
    pub road_sqrr: f64,
    /// SQRR under free movement.
    pub free_sqrr: f64,
}

fn base_params(opts: &ExpOptions, set: ParamSet, large: bool) -> SimParams {
    if large {
        let mut p = SimParams::thirty_by_thirty(set).scaled_down(opts.scale_30mi);
        p.t_execution_hours = opts.hours_30mi;
        p
    } else {
        let mut p = SimParams::two_by_two(set);
        p.t_execution_hours = opts.hours_2mi;
        p
    }
}

fn mix_point(x: f64, metrics: &Metrics) -> MixPoint {
    MixPoint {
        x,
        single_pct: metrics.single_peer_rate() * 100.0,
        multi_pct: metrics.multi_peer_rate() * 100.0,
        server_pct: metrics.sqrr() * 100.0,
        queries: metrics.queries,
    }
}

fn run_config_reps(cfg: SimConfig, reps: usize) -> Metrics {
    run_config_reps_timed(cfg, reps).0
}

/// [`run_config_reps`], with the wall seconds the execute phase took over
/// all repetitions.
fn run_config_reps_timed(mut cfg: SimConfig, reps: usize) -> (Metrics, f64) {
    let mut total = Metrics::new();
    let mut exec_secs = 0.0;
    let base = cfg.seed;
    for r in 0..reps.max(1) {
        cfg.seed = base.wrapping_add(r as u64 * 7919);
        let mut sim = Simulator::new(cfg);
        total.merge(&sim.run());
        exec_secs += sim.batch_stats().exec_secs;
    }
    (total, exec_secs)
}

/// Shared sweep driver: mutate the config per x value, run, collect.
fn sweep<F>(opts: &ExpOptions, large: bool, xs: &[f64], mut tweak: F) -> Vec<MixSeries>
where
    F: FnMut(&mut SimConfig, f64),
{
    ParamSet::ALL
        .iter()
        .map(|&set| {
            let points = xs
                .iter()
                .map(|&x| {
                    let mut cfg = SimConfig::new(base_params(opts, set, large), opts.seed);
                    cfg.compare_inn = false; // mix figures don't need the shadow INN
                    tweak(&mut cfg, x);
                    mix_point(x, &run_config_reps(cfg, opts.reps))
                })
                .collect();
            MixSeries { set, points }
        })
        .collect()
}

/// The transmission-range x values of Figures 9/10 (meters).
pub const TX_RANGE_SWEEP: [f64; 10] = [
    20.0, 40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0,
];

/// Figure 9: query mix vs transmission range, 2×2-mile area.
pub fn fig9(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, false, &TX_RANGE_SWEEP, |cfg, x| {
        cfg.params.tx_range_m = x
    })
}

/// Figure 10: query mix vs transmission range, 30×30-mile area.
pub fn fig10(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, true, &TX_RANGE_SWEEP, |cfg, x| {
        cfg.params.tx_range_m = x
    })
}

/// Figure 11: query mix vs cache capacity (1–9 items), 2×2-mile area.
pub fn fig11(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, false, &[1.0, 3.0, 5.0, 7.0, 9.0], |cfg, x| {
        cfg.params.c_size = x as usize
    })
}

/// Figure 12: query mix vs cache capacity (4–20 items), 30×30-mile area.
pub fn fig12(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, true, &[4.0, 8.0, 12.0, 16.0, 20.0], |cfg, x| {
        cfg.params.c_size = x as usize
    })
}

/// The velocity x values of Figures 13/14 (mph).
pub const VELOCITY_SWEEP: [f64; 9] = [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0];

/// Figure 13: query mix vs movement velocity, 2×2-mile area.
pub fn fig13(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, false, &VELOCITY_SWEEP, |cfg, x| {
        cfg.params.m_velocity_mph = x
    })
}

/// Figure 14: query mix vs movement velocity, 30×30-mile area.
pub fn fig14(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, true, &VELOCITY_SWEEP, |cfg, x| {
        cfg.params.m_velocity_mph = x
    })
}

/// Figure 15: query mix vs k, 2×2-mile area. The paper "chose k randomly
/// for each host and each query in the range from 1 to 9", so each x is
/// the upper end of a uniform k range.
pub fn fig15(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, false, &[1.0, 3.0, 5.0, 7.0, 9.0], |cfg, x| {
        cfg.k_choice = crate::simulator::KChoice::Uniform(1, x as usize)
    })
}

/// Figure 16: query mix vs k (range 3..x), 30×30-mile area.
pub fn fig16(opts: &ExpOptions) -> Vec<MixSeries> {
    sweep(opts, true, &[3.0, 6.0, 9.0, 12.0, 15.0], |cfg, x| {
        cfg.k_choice = crate::simulator::KChoice::Uniform(3, x as usize)
    })
}

/// Figure 17: EINN vs INN page accesses per query as a function of k, for
/// all three parameter sets (30×30-mile worlds).
pub fn fig17(opts: &ExpOptions) -> Vec<(ParamSet, Vec<PageAccessPoint>)> {
    ParamSet::ALL
        .iter()
        .map(|&set| {
            let points = [4usize, 6, 8, 10, 12, 14]
                .iter()
                .map(|&k| {
                    let mut cfg = SimConfig::new(base_params(opts, set, true), opts.seed);
                    cfg.k_choice = crate::simulator::KChoice::Fixed(k);
                    cfg.compare_inn = true;
                    let m = run_config_reps(cfg, opts.reps);
                    PageAccessPoint {
                        k,
                        einn: m.einn_pages_per_query(),
                        inn: m.inn_pages_per_query(),
                        queries: m.server,
                    }
                })
                .collect();
            (set, points)
        })
        .collect()
}

/// One row of the design-choice ablation study.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Human-readable variant name.
    pub variant: String,
    /// Percent solved by single-peer verification.
    pub single_pct: f64,
    /// Percent solved by multi-peer verification.
    pub multi_pct: f64,
    /// Percent solved by the server.
    pub server_pct: f64,
    /// Wall time of the execute phase, seconds (summed over repetitions;
    /// this machine's, not a simulated quantity).
    pub exec_secs: f64,
}

/// Ablation of the design choices DESIGN.md calls out, on the 2×2-mile
/// Los Angeles world: certain-region representation (the exact disk union
/// queries run on vs the paper's polygonization, at two vertex counts) and
/// host cache policy (most-recent vs LRU). The region arms resolve almost
/// the same queries; what separates them is `exec_secs`.
pub fn ablation(opts: &ExpOptions) -> Vec<AblationRow> {
    type Tweak = Box<dyn Fn(&mut SimConfig)>;
    let variants: Vec<(&str, Tweak)> = vec![
        (
            "baseline (exact region, most-recent)",
            Box::new(|_: &mut SimConfig| {}),
        ),
        (
            "region: 24-gon polygonization (paper)",
            Box::new(|cfg| cfg.region_method = RegionMethod::Polygonized { vertices: 24 }),
        ),
        (
            "region: 8-gon",
            Box::new(|cfg| cfg.region_method = RegionMethod::Polygonized { vertices: 8 }),
        ),
        (
            "cache: LRU multi-entry",
            Box::new(|cfg| cfg.cache_policy = CachePolicy::Lru),
        ),
    ];
    variants
        .into_iter()
        .map(|(name, tweak)| {
            let mut cfg = SimConfig::new(base_params(opts, ParamSet::LosAngeles, false), opts.seed);
            cfg.compare_inn = false;
            tweak(&mut cfg);
            let (m, exec_secs) = run_config_reps_timed(cfg, opts.reps);
            AblationRow {
                variant: name.to_string(),
                single_pct: m.single_peer_rate() * 100.0,
                multi_pct: m.multi_peer_rate() * 100.0,
                server_pct: m.sqrr() * 100.0,
                exec_secs,
            }
        })
        .collect()
}

/// One row of the accept-uncertain quality study.
#[derive(Clone, Debug)]
pub struct UncertainQualityRow {
    /// Parameter set.
    pub set: ParamSet,
    /// Percent of queries answered with an accepted-uncertain set.
    pub accepted_pct: f64,
    /// Percent of queries still going to the server.
    pub server_pct: f64,
    /// Of the accepted answers, the fraction that exactly equaled the
    /// true kNN set.
    pub exact_rate: f64,
    /// Mean relative distance inflation of the accepted answers.
    pub mean_inflation: f64,
}

/// Extension study: what does accepting uncertain answers (Algorithm 1,
/// line 15) buy, and what does it cost in answer quality? Runs the 2×2
/// worlds with `accept_uncertain` on and grades every accepted answer
/// against ground truth.
pub fn uncertain_quality(opts: &ExpOptions) -> Vec<UncertainQualityRow> {
    ParamSet::ALL
        .iter()
        .map(|&set| {
            let mut cfg = SimConfig::new(base_params(opts, set, false), opts.seed);
            cfg.accept_uncertain = true;
            cfg.compare_inn = false;
            let m = run_config_reps(cfg, opts.reps);
            UncertainQualityRow {
                set,
                accepted_pct: 100.0 * m.accepted_uncertain as f64 / m.queries.max(1) as f64,
                server_pct: m.sqrr() * 100.0,
                exact_rate: m.uncertain_exact_rate(),
                mean_inflation: m.uncertain_mean_inflation(),
            }
        })
        .collect()
}

/// One x-position of the P2P overhead study.
#[derive(Clone, Copy, Debug)]
pub struct OverheadPoint {
    /// Transmission range in meters.
    pub tx_range_m: f64,
    /// Mean peer cache entries received per query (messages).
    pub entries_per_query: f64,
    /// Mean cached NN records received per query (payload volume).
    pub records_per_query: f64,
    /// Server share of queries (what the overhead buys down).
    pub server_pct: f64,
}

/// Extension study: the P2P communication overhead the paper names as the
/// technique's disadvantage, as a function of transmission range (LA 2×2).
/// Shows the trade: more range → more cache entries over the air → fewer
/// server round-trips.
pub fn overhead(opts: &ExpOptions) -> Vec<OverheadPoint> {
    TX_RANGE_SWEEP
        .iter()
        .map(|&tx| {
            let mut cfg = SimConfig::new(base_params(opts, ParamSet::LosAngeles, false), opts.seed);
            cfg.params.tx_range_m = tx;
            cfg.compare_inn = false;
            let m = run_config_reps(cfg, opts.reps);
            OverheadPoint {
                tx_range_m: tx,
                entries_per_query: m.peer_entries_per_query(),
                records_per_query: m.peer_records_per_query(),
                server_pct: m.sqrr() * 100.0,
            }
        })
        .collect()
}

/// One row of the POI-churn / cache-staleness study.
#[derive(Clone, Debug)]
pub struct StalenessRow {
    /// Expected POI relocations per simulated hour.
    pub churn_per_hour: f64,
    /// Cache TTL in seconds (`None` = no invalidation).
    pub ttl_secs: Option<f64>,
    /// Server share of queries.
    pub server_pct: f64,
    /// Fraction of peer-resolved answers that no longer match ground
    /// truth (stale caches certifying outdated objects).
    pub stale_pct: f64,
}

/// Extension study: the paper assumes static POIs and honest caches; this
/// measures what POI churn does to answer correctness, with and without
/// TTL invalidation (LA 2×2 world).
pub fn staleness(opts: &ExpOptions) -> Vec<StalenessRow> {
    let mut out = Vec::new();
    // Churn rates chosen relative to the 16-POI world: 2/h relocates each
    // POI every ~8 hours, 32/h every ~30 minutes.
    for churn in [0.0f64, 2.0, 8.0, 32.0] {
        for ttl in [None, Some(300.0)] {
            if churn == 0.0 && ttl.is_some() {
                continue; // TTL is irrelevant without churn
            }
            let mut cfg = SimConfig::new(base_params(opts, ParamSet::LosAngeles, false), opts.seed);
            cfg.poi_churn_per_hour = churn;
            cfg.cache_ttl_secs = ttl;
            cfg.compare_inn = false;
            let m = run_config_reps(cfg, opts.reps);
            out.push(StalenessRow {
                churn_per_hour: churn,
                ttl_secs: ttl,
                server_pct: m.sqrr() * 100.0,
                stale_pct: m.stale_answer_rate() * 100.0,
            });
        }
    }
    out
}

/// Section 4.3: SQRR under road-network vs free movement, both areas.
pub fn free_movement_comparison(opts: &ExpOptions) -> Vec<ModeComparison> {
    let mut out = Vec::new();
    for large in [false, true] {
        for &set in &ParamSet::ALL {
            let run_mode = |mode| {
                let mut cfg = SimConfig::new(base_params(opts, set, large), opts.seed);
                cfg.mode = mode;
                cfg.compare_inn = false;
                run_config_reps(cfg, opts.reps).sqrr()
            };
            out.push(ModeComparison {
                set,
                area_miles: base_params(opts, set, large).area_miles,
                road_sqrr: run_mode(MovementMode::RoadNetwork),
                free_sqrr: run_mode(MovementMode::FreeMovement),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig9_has_all_series_and_points() {
        let mut opts = ExpOptions::quick();
        opts.hours_2mi = 0.03;
        let series = sweep(&opts, false, &[50.0, 200.0], |cfg, x| {
            cfg.params.tx_range_m = x
        });
        assert_eq!(series.len(), 3);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            for p in &s.points {
                let total = p.single_pct + p.multi_pct + p.server_pct;
                assert!(
                    p.queries == 0 || (total - 100.0).abs() < 1e-6,
                    "mix percentages sum to 100 (got {total})"
                );
            }
        }
    }

    #[test]
    fn transmission_range_helps_in_dense_set() {
        // The headline effect (Fig. 9a): more range → lower SQRR in LA.
        let mut opts = ExpOptions::quick();
        opts.hours_2mi = 0.2;
        let series = sweep(&opts, false, &[20.0, 200.0], |cfg, x| {
            cfg.params.tx_range_m = x
        });
        let la = &series[0];
        assert_eq!(la.set, ParamSet::LosAngeles);
        assert!(
            la.points[1].server_pct <= la.points[0].server_pct,
            "SQRR at 200m ({:.1}) must not exceed SQRR at 20m ({:.1})",
            la.points[1].server_pct,
            la.points[0].server_pct
        );
    }

    #[test]
    fn fig17_quick_einn_beats_inn() {
        let opts = ExpOptions::quick();
        let data = fig17(&opts);
        assert_eq!(data.len(), 3);
        for (_, points) in &data {
            for p in points {
                if p.queries > 0 {
                    assert!(p.einn <= p.inn + 1e-9, "EINN {} vs INN {}", p.einn, p.inn);
                }
            }
        }
    }
}
