//! The parallel batch engine must be a pure optimization: for any seed,
//! movement mode and cache policy, fanning a batch across worker threads
//! must produce **bit-identical** metrics to `threads = 1`, where every
//! fan-out is a plain loop on the caller (the sequential mode).
//!
//! This is the contract that keeps experiments reproducible from the seed
//! alone, no matter the core count of the machine that ran them.

use senn_sim::{CachePolicy, Metrics, MovementMode, ParamSet, SimConfig, SimParams, Simulator};

fn run_with_threads(mut cfg: SimConfig, threads: usize) -> Metrics {
    cfg.threads = Some(threads);
    Simulator::new(cfg).run()
}

fn assert_identical(seq: &Metrics, par: &Metrics, label: &str) {
    assert_eq!(seq, par, "{label}: parallel metrics diverged");
    // `Metrics: PartialEq` already compares the f64 sum by value; pin the
    // stronger bit-level claim explicitly.
    assert_eq!(
        seq.uncertain_inflation_sum.to_bits(),
        par.uncertain_inflation_sum.to_bits(),
        "{label}: f64 accumulation order leaked into the inflation sum"
    );
}

#[test]
fn parallel_metrics_match_sequential_across_seeds_modes_and_policies() {
    for seed in [1u64, 7, 42] {
        for mode in [MovementMode::RoadNetwork, MovementMode::FreeMovement] {
            for policy in [CachePolicy::MostRecent, CachePolicy::Lru] {
                let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
                params.t_execution_hours = 0.05;
                let mut cfg = SimConfig::new(params, seed);
                cfg.mode = mode;
                cfg.cache_policy = policy;
                let label = format!("seed={seed} mode={mode:?} policy={policy:?}");
                let seq = run_with_threads(cfg, 1);
                assert!(seq.queries > 0, "{label}: empty run proves nothing");
                for threads in [2, 4, 7] {
                    let par = run_with_threads(cfg, threads);
                    assert_identical(&seq, &par, &format!("{label} threads={threads}"));
                }
            }
        }
    }
}

/// The uncertain-answer grading path accumulates an `f64` sum per query —
/// the most order-sensitive metric. Exercise it explicitly together with
/// POI churn and TTL invalidation.
#[test]
fn parallel_metrics_match_with_uncertainty_churn_and_ttl() {
    let mut params = SimParams::two_by_two(ParamSet::Riverside);
    params.t_execution_hours = 0.1;
    let mut cfg = SimConfig::new(params, 1234);
    cfg.accept_uncertain = true;
    cfg.poi_churn_per_hour = 16.0;
    cfg.cache_ttl_secs = Some(240.0);
    let seq = run_with_threads(cfg, 1);
    assert!(seq.queries > 0);
    for threads in [3, 8] {
        let par = run_with_threads(cfg, threads);
        assert_identical(&seq, &par, &format!("uncertain/churn threads={threads}"));
    }
}
