//! Network-mode (SNNN) simulator runs on pluggable distance models.
//!
//! The headline claims this suite proves:
//!
//! * the simulator runs Algorithm 2 end-to-end under both road models
//!   (A\*, the reference, and the CH oracle the benchmark runs) — peer
//!   probe, verification, and batched residual rounds through the
//!   configured service;
//! * A\* and the contraction-hierarchy oracle are interchangeable: they
//!   produce **bit-identical whole [`Metrics`]** (they compute the same
//!   distances, so every expansion makes the same decisions);
//! * a fault-free SNNN run records the same Metrics as the Euclidean run
//!   apart from `expansion_cap_hits` — expansion refines the ranking but
//!   never rewrites the paper's accounting unit (the initial round);
//! * Metrics are invariant to worker-thread count and service shard
//!   count, seeded fault injection included (expansion residuals are
//!   submitted on the main thread in plan order);
//! * a starved expansion budget is reported, not silently truncated.

use senn_core::Stage;
use senn_network::{generate_network, ChIndex, GeneratorConfig};
use senn_sim::{
    FaultConfig, Metrics, NetworkModelKind, ParamSet, SimConfig, SimParams, Simulator,
    TransportPolicy,
};

fn base(seed: u64) -> SimConfig {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.05; // 3 simulated minutes
    SimConfig::new(params, seed)
}

fn run(cfg: SimConfig) -> Metrics {
    Simulator::new(cfg).run()
}

/// Runs and also returns the executed SNNN round count.
fn run_counting_rounds(cfg: SimConfig) -> (Metrics, u64) {
    let mut sim = Simulator::new(cfg);
    let m = sim.run();
    (m, sim.batch_stats().snnn_rounds)
}

const MODELS: [NetworkModelKind; 2] = [NetworkModelKind::AStar, NetworkModelKind::Ch];

#[test]
fn snnn_runs_end_to_end_under_every_model() {
    for kind in MODELS {
        let cfg = base(42).to_builder().distance_model(kind).build();
        let (m, rounds) = run_counting_rounds(cfg);
        assert!(m.queries > 0, "{kind:?}: no queries issued");
        assert_eq!(
            m.queries,
            m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
            "{kind:?}: every query attributed exactly once"
        );
        assert!(rounds > 0, "{kind:?}: no expansion rounds executed");
        assert_eq!(
            m.expansion_cap_hits, 0,
            "{kind:?}: the default budget must confirm every expansion \
             (the world has only 16 POIs)"
        );
    }
}

#[test]
fn ch_metrics_are_bit_identical_to_astar() {
    // The hub-label oracle unpacks and folds the same original edge
    // sequence Dijkstra walks, so every exact evaluation — and therefore
    // every expansion decision and the whole Metrics block — coincides
    // with the A* run. CH is paired with the free-flow bound, as A* is,
    // so not even `model_evals_saved` may differ.
    let astar = run(base(42)
        .to_builder()
        .distance_model(NetworkModelKind::AStar)
        .build());
    let ch = run(base(42)
        .to_builder()
        .distance_model(NetworkModelKind::Ch)
        .build());
    assert_eq!(astar, ch, "CH-mode Metrics diverged from A*");
}

#[test]
fn snnn_metrics_match_euclidean_run_modulo_cap_hits() {
    // Expansion only refines which POIs the host would rank first under
    // the road metric; attribution, PAR shadows, cache behavior and peer
    // rates all come from the initial Euclidean round, so a fault-free
    // SNNN run records the same Metrics as the plain run except for the
    // cap-hit counter.
    let euclid = run(base(42));
    for kind in MODELS {
        let mut snnn = run(base(42).to_builder().distance_model(kind).build());
        snnn.expansion_cap_hits = euclid.expansion_cap_hits;
        // The Euclidean run never enters the expansion stage, so its
        // bound-oracle counters are structurally zero; a network run's
        // are not. Normalize them like the cap-hit counter.
        snnn.lb_evals = euclid.lb_evals;
        snnn.model_evals_saved = euclid.model_evals_saved;
        assert_eq!(euclid, snnn, "{kind:?} diverged from the Euclidean run");
    }
}

#[test]
fn network_mode_metrics_are_thread_invariant() {
    let mk = |threads: usize| {
        base(7)
            .to_builder()
            .distance_model(NetworkModelKind::AStar)
            .threads(threads)
            .build()
    };
    let one = run_counting_rounds(mk(1));
    let two = run_counting_rounds(mk(2));
    let four = run_counting_rounds(mk(4));
    assert_eq!(one, two, "1 vs 2 threads");
    assert_eq!(one, four, "1 vs 4 threads");
}

/// An SNNN expansion continues the walk its query's Euclidean round was
/// verified on: every query probes and classifies its peers once, on one
/// worker thread or two, and under the overlapped transport, where a
/// range request can mature intervals later.
#[test]
fn every_query_walks_its_peers_once() {
    for kind in MODELS {
        for threads in [1, 2] {
            for transport in [None, Some(TransportPolicy::default())] {
                let mut cfg = base(42)
                    .to_builder()
                    .distance_model(kind)
                    .threads(threads)
                    .build();
                cfg.transport = transport;
                let mut sim = Simulator::new(cfg);
                sim.run();
                let stats = sim.batch_stats();
                let at = format!("{kind:?}, {threads} threads, transport {transport:?}");
                assert!(stats.snnn_rounds > 0, "{at}: nothing expanded");
                assert_eq!(
                    stats.stage_calls[Stage::PeerProbe as usize],
                    stats.queries,
                    "{at}: peer probes"
                );
                assert_eq!(
                    stats.stage_calls[Stage::SingleVerify as usize],
                    stats.queries,
                    "{at}: candidate tables"
                );
            }
        }
    }
}

/// One range round per expansion: every expansion reads its walk once
/// (every expanded query hands out a road ranking), and under the settled
/// client no interval needs more than two drain passes with parked range
/// requests — one for the expansions of peer-resolved queries, one for
/// those of queries that waited on their own residual. An expansion that
/// parked twice would need a third.
#[test]
fn each_expansion_reads_once_and_parks_at_most_once() {
    for kind in MODELS {
        for transport in [None, Some(TransportPolicy::default())] {
            let mut cfg = base(42).to_builder().distance_model(kind).build();
            cfg.transport = transport;
            // Every k is below the POI count, so no expansion ends before
            // its range round.
            assert!(2 * cfg.params.lambda_knn - 1 < cfg.params.poi_number);
            let mut sim = Simulator::new(cfg);
            let ranked = |sim: &Simulator| {
                let answers = sim.last_answers().iter();
                answers.filter(|a| a.ranking.is_some()).count() as u64
            };
            let mut expansions = 0;
            let mut passes = 0;
            while sim.step() {
                expansions += ranked(&sim);
                let submitted = sim.batch_stats().snnn_submissions;
                if transport.is_none() {
                    assert!(
                        submitted - passes <= 2,
                        "{kind:?}: an expansion parked twice"
                    );
                }
                passes = submitted;
            }
            sim.run();
            expansions += ranked(&sim);
            let stats = sim.batch_stats();
            let at = format!("{kind:?}, transport {transport:?}");
            assert!(expansions > 0, "{at}: nothing expanded");
            assert_eq!(stats.snnn_rounds, expansions, "{at}: range reads");
            assert!(
                stats.snnn_submissions > 0,
                "{at}: no range reached the server"
            );
        }
    }
}

#[test]
fn network_mode_metrics_are_shard_invariant() {
    let mk = |shards: usize| {
        base(11)
            .to_builder()
            .distance_model(NetworkModelKind::Ch)
            .server_shards(shards)
            .build()
    };
    let single = run_counting_rounds(mk(1));
    assert_eq!(single, run_counting_rounds(mk(2)), "1 vs 2 shards");
    assert_eq!(single, run_counting_rounds(mk(3)), "1 vs 3 shards");
}

#[test]
fn starved_expansion_budget_is_reported_not_silent() {
    // A zero round budget cannot confirm any expansion: every eligible
    // query must surface in expansion_cap_hits (the satellite bugfix at
    // the library layer, proven through the full simulator here).
    let starved = run(base(42)
        .to_builder()
        .distance_model(NetworkModelKind::AStar)
        .snnn_max_expansion(0)
        .build());
    assert!(
        starved.expansion_cap_hits > 0,
        "a starved budget must be reported"
    );
    // The generous default confirms everything (only 16 POIs to pull).
    let default = run(base(42)
        .to_builder()
        .distance_model(NetworkModelKind::AStar)
        .build());
    assert_eq!(default.expansion_cap_hits, 0);
    // Everything else is untouched by the budget — modulo the bound
    // oracle counters, which only tick inside the rounds the starved
    // run never executes.
    let mut starved_rest = starved.clone();
    starved_rest.expansion_cap_hits = 0;
    starved_rest.lb_evals = default.lb_evals;
    starved_rest.model_evals_saved = default.model_evals_saved;
    assert_eq!(starved_rest, default);
}

#[test]
fn lossy_service_snnn_run_completes_and_stays_thread_invariant() {
    // Expansion rounds submit their residuals through the same faulty
    // service seam, on the main thread in plan order — so even a lossy
    // schedule reproduces bit-identically across thread counts.
    let mk = |threads: usize| {
        base(7)
            .to_builder()
            .distance_model(NetworkModelKind::AStar)
            .server_shards(2)
            .fault(FaultConfig::lossy(99))
            .threads(threads)
            .build()
    };
    let (a, rounds_a) = run_counting_rounds(mk(1));
    let (b, rounds_b) = run_counting_rounds(mk(4));
    assert_eq!(a, b, "fault schedule must not depend on thread count");
    assert_eq!(rounds_a, rounds_b);
    assert!(a.queries > 0);
    assert!(
        a.server_retries > 0,
        "a lossy service must force some retries"
    );
    assert_eq!(
        a.queries,
        a.single_peer + a.multi_peer + a.server + a.accepted_uncertain,
        "every query attributed exactly once under faults"
    );
}

#[test]
fn ch_mode_is_thread_shard_and_fault_invariant() {
    // The CH oracle is built once with the world from the master seed and
    // only ever read afterwards, so CH-mode runs must reproduce
    // bit-identically across worker-thread and shard counts even under a
    // seeded lossy service.
    let mk = |threads: usize, shards: usize| {
        base(7)
            .to_builder()
            .distance_model(NetworkModelKind::Ch)
            .server_shards(shards)
            .fault(FaultConfig::lossy(99))
            .threads(threads)
            .build()
    };
    let (a, rounds_a) = run_counting_rounds(mk(1, 1));
    let (b, rounds_b) = run_counting_rounds(mk(4, 1));
    let (c, rounds_c) = run_counting_rounds(mk(2, 3));
    assert_eq!(a, b, "1 vs 4 threads");
    assert_eq!(a, c, "1 shard vs 3 shards");
    assert_eq!(rounds_a, rounds_b);
    assert_eq!(rounds_a, rounds_c);
    assert!(a.queries > 0);
    assert!(
        a.server_retries > 0,
        "a lossy service must force some retries"
    );
}

#[test]
fn golden_snnn_attribution_is_pinned() {
    // Golden run: seed 42, LA 2×2, A* model. Pins the exact attribution
    // so any change to planning order, expansion logic or the service
    // seam shows up as a diff here rather than as silent drift. (A* vs
    // CH equality above extends the pin to the CH model.)
    let mut sim = Simulator::new(
        base(42)
            .to_builder()
            .distance_model(NetworkModelKind::AStar)
            .build(),
    );
    let m = sim.run();
    let stats = sim.batch_stats();
    let golden = [
        ("queries", m.queries),
        ("single_peer", m.single_peer),
        ("multi_peer", m.multi_peer),
        ("server", m.server),
        ("einn_accesses", m.einn_accesses),
        ("inn_accesses", m.inn_accesses),
        // One range round per expansion.
        ("snnn_rounds", stats.snnn_rounds),
        // One submission per drain pass that carried parked range
        // requests, not one per request.
        ("snnn_submissions", stats.snnn_submissions),
    ];
    assert_eq!(
        golden,
        [
            ("queries", 65),
            ("single_peer", 17),
            ("multi_peer", 0),
            ("server", 48),
            ("einn_accesses", 193),
            ("inn_accesses", 194),
            ("snnn_rounds", 72),
            ("snnn_submissions", 23),
        ]
    );
}

/// The contraction hierarchy of three networks pinned to fixed values:
/// `signature()` folds the order, every arena edge and every label, so
/// a build that makes any other decision moves it, whatever the speed
/// of the witness searches or the label pruning. The third network is
/// the `downtown_snnn` benchmark world (LA scaled down 50×, the
/// simulator's network seed), built with that run's seed.
#[test]
fn ch_hierarchies_are_pinned() {
    let side = SimParams::thirty_by_thirty(ParamSet::LosAngeles)
        .scaled_down(50.0)
        .area_side_m();
    let seed = 20060402u64;
    // (network, build seed, (signature, nodes, shortcuts, label entries))
    let cases = [
        (
            GeneratorConfig::city(3000.0, 7),
            7,
            (0x3abc9b28ca636055u64, 428, 1081, 9376),
        ),
        (
            GeneratorConfig::city(8000.0, 11),
            11,
            (0x8041521cf3523ef1, 2823, 10094, 147510),
        ),
        (
            GeneratorConfig::city(side, seed ^ 0x9e37),
            seed,
            (0xe9cd7f1a43a40045, 2064, 7311, 95685),
        ),
    ];
    for (cfg, build_seed, want) in cases {
        let idx = ChIndex::build_seeded(&generate_network(&cfg), build_seed);
        let got = (
            idx.signature(),
            idx.order().len(),
            idx.shortcut_count(),
            idx.label_entries(),
        );
        assert_eq!(got, want, "the hierarchy of a {} m city moved", cfg.width);
    }
}
