//! Golden attribution tests: fixed-seed scenarios asserting the staged
//! query pipeline reproduces the exact pre-refactor `Resolution`
//! attribution counts and bit-identical `Metrics`.
//!
//! The expected numbers were captured from the pre-pipeline simulator
//! (ad-hoc `SennEngine::query` internals, monolithic `simulator.rs`) and
//! pin every counter the refactor was required to preserve — including the
//! `f64` inflation sum compared by bit pattern. If any of these move, the
//! pipeline is no longer a pure refactor of Algorithm 1's control flow.
//!
//! One pin per scenario has moved since, once: `peer_records_received`
//! (A 3294 → 3308, B 1871 → 1874) when the default certain region became
//! the exact disk union. It certifies a superset of what the 24-gon
//! polygonization does, so the cache extension stores a few more certain
//! NNs and peers hand over a few more records; every attribution count,
//! page count and heap state stayed where it was.

use senn_sim::{CachePolicy, Metrics, MovementMode, ParamSet, SimConfig, SimParams, Simulator};

struct Golden {
    queries: u64,
    single_peer: u64,
    multi_peer: u64,
    accepted_uncertain: u64,
    server: u64,
    einn_accesses: u64,
    inn_accesses: u64,
    peer_entries_received: u64,
    peer_records_received: u64,
    heap_states: [u64; 6],
    peer_answers_graded: u64,
    peer_answers_wrong: u64,
    uncertain_exact: u64,
    uncertain_inflation_bits: u64,
    /// `(k, queries, einn_accesses, inn_accesses)` rows of `per_k`.
    per_k: &'static [(usize, u64, u64, u64)],
}

fn check(label: &str, m: &Metrics, want: &Golden) {
    assert_eq!(m.queries, want.queries, "{label}: queries");
    assert_eq!(m.single_peer, want.single_peer, "{label}: single_peer");
    assert_eq!(m.multi_peer, want.multi_peer, "{label}: multi_peer");
    assert_eq!(
        m.accepted_uncertain, want.accepted_uncertain,
        "{label}: accepted_uncertain"
    );
    assert_eq!(m.server, want.server, "{label}: server");
    assert_eq!(m.einn_accesses, want.einn_accesses, "{label}: einn");
    assert_eq!(m.inn_accesses, want.inn_accesses, "{label}: inn");
    assert_eq!(
        m.peer_entries_received, want.peer_entries_received,
        "{label}: peer entries"
    );
    assert_eq!(
        m.peer_records_received, want.peer_records_received,
        "{label}: peer records"
    );
    assert_eq!(m.heap_states, want.heap_states, "{label}: heap states");
    assert_eq!(
        m.peer_answers_graded, want.peer_answers_graded,
        "{label}: graded"
    );
    assert_eq!(
        m.peer_answers_wrong, want.peer_answers_wrong,
        "{label}: wrong"
    );
    assert_eq!(
        m.uncertain_exact, want.uncertain_exact,
        "{label}: uncertain exact"
    );
    assert_eq!(
        m.uncertain_inflation_sum.to_bits(),
        want.uncertain_inflation_bits,
        "{label}: inflation sum must be bit-identical"
    );
    let per_k: Vec<(usize, u64, u64, u64)> = m
        .per_k
        .iter()
        .map(|(k, s)| (*k, s.queries, s.einn_accesses, s.inn_accesses))
        .collect();
    assert_eq!(per_k, want.per_k, "{label}: per-k breakdown");
    // The pipeline is Euclidean here: the SNNN expansion cap can never
    // fire, and attribution must cover every query exactly once.
    assert_eq!(m.expansion_cap_hits, 0, "{label}: cap hits");
    assert_eq!(
        m.queries,
        m.single_peer + m.multi_peer + m.accepted_uncertain + m.server,
        "{label}: attribution partition"
    );
}

#[test]
fn la_two_by_two_defaults_seed_42() {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.2;
    let m = Simulator::new(SimConfig::new(params, 42)).run();
    check(
        "A",
        &m,
        &Golden {
            queries: 232,
            single_peer: 166,
            multi_peer: 1,
            accepted_uncertain: 0,
            server: 65,
            einn_accesses: 255,
            inn_accesses: 272,
            peer_entries_received: 373,
            peer_records_received: 3308,
            heap_states: [10, 10, 0, 0, 0, 45],
            peer_answers_graded: 0,
            peer_answers_wrong: 0,
            uncertain_exact: 0,
            uncertain_inflation_bits: 0x0,
            per_k: &[
                (1, 18, 36, 36),
                (2, 7, 21, 21),
                (3, 8, 32, 32),
                (4, 9, 45, 45),
                (5, 23, 121, 138),
            ],
        },
    );
}

#[test]
fn la_uncertain_churn_ttl_seed_1234() {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.2;
    let mut cfg = SimConfig::new(params, 1234);
    cfg.accept_uncertain = true;
    cfg.poi_churn_per_hour = 16.0;
    cfg.cache_ttl_secs = Some(240.0);
    let m = Simulator::new(cfg).run();
    check(
        "B",
        &m,
        &Golden {
            queries: 237,
            single_peer: 124,
            multi_peer: 0,
            accepted_uncertain: 25,
            server: 88,
            einn_accesses: 344,
            inn_accesses: 345,
            peer_entries_received: 227,
            peer_records_received: 1874,
            heap_states: [0, 0, 2, 1, 5, 80],
            peer_answers_graded: 124,
            peer_answers_wrong: 24,
            uncertain_exact: 14,
            uncertain_inflation_bits: 0x40159278844b13df,
            per_k: &[
                (1, 19, 38, 38),
                (2, 19, 57, 57),
                (3, 16, 64, 64),
                (4, 18, 90, 90),
                (5, 16, 95, 96),
            ],
        },
    );
}

#[test]
fn la_free_movement_lru_seed_7() {
    let mut params = SimParams::two_by_two(ParamSet::LosAngeles);
    params.t_execution_hours = 0.05;
    let mut cfg = SimConfig::new(params, 7);
    cfg.mode = MovementMode::FreeMovement;
    cfg.cache_policy = CachePolicy::Lru;
    let m = Simulator::new(cfg).run();
    check(
        "C",
        &m,
        &Golden {
            queries: 58,
            single_peer: 19,
            multi_peer: 0,
            accepted_uncertain: 0,
            server: 39,
            einn_accesses: 152,
            inn_accesses: 153,
            peer_entries_received: 21,
            peer_records_received: 195,
            heap_states: [2, 0, 0, 0, 0, 37],
            peer_answers_graded: 0,
            peer_answers_wrong: 0,
            uncertain_exact: 0,
            uncertain_inflation_bits: 0x0,
            per_k: &[
                (1, 10, 20, 20),
                (2, 7, 21, 21),
                (3, 9, 36, 36),
                (4, 2, 10, 10),
                (5, 11, 65, 66),
            ],
        },
    );
}
