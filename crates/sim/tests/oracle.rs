//! The correctness oracle: every answer the peers give is the true kNN.
//!
//! Lemmas 3.2 and 3.8 promise that a peer-resolved answer (`SinglePeer`,
//! `MultiPeer`) equals what the server would have said. This steps short
//! simulations interval by interval and grades each such answer against a
//! linear scan over `poi_positions()` — no R\*-tree, no cache, no code
//! shared with the pipeline. It is the gate for changes that are *not*
//! bit-identical (another certain region, another cache extension): those
//! may certify more, never something wrong. A wrong certification anywhere
//! surfaces here, also when it first only lands in a cache: the cached
//! entry then certifies a wrong answer for a later querier.

use senn_core::multiple::RegionMethod;
use senn_core::Resolution;
use senn_geom::Point;
use senn_sim::{Answer, KChoice, MovementMode, ParamSet, SimConfig, SimParams, Simulator};

/// Distances from `query` to its `k` nearest POIs, ascending.
fn linear_scan_knn(pois: &[Point], query: Point, k: usize) -> Vec<f64> {
    let mut dists: Vec<f64> = pois.iter().map(|p| query.dist(*p)).collect();
    dists.sort_by(f64::total_cmp);
    dists.truncate(k);
    dists
}

/// True when `answer` names real POIs at their real distances and those
/// are the `k` smallest there are.
fn is_true_knn(pois: &[Point], answer: &Answer) -> bool {
    let truth = linear_scan_knn(pois, answer.query, answer.k);
    answer.results.len() == truth.len()
        && answer.results.iter().zip(&truth).all(|(got, want)| {
            pois.get(got.poi.poi_id as usize) == Some(&got.poi.position)
                && got.certain
                && (got.dist - want).abs() <= 1e-9
        })
}

/// Steps `cfg` to its horizon; returns (peer-resolved answers graded, of
/// which multi-peer, wrong ones as text).
fn grade_run(cfg: SimConfig, label: &str) -> (u64, u64, Vec<String>) {
    let mut sim = Simulator::new(cfg);
    let (mut graded, mut multi, mut wrong) = (0, 0, Vec::new());
    while sim.step() {
        for answer in sim.last_answers() {
            if !matches!(
                answer.resolution,
                Resolution::SinglePeer | Resolution::MultiPeer
            ) {
                continue;
            }
            graded += 1;
            multi += (answer.resolution == Resolution::MultiPeer) as u64;
            if !is_true_knn(sim.poi_positions(), answer) {
                wrong.push(format!("{label} t={:.1}s: {answer:?}", sim.time()));
            }
        }
    }
    let m = sim.run();
    assert!(m.queries > 0, "{label}: empty run proves nothing");
    assert_eq!(
        m.queries,
        m.single_peer + m.multi_peer + m.server + m.accepted_uncertain,
        "{label}: every query is attributed exactly once"
    );
    (graded, multi, wrong)
}

#[test]
fn peer_resolved_answers_equal_the_linear_scan_knn() {
    let methods = [
        RegionMethod::Exact,
        RegionMethod::Polygonized { vertices: 24 },
    ];
    let k_choices = [
        KChoice::Fixed(1),
        KChoice::MeanLambda,
        KChoice::Uniform(3, 9),
    ];
    let (mut configs, mut graded, mut multi) = (0u64, 0, 0);
    let mut wrong = Vec::new();
    for mode in [MovementMode::RoadNetwork, MovementMode::FreeMovement] {
        for method in methods {
            for k_choice in k_choices {
                for threads in [1, 2] {
                    // Dense peers, so most answers come from them and the
                    // multi-peer stage and the cache extension both run.
                    let mut params =
                        SimParams::thirty_by_thirty(ParamSet::LosAngeles).scaled_down(50.0);
                    params.t_execution_hours = 0.25;
                    let mut cfg = SimConfig::new(params, 0x0eac1e + configs);
                    cfg.mode = mode;
                    cfg.region_method = method;
                    cfg.k_choice = k_choice;
                    cfg.threads = Some(threads);
                    cfg.accept_uncertain = false;
                    cfg.compare_inn = false;
                    let label = format!(
                        "config {configs} ({mode:?}, {method:?}, {k_choice:?}, threads {threads})"
                    );
                    let (g, m, w) = grade_run(cfg, &label);
                    configs += 1;
                    graded += g;
                    multi += m;
                    wrong.extend(w);
                }
            }
        }
    }
    assert!(configs >= 24);
    // The worlds reach what they are meant to grade.
    assert!(
        graded > 1000 && multi > 10,
        "graded {graded}, multi {multi}"
    );
    println!("graded {graded} peer-resolved answers ({multi} multi-peer) over {configs} configs");
    assert!(
        wrong.is_empty(),
        "{} of {graded} peer-resolved answers are not the true kNN:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}
