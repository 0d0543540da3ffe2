//! Quickstart: share kNN results between two mobile hosts.
//!
//! A peer that recently ran a 3NN query for gas stations drives past our
//! querier; the querier verifies its own 2NN query entirely from the
//! peer's cache — no server round-trip.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mobishare_senn::core::prelude::*;
use mobishare_senn::geom::Point;

fn main() {
    // Gas stations along a street (the remote database's content).
    let stations = [
        ("Shell", Point::new(120.0, 40.0)),
        ("Mobil", Point::new(400.0, 80.0)),
        ("Arco", Point::new(650.0, 20.0)),
        ("Chevron", Point::new(900.0, 60.0)),
    ];
    let server = RTreeServer::new(
        stations
            .iter()
            .enumerate()
            .map(|(i, (_, p))| (i as u64, *p)),
    );

    // A peer at (300, 50) ran a 3NN query earlier and cached the answer.
    let peer_location = Point::new(300.0, 50.0);
    let mut by_dist: Vec<(u64, Point)> = stations
        .iter()
        .enumerate()
        .map(|(i, (_, p))| (i as u64, *p))
        .collect();
    by_dist.sort_by(|a, b| {
        peer_location
            .dist(a.1)
            .partial_cmp(&peer_location.dist(b.1))
            .unwrap()
    });
    by_dist.truncate(3);
    let peer = PeerCacheEntry::from_sorted(peer_location, by_dist);
    println!(
        "peer cache @ ({:.0},{:.0}): {} stations, certain-area radius {:.0} m",
        peer_location.x,
        peer_location.y,
        peer.len(),
        peer.farthest_distance()
    );

    // Our querier is 40 m away and wants its 2 nearest stations.
    let q = Point::new(340.0, 50.0);
    let engine = SennEngine::new(SennConfig::default());
    let mut ctx = QueryContext::new();
    let outcome = engine.query_with(q, 2, std::slice::from_ref(&peer), &server, &mut ctx);

    println!(
        "query @ ({:.0},{:.0}), k=2 → resolved by {:?}",
        q.x,
        q.y,
        outcome.resolution()
    );
    for (rank, e) in outcome.results.iter().enumerate() {
        let name = stations[e.poi.poi_id as usize].0;
        println!(
            "  #{} {:8} at ({:>4.0},{:>3.0})  dist {:>5.1} m  {}",
            rank + 1,
            name,
            e.poi.position.x,
            e.poi.position.y,
            e.dist,
            if e.certain { "certain" } else { "uncertain" }
        );
    }
    assert_eq!(outcome.resolution(), Resolution::SinglePeer);
    assert!(
        outcome.server_accesses().is_none(),
        "no server pages were read"
    );
    println!("server was never contacted — the peer's cache answered everything.");

    // Had the cache fallen short, the residual would go out over the
    // service API: one ServerRequest per unresolved query, one serve()
    // each. The same seam a sharded backend implements.
    let request = ServerRequest::plain(0, q, 2);
    let reply = server
        .serve(&request)
        .expect("an in-process server replies");
    assert_eq!(reply.status, ReplyStatus::Ok);
    println!(
        "(for comparison, one server request would have cost {} node accesses)",
        reply.response.node_accesses
    );
}
