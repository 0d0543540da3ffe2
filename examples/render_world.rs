//! Renders a simulation world snapshot to SVG: the road network by class,
//! POIs, mobile hosts, one host's transmission range and the certain-area
//! disks of the peer caches inside it.
//!
//! ```text
//! cargo run --release --example render_world [out.svg]
//! ```

use std::fmt::Write as _;

use mobishare_senn::cache::QueryCache;
use mobishare_senn::cache::{CacheEntry, MostRecentCache};
use mobishare_senn::core::{QueryContext, RTreeServer, SennEngine};
use mobishare_senn::geom::Point;
use mobishare_senn::mobility::{RoadMover, RoadMoverConfig};
use mobishare_senn::network::{generate_network, GeneratorConfig, NodeLocator, RoadClass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "world.svg".to_string());
    let side = 3218.7; // 2 miles
    let net = generate_network(&GeneratorConfig::city(side, 20060403));
    let locator = NodeLocator::new(&net);
    let mut rng = SmallRng::seed_from_u64(42);

    // 16 POIs (the LA 2x2 world) near streets.
    let pois: Vec<Point> = (0..16)
        .map(|_| {
            let raw = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            net.position(locator.nearest(raw).unwrap())
        })
        .collect();
    let server = RTreeServer::new(pois.iter().enumerate().map(|(i, p)| (i as u64, *p)));

    // 60 hosts driven for 5 simulated minutes so caches fill up.
    let engine = SennEngine::new(mobishare_senn::core::senn::SennConfig {
        server_fetch: 10,
        ..Default::default()
    });
    let mut hosts: Vec<(RoadMover, MostRecentCache)> = (0..60)
        .map(|_| {
            let start = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let node = locator.nearest(start).unwrap();
            (
                RoadMover::new(&net, node, RoadMoverConfig::new(13.4)),
                MostRecentCache::new(10),
            )
        })
        .collect();
    let mut ctx = QueryContext::new();
    for t in 0..300 {
        for (mover, cache) in &mut hosts {
            mover.step(&net, 1.0, &mut rng);
            if t % 60 == 30 && rng.gen_bool(0.3) {
                let q = mover.position();
                let out = engine.query_with::<CacheEntry>(q, 3, &[], &server, &mut ctx);
                let nns: Vec<_> = out.cacheable().iter().map(|e| e.poi).collect();
                if !nns.is_empty() {
                    cache.store(CacheEntry::new(q, nns));
                }
            }
        }
    }

    // Render.
    let scale = 800.0 / side;
    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">"##
    );
    let _ = writeln!(svg, r##"<rect width="800" height="800" fill="#fbfaf7"/>"##);

    // Roads, local first so highways draw on top.
    let mut passes = [
        (RoadClass::Local, "#d8d4cc", 1.0),
        (RoadClass::Secondary, "#b9b29f", 2.0),
        (RoadClass::Primary, "#e0a04e", 3.5),
    ];
    for (class, color, width) in passes.iter_mut() {
        for a in 0..net.node_count() as u32 {
            for e in net.neighbors(a) {
                if e.to > a && e.class == *class {
                    let p = net.position(a);
                    let q = net.position(e.to);
                    let _ = writeln!(
                        svg,
                        r##"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{}" stroke-width="{}"/>"##,
                        p.x * scale,
                        800.0 - p.y * scale,
                        q.x * scale,
                        800.0 - q.y * scale,
                        color,
                        width
                    );
                }
            }
        }
    }

    // Certain-area disks of caches near host 0.
    let q0 = hosts[0].0.position();
    let tx = 200.0;
    for (mover, cache) in &hosts[1..] {
        if mover.position().dist(q0) <= tx {
            if let Some(entry) = cache.entry() {
                let c = entry.query_location;
                let r = entry.farthest_distance();
                let _ = writeln!(
                    svg,
                    r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="#7aa6c2" fill-opacity="0.15" stroke="#7aa6c2" stroke-width="1"/>"##,
                    c.x * scale,
                    800.0 - c.y * scale,
                    r * scale
                );
            }
        }
    }
    // Transmission range of host 0.
    let _ = writeln!(
        svg,
        r##"<circle cx="{:.1}" cy="{:.1}" r="{:.1}" fill="none" stroke="#444" stroke-dasharray="6 4" stroke-width="1.5"/>"##,
        q0.x * scale,
        800.0 - q0.y * scale,
        tx * scale
    );

    // Hosts and POIs.
    for (mover, _) in &hosts {
        let p = mover.position();
        let _ = writeln!(
            svg,
            r##"<circle cx="{:.1}" cy="{:.1}" r="3" fill="#356a94"/>"##,
            p.x * scale,
            800.0 - p.y * scale
        );
    }
    for p in &pois {
        let _ = writeln!(
            svg,
            r##"<rect x="{:.1}" y="{:.1}" width="8" height="8" fill="#c0392b"/>"##,
            p.x * scale - 4.0,
            800.0 - p.y * scale - 4.0
        );
    }
    let _ = writeln!(
        svg,
        r##"<circle cx="{:.1}" cy="{:.1}" r="5" fill="#111"/>"##,
        q0.x * scale,
        800.0 - q0.y * scale
    );
    let _ = writeln!(svg, "</svg>");

    std::fs::write(&out_path, &svg).expect("write svg");
    println!(
        "wrote {out_path}: {} roads, {} hosts, {} POIs; querier at ({:.0},{:.0}) with {} peer disks in range",
        net.edge_count(),
        hosts.len(),
        pois.len(),
        q0.x,
        q0.y,
        hosts[1..]
            .iter()
            .filter(|(m, c)| m.position().dist(q0) <= tx && c.entry().is_some())
            .count()
    );
}
