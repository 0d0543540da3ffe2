//! Integration test for the ALT routing extension: the landmark search
//! against plain A\* on a generated city (network generator + ALT index).

use mobishare_senn::network::{
    astar_distance, counting_alt, generate_network, AltIndex, GeneratorConfig,
};

#[test]
fn alt_agrees_with_astar_on_generated_city() {
    let net = generate_network(&GeneratorConfig::city(3000.0, 99));
    let idx = AltIndex::build(&net, 6);
    let n = net.node_count() as u32;
    for i in 0..25u32 {
        let a = (i * 131) % n;
        let b = (i * 37 + 11) % n;
        let want = astar_distance(&net, a, b);
        let (got, _) = counting_alt(&net, &idx, a, b);
        match (got, want) {
            (Some(g), Some(w)) => assert!((g - w).abs() < 1e-6),
            (g, w) => assert_eq!(g.is_some(), w.is_some()),
        }
    }
}
