//! SplitMix64, the one seeded stream behind the keyed draws: the fault
//! wrapper's fates (`senn-server`'s `FaultyService`) and the transport's
//! service times ([`crate::transport`]). Both key a draw by `(seed,
//! request id, per-id attempt ordinal)` ([`SplitMix64::keyed`]), so
//! neither the order of requests nor their grouping moves a draw — only
//! how often each id has been drawn for does.

/// A deterministic SplitMix64 stream (no external RNG dependency).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream of the `ordinal`-th draw for request `id` under `seed`.
    pub fn keyed(seed: u64, id: u64, ordinal: u64) -> Self {
        SplitMix64(mix64(
            seed.wrapping_add(mix64(id).wrapping_add(mix64(ordinal))),
        ))
    }

    /// The next word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The SplitMix64 finalizer: a bijective avalanche mix of one word.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keyed stream both the fault wrapper and the transport draw
    /// from, pinned: the first two draws of a few `(seed, id, ordinal)`
    /// keys, as bits, and the finalizer on a few words — the values the
    /// two crates' own copies of this code drew before they were shared.
    #[test]
    fn keyed_draws_are_pinned() {
        let draws = |seed, id, ordinal| {
            let mut rng = SplitMix64::keyed(seed, id, ordinal);
            [rng.next_f64().to_bits(), rng.next_f64().to_bits()]
        };
        let pinned = [
            ((0, 0, 0), [0x3fec_4415_072f_63b9, 0x3fdb_9e27_9aa8_6e58]),
            (
                (20_060_402, 1, 0),
                [0x3fe3_25d0_a171_a7ec, 0x3fc0_9171_0772_ed58],
            ),
            (
                (20_060_402, 1, 1),
                [0x3fec_38e0_7977_ab17, 0x3fe9_6d7c_0073_a6b6],
            ),
            (
                (u64::MAX, 1 << 40, 7),
                [0x3fc7_ba1a_2150_4cd8, 0x3fde_6d5b_825c_b8c4],
            ),
        ];
        for (key, bits) in pinned {
            assert_eq!(draws(key.0, key.1, key.2), bits, "{key:?}");
        }
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(mix64(u64::MAX), 0xb4d0_55fc_f2cb_bd7b);
    }
}
