//! Fixture: deeply nested `#[cfg(test)]` regions are exempt from rules.

/// Live code stays clean.
pub fn live(v: u32) -> u32 {
    v + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct() {
        assert!(f64::from(live(1)) != 0.0);
    }

    mod nested {
        #[test]
        fn inner() {
            // Test-only wraparound and zero compares are allowed.
            let h = 3u64.wrapping_mul(0x9E37_79B9);
            assert!(h as f64 == 0.0 || h > 0);
        }

        #[cfg(test)]
        mod doubly_nested {
            #[test]
            fn deepest() {
                let rng = SplitMix64::new(42);
                let _ = rng;
            }
        }
    }
}

#[cfg(test)]
fn merge_totals(total: &mut f64, shard: f64) {
    *total += shard * 0.5;
}

#[cfg(test)]
const FRESH: bool = WEAR == 0.0;
