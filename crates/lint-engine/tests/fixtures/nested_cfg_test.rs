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
        assert_eq!(live(1).checked_add(1).unwrap(), 3);
    }

    mod nested {
        #[test]
        fn inner() {
            // Test-only panics and prints are allowed.
            let mut m = std::collections::HashMap::new();
            m.insert(1u32, 2u32);
            println!("{:?}", m.get(&1).unwrap());
            panic!("intentional");
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
use std::collections::HashSet;
