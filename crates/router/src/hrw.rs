//! Rendezvous (highest-random-weight) hashing.
//!
//! Every `(key, candidate)` pair gets a deterministic weight from a
//! fixed hash; the candidate with the highest weight owns the key. Two
//! properties make this the right pinning scheme for a router:
//!
//! * **Replayable.** The choice is a pure function of the key and the
//!   candidate set — no state, no RNG, no wall clock. The same session
//!   id over the same healthy set always pins to the same backend.
//! * **Minimal disruption.** Removing a candidate only moves the keys
//!   it owned (each to its second-highest weight); every other key
//!   keeps its assignment. Consistent-hash rings need virtual nodes to
//!   approximate this; rendezvous gets it exactly, and the candidate
//!   sets here are small enough that the O(n) scan is free.
//!
//! The hash is FNV-1a — the same fixed, platform-independent function
//! the placement cache uses for shard selection, so the whole workspace
//! has one hashing idiom to audit for determinism.

// Determinism: session pinning and failover standby choice must agree
// across router restarts and with tests that recompute the placement.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

/// FNV-1a over raw bytes (64-bit offset basis / prime).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit avalanche finalizer (the murmur3/splitmix constants). FNV-1a
/// alone avalanches poorly for short, nearly-identical inputs — dense
/// session ids differ in one byte, and raw FNV weights then follow the
/// label more than the key, skewing the rendezvous distribution badly.
/// The finalizer spreads every input bit across the whole word.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// The rendezvous weight of `label` for `key`. The `0xff` separator
/// cannot appear in UTF-8 labels, so `(key, label)` pairs never collide
/// by concatenation.
pub fn weight(key: &[u8], label: &str) -> u64 {
    let mut bytes = Vec::with_capacity(key.len() + 1 + label.len());
    bytes.extend_from_slice(key);
    bytes.push(0xff);
    bytes.extend_from_slice(label.as_bytes());
    mix(fnv1a(&bytes))
}

/// Highest-random-weight choice among `(index, label)` candidates:
/// returns the `index` whose `label` has the maximum [`weight`] for
/// `key`, or `None` when there are no candidates. Ties (only possible
/// with duplicate labels) break toward the lower index, so the pick is
/// deterministic even then.
pub fn pick<'a>(
    key: &[u8],
    candidates: impl IntoIterator<Item = (usize, &'a str)>,
) -> Option<usize> {
    candidates
        .into_iter()
        .max_by_key(|&(idx, label)| (weight(key, label), std::cmp::Reverse(idx)))
        .map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> Vec<String> {
        (0..5).map(|i| format!("127.0.0.1:91{i:02}")).collect()
    }

    #[test]
    fn pick_is_deterministic() {
        let labels = labels();
        let cands = || labels.iter().enumerate().map(|(i, l)| (i, l.as_str()));
        for key in 0u64..200 {
            let a = pick(&key.to_le_bytes(), cands());
            let b = pick(&key.to_le_bytes(), cands());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn removal_only_moves_the_removed_candidates_keys() {
        let labels = labels();
        let all = || labels.iter().enumerate().map(|(i, l)| (i, l.as_str()));
        let removed = 2usize;
        let without = || all().filter(|&(i, _)| i != removed);
        for key in 0u64..500 {
            let key = key.to_le_bytes();
            let before = pick(&key, all()).unwrap();
            let after = pick(&key, without()).unwrap();
            if before != removed {
                assert_eq!(before, after, "survivor keys must not move");
            } else {
                assert_ne!(after, removed);
            }
        }
    }

    #[test]
    fn distribution_is_roughly_balanced() {
        let labels = labels();
        let cands = || labels.iter().enumerate().map(|(i, l)| (i, l.as_str()));
        let mut counts = vec![0u64; labels.len()];
        let keys = 5_000u64;
        for key in 0..keys {
            counts[pick(&key.to_le_bytes(), cands()).unwrap()] += 1;
        }
        let expected = keys / labels.len() as u64;
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                count > expected / 2 && count < expected * 2,
                "backend {i} got {count} of {keys} keys (expected ~{expected})"
            );
        }
    }

    #[test]
    fn empty_candidate_set_yields_none() {
        assert_eq!(pick(b"key", std::iter::empty()), None);
    }
}
