//! Bloom filters for inter-domain object/service summaries.
//!
//! The paper (§3.1) has each Resource Manager keep, for every *other*
//! domain, "a summary of the available application objects `SumO_k` and the
//! available services `SumS_k` … obtained using Bloom Filters". These
//! summaries guide query redirection (§4.5): when a domain cannot admit a
//! task, its RM forwards the query to a domain whose summary claims the
//! needed objects/services.
//!
//! Standard Bloom filter with double hashing (Kirsch–Mitzenmacher): the two
//! base hashes are derived from one splitmix64-mixed FNV digest, so the
//! filter is deterministic across platforms and needs no external hashing
//! crates.

use crate::rng::splitmix64;
use serde::{Deserialize, Error, Serialize, Value};

/// A fixed-size Bloom filter over arbitrary byte strings.
///
/// Serializes as `{"bits": "<hex>", "k": K, "items": N}` — 2 characters per
/// filter byte — rather than the derived decimal `u64` array, so encoded
/// gossip digests stay close to [`BloomFilter::byte_size`] on the wire.
///
/// # Examples
///
/// ```
/// use arm_util::BloomFilter;
/// let mut summary = BloomFilter::with_capacity(1_000, 0.01);
/// summary.insert(b"movie-trailer");
/// assert!(summary.contains(b"movie-trailer")); // never a false negative
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: u32,
    items: usize,
}

impl Serialize for BloomFilter {
    fn to_value(&self) -> Value {
        let mut hex = String::with_capacity(self.bits.len() * 16);
        for word in &self.bits {
            hex.push_str(&format!("{word:016x}"));
        }
        Value::Object(vec![
            ("bits".into(), Value::Str(hex)),
            ("k".into(), Value::UInt(self.num_hashes as u64)),
            ("items".into(), Value::UInt(self.items as u64)),
        ])
    }
}

impl Deserialize for BloomFilter {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let hex = v
            .field("bits")
            .as_str()
            .ok_or_else(|| Error::msg("bloom filter needs a \"bits\" hex string"))?;
        if hex.is_empty() || hex.len() % 16 != 0 {
            return Err(Error::msg(format!(
                "bloom \"bits\" hex length {} is not a positive multiple of 16",
                hex.len()
            )));
        }
        let bits = hex
            .as_bytes()
            .chunks(16)
            .map(|chunk| {
                let s = std::str::from_utf8(chunk).map_err(|_| Error::msg("non-ascii hex"))?;
                u64::from_str_radix(s, 16)
                    .map_err(|e| Error::msg(format!("bad bloom hex word {s:?}: {e}")))
            })
            .collect::<Result<Vec<u64>, Error>>()?;
        let num_hashes = u32::from_value(v.field("k"))?;
        if num_hashes == 0 {
            return Err(Error::msg("bloom filter needs k >= 1"));
        }
        let items = usize::from_value(v.field("items"))?;
        Ok(Self {
            num_bits: bits.len() * 64,
            bits,
            num_hashes,
            items,
        })
    }
}

impl BloomFilter {
    /// Creates a filter with exactly `num_bits` bits (rounded up to a
    /// multiple of 64) and `num_hashes` probes per item.
    pub fn new(num_bits: usize, num_hashes: u32) -> Self {
        assert!(num_bits > 0 && num_hashes > 0);
        let words = num_bits.div_ceil(64);
        Self {
            bits: vec![0; words],
            num_bits: words * 64,
            num_hashes,
            items: 0,
        }
    }

    /// Creates a filter sized for `expected_items` at the target false
    /// positive rate, using the standard optimal sizing
    /// `m = -n ln p / (ln 2)²`, `k = (m/n) ln 2`.
    pub fn with_capacity(expected_items: usize, false_positive_rate: f64) -> Self {
        assert!(expected_items > 0);
        assert!(false_positive_rate > 0.0 && false_positive_rate < 1.0);
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-n * false_positive_rate.ln() / (ln2 * ln2))
            .ceil()
            .max(64.0);
        let k = ((m / n) * ln2).round().clamp(1.0, 16.0);
        Self::new(m as usize, k as u32)
    }

    #[inline]
    fn base_hashes(key: &[u8]) -> (u64, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let h1 = splitmix64(h);
        let h2 = splitmix64(h1) | 1; // odd ⇒ full-period stepping
        (h1, h2)
    }

    /// The probed bit positions of `key`. Borrows nothing of the filter,
    /// so `insert` can set bits while it iterates.
    #[inline]
    fn bit_positions(&self, key: &[u8]) -> impl Iterator<Item = usize> {
        let (h1, h2) = Self::base_hashes(key);
        let m = self.num_bits as u64;
        (0..self.num_hashes as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Inserts a byte-string key.
    pub fn insert(&mut self, key: &[u8]) {
        for pos in self.bit_positions(key) {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.items += 1;
    }

    /// Inserts a u64 key (e.g. a typed id's raw value).
    pub fn insert_u64(&mut self, key: u64) {
        self.insert(&key.to_le_bytes());
    }

    /// Tests a byte-string key. False positives possible; false negatives not.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.bit_positions(key)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Tests a u64 key.
    pub fn contains_u64(&self, key: u64) -> bool {
        self.contains(&key.to_le_bytes())
    }

    /// Number of inserts performed (not distinct items).
    pub fn items(&self) -> usize {
        self.items
    }

    /// Size of the filter in bits.
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// Number of hash probes per key.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Fraction of bits set; a saturation diagnostic.
    pub fn fill_ratio(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.num_bits as f64
    }

    /// Predicted false-positive rate at the current fill:
    /// `(fill_ratio)^k`.
    pub fn estimated_fpr(&self) -> f64 {
        self.fill_ratio().powi(self.num_hashes as i32)
    }

    /// Unions another filter of identical geometry into this one.
    /// The union of two filters matches the filter of the union set.
    pub fn union(&mut self, other: &BloomFilter) {
        assert!(
            self.num_bits == other.num_bits && self.num_hashes == other.num_hashes,
            "bloom geometry mismatch"
        );
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
        self.items += other.items;
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.items = 0;
    }

    /// Serialized size in bytes (for gossip message cost accounting).
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u64 {
            f.insert_u64(i);
        }
        for i in 0..1000u64 {
            assert!(f.contains_u64(i), "lost key {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000u64 {
            f.insert_u64(i);
        }
        let fp = (1000..101_000u64).filter(|&i| f.contains_u64(i)).count();
        let rate = fp as f64 / 100_000.0;
        assert!(rate < 0.03, "fp rate {rate} too high");
    }

    #[test]
    fn empty_contains_nothing() {
        let f = BloomFilter::new(1024, 4);
        assert!(!f.contains_u64(0));
        assert!(!f.contains(b"anything"));
        assert_eq!(f.fill_ratio(), 0.0);
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn geometry_rounds_to_words() {
        let f = BloomFilter::new(100, 3);
        assert_eq!(f.num_bits(), 128);
        assert_eq!(f.num_hashes(), 3);
        assert_eq!(f.byte_size(), 16);
    }

    #[test]
    fn union_is_superset() {
        let mut a = BloomFilter::new(2048, 5);
        let mut b = BloomFilter::new(2048, 5);
        for i in 0..50u64 {
            a.insert_u64(i);
        }
        for i in 50..100u64 {
            b.insert_u64(i);
        }
        a.union(&b);
        for i in 0..100u64 {
            assert!(a.contains_u64(i));
        }
        assert_eq!(a.items(), 100);
    }

    #[test]
    fn union_equals_filter_of_union() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        let mut c = BloomFilter::new(512, 4);
        for i in 0..30u64 {
            a.insert_u64(i);
            c.insert_u64(i);
        }
        for i in 30..60u64 {
            b.insert_u64(i);
            c.insert_u64(i);
        }
        a.union(&b);
        assert_eq!(a.bits, c.bits);
    }

    #[test]
    #[should_panic]
    fn union_rejects_mismatch() {
        let mut a = BloomFilter::new(512, 4);
        let b = BloomFilter::new(1024, 4);
        a.union(&b);
    }

    #[test]
    fn clear_empties() {
        let mut f = BloomFilter::new(512, 4);
        f.insert(b"x");
        assert!(f.contains(b"x"));
        f.clear();
        assert!(!f.contains(b"x"));
        assert_eq!(f.items(), 0);
    }

    #[test]
    fn serde_hex_round_trip() {
        let mut f = BloomFilter::with_capacity(200, 0.01);
        for i in 0..120u64 {
            f.insert_u64(i);
        }
        let json = serde_json::to_string(&f).unwrap();
        // Compact: ~2 chars per filter byte plus small fixed overhead.
        assert!(
            json.len() < f.byte_size() * 2 + 64,
            "bloom JSON {} bytes for a {}-byte filter",
            json.len(),
            f.byte_size()
        );
        let back: BloomFilter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn serde_rejects_bad_hex() {
        let bad = Value::Object(vec![
            ("bits".into(), Value::Str("zzzz".into())),
            ("k".into(), Value::UInt(4)),
            ("items".into(), Value::UInt(0)),
        ]);
        assert!(BloomFilter::from_value(&bad).is_err());
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = BloomFilter::new(512, 4);
        let mut b = BloomFilter::new(512, 4);
        a.insert(b"media/mpeg4/640x480");
        b.insert(b"media/mpeg4/640x480");
        assert_eq!(a.bits, b.bits);
    }

    #[test]
    fn estimated_fpr_increases_with_load() {
        let mut f = BloomFilter::new(1024, 4);
        let before = f.estimated_fpr();
        for i in 0..500u64 {
            f.insert_u64(i);
        }
        assert!(f.estimated_fpr() > before);
        assert!(f.fill_ratio() > 0.0 && f.fill_ratio() <= 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn never_false_negative(
            keys in proptest::collection::vec(any::<u64>(), 1..200),
            bits in 64usize..4096,
            hashes in 1u32..8,
        ) {
            let mut f = BloomFilter::new(bits, hashes);
            for &k in &keys {
                f.insert_u64(k);
            }
            for &k in &keys {
                prop_assert!(f.contains_u64(k));
            }
        }

        #[test]
        fn union_preserves_membership(
            ka in proptest::collection::vec(any::<u64>(), 0..100),
            kb in proptest::collection::vec(any::<u64>(), 0..100),
        ) {
            let mut a = BloomFilter::new(2048, 4);
            let mut b = BloomFilter::new(2048, 4);
            for &k in &ka { a.insert_u64(k); }
            for &k in &kb { b.insert_u64(k); }
            a.union(&b);
            for &k in ka.iter().chain(&kb) {
                prop_assert!(a.contains_u64(k));
            }
        }
    }
}
