//! 128-bit content fingerprints (FNV-1a) over exact input bits.
//!
//! Cache keys must identify the *full* input of the computation they
//! memoize, so the hasher consumes `f64` values by their IEEE-754 bit
//! patterns ([`f64::to_bits`]) — two inputs that differ in the last ulp
//! (or in the sign of zero) are different keys. 128 bits make an
//! accidental collision astronomically unlikely (~2⁻⁶⁴ across 2³² distinct
//! keys), which is the correctness argument for treating "same
//! fingerprint" as "same input" throughout the workspace.

/// A 128-bit content fingerprint. Construct with [`Fnv128`] or
/// [`Fingerprint::of_f64s`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fingerprint of a flat `f64` slice (bit patterns plus length).
    pub fn of_f64s(values: &[f64]) -> Self {
        let mut h = Fnv128::new();
        h.write_usize(values.len());
        h.write_f64s(values);
        h.finish()
    }
}

/// Incremental FNV-1a hasher over 128 bits.
///
/// Cloneable so a common key prefix (e.g. dataset + query) can be hashed
/// once and forked per lookup.
#[derive(Clone, Debug)]
pub struct Fnv128 {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorb one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorb a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` (as `u64`, so fingerprints are width-portable).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb one `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a slice of `f64` bit patterns (no length — callers that need
    /// length-disambiguation write it explicitly).
    pub fn write_f64s(&mut self, values: &[f64]) {
        for &v in values {
            self.write_f64(v);
        }
    }

    /// Absorb a string (bytes plus length, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Absorb an existing fingerprint (for key composition).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write_bytes(&fp.0.to_le_bytes());
    }

    /// The fingerprint of everything absorbed so far.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(Fnv128::new().finish().0, FNV_OFFSET);
    }

    #[test]
    fn distinguishes_bit_patterns() {
        let a = Fingerprint::of_f64s(&[0.0]);
        let b = Fingerprint::of_f64s(&[-0.0]);
        assert_ne!(a, b, "±0.0 are different inputs");
        let c = Fingerprint::of_f64s(&[1.0]);
        let d = Fingerprint::of_f64s(&[1.0 + f64::EPSILON]);
        assert_ne!(c, d, "one-ulp difference must change the key");
    }

    #[test]
    fn distinguishes_shapes() {
        assert_ne!(
            Fingerprint::of_f64s(&[]),
            Fingerprint::of_f64s(&[0.0]),
            "length is part of the key"
        );
    }

    #[test]
    fn deterministic_across_calls() {
        let xs = [1.5, -2.25, 3.0, 0.1, 0.2, 0.3];
        assert_eq!(Fingerprint::of_f64s(&xs), Fingerprint::of_f64s(&xs));
    }

    #[test]
    fn prefix_forking_composes() {
        let mut prefix = Fnv128::new();
        prefix.write_str("dataset");
        let mut a = prefix.clone();
        a.write_u64(1);
        let mut b = prefix.clone();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
        let mut whole = Fnv128::new();
        whole.write_str("dataset");
        whole.write_u64(1);
        assert_eq!(a.finish(), whole.finish());
    }
}
