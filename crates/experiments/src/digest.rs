//! Shared deterministic digesting for the runtime verifiers.
//!
//! One hash function, used by `verify-determinism`, the chaos harness
//! and the `scale` sweep, so every "byte-identical" claim in the repo
//! is made against the same digest. [`Fnv64`] is the incremental form:
//! the out-of-core scale path digests a multi-gigabyte ledger stream
//! record-by-record without ever holding the serialized whole, and
//! feeding the same bytes in any chunking yields the same digest as
//! one [`fnv1a64`] call.
//!
//! [`Fnv64`] is also a [`fmt::Write`] sink, so JSON is hashed while it
//! is serialized: [`Fnv64::write_json`] streams a value's compact JSON
//! (the exact bytes `serde_json::to_string` would return) straight into
//! the state, with no intermediate `String` and no heap allocation.

use serde::Serialize;
use std::fmt;

/// Incremental FNV-1a 64-bit hasher. `update` in any chunking is
/// equivalent to hashing the concatenation.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Fresh hasher (FNV-1a offset basis).
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// Fold the compact JSON of `value` into the state, serializing
    /// straight into the hasher.
    pub fn write_json<T: Serialize + ?Sized>(&mut self, value: &T) {
        value.serialize(&mut serde_json::Serializer::new(self));
    }

    /// The digest of everything updated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64-bit of one contiguous buffer (deterministic,
/// dependency-free).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// FNV-1a 64-bit of `value`'s compact JSON, without materializing it.
pub fn fnv1a64_json<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    h.write_json(value);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv1a64(b"ledger-a"), fnv1a64(b"ledger-b"));
    }

    #[test]
    fn streamed_json_hashes_the_serialized_bytes() {
        let value = (vec!["a\"b", "lab1-s000"], Some(2.0f64), -7i64);
        let text = serde_json::to_string(&value).expect("serializes");
        assert_eq!(fnv1a64_json(&value), fnv1a64(text.as_bytes()));
    }

    #[test]
    fn chunking_is_irrelevant() {
        let whole = fnv1a64(b"records are streamed in pieces");
        let mut h = Fnv64::new();
        h.update(b"records are ");
        h.update(b"");
        h.update(b"streamed in pieces");
        assert_eq!(h.finish(), whole);
    }
}
