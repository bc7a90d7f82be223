/// Only re-exported by a `use`: a finding.
pub fn reexported_only() {}

/// Called as `wire::decode(…)` from an integration test only.
pub fn decode(b: &[u8]) -> usize {
    b.len()
}
