//! Fixture: public fns reached from every kind of caller, and the ones
//! nothing reaches (workspace layout, so the dead-api rule runs).
#![forbid(unsafe_code)]

pub mod wire;

pub use wire::reexported_only;

/// Called from `examples/`.
pub fn used_by_example() {}

/// Called from `perfbench/src`.
pub fn used_by_perfbench() {}

/// Called only by an integration test, inside a `proptest!` block.
pub fn only_in_macro_test() {}

/// Called only by this crate's unit tests: test-only, not a finding.
pub fn only_unit_tested() -> u8 {
    1
}

/// Never called: a finding.
pub fn never_called() {}

/// Calls only itself: a finding.
pub fn recursive(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        recursive(n - 1)
    }
}

/// Not public, so not checked.
fn private_helper() {}

pub struct Node;

impl Node {
    /// Called as `Node::new()`.
    pub fn new() -> Node {
        private_helper();
        Node
    }

    /// Passed as a value.
    pub fn as_value(&self) -> u8 {
        0
    }

    /// Never called: a finding.
    pub fn dead_method(&self) {}

    /// Crate-visible only, so not checked.
    pub(crate) fn crate_only(&self) {}

    /// Called through a turbofish.
    pub fn typed<T: Default>(&self) -> T {
        T::default()
    }
}

impl Default for Node {
    /// Trait impls are reached through the trait: not checked.
    fn default() -> Node {
        let n = Node::new();
        let _: Vec<u8> = [&n].iter().map(|n| Node::as_value(n)).collect();
        let _: u8 = n.typed::<u8>();
        let _ = [Node].iter().map(Node::as_value).count();
        n
    }
}

/// The initializer references `initializer_only`.
pub const INIT: fn() -> u8 = initializer_only;

/// Referenced only by the const above.
pub fn initializer_only() -> u8 {
    2
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_unit_tested(), 1);
    }
}
