//! Best-effort zeroization of secret big integers.
//!
//! Dropping a `Vec<u64>` returns its buffer to the allocator with the
//! limbs of a secret key still in it; a later allocation (or a core
//! dump) can then read them back. This module provides the one thing
//! the rest of the workspace needs to avoid that: a [`Zeroize`] trait
//! that overwrites a value's backing storage — including *spare
//! capacity*, which previous arithmetic may have filled with
//! intermediate limbs — before the memory is released.
//!
//! The wipe uses `core::ptr::write_volatile` followed by a
//! `compiler_fence`, the standard pattern (cf. the `zeroize` crate,
//! which the offline build environment cannot depend on) to keep the
//! optimizer from eliding "dead" stores to memory that is about to be
//! freed.
//!
//! Besides the lane tier's one call into its AVX-512 kernel
//! (`modular/lanes.rs`), this is the only module in the crate allowed to
//! use `unsafe`; the crate root downgrades `#![forbid(unsafe_code)]` to
//! `deny` so the allow below can scope it to exactly these writes.

#![allow(unsafe_code)]

use crate::Ubig;
use std::sync::atomic::{compiler_fence, Ordering};

/// Overwrites a value's backing storage with zeros in place.
///
/// Implementations must leave the value in a valid (zero) state: the
/// value remains usable after the call, it just no longer holds the
/// secret.
pub trait Zeroize {
    /// Wipes the value's storage (including any spare capacity).
    fn zeroize(&mut self);
}

/// Volatile-writes zeros over the whole allocation of `v` — `capacity`,
/// not just `len` — then truncates it to empty.
impl Zeroize for Vec<u64> {
    fn zeroize(&mut self) {
        wipe(self, 0);
    }
}

/// Volatile-writes `zero` over the whole allocation of `v` — `capacity`,
/// not just `len` — then truncates it to empty. The one wipe behind
/// every `Vec` this crate zeroizes, limbs and the lane tier's vectors
/// alike.
pub(crate) fn wipe<T: Copy>(v: &mut Vec<T>, zero: T) {
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    for i in 0..cap {
        // SAFETY: `ptr..ptr+cap` is a single live allocation owned by
        // this Vec; writing a `T: Copy` into it (initialized or not)
        // drops nothing and is valid, and we never read the
        // uninitialized part.
        unsafe { core::ptr::write_volatile(ptr.add(i), zero) };
    }
    compiler_fence(Ordering::SeqCst);
    v.clear();
}

impl Zeroize for Ubig {
    fn zeroize(&mut self) {
        // Clearing the limbs leaves the canonical representation of zero
        // (empty limb vector), so the invariant "no trailing zero limbs"
        // is preserved.
        self.limbs.zeroize();
    }
}

impl Zeroize for u64 {
    fn zeroize(&mut self) {
        // SAFETY: `self` is a live, exclusively borrowed u64.
        unsafe { core::ptr::write_volatile(self, 0) };
        compiler_fence(Ordering::SeqCst);
    }
}

impl Zeroize for usize {
    fn zeroize(&mut self) {
        // SAFETY: `self` is a live, exclusively borrowed usize.
        unsafe { core::ptr::write_volatile(self, 0) };
        compiler_fence(Ordering::SeqCst);
    }
}

/// A wrapper that [`Zeroize`]s its contents when dropped, before the
/// inner value's own destructor runs.
///
/// ```
/// use pisa_bigint::{Ubig, zeroize::Zeroizing};
///
/// let secret = Zeroizing::new(Ubig::from(0xdead_beefu64));
/// assert!(!secret.is_zero()); // usable through Deref
/// drop(secret); // wiped, then freed
/// ```
pub struct Zeroizing<T: Zeroize>(T);

impl<T: Zeroize> Zeroizing<T> {
    /// Wraps `value` so it is wiped on drop.
    pub fn new(value: T) -> Self {
        Zeroizing(value)
    }
}

impl<T: Zeroize> std::ops::Deref for Zeroizing<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Zeroize> std::ops::DerefMut for Zeroizing<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Zeroize> Drop for Zeroizing<T> {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn vec_zeroize_wipes_spare_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(8);
        v.extend_from_slice(&[0xdead, 0xbeef, 0xcafe]);
        v.truncate(1); // 0xbeef and 0xcafe now live in spare capacity
        let cap = v.capacity();
        let ptr = v.as_mut_ptr();
        v.zeroize();
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap, "zeroize must not reallocate");
        // SAFETY (test only): the Vec still owns this allocation and every
        // slot was just initialized to zero by `zeroize`.
        let all = unsafe { std::slice::from_raw_parts(ptr, cap) };
        assert!(all.iter().all(|&w| w == 0), "spare capacity not wiped");
    }

    #[test]
    fn ubig_zeroize_is_canonical_zero() {
        let mut x = Ubig::from(u64::MAX) * Ubig::from(u64::MAX);
        x.zeroize();
        assert!(x.is_zero());
        assert_eq!(x, Ubig::zero());
    }

    /// A probe that logs when it is zeroized and when it is dropped, so
    /// the test can assert the wipe happens *before* destruction.
    struct Probe {
        log: Rc<RefCell<Vec<&'static str>>>,
    }

    impl Zeroize for Probe {
        fn zeroize(&mut self) {
            self.log.borrow_mut().push("zeroize");
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.log.borrow_mut().push("drop");
        }
    }

    #[test]
    fn zeroizing_wipes_before_inner_drop() {
        let log = Rc::new(RefCell::new(Vec::new()));
        {
            let _guard = Zeroizing::new(Probe { log: log.clone() });
            assert!(log.borrow().is_empty(), "no wipe while alive");
        }
        assert_eq!(*log.borrow(), vec!["zeroize", "drop"]);
    }

    #[test]
    fn zeroizing_derefs_transparently() {
        let mut z = Zeroizing::new(Ubig::from(41u64));
        *z = &*z + &Ubig::one();
        assert_eq!(*z, Ubig::from(42u64));
    }

    #[test]
    fn scalar_zeroize() {
        let mut a = 0xdead_beefu64;
        a.zeroize();
        assert_eq!(a, 0);
        let mut b = 7usize;
        b.zeroize();
        assert_eq!(b, 0);
    }
}
