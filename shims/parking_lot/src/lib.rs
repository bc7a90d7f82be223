//! Offline stand-in for `parking_lot`, backed by `std::sync` locks.
//!
//! Matches the parking_lot API shape the workspace uses: `lock()` /
//! `read()` / `write()` return guards directly (no `Result`); a
//! poisoned std lock is recovered transparently, mirroring
//! parking_lot's no-poisoning semantics.

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock without poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock without poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_guards_data() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_allows_many_readers() {
        let l = RwLock::new(7);
        let a = l.read();
        let b = l.read();
        assert_eq!(*a + *b, 14);
    }

    #[test]
    fn a_panicking_holder_does_not_poison_the_mutex() {
        let m = std::sync::Arc::new(Mutex::new(vec![1]));
        let held = std::sync::Arc::clone(&m);
        let died = std::thread::spawn(move || {
            held.lock().push(2);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        let m = std::sync::Arc::try_unwrap(m).expect("sole owner");
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn a_panicking_writer_does_not_poison_the_rwlock() {
        let l = std::sync::Arc::new(RwLock::new(0u32));
        let held = std::sync::Arc::clone(&l);
        let died = std::thread::spawn(move || {
            *held.write() = 5;
            panic!("writer dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*l.read(), 5);
        *l.write() += 1;
        assert_eq!(*l.read(), 6);
    }
}
