//! Minimal non-poisoning mutex over `std::sync`.
//!
//! The build environment for this repository is fully offline (no crates.io
//! registry), so the usual `parking_lot` dependency is replaced by this
//! shim: a `lock()` that returns the guard directly. Poison errors are
//! swallowed (`PoisonError::into_inner`): simulated-process panics are
//! already captured and rethrown as [`crate::SimError::ProcPanic`], so a
//! poisoned lock carries no extra information here. The engine itself is
//! single-threaded and takes no locks; the users are the wire-buffer pool
//! (whose handles are `Send`) and the SPMD runner's result store.

use std::sync::PoisonError;

/// A non-poisoning mutual-exclusion lock.
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquire the lock, blocking the current thread until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]; unlocks on drop.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(7));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7, "poisoning is ignored");
    }
}
