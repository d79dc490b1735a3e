//! The workspace's one lock type, and the rule it checks: every lock is a
//! leaf.
//!
//! No thread ever holds two [`Lock`]s at once, so no acquisition order
//! exists and none can be inverted: deadlock freedom follows from the
//! design, not from a declared order. Two checks keep it that way.
//! `arm-lint`'s `lock-graph` rule fails on any acquisition it can see made
//! under a live guard. In debug builds (every `cargo test`) [`Lock::lock`]
//! also asserts that the calling thread holds no other `Lock`, which
//! catches the nestings the static scan cannot connect — a callback run
//! under a guard, for instance. The check is a thread-local flag that the
//! guard's `Drop` clears; it compiles out of release builds.
//!
//! `Lock` never poisons: a thread that panics while holding it hands the
//! value on to the next acquirer as it stands.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread holds a [`Lock`] right now.
    static HOLDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A mutual-exclusion lock that must never be held together with another.
#[derive(Default)]
pub struct Lock<T>(Mutex<T>);

/// Access to a [`Lock`]'s value; the lock is released when it drops.
pub struct LockGuard<'a, T>(MutexGuard<'a, T>);

impl<T> Lock<T> {
    /// A lock holding `value`.
    pub fn new(value: T) -> Self {
        Lock(Mutex::new(value))
    }

    /// Blocks until the lock is free and returns its guard.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a `Lock` (this one or
    /// any other).
    pub fn lock(&self) -> LockGuard<'_, T> {
        #[cfg(debug_assertions)]
        HOLDING.with(|holding| {
            assert!(
                !holding.get(),
                "lock taken while this thread holds another: every lock must be a leaf"
            );
            holding.set(true);
        });
        LockGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Consumes the lock and returns its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Deref for LockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for LockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for LockGuard<'_, T> {
    fn drop(&mut self) {
        HOLDING.with(|holding| holding.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "every lock must be a leaf"))]
    fn a_second_lock_under_a_guard_panics_in_debug_builds() {
        let a = Lock::new(1);
        let b = Lock::new(2);
        let _held = a.lock();
        let _nested = b.lock();
    }

    #[test]
    fn retaking_after_the_guard_drops_is_fine() {
        let a = Lock::new(1);
        let b = Lock::new(2);
        *a.lock() += 1;
        *b.lock() += 1;
        let guard = a.lock();
        drop(guard);
        let sum = *a.lock();
        assert_eq!(sum + *b.lock(), 5);
    }

    #[test]
    fn another_thread_may_lock_while_this_one_holds() {
        let a = Lock::new(1);
        let b = Lock::new(2);
        let held = a.lock();
        std::thread::scope(|s| {
            s.spawn(|| *b.lock() += 1);
        });
        assert_eq!(*held, 1);
        drop(held);
        assert_eq!(b.into_inner(), 3);
    }

    #[test]
    fn a_panicking_holder_neither_poisons_nor_leaves_the_flag_set() {
        let a = Lock::new(vec![1]);
        let b = Lock::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut guard = a.lock();
            guard.push(2);
            panic!("holder dies");
        }));
        assert!(caught.is_err());
        // Same thread, lock by lock: neither the poisoned mutex nor a
        // stale flag makes these fail.
        assert_eq!(*a.lock(), vec![1, 2]);
        *b.lock() += 1;
        assert_eq!(a.into_inner(), vec![1, 2]);
    }
}
