//! The one `parking_lot` ⇄ [`lockwitness`](crate::lockwitness) switch.
//!
//! Lock-owning crates (`arm-wire`, `arm-runtime`, `arm-sim`) each expand
//! [`lock_shim!`](crate::lock_shim) inside a `pub(crate) mod sync`. It is a
//! macro rather than a module because the switch is the *expanding* crate's
//! `lock-witness` feature and the plain lock is that crate's own
//! `parking_lot` dependency; `arm-util` itself stays dependency-free.

/// Defines `Lock<T>` and `mutex(name, value)` in the expanding module.
///
/// Normal builds use `parking_lot::Mutex`. With the expanding crate's
/// `lock-witness` feature the lock is the instrumented
/// [`WitnessMutex`](crate::lockwitness::WitnessMutex), which records the
/// runtime acquisition order under `name` — a static name chosen to match
/// the node `arm-lint` infers for the same field (`"tcp.links"`,
/// `"net.inner"`, …; names identify lock classes, not instances). Call
/// sites are identical in both builds — `.lock()` returns the guard
/// directly — so the static analysis sees the same acquisitions either way.
#[macro_export]
macro_rules! lock_shim {
    () => {
        #[cfg(not(feature = "lock-witness"))]
        pub type Lock<T> = parking_lot::Mutex<T>;
        #[cfg(feature = "lock-witness")]
        pub type Lock<T> = $crate::lockwitness::WitnessMutex<T>;

        /// A new lock; the name is only used by the witness build.
        #[cfg(not(feature = "lock-witness"))]
        pub fn mutex<T>(_name: &'static str, value: T) -> Lock<T> {
            parking_lot::Mutex::new(value)
        }
        /// A new witness lock recording acquisitions under `name`.
        #[cfg(feature = "lock-witness")]
        pub fn mutex<T>(name: &'static str, value: T) -> Lock<T> {
            $crate::lockwitness::WitnessMutex::new(name, value)
        }
    };
}
