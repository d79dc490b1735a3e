//! Runtime lock-order witness (enabled by the `lock-witness` feature).
//!
//! `arm-lint` infers the workspace's lock-acquisition graph *statically*;
//! this module is the dynamic half of the same check. Instrumented lock
//! wrappers carry a static **name** chosen to match the node the analyzer
//! infers for the same field (`"<file>.<field>"`, e.g. `"tcp.links"`).
//! Every acquisition made while other witness locks are held records the
//! edges `held → acquired` in a process-global registry, and two kinds of
//! violation are caught at acquisition time:
//!
//! * **re-entrant acquisition** — the same name is already on the current
//!   thread's held stack (a self-deadlock with non-reentrant locks), and
//! * **direct inversion** — the registry already holds the reverse edge,
//!   i.e. two threads have demonstrably nested the same pair of locks in
//!   both orders.
//!
//! Tests drain [`recorded_edges`], union them with the statically inferred
//! graph and assert the result is acyclic, so the witness also catches
//! inconsistencies that only manifest across function boundaries the
//! static scan cannot connect.
//!
//! Names identify lock *classes*, not instances: many short-lived locks may
//! share a name (e.g. every parallel-runner slot is `"parallel.slot"`).
//! The wrappers deliberately do not poison — a panicking holder hands the
//! lock to the next acquirer, matching `parking_lot` semantics so the
//! instrumented and plain builds behave alike.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-global record of observed nesting edges and violations.
#[derive(Default)]
struct Registry {
    edges: BTreeSet<(&'static str, &'static str)>,
    violations: Vec<String>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

thread_local! {
    /// Names of witness locks currently held by this thread, outermost first.
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Records the edges and violations implied by acquiring `name` with the
/// current thread's held set, then pushes it onto the held stack. Called
/// before the underlying lock blocks so a deadlocked acquisition still
/// leaves its evidence behind.
fn on_acquire(name: &'static str) {
    HELD.with(|cell| {
        let mut held = cell.borrow_mut();
        let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if held.contains(&name) {
            reg.violations.push(format!(
                "re-entrant acquisition of `{name}` (held: {held:?})"
            ));
        }
        for &h in held.iter() {
            if h == name {
                continue;
            }
            if reg.edges.contains(&(name, h)) {
                reg.violations.push(format!(
                    "inconsistent order: `{h}` → `{name}` inverts an already-recorded `{name}` → `{h}`"
                ));
            }
            reg.edges.insert((h, name));
        }
        drop(reg);
        held.push(name);
    });
}

/// Removes the most recent occurrence of `name` from the held stack.
/// Guards may be dropped out of LIFO order, so this searches by value.
fn on_release(name: &'static str) {
    HELD.with(|cell| {
        let mut held = cell.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == name) {
            held.remove(pos);
        }
    });
}

/// Every distinct `held → acquired` nesting observed so far, sorted.
pub fn recorded_edges() -> Vec<(String, String)> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.edges
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

/// Violations (re-entrant acquisitions, direct inversions) observed so far.
pub fn violations() -> Vec<String> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.violations.clone()
}

/// Panics with the full violation list if any violation was recorded.
///
/// # Panics
///
/// When at least one violation has been observed since the last [`reset`].
pub fn assert_clean() {
    let found = violations();
    assert!(
        found.is_empty(),
        "lock-order witness recorded {} violation(s):\n  {}",
        found.len(),
        found.join("\n  ")
    );
}

/// Clears the recorded edges and violations (test isolation).
pub fn reset() {
    let mut reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    reg.edges.clear();
    reg.violations.clear();
}

/// Writes the recorded edges to `path`, one `from -> to` line each, so CI
/// can archive the observed acquisition graph as an artifact.
pub fn write_log(path: &Path) -> std::io::Result<()> {
    let mut out = String::new();
    for (from, to) in recorded_edges() {
        out.push_str(&from);
        out.push_str(" -> ");
        out.push_str(&to);
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// A named mutex that reports its acquisitions to the witness registry.
///
/// API-compatible with `parking_lot::Mutex` for the call shapes used in
/// this workspace: `lock()` returns the guard directly and never poisons.
pub struct WitnessMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> WitnessMutex<T> {
    /// A new instrumented mutex whose acquisitions are recorded as `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording nesting edges against all witness
    /// locks the calling thread already holds.
    pub fn lock(&self) -> WitnessMutexGuard<'_, T> {
        on_acquire(self.name);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        WitnessMutexGuard {
            name: self.name,
            guard,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for WitnessMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WitnessMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`WitnessMutex::lock`]; pops the held stack on drop.
pub struct WitnessMutexGuard<'a, T> {
    name: &'static str,
    guard: MutexGuard<'a, T>,
}

impl<T> Deref for WitnessMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for WitnessMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for WitnessMutexGuard<'_, T> {
    fn drop(&mut self) {
        on_release(self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests run under a single
    // lock to keep their edge/violation observations from interleaving.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn nesting_records_an_edge() {
        let _gate = serial();
        reset();
        let a = WitnessMutex::new("t1.alpha", 1);
        let b = WitnessMutex::new("t1.beta", 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        drop(gb);
        drop(ga);
        let edges = recorded_edges();
        assert!(
            edges.contains(&("t1.alpha".into(), "t1.beta".into())),
            "{edges:?}"
        );
        assert_clean();
    }

    #[test]
    fn inversion_is_a_violation() {
        let _gate = serial();
        reset();
        let a = WitnessMutex::new("t2.alpha", ());
        let b = WitnessMutex::new("t2.beta", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let found = violations();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("t2.alpha"), "{found:?}");
        reset();
    }

    #[test]
    fn reentry_is_a_violation() {
        let _gate = serial();
        reset();
        // Straight through the hooks: a second `lock()` on a real mutex
        // would record the violation and then deadlock.
        on_acquire("t3.gamma");
        on_acquire("t3.gamma");
        on_release("t3.gamma");
        on_release("t3.gamma");
        let found = violations();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("re-entrant"), "{found:?}");
        reset();
    }

    #[test]
    fn release_unwinds_out_of_order_drops() {
        let _gate = serial();
        reset();
        let a = WitnessMutex::new("t4.alpha", ());
        let b = WitnessMutex::new("t4.beta", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // out of LIFO order
        let c = WitnessMutex::new("t4.delta", ());
        let gc = c.lock();
        drop(gc);
        drop(gb);
        let edges = recorded_edges();
        assert!(
            edges.contains(&("t4.beta".into(), "t4.delta".into())),
            "{edges:?}"
        );
        assert!(
            !edges.contains(&("t4.alpha".into(), "t4.delta".into())),
            "{edges:?}"
        );
        assert_clean();
    }
}
