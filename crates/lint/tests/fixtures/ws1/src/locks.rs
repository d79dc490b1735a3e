//! lock-graph fixtures: every nesting is a finding, whatever its order.
//! This file is never compiled, so the fields need not exist.

pub struct S;

impl S {
    pub fn nested_pair(&self) {
        let a = self.links.lock();
        let b = self.book.lock(); // VIOLATION lock-graph: nested
        drop(b);
        drop(a);
    }

    pub fn reverse_pair(&self) {
        let b = self.book.lock();
        let a = self.links.lock(); // VIOLATION lock-graph: nested
        drop(a);
        drop(b);
    }

    pub fn reentrant(&self) {
        let a = self.links.lock();
        let b = self.links.lock(); // VIOLATION lock-graph: re-acquire
        drop(b);
        drop(a);
    }

    pub fn any_other_lock(&self) {
        let a = self.links.lock();
        let z = self.mystery.lock(); // VIOLATION lock-graph: nested
        drop(z);
        drop(a);
    }
}
