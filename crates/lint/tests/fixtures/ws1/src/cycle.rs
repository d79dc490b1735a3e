//! A lock cycle across two functions: `forward` nests `alpha` before
//! `beta`, `backward` nests them the other way round. Each function is
//! consistent on its own; the pair can deadlock. Under the leaf rule both
//! nestings are findings, so the cycle needs no graph search to be
//! caught. This file is never compiled, only scanned.

impl Spinner {
    pub fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock(); // VIOLATION lock-graph: nested
        drop(b);
        drop(a);
    }

    pub fn backward(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock(); // VIOLATION lock-graph: nested, closes the cycle
        drop(a);
        drop(b);
    }
}
