//! unbounded-growth fixtures; the path is in `growth_paths`.
//! This file is never compiled, only scanned.

pub struct Buf {
    items: Vec<u64>,
}

impl Buf {
    pub fn leak(&mut self, x: u64) {
        self.items.push(x); // VIOLATION unbounded-growth: no eviction
    }
}

pub struct Ring {
    entries: Vec<u64>,
}

impl Ring {
    pub fn record(&mut self, x: u64) {
        if self.entries.len() >= 8 {
            self.entries.remove(0);
        }
        self.entries.push(x); // evicted above: not flagged
    }
}

pub fn local_scratch(n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(i); // plain local: not flagged
    }
    out
}

pub struct Journal {
    lines: Vec<u64>,
}

impl Journal {
    pub fn note(&mut self, x: u64) {
        // arm-lint: allow(unbounded-growth) -- fixture: suppression downgrades, not hides
        self.lines.push(x);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let mut b = super::Buf { items: Vec::new() };
        b.items.push(1);
    }
}
