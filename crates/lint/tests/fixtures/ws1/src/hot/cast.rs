//! unchecked-arith fixtures; the path is in `cast_paths`. Each VIOLATION
//! line below is asserted with its exact line number by
//! `tests/fixtures.rs`. This file is never compiled, only scanned.

pub fn tail_len(v: &[u8], start: usize) -> usize {
    v.len() - start // VIOLATION unchecked-arith: can underflow
}

pub fn guarded_tail(v: &[u8], start: usize) -> usize {
    v.len().saturating_sub(start) // saturating: not flagged
}

pub fn suppressed_tail(v: &[u8]) -> usize {
    // arm-lint: allow(unchecked-arith) -- fixture: suppression downgrades, not hides
    v.len() - 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v = [1u8, 2];
        assert_eq!(v.len() - 1, 1);
    }
}
