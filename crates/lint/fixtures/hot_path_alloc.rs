//! hot-path-alloc: per-bin heap allocation inside a designated hot-path
//! module (the strict fixture policy treats every path as hot).

pub fn collects(xs: &[u32]) -> Vec<u32> {
    xs.iter().copied().collect()
}

pub fn copies(xs: &[u32]) -> Vec<u32> {
    xs.to_vec()
}

pub fn fresh() -> Vec<u32> {
    Vec::new()
}

// Sizing a buffer once at setup is the sanctioned pattern: never flagged.
pub fn preallocated(n: usize) -> Vec<u32> {
    Vec::with_capacity(n)
}

pub fn justified() -> Vec<u32> {
    // lint:allow(hot-path-alloc): once-per-run construction, not per-bin work
    Vec::new()
}

pub fn zeroed(n: usize) -> Vec<u64> {
    vec![0; n]
}

// An empty `vec![]` allocates nothing: never flagged.
pub fn empty() -> Vec<u64> {
    vec![]
}

pub fn justified_zeroed(n: usize) -> Vec<u64> {
    // lint:allow(hot-path-alloc): sized once at construction, reused every bin
    vec![0; n]
}

#[cfg(test)]
mod tests {
    // Test code allocates freely; the rule is masked here.
    #[test]
    fn scratch() {
        let v: Vec<u32> = (0..4).collect();
        assert_eq!(v.to_vec().len(), 4);
    }
}
