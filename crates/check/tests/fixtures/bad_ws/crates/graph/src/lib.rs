// Seeded violations for the sor-check integration tests. This file is
// never compiled — it lives under tests/fixtures/, which cargo does not
// treat as a target and classify() skips in the real workspace scan.

pub fn seeded(x: f64, o: Option<u32>) -> u32 {
    let v = o.unwrap();
    if x == 1.0 {
        panic!("boom");
    }
    v
}

// Seeded layering violation: sor-graph is the bottom layer and may not
// reference sor-core.
pub fn upward(x: u32) -> u32 {
    sor_core::helper(x)
}
