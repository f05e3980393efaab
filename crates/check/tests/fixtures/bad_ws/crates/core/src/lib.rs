/// Seeded panic-path violation: a public solver entry reaching a panic
/// two private calls deep (exercises the BFS witness chain).
pub fn solver_entry(x: Option<u32>) -> u32 {
    solver_middle(x)
}

fn solver_middle(x: Option<u32>) -> u32 {
    solver_deep(x)
}

fn solver_deep(x: Option<u32>) -> u32 {
    x.expect("seeded panic")
}

/// Seeded unseeded-rng violation: constructs an RNG from ambient
/// entropy without taking a seed or `Rng` parameter.
pub fn entropy_totals(n: usize) -> u64 {
    let mut r = StdRng::from_entropy();
    let _ = n;
    r.gen()
}

/// Seeded hash-order violation: iterates a HashMap directly.
pub fn order_leak() -> u32 {
    let mut m = HashMap::new();
    m.insert(1u32, 2u32);
    let mut s = 0;
    for (_, v) in m.iter() {
        s += v;
    }
    s
}
