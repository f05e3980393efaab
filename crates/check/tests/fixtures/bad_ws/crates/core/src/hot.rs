//! Hot-path rule seeds: `hot_entry` (named in `[hotpath] entries`)
//! reaches one violation of each of the four hotpath rules — an
//! allocation in a helper called under its loop, a per-iteration
//! clone, an un-pre-sized growing collection, and a quadratic scan.
//! Everything is private so the seeds stay out of the panic-path
//! rule's public scope.

/// Hot entry: loops over queries calling the allocating helper, then
/// fans out to the lexical seeds.
fn hot_entry(n: usize, xs: &[u32], ys: &[u32], names: &[String]) -> usize {
    let mut total = 0;
    for q in 0..n {
        total += alloc_helper(q);
    }
    total += clone_spin(names);
    total += grow_unbounded(n).len();
    total += scan_pairs(xs, ys);
    total
}

/// Seeded alloc-in-hot: allocates afresh on every call, and every call
/// happens under `hot_entry`'s loop (effective depth 1 via the chain).
fn alloc_helper(q: usize) -> usize {
    let buf: Vec<usize> = Vec::new();
    buf.len() + q
}

/// Seeded clone-in-loop: one clone per iteration.
fn clone_spin(names: &[String]) -> usize {
    let mut total = 0;
    for name in names {
        let copy = name.clone();
        total += copy.len();
    }
    total
}

/// Seeded growth-without-capacity: grown in a loop, built without
/// `with_capacity`.
fn grow_unbounded(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for i in 0..n {
        out.push(i);
    }
    out
}

/// Seeded quadratic-scan: linear `contains` over a sibling slice
/// inside the loop.
fn scan_pairs(xs: &[u32], ys: &[u32]) -> usize {
    let mut hits = 0;
    for x in xs {
        if ys.contains(x) {
            hits += 1;
        }
    }
    hits
}
