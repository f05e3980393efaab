//! Name-resolution seeds for panic-path: public fns that reach a panic
//! only through a `Self::` call or through a trait's default method
//! body.

pub struct Table;

impl Table {
    /// Seeded `Self::` chain: one call deep.
    pub fn via_self(&self, k: Option<u32>) -> u32 {
        Self::lookup(k)
    }

    /// Seeded method-then-`Self::` chain: two calls deep.
    pub fn via_method(&self, k: Option<u32>) -> u32 {
        self.checked(k)
    }

    fn checked(&self, k: Option<u32>) -> u32 {
        Self::lookup(k)
    }

    fn lookup(k: Option<u32>) -> u32 {
        k.expect("seeded Self:: panic")
    }
}

pub trait Picker {
    /// Default body: panics on an empty slate.
    fn pick(&self, slate: &[u32]) -> u32 {
        *slate.first().expect("seeded default-body panic")
    }
}

/// Seeded trait-default chain: a method call into `Picker::pick`.
pub fn route<P: Picker>(p: &P, slate: &[u32]) -> u32 {
    p.pick(slate)
}
