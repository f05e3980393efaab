// A clean fixture: every would-be violation is either absent, inside
// #[cfg(test)], inside a string/comment, or carries an allowlist comment.

/// Allowed: callers check `is_some()` first.
pub fn checked(o: Option<u32>) -> u32 {
    // sor-check: allow(unwrap) — callers check is_some() first
    o.unwrap()
}

pub fn strings_and_comments() {
    let _s = ".unwrap() and panic!( and x == 1.0";
    // .expect( here is commentary, x == 1.0 too
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
        if 1.0 == 1.0 {
            panic!("fine in tests");
        }
    }
}
