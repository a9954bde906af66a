//! Pinned gate digests from `expected.json`.
//!
//! Each workload runs a small canonical input (seed 42) before it measures
//! and compares the output digest with the value pinned here. The digests
//! are pure functions of the program's behaviour, so a change that alters
//! what the program computes fails the run until the pin is renewed on
//! purpose.

use crate::report::Outcome;

const PINNED: &str = include_str!("../expected.json");

/// The pinned digest under `key`, if present.
pub fn pinned(key: &str) -> Option<u64> {
    let needle = format!("\"{key}\"");
    let rest = &PINNED[PINNED.find(&needle)? + needle.len()..];
    let start = rest.find("\"0x")? + 3;
    let end = start + rest[start..].find('"')?;
    u64::from_str_radix(&rest[start..end], 16).ok()
}

/// Records a problem unless `actual` equals the digest pinned under `key`.
pub fn check(out: &mut Outcome, key: &str, actual: u64) {
    match pinned(key) {
        Some(want) => out.check(want == actual, || {
            format!("{key}: digest {actual:#018x}, pinned {want:#018x}")
        }),
        None => out.check(false, || {
            format!("{key}: no pinned digest (got {actual:#018x})")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_gate_is_pinned() {
        for key in ["paper_gate", "city_gate", "storm_gate", "gateway_gate"] {
            assert!(pinned(key).is_some(), "{key} missing from expected.json");
        }
        assert_eq!(pinned("no_such_gate"), None);
    }
}
