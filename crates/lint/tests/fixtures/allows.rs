// Exercises the suppression syntax. Linted as if it lived at
// crates/monitor/src/dataset.rs.
use std::collections::HashMap;

pub fn suppressed_trailing(m: &HashMap<u32, u32>) -> u32 {
    m[&0] // lint:allow(panic-hazard): fixture — key 0 is inserted by the caller
}

pub fn suppressed_own_line(m: &HashMap<u32, u32>) -> u32 {
    // lint:allow(panic-hazard): fixture — key 1 is inserted by the caller
    m[&1]
}

pub fn still_caught(m: &HashMap<u32, u32>) -> u32 {
    m[&2] // finding: no directive on this line
}

pub fn bad_directives(m: &HashMap<u32, u32>) -> u32 {
    // finding (bad-allow): unknown rule id — and the indexing below still fires
    let a = m[&3]; // lint:allow(no-such-rule): typo'd rule
    // finding (bad-allow): missing reason — and the indexing below still fires
    let b = m[&4]; // lint:allow(panic-hazard)
    a + b
}

pub fn stale(v: u32) -> u32 {
    // finding (unused-allow): nothing here panics
    v + 1 // lint:allow(panic-hazard): left over from an old refactor
}
