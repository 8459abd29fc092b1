// Seeded violations for the panic-hazard rule. Linted as if it lived at
// crates/monitor/src/dataset.rs (a resilient monitor path).
use std::collections::HashMap;

pub fn naughty(parts: &[&str], m: &HashMap<u32, u32>) -> u32 {
    let first: u32 = parts[0].parse().unwrap(); // findings: indexing + unwrap
    let second = m[&first]; // finding: indexing
    let third = m.get(&second).expect("present"); // finding: expect
    if parts.len() < 2 {
        panic!("short row"); // finding: panic!
    }
    *third
}

pub fn fine(parts: &[&str], m: &HashMap<u32, u32>) -> Option<u32> {
    let first: u32 = parts.first()?.parse().ok()?;
    m.get(&first).copied()
}
