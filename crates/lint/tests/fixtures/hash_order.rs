// Seeded violations for the hash-order rule. Linted as if it lived at
// crates/analysis/src/bad.rs. Every non-test line that names HashMap or
// HashSet is a finding, whatever the code does with the container.
use std::collections::{BTreeMap, HashMap}; // finding: the import names HashMap

pub fn leaky(m: &HashMap<String, u64>) -> Vec<u64> {
    m.values().copied().collect() // finding above: unsorted hash iteration
}

pub fn render(m: &HashMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in m.iter() {
        // loop order reaches the rendered string
        out.push_str(&format!("{k}={v}\n"));
    }
    out
}

pub fn sorted_first(m: &HashMap<String, u64>) -> Vec<String> {
    let mut keys: Vec<String> = m.keys().cloned().collect();
    keys.sort(); // finding above: sorting afterwards does not excuse it
    keys
}

pub fn rehomed(m: &HashMap<String, u64>) -> BTreeMap<String, u64> {
    m.iter().map(|(k, v)| (k.clone(), *v)).collect::<BTreeMap<_, _>>()
}

pub fn order_free(m: &HashMap<String, u64>) -> u64 {
    m.values().sum() // finding above: an order-free terminal does not excuse it
}

fn private_helper(m: &HashMap<String, u64>) -> Vec<u64> {
    m.values().copied().collect() // finding above: private fns are not spared
}

pub fn total(m: &HashMap<String, u64>) -> u64 {
    private_helper(m).iter().sum()
}

// lint:allow(hash-order): fixture — a lookup that never iterates
pub fn lookup(m: &HashMap<String, u64>, k: &str) -> Option<u64> {
    m.get(k).copied()
}

pub fn ordered(m: &BTreeMap<String, u64>) -> Vec<u64> {
    m.values().copied().collect() // no finding: BTreeMap iterates in key order
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet; // no finding: test code

    #[test]
    fn distinct() {
        let s: HashSet<u32> = [1, 2, 2].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
