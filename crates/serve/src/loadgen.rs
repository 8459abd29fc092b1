//! The deterministic query mix that load against the daemon replays.
//!
//! [`query_mix`] turns an index into a fixed list of `/v1` paths: the
//! three aggregate endpoints plus sampled per-account and range
//! lookups. pwndbench's open-loop `serve_open_loop` workload and the
//! concurrent-clients test in `tests/serve_queries.rs` both cycle it,
//! so they load the daemon with the same requests.

use crate::index::QueryIndex;

/// The deterministic query mix: every aggregate endpoint, then up to
/// `samples` account lookups (timeline and accesses alternating over
/// evenly-strided ids) and `samples` range queries over the index's
/// real bucket prefixes. Pure function of the index contents.
pub fn query_mix(index: &QueryIndex, samples: usize) -> Vec<String> {
    let mut mix = vec![
        "/v1/healthz".to_string(),
        "/v1/stats".to_string(),
        "/v1/outlets".to_string(),
    ];
    let ids = index.account_ids();
    if !ids.is_empty() {
        let stride = (ids.len() / samples.max(1)).max(1);
        for (i, id) in ids.iter().step_by(stride).take(samples).enumerate() {
            if i % 2 == 0 {
                mix.push(format!("/v1/account/{id}/timeline"));
            } else {
                mix.push(format!("/v1/account/{id}/accesses"));
            }
        }
    }
    let prefixes = index.range_prefixes();
    if !prefixes.is_empty() {
        let stride = (prefixes.len() / samples.max(1)).max(1);
        for p in prefixes.iter().step_by(stride).take(samples) {
            mix.push(format!("/v1/range/{p}"));
        }
    }
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::StoreMeta;
    use pwnd_monitor::dataset::Dataset;

    #[test]
    fn mix_always_contains_the_aggregate_endpoints() {
        let idx = QueryIndex::from_dataset(&Dataset::default(), StoreMeta::default());
        let mix = query_mix(&idx, 8);
        assert_eq!(mix, vec!["/v1/healthz", "/v1/stats", "/v1/outlets"]);
    }
}
