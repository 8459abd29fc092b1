//! Hierarchical span aggregation: where the wall clock actually went.
//!
//! The span tree is the one record of wall time. Its roots answer *"how
//! long did the event loop take?"*; their descendants answer *"and
//! which event kinds inside it?"*. Every [`SpanGuard`](crate::sink::SpanGuard)
//! opened while another guard is live becomes a **child** of that
//! guard's node, so a run builds an aggregate tree keyed by path —
//! `event-loop;event{kind=visit,class=Curious}` — with per-path wall
//! time, entry count, and the sim-time range the span covered.
//!
//! Wall-clock totals live *only* here, never in the trace, so two
//! identical runs still produce equal
//! [`TelemetryReport`](crate::report::TelemetryReport)s and identical
//! traces: report equality compares the metrics, and the span tree's
//! *structure* is deterministic too ([`SpanTreeSnapshot::structure`]).
//!
//! Path segments are joined with `;` — the flamegraph collapsed-stack
//! convention — so span names must not contain `;`.

use crate::json::Json;
use crate::report::format_duration;
use crate::table::Table;
use std::collections::BTreeMap;
use std::time::Duration;

/// Live arena of span nodes, owned by an enabled sink.
///
/// Nodes are created on first open of a `(parent, name)` pair and
/// accumulate across re-entries, so the tree stays small (one node per
/// distinct path) however many spans a run opens.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    nodes: Vec<Node>,
    roots: Vec<usize>,
}

#[derive(Clone, Debug)]
struct Node {
    name: String,
    parent: Option<usize>,
    /// Direct children, in creation order. Fan-out per node is a
    /// handful of static names, so a linear scan beats a map — and,
    /// unlike a string-keyed map, re-entry allocates nothing, keeping
    /// the hot open path (tens of thousands of scrape-attempt spans per
    /// run) out of the parent's measured self time.
    children: Vec<usize>,
    total: Duration,
    count: u64,
    sim_min: Option<u64>,
    sim_max: Option<u64>,
}

impl SpanTree {
    /// Index of the node for `name` under `parent`, creating it on
    /// first use. Re-entry is allocation-free.
    pub fn open(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        for &idx in siblings {
            if self.nodes[idx].name == name {
                return idx;
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name: name.to_string(),
            parent,
            children: Vec::new(),
            total: Duration::ZERO,
            count: 0,
            sim_min: None,
            sim_max: None,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    /// Fold one finished span instance into its node.
    pub fn record(&mut self, idx: usize, elapsed: Duration) {
        if let Some(n) = self.nodes.get_mut(idx) {
            n.total += elapsed;
            n.count += 1;
        }
    }

    /// Widen a node's sim-time range to include `at_secs`.
    pub fn annotate_sim(&mut self, idx: usize, at_secs: u64) {
        if let Some(n) = self.nodes.get_mut(idx) {
            n.sim_min = Some(n.sim_min.map_or(at_secs, |m| m.min(at_secs)));
            n.sim_max = Some(n.sim_max.map_or(at_secs, |m| m.max(at_secs)));
        }
    }

    /// The sim-time range a node has been annotated with, if any.
    pub fn sim_range(&self, idx: usize) -> Option<(u64, u64)> {
        let n = self.nodes.get(idx)?;
        Some((n.sim_min?, n.sim_max?))
    }

    /// The `;`-joined path from the root to `idx`.
    pub fn path_of(&self, idx: usize) -> String {
        let mut segments = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            match self.nodes.get(i) {
                Some(n) => {
                    segments.push(n.name.clone());
                    cur = n.parent;
                }
                None => break,
            }
        }
        segments.reverse();
        segments.join(";")
    }

    /// Whether any span was ever opened.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Freeze into a path-keyed snapshot, sorted by path.
    pub fn snapshot(&self) -> SpanTreeSnapshot {
        // Parents are always created before children, so one forward
        // pass can build every full path.
        let mut paths: Vec<String> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let path = match n.parent {
                Some(p) => format!("{};{}", paths[p], n.name),
                None => n.name.clone(),
            };
            paths.push(path);
        }
        let mut nodes: Vec<SpanNode> = self
            .nodes
            .iter()
            .zip(paths)
            .map(|(n, path)| SpanNode {
                path,
                total: n.total,
                count: n.count,
                sim_min: n.sim_min,
                sim_max: n.sim_max,
            })
            .collect();
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        SpanTreeSnapshot { nodes }
    }
}

/// One [`SpanTreeSnapshot::structure`] row: `(path, count, sim range)`.
pub type SpanStructureRow = (String, u64, Option<(u64, u64)>);

/// One aggregated span path in a [`SpanTreeSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// `;`-joined path from the root (`"event-loop;scrape;poll"`).
    pub path: String,
    /// Accumulated wall time across entries.
    pub total: Duration,
    /// Number of span instances folded in.
    pub count: u64,
    /// Earliest sim second this span was annotated with, if any.
    pub sim_min: Option<u64>,
    /// Latest sim second this span was annotated with, if any.
    pub sim_max: Option<u64>,
}

impl SpanNode {
    /// The final path segment (`"poll"` for `"event-loop;scrape;poll"`).
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }

    /// The leaf with any `{label}` suffix stripped (`"event"` for
    /// `"event{kind=visit}"`).
    pub fn leaf_base(&self) -> &str {
        let leaf = self.leaf();
        leaf.split('{').next().unwrap_or(leaf)
    }

    /// The parent path, if this node is not a root.
    pub fn parent_path(&self) -> Option<&str> {
        self.path.rsplit_once(';').map(|(p, _)| p)
    }
}

/// How much of a phase's wall time its child spans account for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanAttribution {
    /// Total wall time of every node whose leaf matches the phase.
    pub total: Duration,
    /// Wall time of those nodes' direct children.
    pub children: Duration,
}

impl SpanAttribution {
    /// Fraction of `total` covered by named children, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.children.as_secs_f64() / self.total.as_secs_f64()
        }
    }
}

/// Frozen, mergeable view of a [`SpanTree`], sorted by path.
///
/// Equality compares everything including wall-clock totals — exact
/// `Duration` addition is associative and commutative, which is what
/// the merge proptests pin down. Run-to-run *determinism* claims use
/// [`structure`](SpanTreeSnapshot::structure) instead, which drops the
/// wall-clock fields.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanTreeSnapshot {
    /// Aggregated nodes, ascending by path.
    pub nodes: Vec<SpanNode>,
}

impl SpanTreeSnapshot {
    /// Whether the snapshot holds no spans.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Fold another snapshot into this one, keyed by path: totals and
    /// counts add, sim ranges widen. Order-free and associative.
    pub fn merge_from(&mut self, other: &SpanTreeSnapshot) {
        let mut by_path: BTreeMap<String, SpanNode> =
            self.nodes.drain(..).map(|n| (n.path.clone(), n)).collect();
        for n in &other.nodes {
            match by_path.get_mut(&n.path) {
                Some(slot) => {
                    slot.total += n.total;
                    slot.count += n.count;
                    slot.sim_min = match (slot.sim_min, n.sim_min) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    slot.sim_max = match (slot.sim_max, n.sim_max) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => {
                    by_path.insert(n.path.clone(), n.clone());
                }
            }
        }
        self.nodes = by_path.into_values().collect();
    }

    /// The root nodes — the run's phases — ascending by path.
    pub fn roots(&self) -> impl Iterator<Item = &SpanNode> {
        self.nodes.iter().filter(|n| n.parent_path().is_none())
    }

    /// The node at exactly `path`, if present.
    pub fn node(&self, path: &str) -> Option<&SpanNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Sum of the direct children's totals under `path`.
    pub fn children_total(&self, path: &str) -> Duration {
        self.nodes
            .iter()
            .filter(|n| n.parent_path() == Some(path))
            .map(|n| n.total)
            .sum()
    }

    /// Wall time spent in `path` itself, excluding its direct children.
    pub fn self_time(&self, path: &str) -> Duration {
        match self.node(path) {
            Some(n) => n.total.saturating_sub(self.children_total(path)),
            None => Duration::ZERO,
        }
    }

    /// Attribution for every node whose leaf is exactly `name`
    /// (aggregated across paths — a `scrape` span appears both inside
    /// and outside `event{kind=scrape}`). `None` when no node matches.
    pub fn attribution(&self, name: &str) -> Option<SpanAttribution> {
        let mut total = Duration::ZERO;
        let mut children = Duration::ZERO;
        let mut seen = false;
        for n in &self.nodes {
            if n.leaf() == name {
                seen = true;
                total += n.total;
                children += self.children_total(&n.path);
            }
        }
        seen.then_some(SpanAttribution { total, children })
    }

    /// The deterministic projection: `(path, count, sim range)` per
    /// node, no wall clock. Two runs of the same seeded config produce
    /// identical structures.
    pub fn structure(&self) -> Vec<SpanStructureRow> {
        self.nodes
            .iter()
            .map(|n| {
                let range = match (n.sim_min, n.sim_max) {
                    (Some(a), Some(b)) => Some((a, b)),
                    _ => None,
                };
                (n.path.clone(), n.count, range)
            })
            .collect()
    }

    /// Flamegraph collapsed-stack export: one `path self_time_µs` line
    /// per node, every node included (so the path *set* is a
    /// deterministic function of the run, whatever the timings).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&n.path);
            out.push(' ');
            out.push_str(&self.self_time(&n.path).as_micros().to_string());
            out.push('\n');
        }
        out
    }

    /// The top-spans table: every path with count, total, self time,
    /// and share of its parent, sorted by total descending (path as the
    /// tie-break). `limit` bounds the row count; 0 means all.
    pub fn top_spans_table(&self, limit: usize) -> String {
        let mut order: Vec<&SpanNode> = self.nodes.iter().collect();
        order.sort_by(|a, b| b.total.cmp(&a.total).then_with(|| a.path.cmp(&b.path)));
        if limit > 0 {
            order.truncate(limit);
        }
        let mut t = Table::new(&["span", "count", "total", "self", "of parent"]).numeric();
        for n in order {
            let of_parent = n
                .parent_path()
                .and_then(|p| self.node(p))
                .map(|parent| {
                    if parent.total.is_zero() {
                        String::new()
                    } else {
                        format!(
                            "{:.1}%",
                            100.0 * n.total.as_secs_f64() / parent.total.as_secs_f64()
                        )
                    }
                })
                .unwrap_or_default();
            t.row([
                n.path.clone(),
                n.count.to_string(),
                format_duration(n.total),
                format_duration(self.self_time(&n.path)),
                of_parent,
            ]);
        }
        t.render()
    }

    /// JSON form: an array of node objects (durations in nanoseconds).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.nodes
                .iter()
                .map(|n| {
                    let mut fields = vec![
                        ("path".to_string(), Json::Str(n.path.clone())),
                        ("total_ns".to_string(), Json::U(n.total.as_nanos() as u64)),
                        ("count".to_string(), Json::U(n.count)),
                    ];
                    if let Some(m) = n.sim_min {
                        fields.push(("sim_min".to_string(), Json::U(m)));
                    }
                    if let Some(m) = n.sim_max {
                        fields.push(("sim_max".to_string(), Json::U(m)));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        )
    }

    /// Parse the [`to_json`](SpanTreeSnapshot::to_json) form back.
    pub fn from_json(json: &Json) -> Result<SpanTreeSnapshot, String> {
        let arr = json.as_array().ok_or("spans: expected array")?;
        let mut nodes = Vec::with_capacity(arr.len());
        for item in arr {
            let path = item
                .get("path")
                .and_then(Json::as_str)
                .ok_or("span node: missing path")?
                .to_string();
            let total_ns = item
                .get("total_ns")
                .and_then(Json::as_u64)
                .ok_or("span node: missing total_ns")?;
            let count = item
                .get("count")
                .and_then(Json::as_u64)
                .ok_or("span node: missing count")?;
            nodes.push(SpanNode {
                path,
                total: Duration::from_nanos(total_ns),
                count,
                sim_min: item.get("sim_min").and_then(Json::as_u64),
                sim_max: item.get("sim_max").and_then(Json::as_u64),
            });
        }
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(SpanTreeSnapshot { nodes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn sample() -> SpanTree {
        let mut t = SpanTree::default();
        let root = t.open(None, "event-loop");
        let visit = t.open(Some(root), "event{kind=visit}");
        let scrape = t.open(Some(root), "event{kind=scrape}");
        t.record(root, ms(100));
        t.record(visit, ms(60));
        t.record(visit, ms(10));
        t.record(scrape, ms(20));
        t.annotate_sim(root, 3600);
        t.annotate_sim(root, 60);
        t
    }

    #[test]
    fn paths_counts_and_self_time() {
        let snap = sample().snapshot();
        let paths: Vec<&str> = snap.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "event-loop",
                "event-loop;event{kind=scrape}",
                "event-loop;event{kind=visit}",
            ]
        );
        let visit = snap.node("event-loop;event{kind=visit}").unwrap();
        assert_eq!(visit.count, 2);
        assert_eq!(visit.total, ms(70));
        assert_eq!(visit.leaf_base(), "event");
        assert_eq!(visit.parent_path(), Some("event-loop"));
        assert_eq!(snap.self_time("event-loop"), ms(10));
        let attr = snap.attribution("event-loop").unwrap();
        assert_eq!(attr.total, ms(100));
        assert_eq!(attr.children, ms(90));
        assert!((attr.coverage() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn sim_range_widens_and_survives_snapshot() {
        let tree = sample();
        assert_eq!(tree.sim_range(0), Some((60, 3600)));
        let snap = tree.snapshot();
        let root = snap.node("event-loop").unwrap();
        assert_eq!((root.sim_min, root.sim_max), (Some(60), Some(3600)));
        assert_eq!(
            snap.structure()[0],
            ("event-loop".to_string(), 1, Some((60, 3600)))
        );
    }

    #[test]
    fn reentry_reuses_nodes() {
        let mut t = SpanTree::default();
        let a = t.open(None, "scrape");
        let b = t.open(None, "scrape");
        assert_eq!(a, b);
        let c = t.open(Some(a), "poll");
        let d = t.open(Some(a), "poll");
        assert_eq!(c, d);
        assert_eq!(t.path_of(c), "scrape;poll");
    }

    #[test]
    fn merge_adds_by_path_and_widens_sim() {
        let mut a = sample().snapshot();
        let b = sample().snapshot();
        a.merge_from(&b);
        let root = a.node("event-loop").unwrap();
        assert_eq!(root.total, ms(200));
        assert_eq!(root.count, 2);
        assert_eq!((root.sim_min, root.sim_max), (Some(60), Some(3600)));
        // Merging an empty snapshot is a no-op.
        let before = a.clone();
        a.merge_from(&SpanTreeSnapshot::default());
        assert_eq!(a, before);
    }

    #[test]
    fn collapsed_lists_every_path_with_self_micros() {
        let snap = sample().snapshot();
        let collapsed = snap.collapsed();
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "event-loop 10000");
        assert_eq!(lines[1], "event-loop;event{kind=scrape} 20000");
        assert_eq!(lines[2], "event-loop;event{kind=visit} 70000");
    }

    #[test]
    fn json_round_trips() {
        let snap = sample().snapshot();
        let json = snap.to_json();
        let back = SpanTreeSnapshot::from_json(&json).unwrap();
        assert_eq!(back, snap);
        let reparsed = Json::parse(&json.compact()).unwrap();
        assert_eq!(SpanTreeSnapshot::from_json(&reparsed).unwrap(), snap);
    }

    #[test]
    fn top_spans_table_orders_by_total() {
        let table = sample().snapshot().top_spans_table(2);
        let body: Vec<&str> = table.lines().collect();
        // Header, separator, then event-loop (100ms) and visit (70ms).
        assert!(body[2].starts_with("event-loop "));
        assert!(body[3].contains("event{kind=visit}"));
        assert!(body[3].contains("70.00ms"));
        assert_eq!(body.len(), 4);
    }
}
