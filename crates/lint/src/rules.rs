//! The rule registry: ids, one-line contracts, and crate scoping.
//!
//! Scoping philosophy: the determinism rules apply to every crate whose
//! output feeds a run (`sim`, `core`, `webmail`, `monitor`, `attacker`,
//! `leak`, `corpus`, `net`, `analysis`, `faults`). `telemetry` is exempt
//! from the wall-clock ban only — wall-clock *profiling* is its job, and
//! its design contract (no-op when disabled, never feeding sim state)
//! is proven by its own tests. That exemption is what makes the span
//! API lintable: a deterministic crate instruments itself through
//! `sink.span(..)` / guard `.child(..)` / `sink.subspan(..)`, and every
//! `Instant::now()` those imply — including the one taken when a
//! `SpanGuard` drops — executes inside `pwnd-telemetry`, never at the
//! call site. Span call sites therefore need no `lint:allow`; a literal
//! clock read in a deterministic crate is still a finding. The `tests/` and
//! `examples/` trees are test context and are skipped by every
//! non-meta rule; the linter itself is a tool and may touch the
//! filesystem.

/// Metadata for one rule.
#[derive(Clone, Copy, Debug)]
pub struct RuleMeta {
    /// Stable rule id, as used in `lint:allow(id)`.
    pub id: &'static str,
    /// One-line contract, shown by `--list-rules`.
    pub summary: &'static str,
}

/// Deterministic crates must not read host time.
pub const WALL_CLOCK: &str = "wall-clock";
/// No `HashMap`/`HashSet` outside test code.
pub const HASH_ORDER: &str = "hash-order";
/// No ambient randomness outside the salted-stream constructors.
pub const AMBIENT_RNG: &str = "ambient-rng";
/// No environment, filesystem, process, or network access in pure crates.
pub const ENV_IO: &str = "env-io";
/// No panicking shortcuts in the resilient monitor paths.
pub const PANIC_HAZARD: &str = "panic-hazard";
/// Dependency edges must match the `LAYERING.toml` manifest.
pub const LAYERING: &str = "layering";
/// No fresh allocation in functions reachable from a `lint:hot-root`.
pub const ALLOC_HOT: &str = "alloc-hot";
/// JSONL record tags and metric names must agree at emit/consume sites.
pub const SCHEMA_DRIFT: &str = "schema-drift";
/// Locks/atomics/threads only in manifest-approved modules.
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
/// Malformed `lint:allow` directives.
pub const BAD_ALLOW: &str = "bad-allow";
/// `lint:allow` directives that suppress nothing.
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Every rule the engine knows, in reporting order.
pub const ALL_RULES: &[RuleMeta] = &[
    RuleMeta {
        id: WALL_CLOCK,
        summary: "no Instant/SystemTime/thread::sleep in deterministic crates: \
                  a run must be a pure function of (seed, config)",
    },
    RuleMeta {
        id: HASH_ORDER,
        summary: "no HashMap/HashSet outside test code: ordered work uses BTreeMap/BTreeSet, \
                  and a lookup-only hash container carries a reasoned lint:allow",
    },
    RuleMeta {
        id: AMBIENT_RNG,
        summary: "no thread_rng/from_entropy/OsRng/RandomState: all randomness flows \
                  from the seeded xoshiro streams in pwnd-sim (crates/sim/src/rng.rs)",
    },
    RuleMeta {
        id: ENV_IO,
        summary: "no std::env/std::fs/std::process/socket access in pure crates; \
                  IO belongs to the pwnd binary shell",
    },
    RuleMeta {
        id: PANIC_HAZARD,
        summary: "no unwrap/expect/panic!/indexing in the resilient monitor \
                  parse/retry paths (scraper, collector, dataset)",
    },
    RuleMeta {
        id: LAYERING,
        summary: "every pwnd-* dependency edge (Cargo.toml and source imports) must be \
                  allowed by LAYERING.toml, and every declared edge must be used",
    },
    RuleMeta {
        id: ALLOC_HOT,
        summary: "no format!/clone/to_string/fresh-collection allocation in functions \
                  reachable from a lint:hot-root anchor over the cross-crate call graph",
    },
    RuleMeta {
        id: SCHEMA_DRIFT,
        summary: "every JSONL record tag is both written (lint:jsonl-emit) and read \
                  (lint:jsonl-consume) via the tag-table consts; no metric is read \
                  under a name nothing emits",
    },
    RuleMeta {
        id: LOCK_DISCIPLINE,
        summary: "Mutex/atomics/threads only in modules approved by LAYERING.toml \
                  [locks]; the simulation is single-threaded by contract",
    },
    RuleMeta {
        id: BAD_ALLOW,
        summary: "lint:allow directives must name a known rule and give a reason",
    },
    RuleMeta {
        id: UNUSED_ALLOW,
        summary: "lint:allow directives that suppress nothing must be removed",
    },
];

/// Look up a rule id.
pub fn is_known_rule(id: &str) -> bool {
    ALL_RULES.iter().any(|r| r.id == id)
}

/// Crates whose behavior must be a pure function of `(seed, config)` —
/// the wall-clock ban applies here.
const DETERMINISTIC_CRATES: &[&str] = &[
    "sim", "core", "webmail", "monitor", "attacker", "leak", "corpus", "net", "analysis", "faults",
    "bin",
];

/// Crates that must perform no ambient IO. The binary (`bin`) is the
/// imperative shell and is exempt; `telemetry` renders to strings only,
/// so it is held to the same standard as the pure crates.
const PURE_IO_CRATES: &[&str] = &[
    "sim",
    "core",
    "webmail",
    "monitor",
    "attacker",
    "leak",
    "corpus",
    "net",
    "analysis",
    "faults",
    "telemetry",
];

/// Files holding the sanctioned salted-stream RNG constructors.
const RNG_HOME: &[&str] = &["crates/sim/src/rng.rs"];

/// The resilient monitor paths hardened in the fault-injection PR.
const RESILIENT_MONITOR_FILES: &[&str] = &[
    "crates/monitor/src/scraper.rs",
    "crates/monitor/src/collector.rs",
    "crates/monitor/src/dataset.rs",
];

/// Whether `rule` applies to the file at `path` in crate `krate`.
pub fn applies(rule: &str, krate: &str, path: &str) -> bool {
    match rule {
        WALL_CLOCK => DETERMINISTIC_CRATES.contains(&krate),
        AMBIENT_RNG => !RNG_HOME.contains(&path) && krate != "tests" && krate != "examples",
        ENV_IO => PURE_IO_CRATES.contains(&krate),
        HASH_ORDER => krate != "tests" && krate != "examples",
        PANIC_HAZARD => RESILIENT_MONITOR_FILES.contains(&path),
        // The workspace rules scope themselves over FileModels (test
        // crates and manifest-approved modules are excluded there); at
        // this per-file layer they apply everywhere.
        LAYERING | ALLOC_HOT | SCHEMA_DRIFT | LOCK_DISCIPLINE => true,
        BAD_ALLOW | UNUSED_ALLOW => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoping_matches_the_contract() {
        assert!(applies(WALL_CLOCK, "sim", "crates/sim/src/time.rs"));
        assert!(!applies(
            WALL_CLOCK,
            "telemetry",
            "crates/telemetry/src/sink.rs"
        ));
        assert!(!applies(AMBIENT_RNG, "sim", "crates/sim/src/rng.rs"));
        assert!(applies(AMBIENT_RNG, "sim", "crates/sim/src/dist.rs"));
        assert!(applies(
            ENV_IO,
            "telemetry",
            "crates/telemetry/src/trace.rs"
        ));
        assert!(!applies(ENV_IO, "bin", "src/bin/pwnd.rs"));
        assert!(applies(
            PANIC_HAZARD,
            "monitor",
            "crates/monitor/src/scraper.rs"
        ));
        assert!(!applies(
            PANIC_HAZARD,
            "monitor",
            "crates/monitor/src/script.rs"
        ));
        assert!(is_known_rule("hash-order"));
        assert!(!is_known_rule("made-up"));
    }
}
