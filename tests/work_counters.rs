//! Work counters pinned in tier-1: the exact deterministic work a quick
//! run does, and ceilings on the allocations a quick and a paper run
//! make, untraced and traced.
//!
//! A run is a pure function of `(seed, config)`, so its event, login,
//! scrape and dump counts are exact facts, not measurements: an
//! unexplained extra login fails here on any host. The allocation count
//! is deterministic too, but it moves with the toolchain and the build
//! profile, so it is held under a committed ceiling rather than pinned.
//! A change that cuts allocations lowers the ceiling along with it.
//! Wall-clock claims are out of scope here; they belong to same-host
//! `pwndbench compare` tables.

use pwnd::telemetry::TelemetrySink;
use pwnd::{Experiment, ExperimentConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) one
/// untraced `ExperimentConfig::quick(2016)` run may make. Measured at
/// exactly 17,926 under the `cargo test` (debug) profile with rustc
/// 1.95.0, once each visit borrowed its plan and the service queued the
/// monitor's quiet logins; the ceiling is that count plus 235. It was
/// 18,927 while each visit deep-copied its plan and every scrape was a
/// full login, 19,626 while the entries were a B-tree (a node per few
/// entries) and each unread listing collected the whole Inbox first,
/// 22,824 while each mailbox formatted its peers' addresses and held
/// its subject lines as text and each search built its frame map,
/// 25,866 while the service queued login, password-change and block
/// events that nothing read, 27,005 while the notification collector's
/// dedup and heartbeat indexes were B-trees, 31,879 while each draw
/// near a point, each geolocation and each search collected them again,
/// 34,665 while every body was text and each mailbox formatted its
/// peers' full names, 34,608 while the lookup-only maps and sets were
/// hash tables (a B-tree allocates a node per few keys where a hash
/// table allocates one table), 40,222 while each send and draft copied
/// its sender and built two strings for the extortion check, and 48,826
/// while each send built an owned email and each open copied one out.
const ALLOC_CEILING: u64 = 18_161;

/// The same for one untraced `ExperimentConfig::paper(2016)` run:
/// measured at exactly 19,199, ceiling that count plus 141. It was
/// 20,271 with a plan copy per visit and a full login per scrape,
/// 24,548 with B-tree entries, 27,998 with peer addresses formatted per
/// mailbox, subject lines as text and a frame map per search, 33,271
/// with login, password-change and block events queued, 35,518 with
/// B-tree collector indexes, 41,145 with city pools and piece masks
/// built per draw and search, 43,909 with text bodies and formatted
/// peer names, 43,690 with hash tables for the lookup-only maps and
/// sets, 49,253 with a sender copy and two check strings per send,
/// 57,774 with owned copies per send and open, and 215,795 while every
/// seeded email held its own strings.
const PAPER_ALLOC_CEILING: u64 = 19_340;

/// Allocations one `ExperimentConfig::quick(2016)` run may make with
/// `TelemetrySink::enabled()` attached: measured at exactly 20,946
/// under the same profile and toolchain, ceiling that count plus 557.
/// The 3,020 beyond the untraced run are the metric keys and span nodes
/// the live sink records; the untraced ceilings never count them, so
/// telemetry-only allocation is held here. It was 21,949 with a plan
/// copy per visit and a full login per scrape, 22,648 with B-tree
/// mailbox entries, 56,364 while the sink built every trace event (and
/// its detail string) into a ring that only `pwnd trace` read, 59,562
/// with peer addresses formatted per mailbox, subject lines as text and
/// a frame map per search, 62,604 with login, password-change and block
/// events queued, and 63,743 with B-tree collector indexes.
const TRACED_ALLOC_CEILING: u64 = 21_503;

/// The same for one traced `ExperimentConfig::paper(2016)` run:
/// measured at exactly 23,568, 4,369 beyond the untraced run, ceiling
/// that count plus 776. It was 24,642 with a plan copy per visit and a
/// full login per scrape, 28,919 with B-tree mailbox entries,
/// 85,654 (61,106 beyond) while the sink built every trace event into a
/// ring, 89,104 with peer addresses formatted per mailbox, subject
/// lines as text and a frame map per search, 94,377 with login,
/// password-change and block events queued, and 96,624 with B-tree
/// collector indexes.
const TRACED_PAPER_ALLOC_CEILING: u64 = 24_344;

thread_local! {
    /// Whether allocations on this thread are being counted. Only the
    /// test's own thread ever sets it, so libtest's other threads never
    /// count.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls made while [`COUNTING`] is
/// set on the calling thread.
struct Counting;

fn record() {
    // `try_with`: the allocator may run while this thread's locals are
    // being torn down, when they must not be touched.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            COUNT.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// thread-local counters touch no allocator state and never allocate
// (both are `const`-initialised with no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` made on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    COUNT.with(Cell::get)
}

/// Allocations of one run of `cfg`, with a live [`TelemetrySink`] when
/// `traced`, after an untraced quick run on the same thread has paid any
/// one-time initialisation.
fn run_allocations(cfg: ExperimentConfig, traced: bool) -> u64 {
    drop(Experiment::new(ExperimentConfig::quick(2016)).run());
    allocations(|| {
        let experiment = Experiment::new(cfg);
        let experiment = if traced {
            experiment.with_telemetry(TelemetrySink::enabled())
        } else {
            experiment
        };
        drop(experiment.run())
    })
}

#[test]
fn paper_run_stays_within_its_alloc_ceiling() {
    let count = run_allocations(ExperimentConfig::paper(2016), false);
    assert!(
        count <= PAPER_ALLOC_CEILING,
        "an untraced paper run made {count} allocations, over the ceiling of {PAPER_ALLOC_CEILING}"
    );
}

#[test]
fn traced_quick_run_stays_within_its_alloc_ceiling() {
    let count = run_allocations(ExperimentConfig::quick(2016), true);
    assert!(
        count <= TRACED_ALLOC_CEILING,
        "a traced quick run made {count} allocations, over the ceiling of {TRACED_ALLOC_CEILING}"
    );
}

#[test]
fn traced_paper_run_stays_within_its_alloc_ceiling() {
    let count = run_allocations(ExperimentConfig::paper(2016), true);
    assert!(
        count <= TRACED_PAPER_ALLOC_CEILING,
        "a traced paper run made {count} allocations, over the ceiling of {TRACED_PAPER_ALLOC_CEILING}"
    );
}

#[test]
fn quick_run_does_exactly_the_pinned_work_within_the_alloc_ceiling() {
    // 1. The deterministic work counters of a traced run.
    let sink = TelemetrySink::enabled();
    let report = Experiment::new(ExperimentConfig::quick(2016))
        .with_telemetry(sink)
        .run()
        .telemetry_report();
    // Every series under these names, labelled or not, in key order:
    // an extra label fails as surely as a changed count.
    let bases = [
        "monitor.scrape_dumps",
        "monitor.scrapes",
        "sim.events_dispatched",
        "webmail.logins",
    ];
    let counted: Vec<(&str, u64)> = report
        .metrics
        .counters
        .iter()
        .filter(|(name, _)| name.split('{').next().is_some_and(|b| bases.contains(&b)))
        .map(|(name, &n)| (name.as_str(), n))
        .collect();
    assert_eq!(
        counted,
        [
            ("monitor.scrape_dumps", 1_047),
            ("monitor.scrapes", 31_822),
            ("sim.events_dispatched{heartbeat}", 121),
            ("sim.events_dispatched{scrape}", 480),
            ("sim.events_dispatched{visit}", 887),
            ("webmail.logins{bad_credentials}", 225),
            ("webmail.logins{blocked}", 116),
            ("webmail.logins{ok}", 32_368),
        ]
    );

    // 2. The allocations of an untraced run of the same config. The
    // traced run above has already paid any one-time, process-wide
    // initialisation, so this count is the run's own.
    let cfg = ExperimentConfig::quick(2016);
    let count = allocations(|| drop(Experiment::new(cfg).run()));
    assert!(
        count <= ALLOC_CEILING,
        "an untraced quick run made {count} allocations, over the ceiling of {ALLOC_CEILING}"
    );
}
