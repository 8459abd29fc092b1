//! The deterministic parallel run engine.
//!
//! The paper's headline numbers come from aggregating many independent
//! observations; our analogue is the multi-seed sweep and the chaos
//! ablation, where every run is — by the determinism contract the lint
//! gate enforces — a pure function of `(seed, config)`. That makes a
//! batch embarrassingly parallel: [`Runner`] executes independent
//! [`ExperimentConfig`]s across scoped worker threads pulling from a
//! shared queue, and collects the [`RunOutput`]s back **in submission
//! order**, so every consumer (sweep table, chaos table, dataset
//! export) sees byte-identical results whatever the thread count.
//!
//! ## The determinism argument
//!
//! 1. Each run reads only its own `ExperimentConfig` and its own
//!    telemetry sink; no state is shared between runs (the lint gate
//!    bans ambient RNG, wall-clock reads, and env/IO in every crate a
//!    run touches).
//! 2. Workers may *execute* runs in any order, but each result lands in
//!    the slot of its submission index; after the scope joins, outputs
//!    are read out by index. Scheduling therefore reorders execution,
//!    never output.
//! 3. Telemetry is merged post hoc by [`TelemetryReport::merge`], whose
//!    rules (sum counters and histograms, max gauges, fold span trees by
//!    path) are order-free and depend only on the per-run reports — not
//!    on which worker produced them. A trace belongs to one run and no
//!    sink here keeps one, so no rule orders trace events. Wall-clock
//!    span timings are the one scheduling-dependent artifact, and those
//!    are excluded from report equality by design.
//!
//! `runner_is_schedule_invariant` below proves the contract rather than
//! asserting it: same batch, 1 job vs many, byte-identical datasets and
//! equal merged telemetry.

use crate::config::ExperimentConfig;
use crate::experiment::Experiment;
use crate::output::RunOutput;
use pwnd_telemetry::{format_duration, TelemetryReport, TelemetrySink};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// Executes batches of independent experiment runs across worker
/// threads, preserving submission order in the collected outputs.
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    telemetry: bool,
}

/// What a batch produced: one value per run in submission order —
/// whatever [`Runner::run_map`]'s `map` made of its [`RunOutput`], the
/// output itself for `|_, output| output` — plus each run's report
/// (metrics, span tree, trace event count) and their merge (empty
/// unless the runner was built [`Runner::with_telemetry`]). A batch's
/// runs only count their trace events; nothing holds them, and only a
/// sink built with `TelemetrySink::with_trace`, as `pwnd trace` builds
/// one for a single run, ever sees them.
pub struct Batch<T = RunOutput> {
    /// One value per submitted config, in submission order.
    pub outputs: Vec<T>,
    /// Each run's own report, in submission order: what `telemetry`
    /// merged, without the runner's series and spans.
    pub reports: Vec<TelemetryReport>,
    /// Merged telemetry: per-run metrics and span trees combined by
    /// [`TelemetryReport::merge`], plus the runner's own `runner.*`
    /// series and root spans.
    pub telemetry: TelemetryReport,
    /// Worker threads the batch ran across.
    pub jobs: usize,
}

/// Wall-clock summary of one batch, for the `--profile` breakdown.
#[derive(Clone, Debug)]
pub struct BatchProfile {
    /// Worker threads used.
    pub jobs: usize,
    /// Runs executed.
    pub runs: u64,
    /// Sum of per-run wall time — what a sequential executor would pay.
    pub serial: Duration,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Total time workers spent waiting on the shared queue.
    pub queue_wait: Duration,
}

impl BatchProfile {
    /// Parallel speedup: serial-equivalent time over batch wall time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.serial.as_secs_f64() / wall
        }
    }

    /// The `--profile` breakdown lines.
    pub fn render(&self) -> String {
        format!(
            "runner: {} runs across {} jobs\n\
             serial-equivalent {}, wall {}, speedup {:.2}x, queue wait {}\n",
            self.runs,
            self.jobs,
            format_duration(self.serial),
            format_duration(self.wall),
            self.speedup(),
            format_duration(self.queue_wait),
        )
    }
}

impl<T> Batch<T> {
    /// The wall-clock profile of this batch, when telemetry was on,
    /// read from the runner's root spans.
    pub fn profile(&self) -> Option<BatchProfile> {
        let spans = &self.telemetry.spans;
        let run = spans.node("runner.run")?;
        Some(BatchProfile {
            jobs: self.jobs,
            runs: run.count,
            serial: run.total,
            wall: spans.node("runner.batch")?.total,
            queue_wait: spans
                .node("runner.queue-wait")
                .map(|n| n.total)
                .unwrap_or_default(),
        })
    }
}

impl Runner {
    /// A runner with `jobs` worker threads (0 is clamped to 1). One job
    /// runs everything inline on the calling thread — exactly the
    /// sequential code path a plain loop would take.
    pub fn new(jobs: usize) -> Runner {
        Runner {
            jobs: jobs.max(1),
            telemetry: false,
        }
    }

    /// Worker threads this runner uses.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Enable telemetry: every run gets its own enabled sink (so
    /// [`RunOutput::telemetry_report`] works per run) and the batch
    /// report merges them all, adding `runner.jobs`, `runner.runs`, and
    /// the `runner.batch` / `runner.run` / `runner.queue-wait` root spans.
    pub fn with_telemetry(mut self, enabled: bool) -> Runner {
        self.telemetry = enabled;
        self
    }

    /// Run every config and transform each [`RunOutput`] *inside the
    /// worker* before it is parked in its submission slot.
    ///
    /// ```no_run
    /// use pwnd_core::{ExperimentConfig, Runner};
    ///
    /// // Four seeds across four workers; each run's access count comes
    /// // back in submission order, as a sequential loop would give it.
    /// let configs: Vec<_> = (0..4).map(ExperimentConfig::quick).collect();
    /// let batch = Runner::new(4).run_map(configs, |_, o| o.dataset.accesses.len());
    /// assert_eq!(batch.outputs.len(), 4);
    /// ```
    ///
    /// `map(index, output)` receives the run's submission index. The
    /// fleet pipeline uses it to rewrite each shard's account ids to
    /// their fleet-global range and hand the dataset to its sink,
    /// dropping the rest of each output while the batch is still
    /// running.
    ///
    /// Each run's report is snapshotted before `map` sees the output
    /// and lands in [`Batch::reports`]. Results and reports land in
    /// submission order whatever the schedule.
    pub fn run_map<T, F>(&self, configs: Vec<ExperimentConfig>, map: F) -> Batch<T>
    where
        T: Send,
        F: Fn(usize, RunOutput) -> T + Sync,
    {
        let n = configs.len();
        let batch_sink = self.sink();
        batch_sink.gauge_set("runner.jobs", self.jobs as u64);
        batch_sink.count_by("runner.runs", n as u64);
        let batch_span = batch_sink.span("runner.batch");

        let queue: Mutex<VecDeque<(usize, ExperimentConfig)>> =
            Mutex::new(configs.into_iter().enumerate().collect());
        type Slot<T> = Option<(T, TelemetryReport)>;
        let slots: Mutex<Vec<Slot<T>>> = Mutex::new((0..n).map(|_| None).collect());

        let workers = self.jobs.min(n.max(1));
        let worker_reports: Vec<TelemetryReport> = if workers <= 1 {
            // The sequential path: no threads, no locks contended — the
            // calling thread drains the queue exactly like a plain loop.
            vec![self.worker_loop(&queue, &slots, &map)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| self.worker_loop(&queue, &slots, &map)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("runner worker panicked"))
                    .collect()
            })
        };

        drop(batch_span);
        let (outputs, mut reports): (Vec<T>, Vec<TelemetryReport>) = slots
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every submitted run produces an output"))
            .unzip();

        let telemetry = if self.telemetry {
            // The merge is order-free; only span wall-clocks differ
            // between schedules, and those are excluded from report
            // equality.
            reports.extend(worker_reports);
            reports.push(batch_sink.report());
            let merged = TelemetryReport::merge(&reports);
            reports.truncate(n);
            merged
        } else {
            TelemetryReport::default()
        };

        Batch {
            outputs,
            reports,
            telemetry,
            jobs: workers,
        }
    }

    fn sink(&self) -> TelemetrySink {
        if self.telemetry {
            TelemetrySink::enabled()
        } else {
            TelemetrySink::disabled()
        }
    }

    /// One worker: pull the next submitted config, run it, snapshot its
    /// report, map it, park the result in its submission
    /// slot; repeat until the queue drains. Returns the worker's
    /// runner-span report (queue waits, per-run wall-clock).
    fn worker_loop<T, F>(
        &self,
        queue: &Mutex<VecDeque<(usize, ExperimentConfig)>>,
        slots: &Mutex<Vec<Option<(T, TelemetryReport)>>>,
        map: &F,
    ) -> TelemetryReport
    where
        T: Send,
        F: Fn(usize, RunOutput) -> T + Sync,
    {
        let worker_sink = self.sink();
        loop {
            let next = {
                let _wait = worker_sink.span("runner.queue-wait");
                queue
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .pop_front()
            };
            let Some((index, config)) = next else {
                break;
            };
            let run_span = worker_sink.span("runner.run");
            let output = Experiment::new(config).with_telemetry(self.sink()).run();
            drop(run_span);
            // Snapshot before mapping: `map` may drop the output's sink.
            let report = output.telemetry.report();
            let mapped = map(index, output);
            let mut slots = slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slots[index] = Some((mapped, report));
        }
        worker_sink.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnd_telemetry::TelemetryReport;

    fn quick_configs(seeds: std::ops::Range<u64>) -> Vec<ExperimentConfig> {
        seeds.map(ExperimentConfig::quick).collect()
    }

    #[test]
    fn outputs_come_back_in_submission_order() {
        // Seeds diverge (proven by `different_seeds_differ`), so
        // matching each parallel output against its own sequential run
        // pins every slot to its submission index.
        let batch = Runner::new(4).run_map(quick_configs(10..14), |_, o| o);
        assert_eq!(batch.outputs.len(), 4);
        for (i, out) in batch.outputs.iter().enumerate() {
            let solo = Experiment::new(ExperimentConfig::quick(10 + i as u64)).run();
            assert_eq!(out.dataset_json(), solo.dataset_json(), "slot {i}");
        }
    }

    #[test]
    fn runner_is_schedule_invariant() {
        let seq = Runner::new(1)
            .with_telemetry(true)
            .run_map(quick_configs(20..24), |_, o| o);
        let par = Runner::new(4)
            .with_telemetry(true)
            .run_map(quick_configs(20..24), |_, o| o);
        for (a, b) in seq.outputs.iter().zip(&par.outputs) {
            assert_eq!(a.dataset_json(), b.dataset_json());
        }
        // Merged telemetry is identical too, except the runner.jobs
        // gauge which *names* the schedule.
        let strip_jobs = |r: &TelemetryReport| {
            let mut r = r.clone();
            r.metrics.gauges.remove("runner.jobs");
            r
        };
        assert_eq!(strip_jobs(&seq.telemetry), strip_jobs(&par.telemetry));
        assert_eq!(seq.telemetry.metrics.gauge("runner.jobs"), 1);
        assert_eq!(par.telemetry.metrics.gauge("runner.jobs"), 4);
    }

    #[test]
    fn merged_telemetry_sums_runs_and_stays_deterministic() {
        let a = Runner::new(3)
            .with_telemetry(true)
            .run_map(quick_configs(30..33), |_, o| o);
        let b = Runner::new(3)
            .with_telemetry(true)
            .run_map(quick_configs(30..33), |_, o| o);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.telemetry.counter("runner.runs"), 3);
        // Counters really are the sum over runs.
        let per_run: u64 = a
            .outputs
            .iter()
            .map(|o| o.telemetry_report().counter("webmail.logins"))
            .sum();
        assert!(per_run > 0);
        assert_eq!(a.telemetry.counter("webmail.logins"), per_run);
        // And the profile is well-formed.
        let profile = a.profile().expect("telemetry was enabled");
        assert_eq!(profile.runs, 3);
        assert!(profile.speedup() > 0.0);
        assert!(profile.render().contains("3 runs across 3 jobs"));
    }

    #[test]
    fn disabled_telemetry_stays_silent() {
        let batch = Runner::new(2).run_map(quick_configs(40..42), |_, o| o);
        assert!(batch.telemetry.metrics.counters.is_empty());
        assert_eq!(batch.telemetry.trace_events, 0);
        assert!(batch.profile().is_none());
        assert!(!batch.outputs[0].telemetry.is_enabled());
    }

    #[test]
    fn batch_reports_are_each_runs_own_in_submission_order() {
        let reports = |jobs: usize| {
            let batch = Runner::new(jobs)
                .with_telemetry(true)
                .run_map(quick_configs(50..54), |_, o| o.telemetry_report());
            assert_eq!(batch.reports.len(), 4);
            // Each report is the report of the run in its own slot.
            for (i, (mapped, report)) in batch.outputs.iter().zip(&batch.reports).enumerate() {
                assert_eq!(mapped.metrics, report.metrics, "slot {i}");
                assert_eq!(mapped.spans.structure(), report.spans.structure());
                assert_eq!(mapped.trace_events, report.trace_events, "slot {i}");
                assert!(report.trace_events > 0, "slot {i}");
            }
            batch.reports
        };
        let seq = reports(1);
        let par = reports(4);
        // Seeds differ, so equal slot by slot means equal order too
        // (report equality excludes wall-clock span totals).
        assert_ne!(seq[0], seq[1]);
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a, b, "slot {i}");
            assert!(a.counter("webmail.logins") > 0);
        }
    }

    #[test]
    fn indexed_map_sees_each_submission_index_in_the_worker() {
        let batch = Runner::new(4).run_map(quick_configs(60..64), |i, o| (i, o.dataset_json()));
        for (slot, (seen, json)) in batch.outputs.iter().enumerate() {
            assert_eq!(*seen, slot, "map saw its own submission index");
            let solo = Experiment::new(ExperimentConfig::quick(60 + slot as u64)).run();
            assert_eq!(*json, solo.dataset_json(), "slot {slot}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Runner::new(8)
            .with_telemetry(true)
            .run_map(Vec::new(), |_, o| o);
        assert!(batch.outputs.is_empty());
        assert_eq!(batch.telemetry.counter("runner.runs"), 0);
    }
}
