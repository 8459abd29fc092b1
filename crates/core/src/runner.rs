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
//!    rules (sum counters, max gauges, interleave traces by sim time
//!    then submission index) depend only on the per-run reports and the
//!    submission order — not on which worker produced them. Wall-clock
//!    phase timings are the one scheduling-dependent artifact, and those
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

/// What a batch produced: one value per run in submission order — the
/// [`RunOutput`] itself from [`Runner::run_all`], or whatever
/// [`Runner::run_map`]'s `map` made of it — plus the merged telemetry
/// report (empty unless the runner was built [`Runner::with_telemetry`]).
pub struct Batch<T = RunOutput> {
    /// One value per submitted config, in submission order.
    pub outputs: Vec<T>,
    /// Merged telemetry: per-run metrics and traces combined by
    /// [`TelemetryReport::merge`], plus the runner's own `runner.*`
    /// series and phases.
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
    pub runs: u32,
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
    /// The wall-clock profile of this batch, when telemetry was on.
    pub fn profile(&self) -> Option<BatchProfile> {
        let phase = |name: &str| self.telemetry.phases.iter().find(|p| p.name == name);
        let run = phase("runner.run")?;
        let wall = phase("runner.batch")?.total;
        Some(BatchProfile {
            jobs: self.jobs,
            runs: run.entries,
            serial: run.total,
            wall,
            queue_wait: phase("runner.queue-wait")
                .map(|p| p.total)
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
    /// the `runner.batch` / `runner.run` / `runner.queue-wait` phases.
    pub fn with_telemetry(mut self, enabled: bool) -> Runner {
        self.telemetry = enabled;
        self
    }

    /// Run every config to completion and collect the outputs in
    /// submission order.
    ///
    /// ```no_run
    /// use pwnd_core::{ExperimentConfig, Runner};
    ///
    /// // Four seeds across four workers; outputs come back in
    /// // submission order, byte-identical to a sequential loop.
    /// let configs: Vec<_> = (0..4).map(ExperimentConfig::quick).collect();
    /// let batch = Runner::new(4).run_all(configs);
    /// assert_eq!(batch.outputs.len(), 4);
    /// ```
    pub fn run_all(&self, configs: Vec<ExperimentConfig>) -> Batch {
        self.run_map(configs, |_, output| output, |_, _| {})
    }

    /// Run every config and transform each [`RunOutput`] *inside the
    /// worker* before it is parked in its submission slot.
    ///
    /// `map(index, output)` receives the run's submission index. The
    /// fleet engine uses it to keep only the per-shard dataset, dropping
    /// the rest of each output while the batch is still running, and
    /// the fleet store to rewrite each shard's account ids to their
    /// fleet-global range so shard files merge by concatenation.
    ///
    /// `observe(index, report)` is called *inside the worker* with each
    /// run's telemetry snapshot as the run completes — in completion
    /// order, which the schedule decides, so observers that need
    /// submission order must reorder (see `OrderedReportWriter` in the
    /// fleet engine). This is the streaming-telemetry hook: each
    /// shard's report can leave the process while the batch is still
    /// running. With telemetry disabled the observer still fires, with
    /// an empty report.
    ///
    /// Ordering contract is identical to [`Runner::run_all`]: results
    /// land in submission order whatever the schedule.
    pub fn run_map<T, F, O>(&self, configs: Vec<ExperimentConfig>, map: F, observe: O) -> Batch<T>
    where
        T: Send,
        F: Fn(usize, RunOutput) -> T + Sync,
        O: Fn(usize, &TelemetryReport) + Sync,
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
            vec![self.worker_loop(&queue, &slots, &map, &observe)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| scope.spawn(|| self.worker_loop(&queue, &slots, &map, &observe)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("runner worker panicked"))
                    .collect()
            })
        };

        drop(batch_span);
        let (outputs, run_reports): (Vec<T>, Vec<TelemetryReport>) = slots
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .into_iter()
            .map(|slot| slot.expect("every submitted run produces an output"))
            .unzip();

        let telemetry = if self.telemetry {
            // Merge order is pure submission order: run reports first
            // (by index), then the workers' runner-phase reports (by
            // worker index), then the batch-level report. Only phase
            // wall-clocks differ between schedules, and those are
            // excluded from report equality.
            let mut reports = run_reports;
            reports.extend(worker_reports);
            reports.push(batch_sink.report());
            TelemetryReport::merge(&reports)
        } else {
            TelemetryReport::default()
        };

        Batch {
            outputs,
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
    /// telemetry, map it, park the result in its submission slot; repeat
    /// until the queue drains. Returns the worker's runner-phase report
    /// (queue waits, per-run wall-clock).
    fn worker_loop<T, F, O>(
        &self,
        queue: &Mutex<VecDeque<(usize, ExperimentConfig)>>,
        slots: &Mutex<Vec<Option<(T, TelemetryReport)>>>,
        map: &F,
        observe: &O,
    ) -> TelemetryReport
    where
        T: Send,
        F: Fn(usize, RunOutput) -> T + Sync,
        O: Fn(usize, &TelemetryReport) + Sync,
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
            let report = if self.telemetry {
                output.telemetry_report()
            } else {
                TelemetryReport::default()
            };
            observe(index, &report);
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
        let batch = Runner::new(4).run_all(quick_configs(10..14));
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
            .run_all(quick_configs(20..24));
        let par = Runner::new(4)
            .with_telemetry(true)
            .run_all(quick_configs(20..24));
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
            .run_all(quick_configs(30..33));
        let b = Runner::new(3)
            .with_telemetry(true)
            .run_all(quick_configs(30..33));
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
        let batch = Runner::new(2).run_all(quick_configs(40..42));
        assert!(batch.telemetry.metrics.counters.is_empty());
        assert!(batch.telemetry.trace.is_empty());
        assert!(batch.profile().is_none());
        assert!(!batch.outputs[0].telemetry.is_enabled());
    }

    #[test]
    fn observer_sees_every_run_report_once_whatever_the_schedule() {
        let observed = |jobs: usize| {
            let seen: Mutex<Vec<(usize, TelemetryReport)>> = Mutex::new(Vec::new());
            let batch = Runner::new(jobs).with_telemetry(true).run_map(
                quick_configs(50..54),
                |_, o| o.dataset_json(),
                |i, r| {
                    seen.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((i, r.clone()));
                },
            );
            assert_eq!(batch.outputs.len(), 4);
            let mut seen = seen
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            seen.sort_by_key(|(i, _)| *i);
            seen
        };
        let seq = observed(1);
        let par = observed(4);
        let indices: Vec<usize> = par.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        // Each observed report is the run's own snapshot: schedule-
        // independent (report equality excludes wall-clock phases).
        for ((i, a), (_, b)) in seq.iter().zip(&par) {
            assert_eq!(a, b, "slot {i}");
            assert!(a.counter("webmail.logins") > 0);
        }
    }

    #[test]
    fn indexed_map_sees_each_submission_index_in_the_worker() {
        let batch = Runner::new(4).run_map(
            quick_configs(60..64),
            |i, o| (i, o.dataset_json()),
            |_, _| {},
        );
        for (slot, (seen, json)) in batch.outputs.iter().enumerate() {
            assert_eq!(*seen, slot, "map saw its own submission index");
            let solo = Experiment::new(ExperimentConfig::quick(60 + slot as u64)).run();
            assert_eq!(*json, solo.dataset_json(), "slot {slot}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let batch = Runner::new(8).with_telemetry(true).run_all(Vec::new());
        assert!(batch.outputs.is_empty());
        assert_eq!(batch.telemetry.counter("runner.runs"), 0);
    }
}
