//! The four workloads. Each is one way people use the simulator; a pass
//! is one complete unit of that use, and every pass of a process does
//! identical work.
//!
//! `run` is the timed part and calls only the crates' public
//! functions. It hands its outputs back untouched, so `check` (hashing
//! them, comparing them, and dropping them) runs after the clock stops.

use crate::spans::{now, Recorder};
use opml_cohort::semester::{
    simulate_semester, simulate_semester_serial, simulate_semester_with, SemesterConfig,
    SemesterOutcome,
};
use opml_cohort::spill::{simulate_semester_streaming_serial, SpillConfig, StreamOutcome};
use opml_experiments::digest::Fnv64;
use opml_experiments::scale::{digest_outcome, OutcomeDigest};
use opml_experiments::{
    ablation, capacity, fig1, fig2, fig3, headline, project_cost, seeds, spot_ablation, table1,
    ExperimentContext,
};
use opml_metering::{AssignmentRollup, PerStudentUsage};
use opml_pricing::estimate::ProjectUsageSummary;
use opml_pricing::price_lab_assignments;
use opml_report::compare::ComparisonSet;
use opml_serve::workload::generate_round;
use opml_serve::{run_service, ServeConfig, ServeReport};
use opml_simkernel::SimTime;
use opml_telemetry::{
    export_chrome_trace, export_jsonl, MemorySink, Telemetry, TelemetryEvent, HARNESS_TRACK,
    TRACK_ATTR,
};
use std::path::PathBuf;

/// Students in each cohort workload (105 shards of at most 191).
const COHORT_STUDENTS: u32 = 20_000;

/// The checked result of one pass.
#[derive(Debug, Default)]
pub struct Checked {
    /// Work items the pass completed.
    pub items: u64,
    /// Digest of the pass's outputs; every pass must repeat it.
    pub digest: String,
    /// Further output values the run compares against expectations.
    pub checks: Vec<(&'static str, String)>,
    /// Work counts reported by the program (per-layer metrics).
    pub counts: Vec<(&'static str, f64)>,
    /// Why the pass failed its own check, if it did.
    pub error: Option<String>,
}

/// One workload: set up once, then run identical passes.
pub trait Workload {
    /// Everything a pass produces, checked after the clock stops.
    type Out;
    /// Threads in the pool the passes run in.
    fn threads(&self) -> usize;
    /// Parameters for the run record, as `(key, JSON value)`.
    fn params(&self) -> Vec<(&'static str, String)>;
    /// One-off preparation before the warm-up pass.
    fn setup(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One timed pass.
    fn run(&mut self, rec: &mut Recorder) -> Self::Out;
    /// Check and release a pass's outputs.
    fn check(&mut self, out: Self::Out) -> Checked;
    /// Calls made once, after the passes, by the traced run only.
    fn traced_extra(&mut self, _rec: &mut Recorder) -> Checked {
        Checked::default()
    }
}

fn hex(d: u64) -> String {
    format!("{d:016x}")
}

fn outcome_counts(
    records: u64,
    quota_denials: u64,
    slot_pushbacks: u64,
    retries: u64,
    students: u32,
) -> Vec<(&'static str, f64)> {
    vec![
        ("cohort.records", records as f64),
        (
            "cohort.records_per_student",
            records as f64 / f64::from(students.max(1)),
        ),
        ("testbed.quota_denials", quota_denials as f64),
        ("testbed.slot_pushbacks", slot_pushbacks as f64),
        ("faults.retries", retries as f64),
    ]
}

/// `run-experiments` followed by `run-experiments trace` on the paper's
/// 191-student course.
pub struct PaperCourse {
    seed: u64,
}

impl PaperCourse {
    /// The paper course at `seed`.
    pub fn new(seed: u64) -> PaperCourse {
        PaperCourse { seed }
    }
}

/// Outputs of one paper-course pass.
pub struct PaperOut {
    ctx: ExperimentContext,
    sections: Vec<(String, ComparisonSet)>,
    tally: (String, usize, usize),
    traced: SemesterOutcome,
    events: Vec<TelemetryEvent>,
    jsonl: String,
    chrome: String,
    _sink: MemorySink,
}

impl Workload for PaperCourse {
    type Out = PaperOut;

    fn threads(&self) -> usize {
        1
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("enrollment", "191".into()),
            ("run_projects", "true".into()),
            ("seeds_sweep", "5".into()),
            ("ablation_enrollment", "64".into()),
            ("trace_capture", "\"memory_sink\"".into()),
        ]
    }

    fn run(&mut self, rec: &mut Recorder) -> PaperOut {
        let seed = self.seed;
        let config = SemesterConfig::paper_course();

        // `run-experiments`: the semester, its rollups and every analysis.
        let outcome = rec.time("cohort.simulate", || {
            simulate_semester_with(&config, seed, &Telemetry::disabled())
        });
        let (rollup, per_student) = rec.time("metering.rollup", || {
            (
                AssignmentRollup::from_ledger(&outcome.ledger, config.enrollment as usize),
                PerStudentUsage::from_ledger(&outcome.ledger),
            )
        });
        let (table, project) = rec.time("pricing.estimate", || {
            (
                price_lab_assignments(&rollup),
                ProjectUsageSummary::from_ledger(&outcome.ledger),
            )
        });
        let ctx = ExperimentContext {
            outcome,
            rollup,
            per_student,
            table,
            project,
            seed,
        };
        let mut sections = Vec::with_capacity(10);
        sections.push(rec.time("experiments.table1", || table1::run(&ctx)));
        sections.push(rec.time("experiments.fig1", || fig1::run(&ctx)));
        sections.push(rec.time("experiments.fig2", || fig2::run(&ctx)));
        sections.push(rec.time("experiments.fig3", || fig3::run(&ctx)));
        sections.push(rec.time("experiments.project_cost", || project_cost::run(&ctx)));
        sections.push(rec.time("experiments.headline", || headline::run(&ctx)));
        sections.push(rec.time("experiments.capacity", || capacity::run(&ctx)));
        let (text, cmp, _) = rec.time("experiments.seeds", || seeds::run(seed, 5));
        sections.push((text, cmp));
        sections.push(rec.time("experiments.spot_ablation", || {
            spot_ablation::run(&ctx, seed)
        }));
        let (text, cmp, _) = rec.time("experiments.ablation", || ablation::run(seed, 64));
        sections.push((text, cmp));
        let tally = rec.time("report.tally", || {
            let mut markdown = String::new();
            let (mut within, mut rows) = (0, 0);
            for (_, cmp) in &sections {
                markdown.push_str(&cmp.to_markdown());
                rows += cmp.rows.len();
                within += cmp.rows.iter().filter(|c| c.within_tolerance()).count();
            }
            (markdown, within, rows)
        });

        // `run-experiments trace` of the same course.
        let sink = MemorySink::new();
        let telemetry = Telemetry::with_sink(sink.clone());
        let traced = rec.time("cohort.simulate_traced", || {
            let stage = telemetry.span(SimTime::ZERO, "stage.semester", || {
                vec![
                    (TRACK_ATTR, HARNESS_TRACK.into()),
                    ("seed", seed.into()),
                    ("enrollment", config.enrollment.into()),
                    ("labs_only", (!config.run_projects).into()),
                ]
            });
            let outcome = simulate_semester_with(&config, seed, &telemetry);
            stage.end(SimTime::at(config.weeks + 1, 0, 0, 0));
            outcome
        });
        let events = rec.time("telemetry.events", || sink.events());
        let jsonl = rec.time("telemetry.export_jsonl", || export_jsonl(&events));
        let chrome = rec.time("telemetry.export_chrome", || export_chrome_trace(&events));
        PaperOut {
            ctx,
            sections,
            tally,
            traced,
            events,
            jsonl,
            chrome,
            _sink: sink,
        }
    }

    fn check(&mut self, out: PaperOut) -> Checked {
        let mut text = Fnv64::new();
        for (section, _) in &out.sections {
            text.update(section.as_bytes());
        }
        let (markdown, within, rows) = &out.tally;
        text.update(markdown.as_bytes());
        let mut trace = Fnv64::new();
        trace.update(out.jsonl.as_bytes());
        trace.update(out.chrome.as_bytes());
        let outcome = &out.ctx.outcome;
        let mut counts = outcome_counts(
            outcome.ledger.records().len() as u64,
            outcome.quota_denials,
            outcome.slot_pushbacks,
            outcome.faults.retries,
            191,
        );
        counts.push(("telemetry.events", out.events.len() as f64));
        counts.push((
            "telemetry.export_bytes",
            (out.jsonl.len() + out.chrome.len()) as f64,
        ));
        let error = (out.traced.ledger.records().len() != outcome.ledger.records().len())
            .then(|| "traced semester and untraced semester disagree".to_string());
        Checked {
            items: 1,
            digest: format!("{}-{}", hex(text.finish()), hex(trace.finish())),
            checks: vec![
                ("comparisons_within", within.to_string()),
                ("comparisons", rows.to_string()),
                ("trace_digest", hex(trace.finish())),
            ],
            counts,
            error,
        }
    }
}

/// The labs-only cohort every cohort workload simulates.
fn cohort_config() -> SemesterConfig {
    SemesterConfig {
        enrollment: COHORT_STUDENTS,
        shard_students: 191,
        ..SemesterConfig::labs_only()
    }
}

/// A 20k-student cohort simulated in memory on the parallel path, then
/// digested whole.
pub struct CohortMem {
    seed: u64,
    threads: usize,
    config: SemesterConfig,
    outcome_records: u64,
}

impl CohortMem {
    /// The in-memory cohort at `seed` in a `threads`-thread pool.
    pub fn new(seed: u64, threads: usize) -> CohortMem {
        CohortMem {
            seed,
            threads,
            config: cohort_config(),
            outcome_records: 0,
        }
    }
}

impl Workload for CohortMem {
    type Out = (SemesterOutcome, u64);

    fn threads(&self) -> usize {
        self.threads
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("enrollment", self.config.enrollment.to_string()),
            ("shard_students", self.config.shard_students.to_string()),
            ("shards", self.config.shards().len().to_string()),
            ("run_projects", "false".into()),
            ("store", "\"memory\"".into()),
        ]
    }

    fn run(&mut self, rec: &mut Recorder) -> (SemesterOutcome, u64) {
        let outcome = rec.time("cohort.simulate", || {
            simulate_semester(&self.config, self.seed)
        });
        let digest = rec.time("experiments.digest", || digest_outcome(&outcome));
        (outcome, digest)
    }

    fn check(&mut self, (outcome, digest): (SemesterOutcome, u64)) -> Checked {
        let records = outcome.ledger.records().len() as u64;
        self.outcome_records = records;
        Checked {
            items: u64::from(self.config.enrollment),
            digest: hex(digest),
            checks: Vec::new(),
            counts: outcome_counts(
                records,
                outcome.quota_denials,
                outcome.slot_pushbacks,
                outcome.faults.retries,
                self.config.enrollment,
            ),
            error: None,
        }
    }

    fn traced_extra(&mut self, rec: &mut Recorder) -> Checked {
        let serial = rec.time("cohort.simulate_serial", || {
            simulate_semester_serial(&self.config, self.seed)
        });
        let records = serial.ledger.records().len() as u64;
        Checked {
            error: (records != self.outcome_records).then(|| {
                format!(
                    "serial semester has {records} records, parallel {}",
                    self.outcome_records
                )
            }),
            ..Checked::default()
        }
    }
}

/// The same cohort streamed out of core on one thread: shard runs
/// spill to disk, merge hierarchically, and feed a streamed digest.
pub struct CohortSpill {
    seed: u64,
    config: SemesterConfig,
    spill: SpillConfig,
}

impl CohortSpill {
    /// The spilled cohort at `seed`, with run files under `dir`.
    pub fn new(seed: u64, dir: PathBuf) -> CohortSpill {
        CohortSpill {
            seed,
            config: cohort_config(),
            spill: SpillConfig::new(dir),
        }
    }
}

impl Workload for CohortSpill {
    type Out = Result<(StreamOutcome, u64), String>;

    fn threads(&self) -> usize {
        1
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("enrollment", self.config.enrollment.to_string()),
            ("shard_students", self.config.shard_students.to_string()),
            ("shards", self.config.shards().len().to_string()),
            ("run_projects", "false".into()),
            ("store", "\"spill\"".into()),
            ("fanin", self.spill.fanin.to_string()),
            ("read_ahead", self.spill.read_ahead.to_string()),
            ("telemetry", "\"disabled\"".into()),
        ]
    }

    fn setup(&mut self) -> Result<(), String> {
        std::fs::create_dir_all(&self.spill.dir)
            .map_err(|e| format!("create spill directory {}: {e}", self.spill.dir.display()))
    }

    fn run(&mut self, rec: &mut Recorder) -> Self::Out {
        let telemetry = Telemetry::disabled();
        let mut digest = OutcomeDigest::new();
        let streamed = if rec.is_on() {
            // Spill phase: call start to the first merged record. Stream
            // phase: first record to return, with the digest's own time
            // recorded as one aggregated child span.
            let call = rec.open("cohort.simulate_streaming");
            let start = now();
            let mut first = None;
            let (mut busy_ns, mut pushes) = (0u64, 0u64);
            let streamed = simulate_semester_streaming_serial(
                &self.config,
                self.seed,
                &telemetry,
                &self.spill,
                |r| {
                    let t = now();
                    first.get_or_insert(t);
                    digest.push(r);
                    busy_ns += now().saturating_duration_since(t).as_nanos() as u64;
                    pushes += 1;
                },
            );
            let end = now();
            let first = first.unwrap_or(end);
            let ns = |a: std::time::Instant, b: std::time::Instant| {
                b.saturating_duration_since(a).as_nanos() as u64
            };
            rec.record("cohort.spill_phase", start, first, ns(start, first), 1);
            let stream = rec.record("cohort.stream_phase", first, end, ns(first, end), 1);
            rec.enter(stream);
            rec.record("experiments.digest_push", first, end, busy_ns, pushes);
            rec.leave(stream);
            rec.close(call);
            streamed
        } else {
            simulate_semester_streaming_serial(
                &self.config,
                self.seed,
                &telemetry,
                &self.spill,
                |r| digest.push(r),
            )
        };
        let outcome = streamed.map_err(|e| format!("streaming semester failed: {e}"))?;
        let d = rec.time("experiments.digest_finish", || {
            digest.finish(
                outcome.quota_denials,
                outcome.slot_pushbacks,
                &outcome.faults,
            )
        });
        Ok((outcome, d))
    }

    fn check(&mut self, out: Self::Out) -> Checked {
        let (outcome, digest) = match out {
            Ok(v) => v,
            Err(e) => {
                return Checked {
                    error: Some(e),
                    ..Checked::default()
                }
            }
        };
        let left_behind = std::fs::read_dir(&self.spill.dir)
            .map(|entries| entries.count())
            .unwrap_or(0);
        let s = &outcome.stats;
        let mut counts = outcome_counts(
            outcome.records,
            outcome.quota_denials,
            outcome.slot_pushbacks,
            outcome.faults.retries,
            self.config.enrollment,
        );
        counts.extend([
            ("cohort.spill_bytes", s.spilled_bytes as f64),
            (
                "cohort.spill_bytes_per_record",
                s.spilled_bytes as f64 / outcome.records.max(1) as f64,
            ),
            ("cohort.shard_runs", s.shard_runs as f64),
            ("cohort.merge_passes", s.merge_passes as f64),
            ("cohort.intermediate_runs", s.intermediate_runs as f64),
            ("cohort.max_open_runs", s.max_open_runs as f64),
        ]);
        Checked {
            items: u64::from(self.config.enrollment),
            digest: hex(digest),
            checks: Vec::new(),
            counts,
            error: (left_behind > 0).then(|| {
                format!(
                    "{left_behind} file(s) left in the spill directory {}",
                    self.spill.dir.display()
                )
            }),
        }
    }
}

/// The campus cloud soaked as a service: a fixed saturating ramp.
pub struct ServeRamp {
    config: ServeConfig,
    rounds: Vec<u64>,
    generated: u64,
}

impl ServeRamp {
    /// The ramp at `seed`: 8 tenants, 512 servers, 8→512 ops/s by +8.
    pub fn new(seed: u64) -> ServeRamp {
        ServeRamp {
            config: ServeConfig {
                seed,
                tenants: 8,
                servers: 512,
                queue_bound: 1024,
                target_rps: 8,
                increment_rps: 8,
                max_rps: 512,
                round_secs: 600,
                allowable_latency_s: 600,
                deadline_s: 300,
                ..ServeConfig::default()
            },
            rounds: Vec::new(),
            generated: 0,
        }
    }
}

impl Workload for ServeRamp {
    type Out = ServeReport;

    fn threads(&self) -> usize {
        1
    }

    fn params(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        vec![
            ("tenants", c.tenants.to_string()),
            ("servers", c.servers.to_string()),
            ("queue_bound", c.queue_bound.to_string()),
            ("target_rps", c.target_rps.to_string()),
            ("increment_rps", c.increment_rps.to_string()),
            ("max_rps", c.max_rps.to_string()),
            ("round_secs", c.round_secs.to_string()),
            ("allowable_latency_s", c.allowable_latency_s.to_string()),
            ("deadline_s", c.deadline_s.to_string()),
            ("fault_rate_ppm", c.fault_rate_ppm.to_string()),
        ]
    }

    fn run(&mut self, rec: &mut Recorder) -> ServeReport {
        rec.time("serve.run_service", || run_service(&self.config))
    }

    fn check(&mut self, report: ServeReport) -> Checked {
        let c = &report.counts;
        self.rounds = c.rounds.iter().map(|r| r.offered_rps).collect();
        self.generated = c.totals.generated;
        Checked {
            items: c.totals.generated,
            digest: hex(report.counts_digest),
            checks: vec![
                ("stop_round", c.stop_round.to_string()),
                ("max_sustainable_rps", c.max_sustainable_rps.to_string()),
            ],
            counts: vec![
                ("serve.ops_generated", c.totals.generated as f64),
                ("serve.ops_completed", c.totals.completed as f64),
                (
                    "serve.goodput_ratio",
                    c.totals.completed as f64 / c.totals.generated.max(1) as f64,
                ),
                ("serve.retries", c.retries as f64),
                ("serve.rounds", c.rounds.len() as f64),
                ("serve.peak_queue_depth", c.peak_queue_depth as f64),
                ("serve.breaker_trips", c.breaker_trips as f64),
            ],
            error: None,
        }
    }

    fn traced_extra(&mut self, rec: &mut Recorder) -> Checked {
        // Regenerate the ramp's op stream alone: the share of a soak
        // spent producing its input.
        let c = &self.config;
        let ops = rec.time("serve.generate", || {
            let (mut base_id, mut ops) = (0u64, 0u64);
            for (round, &rate) in self.rounds.iter().enumerate() {
                let round = round as u32;
                let start = u64::from(round) * c.round_secs;
                let n = generate_round(c.seed, round, start, rate, c.round_secs, c.tenants, base_id)
                    .len() as u64;
                base_id += n;
                ops += n;
            }
            ops
        });
        Checked {
            error: (ops != self.generated).then(|| {
                format!(
                    "regenerated {ops} ops, the soak generated {}",
                    self.generated
                )
            }),
            ..Checked::default()
        }
    }
}
