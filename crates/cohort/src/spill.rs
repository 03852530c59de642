//! Out-of-core semester execution: the shard store that spills runs
//! to disk, so peak memory is O(shard), not O(cohort).
//!
//! There is one semester pipeline ([`crate::semester`]) and two shard
//! stores. The in-memory store holds every shard's sorted ledger,
//! telemetry buffer and metrics snapshot until the merge — ~30 GB at 1M
//! students. The spill store here writes each shard's output to an
//! on-disk **run** the moment the shard finishes, releasing its
//! buffers. Its steps in the pipeline:
//!
//! 1. **Put** (`merge.spill` phase): each shard's canonically sorted
//!    ledger, telemetry buffer and metrics snapshot are encoded into
//!    `run-0-<shard>.bin` via the compact binary codecs
//!    ([`opml_testbed::ledger::UsageRecord::encode_into`],
//!    [`opml_telemetry::spillcodec`]).
//! 2. **Replay** (`merge.replay_restamp` / `merge.metrics`): telemetry
//!    and metrics stream back in shard-index order through the parent
//!    handle; chunked [`Telemetry::replay_owned`] calls assign the same
//!    gapless sequence stamps, because restamping only depends on
//!    arrival order.
//! 3. **Fan in** (`merge.spill`): while the run count exceeds the merge
//!    fan-in, *contiguous* groups merge into intermediate runs;
//!    contiguity preserves the shard-index tie-break, so the final
//!    stream is byte-identical to the in-memory merge.
//! 4. **Open** (`merge.stream`): each remaining run becomes a bounded
//!    read-ahead [`RecordSource`] of the pipeline's final
//!    [`StreamMerge`], whose records reach the caller's closure one at a
//!    time; nothing cohort-sized is ever materialized.
//!
//! A single-shard cohort never reaches the store: it streams its
//! close-order ledger with no disk at all, like the in-memory path.
//! Run files are deleted once the merge that reads them is done, and
//! the directory with them if nothing else lives in it.
//!
//! Peak memory is O(threads × shard) during simulation and
//! O(fan-in × read-ahead) during the merge; peak disk is about twice
//! the encoded cohort ledger (one extra copy during an intermediate
//! merge pass).
//!
//! All failure modes — I/O errors, truncated or corrupt run files —
//! surface as [`SpillError`], never a panic: both streaming drivers are
//! detlint DL008 panic-freedom roots.

use crate::semester::{pipeline, SemesterConfig, ShardRun, ShardStore};
use opml_faults::FaultStats;
use opml_simkernel::binio;
use opml_telemetry::{spillcodec, Telemetry};
use opml_testbed::ledger::{RecordSource, StreamMerge, UsageRecord};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every spill-run file.
const MAGIC: &[u8; 8] = b"OPMLRUN1";

/// Record-encode buffer flush threshold while writing a run.
const WRITE_CHUNK: usize = 64 * 1024;

/// Events per [`Telemetry::replay_owned`] batch during aux replay.
/// Chunking bounds memory; restamping only depends on arrival order,
/// so any chunk size produces identical sequence stamps.
const REPLAY_CHUNK: usize = 16 * 1024;

/// Out-of-core execution knobs.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for run files. Created on demand; removed afterwards
    /// if it ends up empty.
    pub dir: PathBuf,
    /// Maximum runs merged in one pass (and therefore the maximum
    /// simultaneously open run files). Values below 2 are treated as 2.
    pub fanin: usize,
    /// Per-run read-ahead buffer in bytes during merges.
    pub read_ahead: usize,
}

impl SpillConfig {
    /// Default knobs (fan-in 64, 256 KiB read-ahead) in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            fanin: 64,
            read_ahead: 256 * 1024,
        }
    }
}

/// What went wrong in the out-of-core pipeline.
#[derive(Debug)]
pub enum SpillError {
    /// An I/O operation on a run file failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// A run file decoded to something structurally impossible.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl SpillError {
    fn from_io(path: &Path, source: io::Error) -> SpillError {
        if source.kind() == io::ErrorKind::InvalidData {
            SpillError::Corrupt {
                path: path.to_path_buf(),
                detail: source.to_string(),
            }
        } else {
            SpillError::Io {
                path: path.to_path_buf(),
                source,
            }
        }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io { path, source } => {
                write!(f, "spill I/O error on {}: {source}", path.display())
            }
            SpillError::Corrupt { path, detail } => {
                write!(f, "corrupt spill run {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io { source, .. } => Some(source),
            SpillError::Corrupt { .. } => None,
        }
    }
}

/// Observability counters for one streaming run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Shard runs written to disk (0 on the single-shard path).
    pub shard_runs: usize,
    /// Intermediate merge passes (0 when the shard count fits the
    /// fan-in).
    pub merge_passes: usize,
    /// Intermediate runs written by those passes.
    pub intermediate_runs: usize,
    /// Total bytes written to spill files (shard runs + intermediates).
    pub spilled_bytes: u64,
    /// Largest number of run files open simultaneously.
    pub max_open_runs: usize,
}

/// Result of a streaming semester run: the scalar outcome plus spill
/// observability. The ledger itself was delivered record-by-record to
/// the consumer and is not held here — that is the point.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    /// Quota denials encountered (sum over shards).
    pub quota_denials: u64,
    /// Reservations pushed to a later slot (sum over shards).
    pub slot_pushbacks: u64,
    /// Fault-path statistics (fieldwise sum over shards).
    pub faults: FaultStats,
    /// Records delivered to the consumer.
    pub records: u64,
    /// Spill pipeline counters.
    pub stats: SpillStats,
}

/// One run file on disk, known by what the merge needs without holding
/// any of its contents. Dropping it deletes the file, so a run lives
/// exactly as long as the merge plan (or the source reading it) holds it.
struct RunRef {
    path: PathBuf,
    records: u64,
    /// Bytes written to the file.
    bytes: u64,
}

impl Drop for RunRef {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Simulate a full semester out-of-core, shards executed in parallel on
/// the ambient rayon pool, delivering the merged canonical ledger
/// record-by-record to `consumer`.
///
/// The record stream, telemetry replay, metrics fold and scalar sums
/// are byte-identical to [`crate::semester::simulate_semester_with`] on
/// the same config/seed at any thread count (multi-shard configs; a
/// single-shard config streams the legacy close-order ledger, again
/// matching the in-memory path).
pub fn simulate_semester_streaming<F: FnMut(&UsageRecord)>(
    config: &SemesterConfig,
    seed: u64,
    telemetry: &Telemetry,
    spill: &SpillConfig,
    consumer: F,
) -> Result<StreamOutcome, SpillError> {
    simulate_spilled(config, seed, telemetry, spill, true, consumer)
}

/// Sequential counterpart of [`simulate_semester_streaming`]: same
/// shards, executed one after another on the calling thread, same
/// merge. Peak memory is O(shard) rather than O(threads × shard).
pub fn simulate_semester_streaming_serial<F: FnMut(&UsageRecord)>(
    config: &SemesterConfig,
    seed: u64,
    telemetry: &Telemetry,
    spill: &SpillConfig,
    consumer: F,
) -> Result<StreamOutcome, SpillError> {
    simulate_spilled(config, seed, telemetry, spill, false, consumer)
}

/// The pipeline over a [`SpillStore`].
fn simulate_spilled<F: FnMut(&UsageRecord)>(
    config: &SemesterConfig,
    seed: u64,
    telemetry: &Telemetry,
    spill: &SpillConfig,
    parallel: bool,
    mut consumer: F,
) -> Result<StreamOutcome, SpillError> {
    let mut store = SpillStore {
        config: spill,
        aux: telemetry.is_enabled(),
        stats: SpillStats::default(),
    };
    let mut records = 0u64;
    let mut sink = |record: UsageRecord| {
        records += 1;
        consumer(&record);
    };
    let result = pipeline(config, seed, telemetry, parallel, &mut store, &mut sink);
    // Only removes the directory if nothing else lives in it.
    let _ = fs::remove_dir(&spill.dir);
    let outcome = result?;
    if records != outcome.records {
        return Err(SpillError::Corrupt {
            path: spill.dir.clone(),
            detail: format!(
                "merged {records} records, shards produced {}",
                outcome.records
            ),
        });
    }
    Ok(StreamOutcome {
        stats: store.stats,
        ..outcome
    })
}

/// The out-of-core [`ShardStore`]: each shard becomes one run file in
/// [`SpillConfig::dir`]; only its O(1) scalars stay in memory.
struct SpillStore<'a> {
    config: &'a SpillConfig,
    /// Whether shard runs carry a telemetry/metrics aux block.
    aux: bool,
    stats: SpillStats,
}

impl SpillStore<'_> {
    /// Write an `OPMLRUN1` file — header, `aux`, then the `records`
    /// the header declares, each encoded by `next` until it reports no
    /// more. Shard runs and intermediate merge runs both come through
    /// here.
    fn write_run(
        &self,
        name: String,
        aux: &[u8],
        records: u64,
        mut next: impl FnMut(&mut Vec<u8>) -> Result<bool, SpillError>,
    ) -> Result<RunRef, SpillError> {
        let dir = &self.config.dir;
        fs::create_dir_all(dir).map_err(|e| SpillError::from_io(dir, e))?;
        let path = dir.join(name);
        let io = |e| SpillError::from_io(&path, e);
        let mut out = BufWriter::with_capacity(WRITE_CHUNK, File::create(&path).map_err(io)?);
        let mut buf = Vec::with_capacity(WRITE_CHUNK + 256);
        buf.extend_from_slice(MAGIC);
        binio::put_u64(&mut buf, aux.len() as u64);
        binio::put_u64(&mut buf, records);
        buf.extend_from_slice(aux);
        while next(&mut buf)? {
            if buf.len() >= WRITE_CHUNK {
                out.write_all(&buf).map_err(io)?;
                buf.clear();
            }
        }
        out.write_all(&buf).map_err(io)?;
        // Flushes the writer; the end position is the file's size.
        let bytes = out.stream_position().map_err(io)?;
        Ok(RunRef {
            path,
            records,
            bytes,
        })
    }
}

impl ShardStore for SpillStore<'_> {
    type Error = SpillError;
    type Run = RunRef;
    type Source = RunRecordSource;
    const MERGE_PHASE: &'static str = opml_profiler::phases::MERGE_STREAM;

    /// Write one shard's output as a run file. Consumes the `ShardRun`,
    /// releasing its buffers on return — this is what makes peak RSS
    /// O(shard) instead of O(cohort).
    fn put(&self, index: u32, run: ShardRun) -> Result<RunRef, SpillError> {
        let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_SPILL);
        let mut aux = Vec::new();
        if self.aux {
            spillcodec::encode_metrics(&run.metrics, &mut aux);
            binio::put_u64(&mut aux, run.events.len() as u64);
            for ev in &run.events {
                spillcodec::encode_event(ev, &mut aux);
            }
        }
        let records = run.outcome.ledger.records();
        let mut rest = records.iter();
        self.write_run(
            format!("run-0-{index}.bin"),
            &aux,
            records.len() as u64,
            |buf| Ok(rest.next().map(|rec| rec.encode_into(buf)).is_some()),
        )
    }

    /// Stream the shard's aux block (metrics + telemetry events) back
    /// through the parent handle: chunked `replay_owned` first, then
    /// the metrics fold — the same per-shard order as the in-memory
    /// store.
    fn replay(&mut self, run: &mut RunRef, telemetry: &Telemetry) -> Result<(), SpillError> {
        self.stats.shard_runs += 1;
        self.stats.spilled_bytes += run.bytes;
        if !self.aux {
            return Ok(());
        }
        let io = |e| SpillError::from_io(&run.path, e);
        let (mut r, aux_len) = open_run(run, self.config.read_ahead)?;
        if aux_len == 0 {
            return Ok(());
        }
        let metrics = spillcodec::decode_metrics(&mut r).map_err(io)?;
        let event_count = binio::read_u64(&mut r).map_err(io)?;
        {
            let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_REPLAY);
            let mut pending = Vec::with_capacity(REPLAY_CHUNK.min(event_count as usize));
            for _ in 0..event_count {
                pending.push(spillcodec::decode_event(&mut r).map_err(io)?);
                if pending.len() >= REPLAY_CHUNK {
                    let chunk = std::mem::replace(&mut pending, Vec::with_capacity(REPLAY_CHUNK));
                    telemetry.replay_owned(chunk);
                }
            }
            if !pending.is_empty() {
                telemetry.replay_owned(pending);
            }
        }
        let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_METRICS);
        telemetry.merge_metrics(&metrics);
        Ok(())
    }

    fn fan_in(&mut self, mut level: Vec<RunRef>) -> Result<Vec<RunRef>, SpillError> {
        let fanin = self.config.fanin.max(2);
        while level.len() > fanin {
            let _phase = opml_profiler::wall_phase(opml_profiler::phases::MERGE_SPILL);
            self.stats.merge_passes += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(fanin));
            let mut rest = level.into_iter().peekable();
            while rest.peek().is_some() {
                // Merging CONTIGUOUS groups, in order, preserves the
                // global shard-index tie-break: ties within a group keep
                // their input order (StreamMerge is index-stable), ties
                // across groups are resolved by group order, which
                // equals shard order. An undersized tail group of one
                // passes through unmerged.
                let mut group: Vec<RunRef> = rest.by_ref().take(fanin).collect();
                if group.len() == 1 {
                    next.append(&mut group);
                    continue;
                }
                let records = group.iter().map(|run| run.records).sum();
                let mut merge = StreamMerge::new(self.open(group)?)?;
                // Aux was replayed at level zero: intermediate runs carry
                // records only.
                let name = format!("run-{}-{}.bin", self.stats.merge_passes, next.len());
                let run = self.write_run(name, &[], records, |buf| {
                    Ok(merge.next()?.map(|rec| rec.encode_into(buf)).is_some())
                })?;
                self.stats.spilled_bytes += run.bytes;
                self.stats.intermediate_runs += 1;
                next.push(run);
            }
            level = next;
        }
        Ok(level)
    }

    fn open(&mut self, runs: Vec<RunRef>) -> Result<Vec<RunRecordSource>, SpillError> {
        self.stats.max_open_runs = self.stats.max_open_runs.max(runs.len());
        runs.into_iter()
            .map(|run| RunRecordSource::open(run, self.config.read_ahead))
            .collect()
    }
}

/// Open a run file and read its header, leaving the reader at the aux
/// block. Returns the reader and the aux length.
fn open_run(run: &RunRef, read_ahead: usize) -> Result<(BufReader<File>, u64), SpillError> {
    let path = &run.path;
    let io = |e| SpillError::from_io(path, e);
    let mut r = BufReader::with_capacity(read_ahead, File::open(path).map_err(io)?);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(io)?;
    if &magic != MAGIC {
        return Err(SpillError::Corrupt {
            path: path.clone(),
            detail: format!("bad magic {magic:02x?}"),
        });
    }
    let aux_len = binio::read_u64(&mut r).map_err(io)?;
    let record_count = binio::read_u64(&mut r).map_err(io)?;
    if record_count != run.records {
        return Err(SpillError::Corrupt {
            path: path.clone(),
            detail: format!(
                "header says {record_count} records, merge plan expected {}",
                run.records
            ),
        });
    }
    Ok((r, aux_len))
}

/// A run file opened for streaming record decode: the bounded
/// read-ahead source feeding [`StreamMerge`]. Dropping it deletes the
/// file.
struct RunRecordSource {
    run: RunRef,
    reader: BufReader<File>,
    remaining: u64,
}

impl RunRecordSource {
    /// Open `run`, skip its aux block, and position at the first
    /// record. Decode is count-driven, so a truncated file surfaces as
    /// `UnexpectedEof` mid-stream rather than silently ending early.
    fn open(run: RunRef, read_ahead: usize) -> Result<RunRecordSource, SpillError> {
        let (mut reader, aux_len) = open_run(&run, read_ahead)?;
        // Skip the aux block without reading it. An implausible length
        // seeks past the end, and the first record decode fails.
        reader
            .seek_relative(i64::try_from(aux_len).unwrap_or(i64::MAX))
            .map_err(|e| SpillError::from_io(&run.path, e))?;
        Ok(RunRecordSource {
            remaining: run.records,
            run,
            reader,
        })
    }
}

impl RecordSource for RunRecordSource {
    type Error = SpillError;

    fn next_record(&mut self) -> Result<Option<UsageRecord>, SpillError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match UsageRecord::decode_from(&mut self.reader) {
            Ok(rec) => {
                self.remaining -= 1;
                Ok(Some(rec))
            }
            Err(e) => Err(SpillError::from_io(&self.run.path, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semester::simulate_semester_with;
    use opml_faults::FaultProfile;
    use opml_telemetry::{export_jsonl, MemorySink};
    use opml_testbed::ledger::Ledger;

    fn test_dir(tag: &str) -> PathBuf {
        // detlint::allow(DL001): test-unique temp path, never simulation input
        std::env::temp_dir().join(format!("opml-spill-test-{}-{tag}", std::process::id()))
    }

    fn small_config() -> SemesterConfig {
        SemesterConfig {
            enrollment: 30,
            weeks: 14,
            run_projects: true,
            vm_auto_terminate_after: None,
            faults: FaultProfile::none(),
            shard_students: 8,
        }
    }

    /// Run both paths with recording telemetry and return
    /// (trace bytes, ledger json, metrics json, scalars) for each.
    fn both_paths(config: &SemesterConfig, seed: u64, spill: &SpillConfig) -> [Vec<String>; 2] {
        let sink = MemorySink::new();
        let telemetry = Telemetry::with_sink(sink.clone());
        let outcome = simulate_semester_with(config, seed, &telemetry);
        let in_memory = vec![
            export_jsonl(&sink.events()),
            serde_json::to_string(outcome.ledger.records()).expect("serialize"),
            serde_json::to_string(&telemetry.metrics_snapshot()).expect("serialize"),
            format!(
                "{}|{}|{:?}",
                outcome.quota_denials, outcome.slot_pushbacks, outcome.faults
            ),
        ];

        let sink = MemorySink::new();
        let telemetry = Telemetry::with_sink(sink.clone());
        let mut ledger = Ledger::new();
        let stream = simulate_semester_streaming(config, seed, &telemetry, spill, |r| {
            ledger.push(r.clone())
        })
        .expect("streaming run");
        assert_eq!(stream.records as usize, ledger.records().len());
        let streamed = vec![
            export_jsonl(&sink.events()),
            serde_json::to_string(ledger.records()).expect("serialize"),
            serde_json::to_string(&telemetry.metrics_snapshot()).expect("serialize"),
            format!(
                "{}|{}|{:?}",
                stream.quota_denials, stream.slot_pushbacks, stream.faults
            ),
        ];
        [in_memory, streamed]
    }

    #[test]
    fn streaming_matches_in_memory_bytes() {
        let config = small_config();
        let spill = SpillConfig::new(test_dir("match"));
        let [in_memory, streamed] = both_paths(&config, 42, &spill);
        for (label, (a, b)) in ["trace", "ledger", "metrics", "scalars"]
            .into_iter()
            .zip(in_memory.iter().zip(streamed.iter()))
        {
            assert_eq!(a, b, "{label} bytes diverge between paths");
        }
        assert!(!spill.dir.exists(), "run files cleaned up");
    }

    #[test]
    fn tiny_fanin_forces_intermediate_passes() {
        let config = small_config(); // 4 shards
        let mut spill = SpillConfig::new(test_dir("fanin"));
        spill.fanin = 2;
        let reference = simulate_semester_with(&config, 7, &Telemetry::disabled());
        let mut ledger = Ledger::new();
        let stream =
            simulate_semester_streaming_serial(&config, 7, &Telemetry::disabled(), &spill, |r| {
                ledger.push(r.clone())
            })
            .expect("streaming run");
        assert!(stream.stats.merge_passes >= 1, "{:?}", stream.stats);
        assert!(stream.stats.intermediate_runs >= 1);
        assert!(stream.stats.max_open_runs <= 2);
        assert_eq!(
            serde_json::to_string(ledger.records()).expect("serialize"),
            serde_json::to_string(reference.ledger.records()).expect("serialize"),
        );
    }

    #[test]
    fn single_shard_streams_close_order_without_disk() {
        let config = SemesterConfig {
            enrollment: 6,
            shard_students: 191,
            ..small_config()
        };
        let spill = SpillConfig::new(test_dir("single"));
        let reference = simulate_semester_with(&config, 3, &Telemetry::disabled());
        let mut ledger = Ledger::new();
        let stream = simulate_semester_streaming(&config, 3, &Telemetry::disabled(), &spill, |r| {
            ledger.push(r.clone())
        })
        .expect("streaming run");
        assert_eq!(stream.stats, SpillStats::default());
        assert!(!spill.dir.exists(), "single shard never touches disk");
        // Close order, not canonical order — exactly the legacy bytes.
        assert_eq!(
            serde_json::to_string(ledger.records()).expect("serialize"),
            serde_json::to_string(reference.ledger.records()).expect("serialize"),
        );
    }

    #[test]
    fn corrupt_run_is_a_typed_error() {
        let dir = test_dir("corrupt");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run-0-0.bin");
        fs::write(&path, b"NOTARUN!").expect("write");
        let run = RunRef {
            path: path.clone(),
            records: 1,
            bytes: 8,
        };
        match RunRecordSource::open(run, SpillConfig::new(&dir).read_ahead) {
            Err(SpillError::Corrupt { .. }) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got a source"),
        }
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }
}
