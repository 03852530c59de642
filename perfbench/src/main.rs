//! Benchmark worker: runs one workload in this process as a closed loop
//! of identical passes and prints one JSON line per pass, then one
//! closing line for the process. `perfbench/run.py` builds this binary,
//! starts it (several times per measured run) and turns the lines into
//! the benchmark's metrics.
//!
//! ```text
//! perfbench-worker --workload <paper_course|cohort_mem|cohort_spill|serve_ramp>
//!                  --seed <n> --budget-s <seconds> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Set-up is everything from process start to the first timed pass:
//! the thread pool, the spill directory, and one untimed warm-up pass.
//! With `--trace 1` the passes alternate untraced and traced, and the
//! recorded spans are written to `<work-dir>/spans.jsonl` at the end.

mod spans;
mod workloads;

use spans::{now, Recorder};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Checked, CohortMem, CohortSpill, PaperCourse, ServeRamp, Workload};

struct Args {
    workload: String,
    seed: u64,
    budget_s: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let seed = value("--seed")?;
    let budget = value("--budget-s")?;
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: seed
            .parse()
            .map_err(|_| format!("--seed takes a non-negative integer, got `{seed}`"))?,
        budget_s: budget
            .parse::<f64>()
            .ok()
            .filter(|b| b.is_finite() && *b > 0.0)
            .ok_or_else(|| format!("--budget-s takes a positive number, got `{budget}`"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
        },
        work_dir: PathBuf::from(value("--work-dir")?),
    })
}

fn main() {
    let started = now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-worker: {e}");
            std::process::exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = match args.workload.as_str() {
        "paper_course" => drive(PaperCourse::new(args.seed), &args, started),
        "cohort_mem" => drive(CohortMem::new(args.seed, cpus.min(2)), &args, started),
        "cohort_spill" => drive(
            CohortSpill::new(args.seed, args.work_dir.join("spill")),
            &args,
            started,
        ),
        "serve_ramp" => drive(ServeRamp::new(args.seed), &args, started),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("perfbench-worker: {e}");
        std::process::exit(1);
    }
}

fn secs_since(t: Instant) -> f64 {
    now().saturating_duration_since(t).as_secs_f64()
}

fn drive<W: Workload>(mut w: W, args: &Args, started: Instant) -> Result<(), String> {
    let threads = w.threads();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| format!("build thread pool: {e:?}"))?;
    w.setup()?;
    let mut rec = Recorder::new(false);
    let mut first_digest = None;

    // Warm-up: the cold first pass every invocation pays. Untimed, and
    // part of set-up.
    let t = now();
    let out = pool.install(|| w.run(&mut rec));
    let wall = secs_since(t);
    let checked = w.check(out);
    emit_pass(0, "warmup", false, wall, &checked, &mut first_digest);
    let setup_s = secs_since(started);

    // Closed loop: the next pass starts when the previous one has been
    // checked. A traced run alternates untraced and traced passes so
    // both see the same process state.
    let loop_start = now();
    let (mut walls, mut pass) = (Vec::new(), 1u32);
    loop {
        let traced = args.trace && pass % 2 == 0;
        rec.begin_pass(pass, traced);
        let t = now();
        let out = pool.install(|| w.run(&mut rec));
        let wall = secs_since(t);
        rec.begin_pass(pass, false);
        let checked = w.check(out);
        emit_pass(pass, "timed", traced, wall, &checked, &mut first_digest);
        walls.push(wall);
        // Stop when one more pass would end further past the budget
        // than stopping now falls short of it.
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        let min_passes = if args.trace { 2 } else { 1 };
        if pass >= min_passes && secs_since(loop_start) + mean / 2.0 > args.budget_s {
            break;
        }
        pass += 1;
    }

    if args.trace {
        pass += 1;
        rec.begin_pass(pass, true);
        let t = now();
        let checked = pool.install(|| w.traced_extra(&mut rec));
        let wall = secs_since(t);
        emit_pass(pass, "extra", true, wall, &checked, &mut None);
        std::fs::create_dir_all(&args.work_dir)
            .and_then(|()| rec.write_jsonl(&args.work_dir.join("spans.jsonl")))
            .map_err(|e| format!("write spans to {}: {e}", args.work_dir.display()))?;
    }

    let params = w
        .params()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"type\":\"process\",\"workload\":\"{}\",\"seed\":{},\"threads\":{threads},\
         \"effective_threads\":{},\"setup_s\":{setup_s},\"vmhwm_kb\":{},\"params\":{{{params}}}}}",
        args.workload,
        args.seed,
        pool.install(rayon::current_num_threads),
        opml_profiler::peak_rss_kb().unwrap_or(0),
    );
    Ok(())
}

/// Print one pass as a JSON line. A pass is `ok` when it passed its own
/// check and its digest equals the first pass's.
fn emit_pass(
    pass: u32,
    phase: &str,
    traced: bool,
    wall_s: f64,
    c: &Checked,
    first_digest: &mut Option<String>,
) {
    let mut error = c.error.clone();
    if phase != "extra" {
        let first = first_digest.get_or_insert_with(|| c.digest.clone());
        if error.is_none() && *first != c.digest {
            error = Some(format!(
                "digest {} differs from first pass {first}",
                c.digest
            ));
        }
    }
    let checks = c
        .checks
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{v}\""))
        .collect::<Vec<_>>()
        .join(",");
    let counts = c
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"type\":\"pass\",\"pass\":{pass},\"phase\":\"{phase}\",\"traced\":{traced},\
         \"wall_s\":{wall_s},\"items\":{},\"digest\":\"{}\",\"ok\":{},\"error\":{},\
         \"checks\":{{{checks}}},\"counts\":{{{counts}}}}}",
        c.items,
        c.digest,
        error.is_none(),
        error.map_or_else(|| "null".to_string(), |e| format!("{e:?}")),
    );
}
