//! `simbench`: the repository benchmark.
//!
//! ```text
//! simbench --workload <sgemm_paper|microbench_sweep|service_mix>
//!          --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//! ```
//!
//! One invocation runs one workload in this process: it sets the workload
//! up several times (reporting the median set-up time), then runs whole
//! rounds of the workload's seeded op list for at least `--seconds`
//! seconds, checks every output, and prints a report whose last line is
//! one JSON object. With `--trace 1` it runs the same rounds a second time
//! with spans recorded around every call into a layer's public functions,
//! prints the per-layer table and the tracing overhead, writes the spans as
//! Chrome trace-event JSON, and puts the per-layer metrics in the JSON
//! line instead of the end-to-end ones. See README.md.

mod layers;
mod micro;
mod service;
mod sgemm;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use peakperf_kernels::rng::Rng;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sgemm_paper", "microbench_sweep", "service_mix"];

/// Every per-layer metric the traced run reports, with its unit. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernels.build_ms", "ms"),
    ("kernels.inputs_ms", "ms"),
    ("sass.assemble_us", "us"),
    ("sass.validate_us", "us"),
    ("sass.encode_us", "us"),
    ("sass.decode_us", "us"),
    ("sass.kernels", "count"),
    ("sass.roundtrip_failed", "count"),
    ("timing.new_us", "us"),
    ("timing.sims", "count"),
    ("timing.run_s", "s"),
    ("timing.ns_per_cycle", "ns"),
    ("timing.ns_per_warp_inst", "ns"),
    ("timing.cycles", "count"),
    ("timing.warp_insts", "count"),
    ("timing.stall.scoreboard", "count"),
    ("timing.stall.pipe", "count"),
    ("timing.stall.issue_tokens", "count"),
    ("timing.stall.barrier", "count"),
    ("timing.stall.ctl_stall", "count"),
    ("timing.stall.hazard_replay", "count"),
    ("timing.lds_conflict_cycles", "count"),
    ("timing.global_bytes", "bytes"),
    ("timing.hazard_replays", "count"),
    ("func.launch_ms", "ms"),
    ("func.warp_minsts_per_s", "Minsts/s"),
    ("profiling.job_ms.table2_ffma", "ms"),
    ("profiling.job_ms.table2_ffma_2way", "ms"),
    ("profiling.job_ms.table2_ffma_3way", "ms"),
    ("profiling.job_ms.table2_imad", "ms"),
    ("profiling.job_ms.fermi_ffma", "ms"),
    ("profiling.job_ms.sgemm_fermi", "ms"),
    ("profiling.job_ms.sgemm_kepler", "ms"),
    ("fault.case_ms.ok", "ms"),
    ("fault.case_ms.reject", "ms"),
    ("fault.case_ms.fault", "ms"),
    ("fault.case_ms.timeout", "ms"),
    ("fault.cases.ok", "count"),
    ("fault.cases.reject", "count"),
    ("fault.cases.fault", "count"),
    ("fault.cases.timeout", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.attempt_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.utilization", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Minimum length of the timed phase; whole rounds run until it passes.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// One timed operation: a simulated figure point or one service job.
#[derive(Debug, Clone)]
pub struct Op {
    /// Human-readable identity (`gtx680/asm/NT`, `table2 FFMA R0, R1, R4, R5`, ...).
    pub label: String,
    /// Op latency in seconds (for the service: submit to result).
    pub latency_s: f64,
    /// Simulated SM cycles the op's result reports.
    pub cycles: u64,
    /// `(simulated, paper)` when the op has a paper value.
    pub paper: Option<(f64, f64)>,
    /// The check that failed, when the op failed.
    pub failed: Option<String>,
}

/// The ops of one timed phase and its wall time.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Whole rounds run.
    pub rounds: u32,
    /// Every op, in completion order.
    pub ops: Vec<Op>,
}

/// What a workload hands back to the driver code in `main`.
#[derive(Debug, Default)]
pub struct Run {
    /// Duration of each repeated set-up; the first includes process start.
    pub setup_s: Vec<f64>,
    /// The untraced timed phase.
    pub phase: Phase,
    /// The traced phase (trace mode only).
    pub traced: Option<Phase>,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Per-layer metric values (trace mode); absent names report 0.
    pub layers: BTreeMap<String, f64>,
    /// Extra report lines.
    pub notes: Vec<String>,
}

impl Run {
    /// Record a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name.to_owned(), value);
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0, i + 1);
        items.swap(i, j);
    }
}

/// Run `setup` `repeats` times and keep the last result; the first
/// duration is measured from `process_start`.
pub fn repeated_setup<T>(
    repeats: usize,
    process_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        // Drop the previous state first so every repetition allocates
        // from the same starting point.
        drop(last.take());
        last = Some(setup()?);
        durations.push(t0.elapsed().as_secs_f64());
    }
    let state = last.ok_or_else(|| "set-up never ran".to_owned())?;
    Ok((state, durations))
}

/// Run whole rounds of `round` until at least `seconds` have passed, or
/// exactly `limit` rounds when one is given.
pub fn rounds(seconds: f64, limit: Option<u32>, mut round: impl FnMut(u32, &mut Vec<Op>)) -> Phase {
    let t0 = Instant::now();
    let mut ops = Vec::new();
    let mut rounds = 0;
    loop {
        round(rounds, &mut ops);
        rounds += 1;
        let done = match limit {
            Some(n) => rounds >= n,
            None => t0.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            break;
        }
    }
    Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        rounds,
        ops,
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout, read from `.git` without running git.
fn git_rev() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_owned();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_owned();
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
            return packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .unwrap_or("unknown")
                .to_owned();
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown (not a git checkout)".to_owned()
}

/// The end-to-end metrics of one phase.
fn end_to_end(run: &Run, phase: &Phase) -> Vec<(&'static str, f64, &'static str)> {
    let latencies: Vec<f64> = phase.ops.iter().map(|o| o.latency_s * 1e3).collect();
    let cycles: u64 = phase.ops.iter().map(|o| o.cycles).sum();
    let gaps: Vec<f64> = phase
        .ops
        .iter()
        .filter_map(|o| o.paper)
        .map(|(sim, paper)| (sim - paper).abs() / paper * 100.0)
        .collect();
    let wall = phase.wall_s.max(1e-9);
    vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("ops_per_s", phase.ops.len() as f64 / wall, "1/s"),
        ("latency_p50_ms", median(&latencies), "ms"),
        ("sim_mcycles_per_s", cycles as f64 / wall / 1e6, "Mcycles/s"),
        (
            "paper_gap_pct",
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
            "%",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn print_phase(title: &str, phase: &Phase) {
    let latencies: Vec<f64> = phase.ops.iter().map(|o| o.latency_s * 1e3).collect();
    println!(
        "{title}: {} ops in {} round(s), {:.3} s wall, {:.4} ops/s",
        phase.ops.len(),
        phase.rounds,
        phase.wall_s,
        phase.ops.len() as f64 / phase.wall_s.max(1e-9)
    );
    // The median, plus the highest percentile with at least ten samples
    // above it; with fewer than forty samples a tail percentile would be
    // one or two ops, so the median stands alone.
    let n = latencies.len();
    let p50 = quantile(&latencies, 0.5);
    match [99u32, 95, 90, 75]
        .into_iter()
        .find(|&q| n as f64 * f64::from(100 - q) / 100.0 >= 10.0)
    {
        Some(q) => println!(
            "  latency ms: p50 {p50:.3}  p{q} {:.3}  (n = {n} samples)",
            quantile(&latencies, f64::from(q) / 100.0)
        ),
        None => println!("  latency ms: p50 {p50:.3}  (n = {n} samples, too few for a tail)"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn parse_args() -> Result<(String, Config, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(" ")
        ));
    }
    Ok((
        workload,
        Config {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
        },
        trace_out,
    ))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let (workload, config, trace_out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-out <path>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("== simbench: {workload} ==");
    println!(
        "provenance: nproc {} | profile {} | git {} | {} | seed {} | run length {} s | trace {}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        env!("SIMBENCH_PROFILE"),
        git_rev(),
        env!("SIMBENCH_RUSTC"),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    let result = match workload.as_str() {
        "sgemm_paper" => sgemm::run(&config, process_start),
        "microbench_sweep" => micro::run(&config, process_start),
        _ => service::run(&config, process_start),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("simbench: {workload} could not run: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "set-up: {} repeats, median {:.4} s (each: {})",
        run.setup_s.len(),
        median(&run.setup_s),
        run.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    print_phase("timed phase", &run.phase);
    let with_paper = run.phase.ops.iter().filter(|o| o.paper.is_some()).count();
    for (name, value, unit) in end_to_end(&run, &run.phase) {
        let note = match name {
            "latency_p50_ms" => format!("  (n = {} samples)", run.phase.ops.len()),
            "paper_gap_pct" => format!("  (over {with_paper} ops with a paper value)"),
            "setup_s" => format!("  (median of {} set-ups)", run.setup_s.len()),
            _ => String::new(),
        };
        println!("  {name:<18} {value:>14.4} {unit}{note}");
    }
    if let Some(traced) = &run.traced {
        print_phase("traced phase", traced);
    }
    let all_ops: Vec<&Op> = run
        .phase
        .ops
        .iter()
        .chain(run.traced.iter().flat_map(|p| &p.ops))
        .collect();
    let attempted = all_ops.len();
    let mut by_check: BTreeMap<String, usize> = BTreeMap::new();
    for check in all_ops.iter().filter_map(|o| o.failed.as_ref()) {
        *by_check.entry(check.clone()).or_default() += 1;
    }
    let failed: usize = by_check.values().sum();
    println!("ops attempted {attempted}, failed {failed}");
    for (check, n) in &by_check {
        println!("  failed x{n}: {check}");
    }
    for note in &run.notes {
        println!("{note}");
    }

    if config.trace {
        let spans = spans::take();
        run.layer("trace.spans", spans.len() as f64);
        layers::from_spans(&mut run, &spans);
        println!("per-layer spans (traced phase and set-up):");
        println!(
            "  {:<18} {:<40} {:>7} {:>12} {:>12}",
            "layer", "function", "count", "total ms", "self ms"
        );
        for ((layer, name), s) in spans::layer_table(&spans) {
            println!(
                "  {layer:<18} {name:<40} {:>7} {:>12.3} {:>12.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        let path = trace_out.unwrap_or_else(|| {
            PathBuf::from(format!(
                "simbench/out/trace-{workload}-{}.json",
                config.seed
            ))
        });
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| {
                std::fs::write(&path, spans::chrome_json(&spans, &workload, config.seed))
            });
        match written {
            Ok(()) => println!("chrome trace: {} ({} spans)", path.display(), spans.len()),
            Err(e) => run.problem(format!("writing {}: {e}", path.display())),
        }
        println!("per-layer metrics:");
        for (name, unit) in PER_LAYER {
            let v = run.layers.get(*name).copied().unwrap_or(0.0);
            println!("  {name:<34} {v:>16.4} {unit}");
        }
    }

    let correct = run.problems.is_empty();
    if correct {
        println!("checks: all passed");
    } else {
        println!("checks: {} FAILED", run.problems.len());
        for p in &run.problems {
            println!("  FAILED: {p}");
        }
    }

    let metrics: Vec<(&str, f64, &str)> = if config.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, run.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        end_to_end(&run, &run.phase)
    };
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
    ExitCode::SUCCESS
}
