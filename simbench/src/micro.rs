//! `microbench_sweep`: the Section 3 microbenchmarks that fill the
//! throughput database.
//!
//! * the 20 Table 2 Kepler patterns, in the launch shape of `measure_math`;
//! * Figure 2's FFMA:LDS.X ratios (the quick grid) × 3 widths on both GPUs;
//! * Figure 4's active-thread counts (the quick grid), dependent and
//!   independent, on both GPUs.
//!
//! Each op takes one generated kernel through its SASS text (`Module`
//! Display, then `sass::assemble`) and through the binary container
//! (`Module::to_bytes`, then `from_bytes`), validates the decoded kernel and
//! simulates it from the decoded binary on one SM — the way hand-written
//! assembly is ingested. Ops run one after another on this thread.
//!
//! An op fails when its kernel cannot be reassembled from its own
//! disassembly. It is still simulated from the binary and checked, so a fix
//! moves only the failure count. Checks on every op: the binary container
//! gives back the generated kernel, and the throughput is positive and at
//! most the generation's issue ceiling in `arch::ThroughputTable`.

use std::time::Instant;

use peakperf_arch::{GpuConfig, LdsWidth, ThroughputTable};
use peakperf_bench::experiments::TABLE2_PAPER;
use peakperf_kernels::microbench::math::{build_math_kernel, table2_patterns};
use peakperf_kernels::microbench::mix::build_mix_kernel;
use peakperf_kernels::microbench::threads::{build_threads_kernel, Dependence};
use peakperf_kernels::microbench::throughput_of;
use peakperf_kernels::rng::Rng;
use peakperf_sass::{assemble, validate_kernel, Kernel, Module};
use peakperf_sim::timing::{TimingReport, TimingSim};
use peakperf_sim::{GlobalMemory, LaunchConfig};

use crate::spans::span;
use crate::{repeated_setup, rounds, shuffle, Config, Op, Run};

/// Set-ups per run (the median is reported).
const SETUP_REPEATS: usize = 31;
/// Figure 2's ratio grid (`Speed::Quick`).
const FIG2_RATIOS: [u32; 11] = [0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32];
/// Figure 4's thread grid (`Speed::Quick`), cut at each GPU's maximum.
const FIG4_THREADS: [u32; 9] = [64, 128, 256, 384, 512, 768, 1024, 1536, 2048];

enum Rate {
    /// Thread-instruction throughput of one mnemonic (Table 2).
    Mnemonic(&'static str),
    /// FFMA + LDS thread-instruction throughput (Figures 2 and 4).
    FfmaLds,
}

struct Bench {
    label: String,
    gpu: GpuConfig,
    module: Module,
    threads: u32,
    blocks: u32,
    rate: Rate,
    paper: Option<f64>,
}

/// `measure_math`'s and `measure_mix`'s launch shape: saturating blocks.
fn saturating(gpu: &GpuConfig) -> (u32, u32) {
    let threads = 1024.min(gpu.max_threads_per_block);
    (threads, (gpu.max_threads_per_sm / threads).clamp(1, 2))
}

fn bench(
    label: String,
    gpu: &GpuConfig,
    kernel: Kernel,
    (threads, blocks): (u32, u32),
    rate: Rate,
    paper: Option<f64>,
) -> Bench {
    Bench {
        label,
        gpu: gpu.clone(),
        module: Module {
            generation: gpu.generation,
            kernels: vec![kernel],
        },
        threads,
        blocks,
        rate,
        paper,
    }
}

fn setup(seed: u64) -> Result<Vec<Bench>, String> {
    let err = |e: peakperf_sim::SimError| e.to_string();
    let mut benches = Vec::new();
    let kepler = GpuConfig::gtx680();
    for (i, pattern) in table2_patterns().iter().enumerate() {
        let kernel = span("kernels", "microbench::math::build_math_kernel", 0, || {
            build_math_kernel(kepler.generation, pattern, 256, 12)
        })
        .map_err(err)?;
        benches.push(bench(
            format!("table2 {}", pattern.label()),
            &kepler,
            kernel,
            saturating(&kepler),
            Rate::Mnemonic(pattern.op.mnemonic()),
            Some(TABLE2_PAPER[i]),
        ));
    }
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        for ratio in FIG2_RATIOS {
            for width in LdsWidth::ALL {
                let kernel = span("kernels", "microbench::mix::build_mix_kernel", 0, || {
                    build_mix_kernel(gpu.generation, ratio, width, 12, 16)
                })
                .map_err(err)?;
                benches.push(bench(
                    format!("fig2 {} {ratio}:1 {width:?}", gpu.name),
                    &gpu,
                    kernel,
                    saturating(&gpu),
                    Rate::FfmaLds,
                    None,
                ));
            }
        }
    }
    for gpu in [GpuConfig::gtx580(), GpuConfig::gtx680()] {
        for threads in FIG4_THREADS
            .into_iter()
            .filter(|&t| t <= gpu.max_threads_per_sm)
        {
            for dep in [Dependence::Dependent, Dependence::Independent] {
                let kernel = span(
                    "kernels",
                    "microbench::threads::build_threads_kernel",
                    0,
                    || build_threads_kernel(gpu.generation, dep, 12, 16),
                )
                .map_err(err)?;
                // `measure_threads`: one block up to 1024 threads, else two.
                let shape = if threads <= 1024 {
                    (threads, 1)
                } else {
                    (threads / 2, 2)
                };
                benches.push(bench(
                    format!("fig4 {} {threads} threads {}", gpu.name, dep.name()),
                    &gpu,
                    kernel,
                    shape,
                    Rate::FfmaLds,
                    None,
                ));
            }
        }
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_0B3C);
    shuffle(&mut benches, &mut rng);
    Ok(benches)
}

fn throughput(rate: &Rate, report: &TimingReport) -> f64 {
    match rate {
        Rate::Mnemonic(m) => throughput_of(report, m),
        Rate::FfmaLds => {
            let useful = report.mix.count("FFMA") + report.mix.count_prefix("LDS");
            useful as f64 * 32.0 / report.cycles.max(1) as f64
        }
    }
}

/// One op; `Err` is a broken check (the run is then incorrect).
fn run_op(b: &Bench, op_id: u64) -> Result<(Op, TimingReport), String> {
    let generation = b.gpu.generation;
    let t0 = Instant::now();
    let text = b.module.to_string();
    let failed = match span("sass", "assemble", op_id, || assemble(&text, generation)) {
        Ok(m) if m == b.module => None,
        Ok(_) => Some("sass text round trip: reassembled module differs".to_owned()),
        Err(e) => Some(format!("sass text round trip: {e}")),
    };
    let bytes = span("sass", "Module::to_bytes", op_id, || b.module.to_bytes())
        .map_err(|e| format!("{}: Module::to_bytes: {e}", b.label))?;
    let decoded = span("sass", "Module::from_bytes", op_id, || {
        Module::from_bytes(&bytes)
    })
    .map_err(|e| format!("{}: Module::from_bytes: {e}", b.label))?;
    let kernel = &decoded.kernels[0];
    span("sass", "validate_kernel", op_id, || {
        validate_kernel(kernel, generation)
    })
    .map_err(|e| format!("{}: validate_kernel: {e}", b.label))?;
    let mut sim = span("sim::timing", "TimingSim::new", op_id, || {
        TimingSim::new(
            &b.gpu,
            kernel,
            LaunchConfig::linear(b.blocks, b.threads),
            &[],
            b.blocks,
        )
    })
    .map_err(|e| format!("{}: TimingSim::new: {e}", b.label))?;
    let mut memory = GlobalMemory::new();
    let report = span("sim::timing", "TimingSim::run", op_id, || {
        sim.run(&mut memory)
    })
    .map_err(|e| format!("{}: TimingSim::run: {e}", b.label))?;
    let latency_s = t0.elapsed().as_secs_f64();

    if decoded != b.module {
        return Err(format!("{}: binary container changed the kernel", b.label));
    }
    let rate = throughput(&b.rate, &report);
    let table = ThroughputTable::for_generation(generation);
    let ceiling = table
        .kepler_issue_limit()
        .unwrap_or_else(|| table.ffma_peak());
    if !(rate > 0.0 && rate <= ceiling) {
        return Err(format!(
            "{}: throughput {rate:.2} outside (0, issue ceiling {ceiling}]",
            b.label
        ));
    }
    Ok((
        Op {
            label: b.label.clone(),
            latency_s,
            cycles: report.cycles,
            paper: b.paper.map(|p| (rate, p)),
            failed,
        },
        report,
    ))
}

/// Run the workload.
pub fn run(config: &Config, process_start: Instant) -> Result<Run, String> {
    crate::spans::set_enabled(config.trace);
    let (benches, setup_s) = repeated_setup(SETUP_REPEATS, process_start, || setup(config.seed))?;
    crate::spans::set_enabled(false);
    let mut run = Run {
        setup_s,
        ..Run::default()
    };
    let mut problems = Vec::new();
    let one_round = |round: u32,
                     ops: &mut Vec<Op>,
                     reports: &mut Vec<TimingReport>,
                     problems: &mut Vec<String>| {
        for (n, b) in benches.iter().enumerate() {
            let op_id = u64::from(round) * benches.len() as u64 + n as u64;
            match span("bench", "op", op_id, || run_op(b, op_id)) {
                Ok((op, report)) => {
                    ops.push(op);
                    reports.push(report);
                }
                Err(e) => problems.push(e),
            }
        }
    };
    let mut reports = Vec::new();
    run.phase = rounds(config.seconds, None, |r, ops| {
        one_round(r, ops, &mut reports, &mut problems)
    });
    if config.trace {
        crate::spans::set_enabled(true);
        let mut traced_reports = Vec::new();
        let traced = rounds(f64::INFINITY, Some(run.phase.rounds), |r, ops| {
            one_round(r, ops, &mut traced_reports, &mut problems)
        });
        crate::spans::set_enabled(false);
        let traced_refs: Vec<&TimingReport> = traced_reports.iter().collect();
        let refs: Vec<&TimingReport> = reports.iter().collect();
        if !crate::layers::same_statistics(&refs, &traced_refs) {
            problems.push("traced and untraced runs simulated different statistics".to_owned());
        }
        crate::layers::timing_stats(&mut run, &traced_refs, traced.rounds);
        let failed = traced.ops.iter().filter(|o| o.failed.is_some()).count();
        run.layer(
            "sass.kernels",
            traced.ops.len() as f64 / f64::from(traced.rounds),
        );
        run.layer(
            "sass.roundtrip_failed",
            failed as f64 / f64::from(traced.rounds),
        );
        run.layer(
            "trace.overhead_pct",
            crate::layers::overhead_pct(&run.phase, &traced),
        );
        run.traced = Some(traced);
    }
    run.problems = problems;
    run.notes.push(format!(
        "{} kernels per round: binary round trip and issue-ceiling checks on every op",
        benches.len()
    ));
    let mut groups: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for op in &run.phase.ops {
        let group = op.label.split(' ').next().unwrap_or("");
        *groups.entry(group).or_default() += op.latency_s / f64::from(run.phase.rounds);
    }
    let split: Vec<String> = groups
        .iter()
        .map(|(g, s)| format!("{g} {s:.2} s"))
        .collect();
    run.notes
        .push(format!("op time per round: {}", split.join(", ")));
    Ok(run)
}
