//! Per-layer metrics shared by the workloads: simulated statistics from
//! `TimingReport`s, host time from the recorded spans, and the tracing
//! overhead.

use peakperf_sim::timing::{StallKind, TimingReport};

use crate::spans::Span;
use crate::{Phase, Run};

/// Simulated statistics that must not depend on tracing or host speed.
fn signature(r: &TimingReport) -> (u64, u64, Vec<u64>) {
    (
        r.cycles,
        r.warp_instructions,
        StallKind::ALL
            .iter()
            .map(|k| r.stalls.get(k).copied().unwrap_or(0))
            .collect(),
    )
}

/// Whether two runs of the same ops simulated identical cycles, warp
/// instructions and stall cycles per kind.
pub fn same_statistics(a: &[&TimingReport], b: &[&TimingReport]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| signature(x) == signature(y))
}

/// The `timing.*` model statistics, per round.
pub fn timing_stats(run: &mut Run, reports: &[&TimingReport], rounds: u32) {
    let per_round = |f: &dyn Fn(&TimingReport) -> u64| {
        reports.iter().map(|r| f(r)).sum::<u64>() as f64 / f64::from(rounds.max(1))
    };
    run.layer("timing.cycles", per_round(&|r| r.cycles));
    run.layer("timing.warp_insts", per_round(&|r| r.warp_instructions));
    for kind in StallKind::ALL {
        let v = per_round(&|r| r.stalls.get(&kind).copied().unwrap_or(0));
        run.layer(&format!("timing.stall.{}", kind.as_str()), v);
    }
    run.layer(
        "timing.lds_conflict_cycles",
        per_round(&|r| r.lds_conflict_cycles),
    );
    run.layer("timing.global_bytes", per_round(&|r| r.global_bytes));
    run.layer("timing.hazard_replays", per_round(&|r| r.hazard_replays));
}

/// Tracing overhead in percent: the traced phase's wall against the
/// untraced phase's wall for the same rounds.
pub fn overhead_pct(untraced: &Phase, traced: &Phase) -> f64 {
    (traced.wall_s / untraced.wall_s.max(1e-9) - 1.0) * 100.0
}

/// Host-time metrics from the spans: `kernels.*` per set-up, `sass.*` and
/// `timing.new_us` per call, `timing.run_s` and `timing.sims` per round
/// of the traced phase.
pub fn from_spans(run: &mut Run, spans: &[Span]) {
    let setups = run.setup_s.len().max(1) as f64;
    let rounds = f64::from(run.traced.as_ref().map_or(1, |p| p.rounds.max(1)));
    let total_ms = |pred: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(Span::dur_ns)
            .sum::<u64>() as f64
            / 1e6
    };
    let mean_us = |name: &str| {
        let v: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3
    };
    let is_build = |s: &Span| s.layer == "kernels" && s.name.contains("build_");
    let is_input = |s: &Span| s.layer == "kernels" && s.name.starts_with("Matrix::");
    run.layer("kernels.build_ms", total_ms(&is_build) / setups);
    run.layer("kernels.inputs_ms", total_ms(&is_input) / setups);
    run.layer("sass.assemble_us", mean_us("assemble"));
    run.layer("sass.validate_us", mean_us("validate_kernel"));
    run.layer("sass.encode_us", mean_us("Module::to_bytes"));
    run.layer("sass.decode_us", mean_us("Module::from_bytes"));
    run.layer("timing.new_us", mean_us("TimingSim::new"));
    // A simulation is a `TimingSim::run` call, or a `time_kernel` call
    // (which makes and runs its own `TimingSim`).
    let is_sim = |s: &Span| s.name == "TimingSim::run" || s.name == "time_kernel";
    let sims = spans.iter().filter(|s| is_sim(s)).count() as f64;
    run.layer("timing.sims", sims / rounds);
    let run_s = total_ms(&is_sim) / 1e3 / rounds;
    run.layer("timing.run_s", run_s);
    let cycles = run.layers.get("timing.cycles").copied().unwrap_or(0.0);
    let insts = run.layers.get("timing.warp_insts").copied().unwrap_or(0.0);
    if cycles > 0.0 {
        run.layer("timing.ns_per_cycle", run_s * 1e9 / cycles);
    }
    if insts > 0.0 {
        run.layer("timing.ns_per_warp_inst", run_s * 1e9 / insts);
    }
}
