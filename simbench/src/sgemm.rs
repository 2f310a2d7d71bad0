//! `sgemm_paper`: Figure 5 at the paper's size.
//!
//! Sixteen ops — asm-opt and cublas-like × NN/NT/TN/TT × GTX580/GTX680 —
//! each one `sim::timing::time_kernel` call on a 2400×2400 SGEMM with k
//! capped at 960 (what `Speed::Quick` simulates): one resident wave of
//! blocks simulated on one SM, extrapolated to the whole GPU. Ops run one
//! after another on this thread with the timing cache off, all on the one
//! simulated memory the set-up uploaded the matrices to.
//!
//! Checks, all computed apart from the program:
//! * every C element the simulated wave wrote equals a dot product the
//!   benchmark computes itself from A and B as they sit in simulated memory
//!   (bit-exact: f32 `mul_add` in ascending k, the FFMA order of the
//!   kernels). Each op's tiles are read back and reset to zero right after
//!   the op, so after the timed phase C must be all zero: a write outside
//!   the simulated tiles shows there;
//! * every GFLOPS value is positive and at most the GPU's
//!   `UpperBoundModel::best_sgemm_bound()`.

use std::ops::Range;
use std::time::Instant;

use peakperf_arch::GpuConfig;
use peakperf_bound::{paper_reference, UpperBoundModel};
use peakperf_kernels::matrix::Matrix;
use peakperf_kernels::rng::Rng;
use peakperf_kernels::sgemm::{build_preset, Preset, SgemmBuild, SgemmProblem, Trans, Variant};
use peakperf_sim::timing::{time_kernel, TimingReport, TimingSim};
use peakperf_sim::{Dim3, GlobalMemory, Gpu, LaunchConfig};

use crate::spans::span;
use crate::{repeated_setup, rounds, shuffle, Config, Op, Run};

/// Edge of the square output (the paper's size).
const SIZE: u32 = 2400;
/// Inner dimension simulated (the `Speed::Quick` cap).
const K: u32 = 960;
/// Output tile edge of every generated kernel.
const TILE: u32 = 96;
/// Set-ups per run (the median is reported).
const SETUP_REPEATS: usize = 9;

struct Case {
    gpu: GpuConfig,
    preset: Preset,
    build: SgemmBuild,
}

impl Case {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.gpu.name.to_lowercase(),
            self.preset.name(),
            self.build.problem.variant.name()
        )
    }

    /// The paper's GFLOPS for this GPU and implementation.
    fn paper_gflops(&self) -> f64 {
        let paper = paper_reference(self.gpu.generation);
        match self.preset {
            Preset::AsmOpt => paper.achieved_gflops(),
            _ => paper.cublas_fraction * paper.theoretical_peak_gflops,
        }
    }

    /// Output tiles of the first `resident` grid blocks, which are the
    /// ones a simulated wave runs (they take the first slots along x).
    fn tiles(&self, resident: u32) -> Vec<(u32, u32)> {
        let gx = self.build.config.grid.x;
        (0..resident).map(|b| (b % gx, b / gx)).collect()
    }
}

struct State {
    cases: Vec<Case>,
    order: Vec<usize>,
    /// Simulated memory holding A (`N`: m×k, `T`: k×m), B (`N`: k×n,
    /// `T`: n×k) as stored for each transpose, and C.
    memory: GlobalMemory,
    a_addr: [u32; 2],
    b_addr: [u32; 2],
    c_addr: u32,
}

fn trans_index(t: Trans) -> usize {
    match t {
        Trans::N => 0,
        Trans::T => 1,
    }
}

fn setup(seed: u64) -> Result<State, String> {
    let gpus = [GpuConfig::gtx580(), GpuConfig::gtx680()];
    let mut cases = Vec::new();
    for gpu in gpus {
        for variant in Variant::ALL {
            for preset in [Preset::CublasLike, Preset::AsmOpt] {
                let problem = SgemmProblem {
                    variant,
                    m: SIZE,
                    n: SIZE,
                    k: K,
                };
                let build = span("kernels", "sgemm::build_preset", 0, || {
                    build_preset(gpu.generation, &problem, preset)
                })
                .map_err(|e| format!("build_preset {}: {e}", variant.name()))?;
                cases.push(Case {
                    gpu: gpu.clone(),
                    preset,
                    build,
                });
            }
        }
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_5CE3);
    let mut order: Vec<usize> = (0..cases.len()).collect();
    shuffle(&mut order, &mut rng);

    // A as stored for N and T, then B as stored for N and T; each host
    // copy is dropped once it is uploaded.
    let (m, k) = (SIZE as usize, K as usize);
    let shapes = [(m, k), (k, m), (k, m), (m, k)];
    let mut memory = GlobalMemory::new();
    let mut addrs = [0u32; 4];
    for (addr, (rows, cols)) in addrs.iter_mut().zip(shapes) {
        let matrix_seed = rng.next_u64();
        let matrix = span("kernels", "Matrix::random", 0, || {
            Matrix::random(rows, cols, matrix_seed)
        });
        *addr = span("kernels", "Matrix::upload", 0, || {
            matrix.upload(&mut memory)
        })
        .map_err(|e| e.to_string())?;
    }
    let c_addr = memory
        .alloc_zeroed(SIZE * SIZE * 4)
        .map_err(|e| e.to_string())?;
    Ok(State {
        cases,
        order,
        memory,
        a_addr: [addrs[0], addrs[1]],
        b_addr: [addrs[2], addrs[3]],
        c_addr,
    })
}

/// What one op left for the checks after the timed phase.
struct Outcome {
    case: usize,
    gflops: f64,
    /// Grid blocks the simulated wave ran.
    resident: u32,
    /// The written tiles' C values, tile by tile, column-major within a tile.
    tiles: Vec<f32>,
    report: TimingReport,
}

fn params(state: &State, case: &Case) -> [u32; 5] {
    let (ta, tb) = case.build.problem.variant.ops();
    [
        state.a_addr[trans_index(ta)],
        state.b_addr[trans_index(tb)],
        state.c_addr,
        1.0f32.to_bits(),
        0.0f32.to_bits(),
    ]
}

/// Read the C tiles of the first `resident` blocks out of `memory` and
/// reset them to zero.
fn take_tiles(
    memory: &mut GlobalMemory,
    c_addr: u32,
    case: &Case,
    resident: u32,
) -> Result<Vec<f32>, String> {
    let mut values = Vec::with_capacity((resident * TILE * TILE) as usize);
    for (tx, ty) in case.tiles(resident) {
        for j in ty * TILE..(ty + 1) * TILE {
            let column = c_addr + (tx * TILE + j * SIZE) * 4;
            let read = memory
                .read_f32_slice(column, TILE as usize)
                .map_err(|e| e.to_string())?;
            values.extend(read);
            for i in 0..TILE {
                memory
                    .write_f32(column + i * 4, 0.0)
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(values)
}

fn run_op(state: &mut State, index: usize, op_id: u64) -> Result<(Op, Outcome), String> {
    let case = &state.cases[index];
    let params = params(state, case);
    let t0 = Instant::now();
    let timing = span("sim::timing", "time_kernel", op_id, || {
        time_kernel(
            &case.gpu,
            &case.build.kernel,
            case.build.config,
            &params,
            &mut state.memory,
            Some(case.build.problem.flops()),
        )
    })
    .map_err(|e| format!("{}: time_kernel: {e}", case.label()))?;
    let latency_s = t0.elapsed().as_secs_f64();
    let resident = timing
        .blocks_per_sm
        .min(case.build.config.total_blocks() as u32);
    let tiles = take_tiles(&mut state.memory, state.c_addr, case, resident)?;
    Ok((
        Op {
            label: case.label(),
            latency_s,
            cycles: timing.sm.cycles,
            paper: Some((timing.gflops, case.paper_gflops())),
            failed: None,
        },
        Outcome {
            case: index,
            gflops: timing.gflops,
            resident,
            tiles,
            report: timing.sm,
        },
    ))
}

/// One round: every case once, in the seeded order.
fn one_round(
    state: &mut State,
    round: u32,
    ops: &mut Vec<Op>,
    outcomes: &mut Vec<Outcome>,
    errors: &mut Vec<String>,
) {
    let n = state.order.len();
    for k in 0..n {
        let index = state.order[k];
        let op_id = u64::from(round) * n as u64 + k as u64;
        match span("bench", "op", op_id, || run_op(state, index, op_id)) {
            Ok((op, out)) => {
                ops.push(op);
                outcomes.push(out);
            }
            Err(e) => errors.push(e),
        }
    }
}

/// `K` values for each index in `range` of a matrix stored at `addr` with
/// leading dimension `ld`, read from simulated memory: `out[r][p]` is the
/// element at index `range.start + r` and inner position `p`.
/// `k_contiguous` says whether consecutive `p` are adjacent in memory.
fn panel(
    memory: &GlobalMemory,
    addr: u32,
    ld: u32,
    range: Range<u32>,
    k_contiguous: bool,
) -> Result<Vec<Vec<f32>>, String> {
    let read = |at: u32, n: u32| {
        memory
            .read_f32_slice(addr + at * 4, n as usize)
            .map_err(|e| e.to_string())
    };
    if k_contiguous {
        return range.map(|r| read(r * ld, K)).collect();
    }
    let mut out = vec![Vec::with_capacity(K as usize); range.len()];
    for p in 0..K {
        for (row, v) in out
            .iter_mut()
            .zip(read(range.start + p * ld, range.len() as u32)?)
        {
            row.push(v);
        }
    }
    Ok(out)
}

/// The dot-product reference for the tiles of the first `resident` blocks,
/// in the order [`take_tiles`] reads them: `op(A)[i, p] * op(B)[p, j]`
/// summed with FFMA semantics in ascending p.
fn reference(state: &State, case: &Case, resident: u32) -> Result<Vec<f32>, String> {
    let tiles = case.tiles(resident);
    let span_of = |f: fn(&(u32, u32)) -> u32| {
        let lo = tiles.iter().map(f).min().unwrap_or(0);
        let hi = tiles.iter().map(f).max().unwrap_or(0);
        lo * TILE..(hi + 1) * TILE
    };
    let (rows, cols) = (span_of(|t| t.0), span_of(|t| t.1));
    let (ta, tb) = case.build.problem.variant.ops();
    // op(A) rows: stored m×k (`N`, i runs along memory) or k×m (`T`, k
    // does); op(B) columns: stored k×n (`N`, k runs along memory) or n×k.
    let a = panel(
        &state.memory,
        state.a_addr[trans_index(ta)],
        if ta == Trans::T { K } else { SIZE },
        rows.clone(),
        ta == Trans::T,
    )?;
    let b = panel(
        &state.memory,
        state.b_addr[trans_index(tb)],
        if tb == Trans::N { K } else { SIZE },
        cols.clone(),
        tb == Trans::N,
    )?;
    let mut v = Vec::with_capacity(tiles.len() * (TILE * TILE) as usize);
    for (tx, ty) in tiles {
        for j in ty * TILE..(ty + 1) * TILE {
            let col = &b[(j - cols.start) as usize];
            for i in tx * TILE..(tx + 1) * TILE {
                let row = &a[(i - rows.start) as usize];
                v.push(
                    row.iter()
                        .zip(col)
                        .fold(0.0f32, |acc, (x, y)| x.mul_add(*y, acc)),
                );
            }
        }
    }
    Ok(v)
}

/// Check every outcome; returns the problems found.
fn check(state: &State, outcomes: &[Outcome]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut references: Vec<Option<Vec<f32>>> = (0..state.cases.len()).map(|_| None).collect();
    for out in outcomes {
        let case = &state.cases[out.case];
        let bound = UpperBoundModel::new(&case.gpu).best_sgemm_bound().gflops;
        if !(out.gflops > 0.0 && out.gflops <= bound) {
            problems.push(format!(
                "{}: {:.1} GFLOPS outside (0, bound {bound:.1}]",
                case.label(),
                out.gflops
            ));
        }
        if references[out.case].is_none() {
            match reference(state, case, out.resident) {
                Ok(r) => references[out.case] = Some(r),
                Err(e) => {
                    problems.push(format!("{}: reading A and B back: {e}", case.label()));
                    continue;
                }
            }
        }
        let reference = references[out.case].as_deref().unwrap_or_default();
        let mismatched = reference
            .iter()
            .zip(&out.tiles)
            .filter(|(r, s)| r.to_bits() != s.to_bits())
            .count();
        if mismatched != 0 || reference.len() != out.tiles.len() {
            problems.push(format!(
                "{}: {mismatched} of {} C elements differ from the dot-product reference",
                case.label(),
                reference.len()
            ));
        }
    }
    problems
}

/// Non-zero C elements, read column by column. Every op resets the tiles it
/// wrote, so anything found here was written outside the simulated tiles.
fn stray_writes(state: &State) -> Result<usize, String> {
    let mut nonzero = 0;
    for j in 0..SIZE {
        let column = state
            .memory
            .read_f32_slice(state.c_addr + j * SIZE * 4, SIZE as usize)
            .map_err(|e| e.to_string())?;
        nonzero += column.iter().filter(|v| **v != 0.0).count();
    }
    Ok(nonzero)
}

fn reports(outcomes: &[Outcome]) -> Vec<&TimingReport> {
    outcomes.iter().map(|o| &o.report).collect()
}

/// The functional engine on the simulated wave's blocks, on the same
/// simulated memory: its C tiles must equal the timing engine's. Returns
/// (launch seconds, warp instructions).
fn func_check(state: &mut State, out: &Outcome, op_id: u64) -> Result<(f64, u64), String> {
    let case = &state.cases[out.case];
    let gx = case.build.config.grid.x;
    let config = LaunchConfig {
        grid: Dim3::new_2d(gx.min(out.resident), out.resident.div_ceil(gx)),
        block: case.build.config.block,
    };
    let params = params(state, case);
    let mut gpu = Gpu::from_config(&case.gpu);
    std::mem::swap(gpu.memory_mut(), &mut state.memory);
    let t0 = Instant::now();
    let launched = span("sim::func", "Gpu::launch", op_id, || {
        gpu.launch(&case.build.kernel, config, &params)
    });
    let secs = t0.elapsed().as_secs_f64();
    let tiles = take_tiles(gpu.memory_mut(), state.c_addr, case, out.resident);
    std::mem::swap(gpu.memory_mut(), &mut state.memory);
    let stats = launched.map_err(|e| format!("{}: Gpu::launch: {e}", case.label()))?;
    if tiles? != out.tiles {
        return Err(format!(
            "{}: functional and timing engines wrote different C tiles",
            case.label()
        ));
    }
    Ok((secs, stats.warp_instructions))
}

/// Run the workload.
pub fn run(config: &Config, process_start: Instant) -> Result<Run, String> {
    crate::spans::set_enabled(config.trace);
    let (mut state, setup_s) = repeated_setup(SETUP_REPEATS, process_start, || setup(config.seed))?;
    crate::spans::set_enabled(false);
    let mut run = Run {
        setup_s,
        ..Run::default()
    };

    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    run.phase = rounds(config.seconds, None, |r, ops| {
        one_round(&mut state, r, ops, &mut outcomes, &mut errors)
    });
    let mut problems = check(&state, &outcomes);

    if config.trace {
        crate::spans::set_enabled(true);
        let mut traced_outcomes = Vec::new();
        let traced = rounds(f64::INFINITY, Some(run.phase.rounds), |r, ops| {
            one_round(&mut state, r, ops, &mut traced_outcomes, &mut errors)
        });
        // `time_kernel` builds its `TimingSim` inside; time the
        // construction on its own once per case, outside the ops.
        for out in traced_outcomes.iter().take(state.cases.len()) {
            let case = &state.cases[out.case];
            let params = params(&state, case);
            span("sim::timing", "TimingSim::new", out.case as u64, || {
                TimingSim::new(
                    &case.gpu,
                    &case.build.kernel,
                    case.build.config,
                    &params,
                    out.resident,
                )
            })
            .map_err(|e| format!("{}: TimingSim::new: {e}", case.label()))?;
        }
        let mut launch_s = 0.0;
        let mut warp_insts = 0u64;
        for (i, out) in traced_outcomes.iter().take(state.cases.len()).enumerate() {
            match func_check(&mut state, out, i as u64) {
                Ok((s, w)) => {
                    launch_s += s;
                    warp_insts += w;
                }
                Err(e) => problems.push(e),
            }
        }
        crate::spans::set_enabled(false);
        problems.extend(check(&state, &traced_outcomes));
        let traced_reports = reports(&traced_outcomes);
        if !crate::layers::same_statistics(&reports(&outcomes), &traced_reports) {
            problems.push("traced and untraced runs simulated different statistics".to_owned());
        }
        let launches = traced_outcomes.len().min(state.cases.len()) as f64;
        run.layer("func.launch_ms", launch_s * 1e3 / launches.max(1.0));
        run.layer(
            "func.warp_minsts_per_s",
            warp_insts as f64 / launch_s.max(1e-9) / 1e6,
        );
        crate::layers::timing_stats(&mut run, &traced_reports, traced.rounds);
        run.layer(
            "trace.overhead_pct",
            crate::layers::overhead_pct(&run.phase, &traced),
        );
        run.traced = Some(traced);
    }
    match stray_writes(&state) {
        Ok(0) => {}
        Ok(n) => problems.push(format!(
            "{n} C elements outside the simulated tiles were written"
        )),
        Err(e) => problems.push(format!("reading C back: {e}")),
    }
    problems.extend(errors);
    run.problems = problems;
    run.notes.push(format!(
        "checked {} ops: C tiles against dot products, GFLOPS against the upper bound; \
         C outside the tiles against zero",
        outcomes.len()
    ));
    Ok(run)
}
