//! `service_mix`: a closed loop through `bench::service::Service`.
//!
//! Two workers, two jobs outstanding: one client thread submits the next
//! job whenever a result arrives. A round is the same 50 jobs in an order
//! that changes from round to round (see [`round_order`]): profile jobs
//! across all seven `profiling::TARGETS` (see [`copies`]), plus twelve
//! `Fault` mutants drawn at random from the cases that pass a set-up screen
//! among the Table 2-seeded cases of a seeded `fault::campaign_cases` list
//! on both GPUs, up to the [`WINDOW`]th valid one.
//!
//! The screen runs each case's functional engine on a short step budget.
//! Cases that run past it are the watchdog-timeout candidates: 1–4 s of
//! host time each, against well under a millisecond for most mutants, so
//! one of them in a round swings the round's cost with the seed. They stay
//! out of the service loop; the traced run times the first of them through
//! `fault::run_case` for the `fault.*.timeout` metrics. The screen always
//! launches the same, large number of valid cases, so set-up time depends
//! little on the seed's mutants and not on how soon enough passing cases
//! turn up. SGEMM-seeded cases are left out: screening one takes 20–45 ms
//! against 0.5–1.2 ms for a Table 2 one. No job has a deadline, a retry, a
//! cycle trigger or a journal, so every job completes.
//!
//! Checks: every job completes and the `Health` accounting identity holds;
//! every fault job's outcome classes and cycles equal those of the same
//! `FuzzCase` run alone through `fault::run_case` outside the timed phase;
//! every profile job's achieved rate is at most the bound its report
//! carries.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use peakperf_arch::Generation;
use peakperf_bench::fault::{
    campaign_cases, mutant_kernel, run_case, CampaignConfig, FuzzCase, MutantReport, SeedSpec,
};
use peakperf_bench::json::Json;
use peakperf_bench::profiling::{run_target_cancellable, TARGETS};
use peakperf_bench::service::{
    JobKind, JobResult, JobSpec, JobStatus, Service, ServiceConfig, SubmitOutcome,
};
use peakperf_kernels::rng::Rng;
use peakperf_sass::validate_kernel;
use peakperf_sim::{Gpu, SimError};

use crate::spans::span;
use crate::{repeated_setup, shuffle, Config, Op, Phase, Run};

/// Service workers (and jobs kept outstanding).
const WORKERS: usize = 2;
/// Set-ups per run (the median is reported).
const SETUP_REPEATS: usize = 41;
/// Mutants per round (all pass the [`SCREEN_STEPS`] screen).
const MUTANTS: usize = 12;
/// Valid Table 2-seeded campaign cases the set-up screen launches. A fixed
/// number of launches, rather than of cases, keeps the screen's cost from
/// following how many mutants the seed's campaign makes invalid, and many
/// launches average out the rest: with 24 the screen's step count moved by
/// ±20 % from seed to seed.
const WINDOW: usize = 96;
/// Campaign length: about half of the mutants are valid and 20 of the
/// campaign's 24 seed kernels are Table 2 kernels, so 320 cases hold about
/// 133 valid Table 2-seeded ones, far more than [`WINDOW`].
const CAMPAIGN: u64 = 320;
/// Functional-engine step budget of the set-up screen. In the windows of
/// seeds 1–10 (960 launches) a mutant that finished took at most 776 steps
/// (an unmutated Table 2 seed kernel takes 744), and the others ran into
/// the fuzzer's 2M-step watchdog; this budget and one twice as large picked
/// out the same cases. The screen only needs to see a mutant run long.
const SCREEN_STEPS: u64 = 1_000;

struct State {
    jobs: Vec<JobKind>,
    /// Seeds the per-round job order.
    order_seed: u64,
    /// The first screened-out case of the window (traced runs time it).
    overrun: Option<FuzzCase>,
    service: Service,
    results: std::sync::mpsc::Receiver<JobResult>,
}

/// Whether the mutant runs past [`SCREEN_STEPS`] in the functional
/// engine (the watchdog-timeout candidates); `None` when validation
/// rejects it, so it is not launched.
fn overruns_screen(case: &FuzzCase) -> Result<Option<bool>, String> {
    let (seed, kernel, _) = span("bench::fault", "mutant_kernel", 0, || {
        mutant_kernel(case, &[])
    })?;
    if validate_kernel(&kernel, case.generation).is_err() {
        return Ok(None);
    }
    let screened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut gpu = Gpu::new(case.generation);
        gpu.set_step_limit(SCREEN_STEPS);
        span("sim::func", "Gpu::launch", 0, || {
            gpu.launch(&kernel, seed.config, &[])
        })
    }));
    Ok(Some(matches!(
        screened,
        Ok(Err(SimError::StepLimit { .. }))
    )))
}

/// Profile jobs per target per round. The counts put the median job
/// latency in the middle of the `table2_ffma` group (about 0.5 s), which
/// sits well apart from its neighbours in latency (`fermi_ffma` about
/// 0.15 s below, `sgemm_fermi` and `table2_ffma_2way` about 1 s above): as
/// many jobs sort below it (twelve mutants, eight `fermi_ffma`) as above it
/// (the five slower targets four times), so the p50 tracks one kind of job.
fn copies(target: &str) -> usize {
    match target {
        "table2_ffma" => 10,
        "fermi_ffma" => 8,
        _ => 4,
    }
}

fn setup(seed: u64) -> Result<State, String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_5E27);
    let cfg = CampaignConfig {
        seed: rng.next_u64(),
        iters: CAMPAIGN,
        generations: vec![Generation::Fermi, Generation::Kepler],
    };
    let table2 = campaign_cases(&cfg)
        .into_iter()
        .filter(|c| matches!(c.seed, SeedSpec::Table2(_)));
    let mut passing = Vec::new();
    let mut overrun = None;
    let mut launched = 0;
    for case in table2 {
        if launched == WINDOW {
            break;
        }
        let screened = overruns_screen(&case)?;
        launched += usize::from(screened.is_some());
        if screened == Some(true) {
            overrun.get_or_insert(case);
        } else {
            passing.push(case);
        }
    }
    if launched < WINDOW || passing.len() < MUTANTS {
        return Err(format!(
            "{launched} valid campaign cases launched, {} passed the screen",
            passing.len()
        ));
    }
    shuffle(&mut passing, &mut rng);
    let mutants = passing
        .into_iter()
        .take(MUTANTS)
        .map(|case| JobKind::Fault { case });
    let mut jobs: Vec<JobKind> = TARGETS
        .iter()
        .flat_map(|t| {
            (0..copies(t.name)).map(|_| JobKind::Profile {
                target: t.name.to_owned(),
            })
        })
        .collect();
    jobs.extend(mutants);
    let (service, results) = Service::start(ServiceConfig {
        workers: WORKERS,
        queue_capacity: 2 * WORKERS,
        retry_backoff_ms: 0,
    });
    Ok(State {
        jobs,
        order_seed: rng.next_u64(),
        overrun,
        service,
        results,
    })
}

fn job_label(kind: &JobKind) -> String {
    match kind {
        JobKind::Profile { target } => format!("profile {target}"),
        JobKind::Fault { case } => format!(
            "fault {:?} {} {:#018x}",
            case.generation,
            case.seed.id(),
            case.mutation_seed
        ),
        other => other.name().to_owned(),
    }
}

/// One completed job as the client saw it.
struct Done {
    /// Index into the round's job list.
    job: usize,
    latency_s: f64,
    /// The result, its profile report parsed into `facts` and dropped.
    result: JobResult,
    facts: Option<Result<ProfileFacts, String>>,
}

/// The job order of one round: the SGEMM profile jobs first, alternating
/// GPUs, then the rest in a seeded shuffle. The SGEMM jobs are the largest
/// in memory; opening every round with them side by side makes the two
/// workers' footprints overlap the same way whatever the seed, so the
/// process's memory peak does not depend on where the shuffle put them.
fn round_order(jobs: &[JobKind], seed: u64) -> Vec<usize> {
    let of = |name: &str| -> Vec<usize> {
        (0..jobs.len())
            .filter(|&j| matches!(&jobs[j], JobKind::Profile { target } if target == name))
            .collect()
    };
    let (fermi, kepler) = (of("sgemm_fermi"), of("sgemm_kepler"));
    let lead: Vec<usize> = fermi
        .iter()
        .zip(&kepler)
        .flat_map(|(&f, &k)| [f, k])
        .collect();
    let mut rest: Vec<usize> = (0..jobs.len()).filter(|j| !lead.contains(j)).collect();
    shuffle(&mut rest, &mut Rng::seed_from_u64(seed));
    lead.into_iter().chain(rest).collect()
}

/// Drive whole rounds through the service until `seconds` have passed,
/// keeping [`WORKERS`] jobs outstanding.
fn closed_loop(state: &State, seconds: f64) -> (f64, u32, Vec<Done>, Vec<String>) {
    let n = state.jobs.len();
    let t0 = Instant::now();
    let (mut next, mut rounds) = (0usize, 0u32);
    let mut order = Vec::new();
    let mut in_flight: HashMap<String, (usize, Instant)> = HashMap::new();
    let mut done = Vec::new();
    let mut problems = Vec::new();
    loop {
        while in_flight.len() < WORKERS {
            if next % n == 0 {
                // A new round starts only while the run has time left.
                if next > 0 && t0.elapsed().as_secs_f64() >= seconds {
                    break;
                }
                order = round_order(&state.jobs, state.order_seed ^ u64::from(rounds));
                rounds += 1;
            }
            let job = order[next % n];
            let id = format!("r{}-j{job:02}", next / n);
            next += 1;
            let submitted = Instant::now();
            let outcome = state
                .service
                .submit(JobSpec::new(id.clone(), state.jobs[job].clone()));
            if outcome == SubmitOutcome::Accepted {
                in_flight.insert(id, (job, submitted));
            } else {
                problems.push(format!("{id}: submission {outcome:?}"));
            }
        }
        if in_flight.is_empty() {
            break;
        }
        let Ok(mut result) = state.results.recv() else {
            break;
        };
        let received = Instant::now();
        if let Some((job, submitted)) = in_flight.remove(&result.id) {
            // Parse the profile report now so it is not held for the run.
            let facts = result.report_json.take().map(|json| profile_facts(&json));
            done.push(Done {
                job,
                latency_s: received.duration_since(submitted).as_secs_f64(),
                result,
                facts,
            });
        }
    }
    (t0.elapsed().as_secs_f64(), rounds, done, problems)
}

/// The fields a profile job's report carries.
struct ProfileFacts {
    achieved: f64,
    bound: f64,
    paper: Option<f64>,
    cycles: u64,
}

fn profile_facts(report_json: &str) -> Result<ProfileFacts, String> {
    let doc = Json::parse(report_json)?;
    let num = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_f64)
            .ok_or_else(|| format!("profile report without `{what}`"))
    };
    Ok(ProfileFacts {
        achieved: num(doc.get("achieved"), "achieved")?,
        bound: num(doc.get("bound"), "bound")?,
        paper: doc.get("paper").and_then(Json::as_f64),
        cycles: num(
            doc.get("profile").and_then(|p| p.get("cycles")),
            "profile.cycles",
        )? as u64,
    })
}

/// The most severe outcome class across a mutant's engines.
fn case_class(report: &MutantReport) -> &'static str {
    let rank = |c: &str| match c {
        "panic" => 4,
        "timeout" => 3,
        "fault" => 2,
        "reject" => 1,
        _ => 0,
    };
    [&report.func, &report.timing, &report.traced]
        .iter()
        .map(|o| o.class())
        .max_by_key(|c| rank(c))
        .unwrap_or("ok")
}

/// The result a fault job must report for a mutant, derived from a
/// reference report the way the service describes it: the detail line
/// (exact for accepted mutants, its violation prefix otherwise) and the
/// timing engine's cycles.
fn fault_result_matches(report: &MutantReport, result: &JobResult) -> bool {
    let cycles = match report.timing {
        peakperf_bench::fault::Outcome::Ok { cycles } => Some(cycles),
        _ => None,
    };
    let detail = match &report.violation {
        Some(v) => result
            .detail
            .starts_with(&format!("mutant violation [{}]", v.kind.name())),
        None => {
            result.detail
                == format!(
                    "mutant ok: func={} timing={}",
                    report.func.class(),
                    report.timing.class()
                )
        }
    };
    detail && result.cycles == cycles
}

/// One job run directly on this thread (the traced replay).
struct Replayed {
    job: usize,
    secs: f64,
    /// Profile cycles, for the identity check against the service run.
    cycles: Option<u64>,
    mutant: Option<MutantReport>,
}

fn replay(jobs: &[JobKind], which: &[usize]) -> Result<Vec<Replayed>, String> {
    let mut out = Vec::new();
    for (op_id, &job) in which.iter().enumerate() {
        let t0 = Instant::now();
        let replayed = match &jobs[job] {
            JobKind::Profile { target } => {
                let outcome = span(
                    "bench::profiling",
                    "run_target_cancellable",
                    op_id as u64,
                    || run_target_cancellable(target, false, None),
                )
                .map_err(|e| format!("profile {target}: {e}"))?;
                Replayed {
                    job,
                    secs: t0.elapsed().as_secs_f64(),
                    cycles: Some(profile_facts(&outcome.json)?.cycles),
                    mutant: None,
                }
            }
            JobKind::Fault { case } => {
                let report = span("bench::fault", "run_case", op_id as u64, || run_case(case))?;
                Replayed {
                    job,
                    secs: t0.elapsed().as_secs_f64(),
                    cycles: None,
                    mutant: Some(report),
                }
            }
            other => return Err(format!("unexpected job kind {}", other.name())),
        };
        out.push(replayed);
    }
    Ok(out)
}

/// Run the workload.
pub fn run(config: &Config, process_start: Instant) -> Result<Run, String> {
    crate::spans::set_enabled(config.trace);
    let (state, setup_s) = repeated_setup(SETUP_REPEATS, process_start, || setup(config.seed))?;
    crate::spans::set_enabled(false);
    let mut run = Run {
        setup_s,
        ..Run::default()
    };
    let (wall_s, rounds, done, mut problems) = closed_loop(&state, config.seconds);
    let State {
        jobs,
        overrun,
        service,
        ..
    } = state;
    let health = service.drain();
    if !health.accounted()
        || health.completed != done.len() as u64
        || health.submitted != done.len() as u64
    {
        problems.push(format!("service accounting: {}", health.render_line()));
    }

    // References for the fault jobs, outside the timed phase: each mutant
    // run alone on this thread; in trace mode also one profile job of each
    // target. The trace run replays the same jobs a second time with spans
    // on.
    let mut targets = HashSet::new();
    let which: Vec<usize> = (0..jobs.len())
        .filter(|&j| match &jobs[j] {
            JobKind::Profile { target } => config.trace && targets.insert(target.clone()),
            _ => true,
        })
        .collect();
    let timed_replay = |traced: bool| -> Result<(Vec<Replayed>, f64), String> {
        crate::spans::set_enabled(traced);
        let t0 = Instant::now();
        let replayed = replay(&jobs, &which);
        let wall = t0.elapsed().as_secs_f64();
        crate::spans::set_enabled(false);
        Ok((replayed?, wall))
    };
    let (replayed, replay_wall) = timed_replay(false)?;
    let mut reference: HashMap<usize, &Replayed> = HashMap::new();
    for r in &replayed {
        reference.insert(r.job, r);
    }

    let mut ops = Vec::new();
    let mut profile_cycles: HashMap<usize, u64> = HashMap::new();
    for d in &done {
        let r = &d.result;
        let label = job_label(&jobs[d.job]);
        let mut op = Op {
            label: label.clone(),
            latency_s: d.latency_s,
            cycles: 0,
            paper: None,
            failed: None,
        };
        if r.status != JobStatus::Completed {
            problems.push(format!(
                "{label} ({}): {} — {}",
                r.id,
                r.status.as_str(),
                r.detail
            ));
            op.failed = Some(format!("service job {}", r.status.as_str()));
            ops.push(op);
            continue;
        }
        match &jobs[d.job] {
            JobKind::Profile { .. } => match &d.facts {
                Some(Ok(facts)) => {
                    if facts.achieved > facts.bound {
                        problems.push(format!(
                            "{label}: achieved {:.3} above its bound {:.3}",
                            facts.achieved, facts.bound
                        ));
                    }
                    op.cycles = facts.cycles;
                    op.paper = facts.paper.map(|p| (facts.achieved, p));
                    profile_cycles.insert(d.job, facts.cycles);
                }
                Some(Err(e)) => problems.push(format!("{label}: {e}")),
                None => problems.push(format!("{label}: no profile report")),
            },
            _ => {
                op.cycles = r.cycles.unwrap_or(0);
                match reference.get(&d.job).and_then(|x| x.mutant.as_ref()) {
                    Some(report) => {
                        if !fault_result_matches(report, r) {
                            problems.push(format!(
                                "{label}: service gave `{}` ({:?} cycles), run alone gave \
                                 func={} timing={} violation={:?}",
                                r.detail,
                                r.cycles,
                                report.func,
                                report.timing,
                                report.violation.as_ref().map(|v| v.kind.name())
                            ));
                        }
                    }
                    None => problems.push(format!("{label}: no reference run")),
                }
            }
        }
        ops.push(op);
    }
    run.phase = Phase {
        wall_s,
        rounds,
        ops,
    };

    if config.trace {
        let (traced_replay, traced_wall) = timed_replay(true)?;
        crate::spans::set_enabled(true);
        let overrun_job: Vec<JobKind> = overrun
            .map(|case| JobKind::Fault { case })
            .into_iter()
            .collect();
        let overrun_run = replay(&overrun_job, &(0..overrun_job.len()).collect::<Vec<_>>())?;
        crate::spans::set_enabled(false);
        let mut traced_ops = Vec::new();
        let mut per_target: HashMap<String, Vec<f64>> = HashMap::new();
        let mut per_class: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (r, plain) in traced_replay.iter().zip(&replayed) {
            let label = job_label(&jobs[r.job]);
            let same_mutant = match (&r.mutant, &plain.mutant) {
                (Some(a), Some(b)) => {
                    a.func == b.func && a.timing == b.timing && a.traced == b.traced
                }
                (a, b) => a.is_none() && b.is_none(),
            };
            if r.cycles != plain.cycles || !same_mutant {
                problems.push(format!("{label}: traced and untraced replays differ"));
            }
            match (&jobs[r.job], &r.mutant) {
                (JobKind::Profile { target }, _) => {
                    per_target
                        .entry(target.clone())
                        .or_default()
                        .push(r.secs * 1e3);
                    if r.cycles != profile_cycles.get(&r.job).copied() {
                        problems.push(format!(
                            "{label}: replay simulated other cycles than the service"
                        ));
                    }
                }
                (_, Some(report)) => per_class
                    .entry(case_class(report))
                    .or_default()
                    .push(r.secs * 1e3),
                _ => {}
            }
            traced_ops.push(Op {
                label,
                latency_s: r.secs,
                cycles: r.cycles.unwrap_or(0),
                paper: None,
                failed: None,
            });
        }
        for r in &overrun_run {
            if let Some(report) = &r.mutant {
                let class = case_class(report);
                per_class.entry(class).or_default().push(r.secs * 1e3);
                run.notes.push(format!(
                    "screened-out mutant {}: {class} in {:.3} s through fault::run_case",
                    job_label(&overrun_job[r.job]),
                    r.secs
                ));
            }
        }
        // An empty sum of floats is -0.0; report a plain 0 instead.
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        for t in TARGETS {
            let v = per_target.get(t.name).map_or(0.0, |v| mean(v));
            run.layer(&format!("profiling.job_ms.{}", t.name), v);
        }
        for class in ["ok", "reject", "fault", "timeout"] {
            let v = per_class.get(class).cloned().unwrap_or_default();
            run.layer(&format!("fault.case_ms.{class}"), mean(&v));
            run.layer(&format!("fault.cases.{class}"), v.len() as f64);
        }
        // Service layers, measured from outside: the client's latency
        // split into queue wait, attempt wall and the rest.
        let n = done.len().max(1) as f64;
        let queue_ms: f64 = done
            .iter()
            .map(|d| d.result.queue_wait_us.unwrap_or(0) as f64 / 1e3)
            .sum();
        let attempt_ms: f64 = done
            .iter()
            .map(|d| d.result.attempts_wall_us.unwrap_or(0) as f64 / 1e3)
            .sum();
        let latency_ms: f64 = done.iter().map(|d| d.latency_s * 1e3).sum();
        run.layer("service.queue_wait_ms", queue_ms / n);
        run.layer("service.attempt_ms", attempt_ms / n);
        run.layer(
            "service.overhead_ms",
            (latency_ms - queue_ms - attempt_ms) / n,
        );
        run.layer(
            "service.utilization",
            attempt_ms / 1e3 / (WORKERS as f64 * wall_s.max(1e-9)),
        );
        // Tracing overhead: the same one-thread replay with spans on
        // against spans off.
        let untraced = Phase {
            wall_s: replay_wall,
            rounds: 1,
            ops: Vec::new(),
        };
        let traced = Phase {
            wall_s: traced_wall,
            rounds: 1,
            ops: traced_ops,
        };
        run.layer(
            "trace.overhead_pct",
            crate::layers::overhead_pct(&untraced, &traced),
        );
        run.notes.push(format!(
            "replay of one job per profile target and every mutant on one thread: \
             {replay_wall:.3} s untraced, {traced_wall:.3} s traced"
        ));
        run.traced = Some(traced);
    }
    run.notes.push(format!(
        "{} jobs per round; {}",
        jobs.len(),
        health.render_line()
    ));
    run.problems = problems;
    Ok(run)
}
