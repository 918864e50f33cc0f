//! Distinct-home fleet benchmark of the CACE serving tier.
//!
//! Drives `ShardedRouter::push_round` closed-loop over a fleet in which
//! every home streams its own seeded session, checks every decision
//! against dedicated single-thread streams, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run
//! (`--trace 1`). See `fleetbench/README.md` for the metric list.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload fleet_tiny_live --seed 1 --seconds 4 --trace 0
//! ```

mod fleet;
mod layers;
mod provenance;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cace_core::DEFAULT_SHARDS;

use crate::fleet::{Decisions, Drive};
use crate::provenance::Provenance;
use crate::trace::Tracer;
use crate::workload::{sample_homes, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up (training plus fleet build) repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: cace-fleetbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n\
         --seconds sets the epochs an untraced run drives (each measures ~1.5-3 s on 2 cores)",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be within 1..=60".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (Hyndman–Fan definition 1) of a sorted sample.
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Marks the ticks of each listed home whose decisions differ from the
/// expected ones; returns the number of differing home-ticks.
fn check_against(
    failed: &mut [Vec<bool>],
    actual: &[Decisions],
    expected: &[(usize, Decisions)],
) -> u64 {
    expected
        .iter()
        .map(|(home, want)| fleet::mark_mismatches(failed, *home, &actual[*home], want))
        .sum()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cace-fleetbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // More workers than shards would idle: `push_round` fans out per shard.
    let threads = nproc.min(DEFAULT_SHARDS);
    // The router's fan-out reads its worker count from this variable; it
    // is set before any parallel call, while the process has one thread.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    if run(&args, threads) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Timing of one epoch's untraced drive.
struct EpochTiming {
    home_ticks_per_s: f64,
    p50_ms: f64,
    p90_ms: f64,
    rounds: usize,
}

impl EpochTiming {
    fn of(drive: &Drive) -> Self {
        let mut sorted = drive.round_ns.clone();
        sorted.sort_unstable();
        EpochTiming {
            home_ticks_per_s: drive.home_ticks_per_s(false),
            p50_ms: nearest_rank(&sorted, 0.5) as f64 / 1e6,
            p90_ms: nearest_rank(&sorted, 0.9) as f64 / 1e6,
            rounds: sorted.len(),
        }
    }
}

/// Everything the untraced drives of all epochs add up to.
#[derive(Default)]
struct Totals {
    epochs: Vec<EpochTiming>,
    correct_decisions: u64,
    decisions: u64,
    attempted: u64,
    failed: u64,
    mismatched: u64,
    quarantined: usize,
    reference_homes: usize,
}

impl Totals {
    /// Median over epochs of one epoch's timing figure.
    fn median_of(&self, f: fn(&EpochTiming) -> f64) -> f64 {
        median(&mut self.epochs.iter().map(f).collect::<Vec<_>>())
    }
}

/// Runs one workload and prints its metrics; returns whether every check
/// passed.
///
/// An untraced run drives `--seconds` epochs: each epoch is a fresh fleet
/// of distinct homes with freshly generated sessions, so more work is
/// measured without holding more inputs in memory. A traced run drives one.
fn run(args: &Args, threads: usize) -> bool {
    let w = args.workload;
    let epochs = if args.trace { 1 } else { args.seconds as usize };
    let mut tracer = args.trace.then(|| Tracer::with_capacity(1 << 20));
    let prov = Provenance::collect();
    println!(
        "cace-fleetbench workload={} seed={} seconds={} trace={} epochs={epochs}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let start = Instant::now();
    let generate_first = || {
        let train = workload::training_corpus(w.family);
        (train, workload::generate(&w, args.seed, 0, threads))
    };
    let (train, mut sessions) = match tracer.as_mut() {
        Some(tr) => tr.time("behavior.simulate", None, generate_first),
        None => generate_first(),
    };
    let mut simulate_s = start.elapsed().as_secs_f64();
    let mut input_fp = workload::fingerprint(&train);
    let rss_base = trace::rss_bytes();

    // Set-up is repeated and its median reported; each repetition's fleet
    // is dropped before the next is built.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let (trained, times) = fleet::setup(&train, &w, tracer.as_mut());
        setups.push(times);
        engine = Some(trained);
    }
    let engine = engine.expect("at least one set-up repetition");
    let setup_s = median(
        &mut setups
            .iter()
            .map(|s| s.train_s + s.fleet_build_s)
            .collect::<Vec<_>>(),
    );

    let mut totals = Totals::default();
    let mut peak_rss = rss_base;
    let mut metrics = Vec::new();
    for epoch in 0..epochs {
        if epoch > 0 {
            drop(std::mem::take(&mut sessions));
            let start = Instant::now();
            sessions = workload::generate(&w, args.seed, epoch, threads);
            simulate_s += start.elapsed().as_secs_f64();
        }
        input_fp = workload::mix(input_fp, workload::fingerprint(&sessions));

        // The untraced drive: every end-to-end number comes from these.
        let live = fleet::drive(fleet::build_router(&engine, &w), &sessions, None);
        if epoch == 0 {
            // Later epochs reuse memory the first one freed, so only the
            // first shows what a fleet adds.
            peak_rss = live.peak_rss;
        }
        let mut failed = live.failed.clone();
        let mut mismatched = 0;
        let epoch_seed = workload::mix(args.seed, epoch as u64);
        let reference_homes = match w.reference_homes {
            Some(k) => sample_homes(w.homes, k, epoch_seed),
            None => (0..w.homes).collect(),
        };
        let references = fleet::references(&engine, &sessions, &reference_homes, threads);
        mismatched += check_against(&mut failed, &live.decisions, &references);
        if w.live_cap.is_some() {
            // The same fleet without a live cap — the fleet_tiny_live
            // configuration on the same seed — must decide identically.
            let uncapped = Workload {
                live_cap: None,
                ..w
            };
            let baseline = fleet::drive(fleet::build_router(&engine, &uncapped), &sessions, None);
            let all: Vec<(usize, Decisions)> = baseline.decisions.into_iter().enumerate().collect();
            mismatched += check_against(&mut failed, &live.decisions, &all);
        }

        if let Some(tr) = tracer.as_mut() {
            let traced = fleet::drive(fleet::build_router(&engine, &w), &sessions, Some(tr));
            let same: Vec<(usize, Decisions)> =
                traced.decisions.iter().cloned().enumerate().collect();
            mismatched += check_against(&mut failed, &live.decisions, &same);
            let probe_homes = sample_homes(w.homes, w.probe_homes, workload::mix(epoch_seed, 1));
            let probe = layers::probe(&engine, &sessions, &probe_homes, tr);
            mismatched += check_against(&mut failed, &live.decisions, &probe.decisions);
            mismatched += check_against(&mut failed, &live.decisions, &probe.snapshot_decisions);
            metrics = layer_metrics(&LayerInputs {
                tracer: tr,
                probe: &probe,
                traced: &traced,
                untraced: EpochTiming::of(&live),
                threads,
                setups: &setups,
                simulate_s,
            });
        }

        let (correct, decided) = fleet::accuracy_counts(&live.decisions, &sessions);
        totals.correct_decisions += correct;
        totals.decisions += decided;
        totals.epochs.push(EpochTiming::of(&live));
        totals.attempted += (w.homes * w.ticks) as u64;
        totals.failed += failed.iter().flatten().filter(|&&f| f).count() as u64;
        totals.mismatched += mismatched;
        totals.quarantined += live.quarantined;
        totals.reference_homes += reference_homes.len();
    }

    println!(
        "provenance: seed={} input_fp={input_fp:016x} commit={} source_fp={:016x} cpu=\"{}\" \
         nproc={} threads={threads} rustc=\"{}\"",
        args.seed, prov.commit, prov.source_fp, prov.cpu, prov.nproc, prov.rustc
    );
    if let Some(tr) = tracer.as_ref() {
        let path =
            PathBuf::from("fleetbench/out").join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
        let header = format!(
            "cace-fleetbench workload={} seed={} input_fp={input_fp:016x} commit={} source_fp={:016x}",
            w.name, args.seed, prov.commit, prov.source_fp
        );
        match tr.write_tsv(&path, &header) {
            Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
            Err(e) => eprintln!("cace-fleetbench: could not write {}: {e}", path.display()),
        }
    }

    let correct = totals.failed == 0 && totals.mismatched == 0 && totals.quarantined == 0;
    let rounds = totals.epochs.first().map_or(0, |e| e.rounds);
    println!(
        "fleet: homes={} ticks_per_home={} live_cap_per_shard={} epochs={epochs} \
         measured_rounds_per_epoch={rounds} (p90 has {} rounds beyond it)",
        w.homes,
        w.ticks,
        w.live_cap.map_or("none".to_string(), |c| c.to_string()),
        rounds - (0.9 * rounds as f64).ceil() as usize
    );
    for (i, e) in totals.epochs.iter().enumerate() {
        println!(
            "epoch {i}: home_ticks_per_s={:.1} round_p50_ms={:.3} round_p90_ms={:.3}",
            e.home_ticks_per_s, e.p50_ms, e.p90_ms
        );
    }
    println!(
        "memory: rss after the first inputs {:.1} MB, peak during the first drive {:.1} MB",
        rss_base as f64 / 1e6,
        peak_rss as f64 / 1e6
    );
    println!(
        "checks: reference_homes={} mismatches={} failed_home_ticks={} \
         attempted_home_ticks={} failed_frac={} quarantined_homes={}",
        totals.reference_homes,
        totals.mismatched,
        totals.failed,
        totals.attempted,
        totals.failed as f64 / totals.attempted.max(1) as f64,
        totals.quarantined
    );
    if !args.trace {
        // The p90 is printed but carries no bound: on a shared 2-vCPU host
        // its spread across runs reached 0.49 (see README).
        println!(
            "tail: round_p90_ms = {} ms (median over epochs)",
            totals.median_of(|e| e.p90_ms)
        );
        metrics = vec![
            metric(
                "home_ticks_per_s",
                totals.median_of(|e| e.home_ticks_per_s),
                "1/s",
            ),
            metric("round_p50_ms", totals.median_of(|e| e.p50_ms), "ms"),
            metric(
                "accuracy",
                totals.correct_decisions as f64 / totals.decisions.max(1) as f64,
                "fraction",
            ),
            metric("setup_s", setup_s, "s"),
            metric(
                "fleet_rss_mb",
                peak_rss.saturating_sub(rss_base) as f64 / 1e6,
                "MB",
            ),
        ];
    }
    for m in &metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.attempted,
        totals.failed,
        body.join(", ")
    );
    correct
}

struct LayerInputs<'a> {
    tracer: &'a Tracer,
    probe: &'a layers::Probe,
    traced: &'a Drive,
    /// The untraced drive of the same epoch.
    untraced: EpochTiming,
    threads: usize,
    setups: &'a [fleet::SetupTimes],
    simulate_s: f64,
}

/// The per-layer metrics, from the spans, the probes' counts and the
/// traced drive's router counters; prints the layer table on the way.
fn layer_metrics(l: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = l.tracer.summary();
    let stat = |name: &str| spans.get(name).copied().unwrap_or_default();
    let p = l.probe;
    let per_tick = |x: f64| x / p.ticks.max(1) as f64;

    let features_us = stat("features.extract_tick").mean_us();
    let prepare_us = per_tick(
        (stat("prepare.tick_inputs").total_ns as f64
            - stat("prepare.extract_session").total_ns as f64)
            / 1e3,
    );
    let step_us = stat("hdbn.push").mean_us();
    let push_us = stat("stream.push").mean_us();
    let unattributed_us = push_us - (features_us + prepare_us + step_us);
    let park_us = stat("snapshot.park").mean_us();
    let rehydrate_us = stat("snapshot.rehydrate").mean_us();
    let parked_bytes = p.parked_bytes as f64 / p.park_allocs.calls.max(1) as f64;

    let d = l.traced;
    let sum = |f: fn(&fleet::ShardDelta) -> u64| d.shards.iter().map(f).sum::<u64>();
    let pushes = sum(|s| s.pushes).max(1) as f64;
    let push_nanos: Vec<f64> = d.shards.iter().map(|s| s.push_nanos as f64).collect();
    let round_ns: u64 = d.round_ns.iter().sum();
    let traced_htps = d.home_ticks_per_s(true);
    let warm_untraced_htps = d.home_ticks_per_s(false);
    let mean_push_nanos = push_nanos.iter().sum::<f64>() / push_nanos.len().max(1) as f64;
    let outside_push_frac =
        1.0 - push_nanos.iter().sum::<f64>() / (l.threads as f64 * round_ns.max(1) as f64);
    let shard_skew = push_nanos.iter().copied().fold(0.0, f64::max) / mean_push_nanos.max(1.0);
    let parallel_efficiency =
        l.untraced.home_ticks_per_s / (l.threads as f64 * 1e6 / push_us.max(1e-9));
    let overhead_frac = 1.0 - traced_htps / warm_untraced_htps;

    let train_s = median(&mut l.setups.iter().map(|s| s.train_s).collect::<Vec<_>>());
    let fleet_build_s = median(&mut l.setups.iter().map(|s| s.fleet_build_s).collect::<Vec<_>>());

    println!(
        "\nlayer table (single-thread probes over {} ticks; means per call)",
        p.ticks
    );
    println!(
        "{:<34} {:>10} {:>12} {:>10}",
        "layer", "calls", "us/call", "% of push"
    );
    let share = |us: f64| 100.0 * us / push_us.max(1e-9);
    for (label, calls, us) in [
        (
            "features (extract_tick)",
            stat("features.extract_tick").count,
            features_us,
        ),
        ("prepare (tick_inputs - extract)", p.ticks, prepare_us),
        (
            "hdbn (OnlineCoupledViterbi::push)",
            stat("hdbn.push").count,
            step_us,
        ),
        ("stream unattributed", p.ticks, unattributed_us),
    ] {
        println!("{label:<34} {calls:>10} {us:>12.3} {:>9.1}%", share(us));
    }
    println!(
        "{:<34} {:>10} {push_us:>12.3} {:>9.1}%",
        "stream.push (total)",
        stat("stream.push").count,
        100.0
    );
    println!(
        "{:<34} {:>10} {park_us:>12.3}\n{:<34} {:>10} {rehydrate_us:>12.3}",
        "snapshot.park (+ encode)",
        stat("snapshot.park").count,
        "snapshot.rehydrate (decode+resume)",
        stat("snapshot.rehydrate").count
    );
    println!(
        "fleet: push_round spans={} mean {:.3} ms; shard push time {:.1}% of thread time, \
         outside it {:.1}%",
        stat("fleet.push_round").count,
        stat("fleet.push_round").mean_us() / 1e3,
        100.0 * (1.0 - outside_push_frac),
        100.0 * outside_push_frac
    );
    println!(
        "tracing overhead: alternating rounds of one drive: untraced {warm_untraced_htps:.1} \
         home-ticks/s, traced {traced_htps:.1} home-ticks/s ({:+.2}%); the untraced first \
         drive of this process: {:.1} home-ticks/s\n",
        -100.0 * overhead_frac,
        l.untraced.home_ticks_per_s,
    );

    vec![
        metric("features.extract_us", features_us, "us"),
        metric(
            "features.allocs_per_tick",
            p.features_allocs.per_call(),
            "count",
        ),
        metric("prepare.us_per_tick", prepare_us, "us"),
        metric(
            "prepare.rules_fired_per_tick",
            per_tick(p.rules_fired as f64),
            "count",
        ),
        metric(
            "prepare.joint_size_mean",
            per_tick(p.joint_size_sum),
            "count",
        ),
        metric("hdbn.step_us", step_us, "us"),
        metric(
            "hdbn.states_explored_per_tick",
            per_tick(p.states_explored as f64),
            "count",
        ),
        metric(
            "hdbn.transition_ops_per_tick",
            per_tick(p.transition_ops as f64),
            "count",
        ),
        metric("hdbn.allocs_per_step", p.hdbn_allocs.per_call(), "count"),
        metric("stream.push_us", push_us, "us"),
        metric("stream.unattributed_us", unattributed_us, "us"),
        metric(
            "stream.allocs_per_push",
            p.stream_allocs.per_call(),
            "count",
        ),
        metric("snapshot.park_us", park_us, "us"),
        metric("snapshot.rehydrate_us", rehydrate_us, "us"),
        metric("snapshot.parked_bytes", parked_bytes, "bytes"),
        metric(
            "snapshot.allocs_per_park",
            p.park_allocs.per_call(),
            "count",
        ),
        metric(
            "snapshot.allocs_per_rehydrate",
            p.rehydrate_allocs.per_call(),
            "count",
        ),
        metric(
            "router.parks_per_push",
            sum(|s| s.parks) as f64 / pushes,
            "count",
        ),
        metric(
            "router.rehydrations_per_push",
            sum(|s| s.rehydrations) as f64 / pushes,
            "count",
        ),
        metric(
            "router.batched_frac",
            sum(|s| s.batched_pushes) as f64 / pushes,
            "fraction",
        ),
        metric("router.outside_push_frac", outside_push_frac, "fraction"),
        metric("router.shard_skew", shard_skew, "ratio"),
        metric(
            "router.parallel_efficiency",
            parallel_efficiency,
            "fraction",
        ),
        metric(
            "router.allocs_per_home_tick",
            d.traced_allocs as f64 / d.traced_home_ticks().max(1) as f64,
            "count",
        ),
        metric("fleet.round_p90_ms", l.untraced.p90_ms, "ms"),
        metric("setup.train_s", train_s, "s"),
        metric("setup.fleet_build_s", fleet_build_s, "s"),
        metric("behavior.simulate_s", l.simulate_s, "s"),
        metric("trace.overhead_frac", overhead_frac, "fraction"),
    ]
}
