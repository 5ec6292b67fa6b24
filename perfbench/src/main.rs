//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <broker_contention|chaos_recompose|registry_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--chaos-seed <n>] [--mesh-seed <n>] [--fat-tree-seed <n>]
//! ```
//!
//! With `--trace 0` it repeats fresh passes over one fixed workload for
//! `--seconds` and prints the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced passes and prints the per-layer
//! metrics. Every pass is checked (see `README.md` in this directory);
//! the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code
//! is nonzero when any check failed.

mod churn;
mod host;
mod sessions;
mod trace;

use host::Interval;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest passes of each kind a run makes, however long they take.
const MIN_PASSES: usize = 3;
/// Set-up-only constructions before each untraced pass; `setup_s` is
/// the fastest of these and the passes' own.
const SETUPS_PER_PASS: usize = 8;

/// Workload seeds. `--seed` is the arrival seed (the session stream,
/// or the registry write stream); the world's own seeds default to the
/// X16/X19 values and are separate flags.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub arrival: u64,
    pub chaos: u64,
    pub mesh_topology: u64,
    pub fat_tree_topology: u64,
}

impl Default for Seeds {
    fn default() -> Seeds {
        Seeds {
            arrival: 42,
            chaos: 11,
            mesh_topology: 5,
            fat_tree_topology: 19,
        }
    }
}

/// One named measurement with its unit.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Deterministic plan-quality figures of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub served_ratio: f64,
    pub p5_delivered_satisfaction: f64,
    pub mean_delivered_satisfaction: f64,
    pub playing_ratio: f64,
    pub availability: f64,
}

/// Per-layer figures of one traced pass.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub wall_s: f64,
    /// Pass wall time no timed layer accounts for.
    pub unattributed_s: f64,
}

/// Everything one pass measured and checked.
pub struct Pass {
    /// Process CPU seconds of building the world before the first
    /// request.
    pub setup_s: f64,
    /// The serving pass itself.
    pub interval: Interval,
    /// Process CPU seconds of each fixed segment of the pass, in order
    /// (one segment for the session workloads).
    pub segments_cpu_s: Vec<f64>,
    /// Digest of the pass's report or plans.
    pub digest: u64,
    /// Per-request compose latency, µs, in request order (untraced
    /// passes only).
    pub compose_us: Vec<f64>,
    pub quality: Quality,
    /// Operations offered: sessions, or composes plus registry writes.
    pub operations: u64,
    /// Failed checks.
    pub gates: Vec<String>,
    pub layers: Option<Layers>,
}

/// FNV-1a over rendered text, record-separated.
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, text: &str) {
        for byte in text.bytes().chain(std::iter::once(0x1e)) {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Every per-layer metric, in output order. A layer a workload does not
/// go through reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("broker.calls", "count"),
    ("broker.busy_s", "s"),
    ("broker.reallocations", "count"),
    ("broker.grant_updates", "count"),
    ("delivery.calls", "count"),
    ("delivery.busy_s", "s"),
    ("delivery.memo_hits", "count"),
    ("delivery.memo_refreshes", "count"),
    ("delivery.memo_misses", "count"),
    ("liveness.calls", "count"),
    ("liveness.busy_s", "s"),
    ("chaos.events", "count"),
    ("chaos.busy_s", "s"),
    ("world_other.calls", "count"),
    ("world_other.busy_s", "s"),
    ("compose.calls", "count"),
    ("compose.busy_s", "s"),
    ("compose.call_p50_us", "us"),
    ("compose.attempts", "count"),
    ("compose.recompositions", "count"),
    ("admission.shed", "count"),
    ("admission.peak_queue_depth", "count"),
    ("admission.deadline_misses", "count"),
    ("session.self_s", "s"),
    ("session.self_share", "ratio"),
    ("registry.writes", "count"),
    ("registry.write_busy_s", "s"),
    ("registry.write_p50_us", "us"),
    ("graph_store.rebuilds", "count"),
    ("graph_store.deltas", "count"),
    ("graph_store.delta_ops", "count"),
    ("graph_store.reuses", "count"),
    ("sharded.expanded_shards", "count"),
    ("sharded.rounds", "count"),
    ("sharded.full_expansions", "count"),
    ("pass.wall_s", "s"),
    ("pass.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sessions(sessions::Kind),
    RegistryChurn,
}

const WORKLOADS: [(&str, Workload); 3] = [
    (
        "broker_contention",
        Workload::Sessions(sessions::Kind::BrokerContention),
    ),
    (
        "chaos_recompose",
        Workload::Sessions(sessions::Kind::ChaosRecompose),
    ),
    ("registry_churn", Workload::RegistryChurn),
];

struct Args {
    workload: Workload,
    name: &'static str,
    seeds: Seeds,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seeds = Seeds::default();
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|(name, _)| *name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seeds.arrival = number()?,
            "--chaos-seed" => seeds.chaos = number()?,
            "--mesh-seed" => seeds.mesh_topology = number()?,
            "--fat-tree-seed" => seeds.fat_tree_topology = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seeds,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let schedule =
        (args.workload == Workload::RegistryChurn).then(|| churn::schedule(args.seeds.arrival));
    let run_pass = |traced: bool| -> Pass {
        match args.workload {
            Workload::Sessions(kind) => sessions::pass(kind, &args.seeds, traced),
            Workload::RegistryChurn => churn::pass(
                schedule.as_ref().expect("built above for registry_churn"),
                traced,
            ),
        }
    };
    let setup_once = || -> f64 {
        match args.workload {
            Workload::Sessions(kind) => sessions::setup(kind, &args.seeds),
            Workload::RegistryChurn => churn::setup(),
        }
    };

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    loop {
        if !args.trace {
            setups.extend((0..SETUPS_PER_PASS).map(|_| setup_once()));
        }
        plain.push(run_pass(false));
        if args.trace {
            traced.push(run_pass(true));
        }
        if plain.len() >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
    }

    // Checks: every pass reproduces the first pass's digest (the traced
    // ones too, which proves the decorator forwards everything), plus
    // each pass's own gates.
    let reference = plain[0].digest;
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (label, pass) in plain
        .iter()
        .map(|p| ("untraced", p))
        .chain(traced.iter().map(|p| ("traced", p)))
    {
        attempted += pass.operations;
        let mut bad = pass.gates.clone();
        if pass.digest != reference {
            bad.push(format!(
                "{label} pass digest {:016x} differs from the first pass's {reference:016x}",
                pass.digest
            ));
        }
        if pass.quality != plain[0].quality {
            bad.push(format!(
                "{label} pass quality differs from the first pass's"
            ));
        }
        if !bad.is_empty() {
            failed += pass.operations;
            failures.extend(bad);
        }
    }

    // Metrics are read before the flat-plan check, whose full flat
    // graph would otherwise set the peak RSS.
    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, &setups)
    };
    if let Some(schedule) = &schedule {
        let bad = churn::flat_check(schedule);
        if !bad.is_empty() {
            failed += 1;
            failures.extend(bad);
        }
        attempted += 1;
    }

    print_diagnostics(&args, &plain, &traced, reference, &failures);
    for failure in &failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let correct = failures.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// CPU seconds of one pass over the fixed workload: each segment's
/// fastest run across passes, summed. For a one-segment pass this is
/// the fastest pass; with more segments a steal burst that slowed one
/// stretch of one pass is discarded without discarding the whole pass.
fn pass_cpu_s(passes: &[Pass]) -> f64 {
    (0..passes[0].segments_cpu_s.len())
        .map(|k| min_of(passes.iter().map(|p| p.segments_cpu_s[k])))
        .sum()
}

/// End-to-end metrics of a run of untraced passes: fastest set-up,
/// fastest pass CPU (per segment), peak RSS, per-request minimum compose latency
/// across passes, and the (deterministic) quality of the first pass.
fn end_to_end(passes: &[Pass], setups: &[f64]) -> Vec<Metric> {
    let mut per_request = passes[0].compose_us.clone();
    for pass in &passes[1..] {
        for (best, &us) in per_request.iter_mut().zip(&pass.compose_us) {
            *best = best.min(us);
        }
    }
    per_request.sort_by(|a, b| a.total_cmp(b));
    let q = passes[0].quality;
    vec![
        Metric::new(
            "setup_s",
            min_of(
                passes
                    .iter()
                    .map(|p| p.setup_s)
                    .chain(setups.iter().copied()),
            ),
            "s",
        ),
        Metric::new("cpu_s", pass_cpu_s(passes), "s"),
        Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"),
        Metric::new("compose_p50_us", percentile(&per_request, 0.50), "us"),
        Metric::new("compose_p99_us", percentile(&per_request, 0.99), "us"),
        Metric::new("served_ratio", q.served_ratio, "ratio"),
        Metric::new(
            "p5_delivered_satisfaction",
            q.p5_delivered_satisfaction,
            "score",
        ),
        Metric::new(
            "mean_delivered_satisfaction",
            q.mean_delivered_satisfaction,
            "score",
        ),
        Metric::new("playing_ratio", q.playing_ratio, "ratio"),
        Metric::new("availability", q.availability, "ratio"),
    ]
}

/// Per-layer metrics of the traced pass with the least CPU time, plus
/// the tracing overhead: traced against untraced pass CPU.
fn per_layer(plain: &[Pass], traced: &[Pass]) -> Vec<Metric> {
    let best = traced
        .iter()
        .min_by(|a, b| a.interval.cpu_s.total_cmp(&b.interval.cpu_s))
        .expect("at least one traced pass");
    let layers = best.layers.as_ref().expect("traced passes carry layers");
    let overhead = pass_cpu_s(traced) / pass_cpu_s(plain) - 1.0;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "pass.wall_s" => layers.wall_s,
                "pass.unattributed_share" => layers.unattributed_s / layers.wall_s,
                "trace.overhead_share" => overhead,
                _ => layers
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Host facts, seeds and every pass's raw timings: not metrics, but
/// what a reader needs to judge a run (steal bursts show here).
fn print_diagnostics(
    args: &Args,
    plain: &[Pass],
    traced: &[Pass],
    digest: u64,
    failures: &[String],
) {
    let passes = |passes: &[Pass]| -> String {
        passes
            .iter()
            .map(|p| {
                format!(
                    "{{\"setup_s\": {}, \"cpu_s\": {}, \"wall_s\": {}, \"steal_ticks\": {}}}",
                    p.setup_s, p.interval.cpu_s, p.interval.wall_s, p.interval.steal_ticks
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let s = args.seeds;
    println!(
        "{{\"diagnostics\": {{\"workload\": \"{}\", \"trace\": {}, \"seeds\": {{\"arrival\": {}, \"chaos\": {}, \"mesh_topology\": {}, \"fat_tree_topology\": {}}}, \"nproc\": {}, \"cpu_model\": \"{}\", \"digest\": \"{digest:016x}\", \"compose_samples\": {}, \"operations_per_pass\": {}, \"checks_failed\": {}, \"untraced_passes\": [{}], \"traced_passes\": [{}]}}}}",
        args.name,
        u8::from(args.trace),
        s.arrival,
        s.chaos,
        s.mesh_topology,
        s.fat_tree_topology,
        host::nproc(),
        host::cpu_model().replace('"', "'"),
        plain[0].compose_us.len(),
        plain[0].operations,
        failures.len(),
        passes(plain),
        passes(traced),
    );
}
