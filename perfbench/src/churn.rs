//! The `registry_churn` workload: X20's clustered scale scenario at
//! 10^4 services, served by the two-level `ShardedComposer` through a
//! caller-owned `GraphStore`, with sharded-registry writes between
//! composes. Closed loop, one client: each step applies its writes,
//! then composes and waits for the plan.
//!
//! Every step registers [`REGISTERS_PER_STEP`] fresh tail services and
//! deregisters as many registered [`FIFO_STEPS`] steps earlier, so the
//! live count stays flat. On even steps [`HOT_PER_STEP`] registrations
//! land in a shard the composer expands, so the next compose replays a
//! scoped delta; every other registration lands in a shard the summary
//! level prunes, so odd steps reuse the scoped graph as it is. Churned
//! tails are capped below cluster 0, so the optimal plan never changes.

use crate::host::{process_cpu_s, Stopwatch};
use crate::{percentile, Digest, Layers, Metric, Pass, Quality};
use qosc_core::{GraphStore, SelectOptions, TwoLevelComposition};
use qosc_media::{Axis, AxisDomain, DomainVector, FormatId};
use qosc_netsim::SimTime;
use qosc_profiles::PriceModel;
use qosc_services::{Conversion, ServiceId, TranscoderDescriptor};
use qosc_workload::scale::{scale_scenario, ScaleConfig, ScaleScenario};
use std::collections::VecDeque;
use std::time::Instant;

/// Registered services at set-up.
const SERVICES: usize = 10_000;
/// Composes per pass: enough that the p99 has ten samples beyond it.
const STEPS: usize = 1_100;
/// Tail registrations per step (each later matched by a deregister).
const REGISTERS_PER_STEP: usize = 192;
/// Registrations per even step that land in an expanded shard. Their
/// register and deregister make `2 × HOT_PER_STEP` delta ops per
/// compose, below the store's rebuild threshold of 16.
const HOT_PER_STEP: usize = 2;
/// Steps per timed segment of a pass (see `pass_cpu_s`).
const SEGMENT_STEPS: usize = 100;
/// Steps a churned service stays registered.
const FIFO_STEPS: usize = 4;
/// Lease of a churned service: never expires within a pass.
const TTL_US: u64 = u64::MAX / 2;

/// Seeded inputs: which cluster every registration of a pass joins.
pub struct Schedule {
    /// `STEPS × REGISTERS_PER_STEP` cluster indices, step-major; the
    /// first `HOT_PER_STEP` of each even step are hot.
    clusters: Vec<usize>,
    mids: Vec<FormatId>,
    dst: FormatId,
}

fn config() -> ScaleConfig {
    ScaleConfig::default().with_total_services(SERVICES)
}

/// SplitMix64: a tiny seeded generator for the write schedule.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize]
    }
}

/// A tail service for `cluster`: `mid{cluster % M} → dst`, capped at
/// the cluster's frame rate, as the scenario's own tails are.
fn tail(
    scenario: &ScaleScenario,
    schedule: &Schedule,
    cluster: usize,
    seq: usize,
) -> TranscoderDescriptor {
    TranscoderDescriptor {
        name: format!("churn{cluster}.{seq}"),
        host: scenario.proxy_host,
        conversions: vec![Conversion {
            input: schedule.mids[cluster % schedule.mids.len()],
            output: schedule.dst,
            output_domain: DomainVector::new().with(
                Axis::FrameRate,
                AxisDomain::Continuous {
                    min: 0.0,
                    max: scenario.cluster_cap(cluster),
                },
            ),
        }],
        cpu_mips_per_mbps: 0.0,
        memory_bytes: 0.0,
        price: PriceModel {
            per_second: 0.0,
            per_mbit: 0.0,
        },
    }
}

fn compose(scenario: &ScaleScenario, store: &GraphStore) -> TwoLevelComposition {
    scenario
        .composer()
        .compose_with_store(
            store,
            &scenario.profiles,
            scenario.sender_host,
            scenario.receiver_host,
            &SelectOptions::default(),
        )
        .expect("two-level compose")
}

/// Derive the write schedule from `seed`: split clusters 1.. into hot
/// (tail routes to a shard the warm compose expanded) and cold, then
/// draw every registration's cluster from the matching set.
pub fn schedule(seed: u64) -> Schedule {
    let (scenario, _store, warm) = build();
    let mids: Vec<FormatId> = (0..)
        .map_while(|m| scenario.formats.lookup(&format!("mid{m}")).ok())
        .collect();
    let dst = scenario
        .formats
        .lookup("dst")
        .expect("scale scenarios have dst");
    let mut schedule = Schedule {
        clusters: Vec::new(),
        mids,
        dst,
    };
    let router = scenario.services.router();
    let (hot, cold): (Vec<usize>, Vec<usize>) = (1..scenario.clusters).partition(|&c| {
        let shard = router.route(&tail(&scenario, &schedule, c, 0));
        warm.expanded_shards.contains(&shard)
    });
    assert!(
        !hot.is_empty() && !cold.is_empty(),
        "churn needs clusters on both expanded and pruned shards"
    );
    let mut rng = SplitMix(seed);
    schedule.clusters = (0..STEPS * REGISTERS_PER_STEP)
        .map(|i| {
            let (step, k) = (i / REGISTERS_PER_STEP, i % REGISTERS_PER_STEP);
            if step % 2 == 0 && k < HOT_PER_STEP {
                rng.pick(&hot)
            } else {
                rng.pick(&cold)
            }
        })
        .collect();
    schedule
}

/// Run one registry write, recording its wall time into `log` if any.
fn timed<T>(log: &mut Option<&mut Vec<u64>>, write: impl FnOnce() -> T) -> T {
    match log {
        Some(log) => {
            let start = Instant::now();
            let out = write();
            log.push(start.elapsed().as_nanos() as u64);
            out
        }
        None => write(),
    }
}

/// Apply step `step`'s writes: [`REGISTERS_PER_STEP`] registrations,
/// each followed by the deregistration of the service registered
/// [`FIFO_STEPS`] steps earlier. `live` holds the churned services still
/// registered, oldest first. With `write_ns`, every write's wall time is
/// recorded.
fn churn_step(
    scenario: &mut ScaleScenario,
    schedule: &Schedule,
    step: usize,
    live: &mut VecDeque<ServiceId>,
    mut write_ns: Option<&mut Vec<u64>>,
    gates: &mut Vec<String>,
) {
    for k in 0..REGISTERS_PER_STEP {
        let seq = step * REGISTERS_PER_STEP + k;
        let descriptor = tail(scenario, schedule, schedule.clusters[seq], seq);
        let now = SimTime(1_000 + seq as u64);
        let services = &mut scenario.services;
        live.push_back(timed(&mut write_ns, || {
            services.register(descriptor, now, TTL_US)
        }));
        if live.len() > FIFO_STEPS * REGISTERS_PER_STEP {
            let old = live.pop_front().expect("longer than the FIFO depth");
            if timed(&mut write_ns, || services.deregister(old)).is_err() {
                gates.push(format!("deregister of churned service {old:?} failed"));
            }
        }
    }
}

/// Set-up: build the scenario and warm the store with one compose.
fn build() -> (ScaleScenario, GraphStore, TwoLevelComposition) {
    let scenario = scale_scenario(&config());
    let store = GraphStore::new();
    let warm = compose(&scenario, &store);
    (scenario, store, warm)
}

/// Set-up alone: process CPU seconds of [`build`].
pub fn setup() -> f64 {
    let setup = Stopwatch::start();
    let built = build();
    let setup_s = setup.stop().cpu_s;
    drop(built);
    setup_s
}

/// One pass: build the scenario and warm the store (timed as set-up),
/// then run every step.
pub fn pass(schedule: &Schedule, traced: bool) -> Pass {
    let setup = Stopwatch::start();
    let (mut scenario, store, _warm) = build();
    let setup = setup.stop();

    let mut gates = Vec::new();
    let mut digest = Digest::default();
    let mut compose_us = Vec::with_capacity(STEPS);
    let mut write_ns: Vec<u64> = Vec::new();
    let mut live = VecDeque::new();
    let mut quality = QualityTally::default();
    let mut sharded = [0u64; 3];
    let mut segments_cpu_s = Vec::with_capacity(STEPS.div_ceil(SEGMENT_STEPS));
    let watch = Stopwatch::start();
    let mut segment_start = process_cpu_s();
    for step in 0..STEPS {
        churn_step(
            &mut scenario,
            schedule,
            step,
            &mut live,
            traced.then_some(&mut write_ns),
            &mut gates,
        );
        let start = Instant::now();
        let two = compose(&scenario, &store);
        compose_us.push(start.elapsed().as_secs_f64() * 1e6);
        digest.update(&format!("{:?}", two.composition.plan));
        quality.add(
            two.composition
                .plan
                .as_ref()
                .map(|p| p.predicted_satisfaction),
        );
        sharded[0] += two.expanded_shards.len() as u64;
        sharded[1] += u64::from(two.rounds);
        sharded[2] += u64::from(two.full_expansion);
        if (step + 1) % SEGMENT_STEPS == 0 || step + 1 == STEPS {
            let now = process_cpu_s();
            segments_cpu_s.push(now - segment_start);
            segment_start = now;
        }
    }
    let interval = watch.stop();
    let stats = store.stats();

    if sharded[2] > 0 {
        gates.push(format!(
            "{} composes fell back to full expansion",
            sharded[2]
        ));
    }
    if stats.deltas == 0 {
        gates.push("no scoped delta replay ran: churn never hit an expanded shard".to_string());
    }

    let layers = traced.then(|| {
        let compose_busy_s = compose_us.iter().sum::<f64>() * 1e-6;
        let write_busy_s = write_ns.iter().sum::<u64>() as f64 * 1e-9;
        let mut sorted_compose = compose_us.clone();
        sorted_compose.sort_by(|a, b| a.total_cmp(b));
        let mut sorted_writes: Vec<f64> = write_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        sorted_writes.sort_by(|a, b| a.total_cmp(b));
        let unattributed_s = (interval.wall_s - compose_busy_s - write_busy_s).max(0.0);
        let metrics = vec![
            Metric::new("compose.calls", STEPS as f64, "count"),
            Metric::new("compose.busy_s", compose_busy_s, "s"),
            Metric::new(
                "compose.call_p50_us",
                percentile(&sorted_compose, 0.50),
                "us",
            ),
            Metric::new("compose.attempts", STEPS as f64, "count"),
            Metric::new("registry.writes", write_ns.len() as f64, "count"),
            Metric::new("registry.write_busy_s", write_busy_s, "s"),
            Metric::new(
                "registry.write_p50_us",
                percentile(&sorted_writes, 0.50),
                "us",
            ),
            Metric::new("graph_store.rebuilds", stats.rebuilds as f64, "count"),
            Metric::new("graph_store.deltas", stats.deltas as f64, "count"),
            Metric::new("graph_store.delta_ops", stats.delta_ops as f64, "count"),
            Metric::new("graph_store.reuses", stats.reuses as f64, "count"),
            Metric::new("sharded.expanded_shards", sharded[0] as f64, "count"),
            Metric::new("sharded.rounds", sharded[1] as f64, "count"),
            Metric::new("sharded.full_expansions", sharded[2] as f64, "count"),
        ];
        Layers {
            metrics,
            wall_s: interval.wall_s,
            unattributed_s,
        }
    });

    Pass {
        setup_s: setup.cpu_s,
        interval,
        segments_cpu_s,
        digest: digest.0,
        compose_us: if traced { Vec::new() } else { compose_us },
        quality: quality.finish(),
        // Composes, registrations, and the deregistrations that start
        // once the FIFO is full.
        operations: (STEPS * (1 + REGISTERS_PER_STEP) + (STEPS - FIFO_STEPS) * REGISTERS_PER_STEP)
            as u64,
        gates,
        layers,
    }
}

/// Steps replayed before the second flat comparison.
const FLAT_CHECK_STEPS: usize = 2 * FIFO_STEPS;

/// The untimed plan sample: the two-level plan must equal the flat
/// `Composer`'s plan on the warm registry and again after
/// [`FLAT_CHECK_STEPS`] steps of churn. The flat path builds a graph
/// over every service (hundreds of MB at 10^4), so this runs once,
/// after the timed passes and after peak RSS was read.
pub fn flat_check(schedule: &Schedule) -> Vec<String> {
    let mut gates = Vec::new();
    let (mut scenario, store, warm) = build();
    flat_gate(&scenario, &warm, &mut gates);
    let mut live = VecDeque::new();
    for step in 0..FLAT_CHECK_STEPS {
        churn_step(&mut scenario, schedule, step, &mut live, None, &mut gates);
    }
    let churned = compose(&scenario, &store);
    flat_gate(&scenario, &churned, &mut gates);
    gates
}

fn flat_gate(scenario: &ScaleScenario, two: &TwoLevelComposition, gates: &mut Vec<String>) {
    let flat = scenario
        .flat_composer()
        .compose_with_store(
            &GraphStore::new(),
            &scenario.profiles,
            scenario.sender_host,
            scenario.receiver_host,
            &SelectOptions::default(),
        )
        .expect("flat compose");
    if format!("{:?}", flat.plan) != format!("{:?}", two.composition.plan) {
        gates.push("two-level plan deviates from the flat composer's plan".to_string());
    }
}

/// Plan quality over a pass's composes: every compose is one served
/// "request"; there is no playback, so playing ratio and availability
/// are those of a plan that is always delivered.
#[derive(Default)]
struct QualityTally {
    satisfaction: Vec<f64>,
    offered: usize,
}

impl QualityTally {
    fn add(&mut self, satisfaction: Option<f64>) {
        self.offered += 1;
        if let Some(s) = satisfaction {
            self.satisfaction.push(s);
        }
    }

    fn finish(mut self) -> Quality {
        self.satisfaction.sort_by(|a, b| a.total_cmp(b));
        let n = self.satisfaction.len();
        Quality {
            served_ratio: n as f64 / self.offered.max(1) as f64,
            p5_delivered_satisfaction: if n == 0 {
                0.0
            } else {
                self.satisfaction[(n - 1) * 5 / 100]
            },
            mean_delivered_satisfaction: if n == 0 {
                0.0
            } else {
                self.satisfaction.iter().sum::<f64>() / n as f64
            },
            playing_ratio: 1.0,
            availability: 1.0,
        }
    }
}
