//! The two session workloads: `broker_contention` and `chaos_recompose`.
//!
//! Both serve an open-loop stream of long-lived sessions through
//! `run_sessions` on the virtual clock, at `workers = 1`, against a
//! freshly built `ChaosWorld` per pass (the world is stateful).

use crate::host::Stopwatch;
use crate::trace::{ComposeClock, TracedWorld};
use crate::{percentile, Digest, Layers, Metric, Pass, Quality, Seeds};
use qosc_core::{
    run_sessions, AbrConfig, AbrMode, AdmissionConfig, CompositionRequest, GraphStore,
    ResilientEngineConfig, SelectOptions, SessionEngineConfig, SessionRequest, SessionsReport,
};
use qosc_media::{Axis, FormatRegistry};
use qosc_netsim::generators::{fat_tree, LinkTemplate};
use qosc_netsim::{Network, Node, NodeId};
use qosc_pipeline::{ChaosModel, ChaosPlan, ChaosWorld, SharingPolicy};
use qosc_profiles::{
    ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
};
use qosc_satisfaction::{AxisPreference, SatisfactionFn, SatisfactionProfile};
use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};
use qosc_telemetry::NoopSink;
use qosc_workload::arrivals::{
    session_arrivals, session_arrivals_with_mix, ArrivalPattern, DemandMix, SessionPattern,
};
use qosc_workload::generator::{random_scenario, GeneratorConfig};
use std::time::Instant;

/// Composes timed per pass for `compose_p50_us`/`compose_p99_us`:
/// enough that the p99 has at least ten samples beyond it.
const COMPOSE_SAMPLES: usize = 1_100;

/// Which session workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// X19's k=4 fat-tree, weighted max-min broker, BOLA, 1,000 sessions.
    BrokerContention,
    /// X16's storm cell on a 20-services-per-layer mesh, 1,900 sessions.
    ChaosRecompose,
}

// ----- broker_contention: the X19 max-min cell at 1k sessions -----

/// Sessions offered: the first this many of a Poisson stream whose
/// expected count over the arrival window is 10% higher, so every seed
/// offers the same number.
const BROKER_SESSIONS: u64 = 1_000;
const BROKER_HORIZON_US: u64 = 16_000_000;
const BROKER_ARRIVAL_HORIZON_US: u64 = 4_000_000;
const BROKER_HOLD_RANGE_US: (u64, u64) = (8_000_000, 12_000_000);
const ACCESS_PER_SESSION_BPS: u64 = 1_100_000;
const FABRIC_MULT: u64 = 4;
const MIX: DemandMix = DemandMix {
    interactive_bps: (1_500_000, 3_000_000),
    standard_bps: (400_000, 800_000),
    background_bps: (0, 0),
};

// ----- chaos_recompose: the X16 storm shape, scaled up -----

const CHAOS_HORIZON_US: u64 = 30_000_000;
const CHAOS_ARRIVAL_HORIZON_US: u64 = 25_000_000;
const CHAOS_HOLD_RANGE_US: (u64, u64) = (500_000, 1_500_000);
/// Sessions offered: the first this many of a Poisson-burst stream
/// whose expected count over the arrival window is ~10% higher.
const CHAOS_SESSIONS: usize = 1_900;
const CHAOS_RATE_PER_SEC: u64 = 70;
const CHAOS_SERVICES_PER_LAYER: usize = 20;
const CHAOS_INTENSITY: f64 = 1.0;
const VIRTUAL_CORES: u32 = 4;

fn broker_engine_config() -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 1,
            ..ResilientEngineConfig::default()
        },
        admission: None,
        tick_us: 500_000,
        max_recompositions: 8,
        horizon_us: Some(BROKER_HORIZON_US),
        session_spans: false,
        abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
        sla: None,
    }
}

fn chaos_engine_config() -> SessionEngineConfig {
    SessionEngineConfig {
        resilient: ResilientEngineConfig {
            workers: 1,
            ..ResilientEngineConfig::default()
        },
        admission: Some(AdmissionConfig {
            virtual_cores: VIRTUAL_CORES,
            initial_limit: VIRTUAL_CORES,
            max_limit: 8,
            ..AdmissionConfig::protected()
        }),
        tick_us: 250_000,
        max_recompositions: 8,
        horizon_us: Some(CHAOS_HORIZON_US),
        session_spans: true,
        abr: None,
        sla: None,
    }
}

fn broker_profiles() -> ProfileSet {
    ProfileSet {
        user: UserProfile::demo("user-0"),
        content: ContentProfile::demo_video("clip"),
        device: DeviceProfile::demo_pda(),
        context: ContextProfile::default(),
        network: NetworkProfile::broadband(),
    }
}

/// The shared-bottleneck fat-tree of X19: access tier dimensioned per
/// offered session, one unconstrained transcoding proxy on the
/// sender's edge switch, receivers in the other three pods.
fn broker_world(formats: &FormatRegistry, seed: u64) -> (ChaosWorld<'_>, NodeId, Vec<NodeId>) {
    let access_bps = (BROKER_SESSIONS * ACCESS_PER_SESSION_BPS) as f64;
    let fabric_bps = (BROKER_SESSIONS * ACCESS_PER_SESSION_BPS * FABRIC_MULT) as f64;
    let (mut topo, hosts, _cores) = fat_tree(
        4,
        LinkTemplate::fixed(access_bps, 500),
        LinkTemplate::fixed(fabric_bps, 1_000),
        seed,
    );
    let proxy = topo.add_node(Node::unconstrained("proxy"));
    let edge = topo
        .neighbors(hosts[0])
        .first()
        .expect("a fat-tree host has its edge switch")
        .0;
    topo.connect_simple(proxy, edge, fabric_bps * 100.0)
        .expect("proxy uplink");
    let mut world = ChaosWorld::new(formats, Network::new(topo), DiscoveryConfig::default());
    for spec in catalog::full_catalog() {
        world.join(TranscoderDescriptor::resolve(&spec, formats, proxy).expect("catalog resolves"));
    }
    world.set_sharing(Some(SharingPolicy::WeightedMaxMin));
    (world, hosts[0], hosts[4..].to_vec())
}

fn broker_requests(seed: u64, sender: NodeId, receivers: &[NodeId]) -> Vec<SessionRequest> {
    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: BROKER_ARRIVAL_HORIZON_US,
            rate_per_sec: BROKER_SESSIONS * 1_100_000 / BROKER_ARRIVAL_HORIZON_US,
            burst_period_us: 0,
            ..ArrivalPattern::default()
        },
        hold_range_us: BROKER_HOLD_RANGE_US,
        demand_range_bps: (0, 0),
    };
    session_arrivals_with_mix(&pattern, &MIX, seed)
        .into_iter()
        .take(BROKER_SESSIONS as usize)
        .enumerate()
        .map(|(i, sa)| SessionRequest {
            request: CompositionRequest {
                profiles: broker_profiles(),
                sender_host: sender,
                receiver_host: receivers[i % receivers.len()],
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect()
}

/// The X16 strict 12 fps user on a generated multi-axis mesh.
fn chaos_scenario(seed: u64) -> qosc_workload::Scenario {
    let config = GeneratorConfig {
        services_per_layer: CHAOS_SERVICES_PER_LAYER,
        multi_axis: true,
        ..GeneratorConfig::default()
    };
    let mut scenario = random_scenario(&config, seed);
    scenario.profiles.user.satisfaction = SatisfactionProfile::new()
        .with(AxisPreference::weighted(
            Axis::FrameRate,
            SatisfactionFn::Linear {
                min_acceptable: 12.0,
                ideal: 30.0,
            },
            3.0,
        ))
        .with(AxisPreference::weighted(
            Axis::PixelCount,
            SatisfactionFn::Linear {
                min_acceptable: 0.0,
                ideal: 307_200.0,
            },
            1.0,
        ));
    scenario
}

fn chaos_requests(
    seed: u64,
    profiles: &ProfileSet,
    sender: NodeId,
    receiver: NodeId,
) -> Vec<SessionRequest> {
    let pattern = SessionPattern {
        arrivals: ArrivalPattern {
            horizon_us: CHAOS_ARRIVAL_HORIZON_US,
            rate_per_sec: CHAOS_RATE_PER_SEC,
            ..ArrivalPattern::default()
        },
        hold_range_us: CHAOS_HOLD_RANGE_US,
        demand_range_bps: (0, 0),
    };
    session_arrivals(&pattern, seed)
        .into_iter()
        .take(CHAOS_SESSIONS)
        .map(|sa| SessionRequest {
            request: CompositionRequest {
                profiles: profiles.clone(),
                sender_host: sender,
                receiver_host: receiver,
            },
            arrival: sa.meta,
            hold_us: sa.hold_us,
            demand_bps: sa.demand_bps,
        })
        .collect()
}

/// FNV-1a over the rendered report: outcomes, counters, admission.
fn report_digest(report: &SessionsReport) -> u64 {
    let mut digest = Digest::default();
    for outcome in &report.outcomes {
        digest.update(&format!("{outcome:?}"));
    }
    digest.update(&format!("{:?}", report.counters));
    digest.update(&format!("{:?}", report.admission));
    digest.update(&format!("end={}", report.end_us));
    digest.0
}

/// X19's delivered satisfaction per session that streamed:
/// satisfaction per active µs times the playing share.
fn quality(report: &SessionsReport) -> Quality {
    let mut delivered: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| o.active_us() > 0)
        .map(|o| {
            let active = o.active_us();
            let playing = active.saturating_sub(o.rebuffer_us) as f64 / active as f64;
            (o.satisfaction_us / active as f64) * playing
        })
        .collect();
    delivered.sort_by(|a, b| a.total_cmp(b));
    let active: u64 = report.outcomes.iter().map(|o| o.active_us()).sum();
    let served = report
        .outcomes
        .iter()
        .filter(|o| o.started_us.is_some())
        .count();
    Quality {
        served_ratio: served as f64 / report.counters.offered.max(1) as f64,
        p5_delivered_satisfaction: if delivered.is_empty() {
            0.0
        } else {
            delivered[(delivered.len() - 1) * 5 / 100]
        },
        mean_delivered_satisfaction: if delivered.is_empty() {
            0.0
        } else {
            delivered.iter().sum::<f64>() / delivered.len() as f64
        },
        playing_ratio: if active == 0 {
            0.0
        } else {
            1.0 - report.rebuffer_us() as f64 / active as f64
        },
        availability: report.availability(),
    }
}

/// Build the workload's world (timed: process CPU seconds of set-up)
/// and generate its requests (untimed), then hand both to `run`.
fn with_world<R>(
    kind: Kind,
    seeds: &Seeds,
    run: impl FnOnce(&mut ChaosWorld<'_>, &[SessionRequest], &SessionEngineConfig, f64) -> R,
) -> R {
    let setup = Stopwatch::start();
    match kind {
        Kind::BrokerContention => {
            let formats = FormatRegistry::with_builtins();
            let (mut world, sender, receivers) = broker_world(&formats, seeds.fat_tree_topology);
            let setup_s = setup.stop().cpu_s;
            let requests = broker_requests(seeds.arrival, sender, &receivers);
            run(&mut world, &requests, &broker_engine_config(), setup_s)
        }
        Kind::ChaosRecompose => {
            let scenario = chaos_scenario(seeds.mesh_topology);
            let chaos = {
                let topology = scenario.network.topology();
                let backbone = topology
                    .node_by_name("backbone")
                    .expect("generated meshes have a backbone");
                let model = ChaosModel {
                    protect: vec![scenario.sender_host, scenario.receiver_host, backbone],
                    ..ChaosModel::default()
                };
                ChaosPlan::generate(
                    topology,
                    scenario.services.live_count(),
                    &model,
                    seeds.chaos,
                    CHAOS_INTENSITY,
                )
            };
            let descriptors: Vec<TranscoderDescriptor> = scenario
                .services
                .live_services()
                .map(|(_, d)| d.clone())
                .collect();
            let mut world = ChaosWorld::new(
                &scenario.formats,
                scenario.network,
                DiscoveryConfig::default(),
            );
            for descriptor in descriptors {
                world.join(descriptor);
            }
            world.load_plan(&chaos);
            let setup_s = setup.stop().cpu_s;
            let requests = chaos_requests(
                seeds.arrival,
                &scenario.profiles,
                scenario.sender_host,
                scenario.receiver_host,
            );
            run(&mut world, &requests, &chaos_engine_config(), setup_s)
        }
    }
}

/// Set-up alone: build the world and drop it.
pub fn setup(kind: Kind, seeds: &Seeds) -> f64 {
    with_world(kind, seeds, |_, _, _, setup_s| setup_s)
}

/// One pass: build the world, time a sample of composes on it
/// (untraced passes), then serve every session. Untraced passes time a
/// second sample on another fresh world after the sessions, so each
/// request's minimum draws on two moments of every pass.
pub fn pass(kind: Kind, seeds: &Seeds, traced: bool) -> Pass {
    let mut pass = with_world(kind, seeds, |world, requests, config, setup_s| {
        serve(world, requests, config, setup_s, traced)
    });
    if !traced {
        let again = with_world(kind, seeds, |world, requests, _, _| {
            compose_sample(world, requests)
        });
        for (best, us) in pass.compose_us.iter_mut().zip(again) {
            *best = best.min(us);
        }
    }
    pass
}

/// Wall time of each of [`COMPOSE_SAMPLES`] composes of the workload's
/// own requests (cycled) on the freshly built world, through one
/// `GraphStore`, at the full rung — the latency a session open pays
/// for its composition. Untimed in `cpu_s`.
fn compose_sample(world: &ChaosWorld<'_>, requests: &[SessionRequest]) -> Vec<f64> {
    use qosc_core::SessionWorld;
    let store = GraphStore::new();
    let options = SelectOptions::default();
    let composer = world.composer();
    (0..COMPOSE_SAMPLES)
        .map(|i| {
            let request = &requests[i % requests.len()].request;
            let start = Instant::now();
            let composed = composer.compose_with_store(
                &store,
                &request.profiles,
                request.sender_host,
                request.receiver_host,
                &options,
            );
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(composed.ok());
            us
        })
        .collect()
}

fn serve(
    world: &mut ChaosWorld<'_>,
    requests: &[SessionRequest],
    config: &SessionEngineConfig,
    setup_s: f64,
    traced: bool,
) -> Pass {
    if traced {
        return serve_traced(world, requests, config, setup_s);
    }
    let compose_us = compose_sample(world, requests);
    let watch = Stopwatch::start();
    let report = run_sessions(world, requests, config, &NoopSink);
    let interval = watch.stop();
    finish(report, requests.len(), setup_s, interval, compose_us)
}

/// Serve through [`TracedWorld`] and [`ComposeClock`] and read the
/// per-layer figures. Whatever no timed layer covers is the session
/// loop's own time.
fn serve_traced(
    world: &mut ChaosWorld<'_>,
    requests: &[SessionRequest],
    config: &SessionEngineConfig,
    setup_s: f64,
) -> Pass {
    let clock = ComposeClock::default();
    let mut traced = TracedWorld::new(world);
    let watch = Stopwatch::start();
    let report = run_sessions(&mut traced, requests, config, &clock);
    let interval = watch.stop();
    let layers = std::mem::take(&mut traced.layers);

    let spans = clock.spans_ns();
    let compose_busy_s = spans.iter().sum::<u64>() as f64 * 1e-9;
    let mut span_us: Vec<f64> = spans.iter().map(|&ns| ns as f64 * 1e-3).collect();
    span_us.sort_by(|a, b| a.total_cmp(b));
    let world_busy_s: f64 = [
        &layers.broker,
        &layers.delivery,
        &layers.liveness,
        &layers.chaos,
        &layers.other,
    ]
    .iter()
    .map(|layer| layer.busy_s())
    .sum();
    let self_s = (interval.wall_s - world_busy_s - compose_busy_s).max(0.0);
    let cache = world.delivery_cache_stats();
    let sum = |field: fn(&qosc_core::SessionOutcome) -> u32| -> f64 {
        report.outcomes.iter().map(|o| f64::from(field(o))).sum()
    };
    let count = |n: u64| n as f64;
    let metrics = vec![
        Metric::new("broker.calls", count(layers.broker.calls()), "count"),
        Metric::new("broker.busy_s", layers.broker.busy_s(), "s"),
        Metric::new(
            "broker.reallocations",
            count(world.broker().map_or(0, |b| b.reallocations())),
            "count",
        ),
        Metric::new("broker.grant_updates", sum(|o| o.grant_updates), "count"),
        Metric::new("delivery.calls", count(layers.delivery.calls()), "count"),
        Metric::new("delivery.busy_s", layers.delivery.busy_s(), "s"),
        Metric::new("delivery.memo_hits", count(cache.hits), "count"),
        Metric::new("delivery.memo_refreshes", count(cache.refreshes), "count"),
        Metric::new("delivery.memo_misses", count(cache.misses), "count"),
        Metric::new("liveness.calls", count(layers.liveness.calls()), "count"),
        Metric::new("liveness.busy_s", layers.liveness.busy_s(), "s"),
        Metric::new("chaos.events", count(layers.chaos.calls()), "count"),
        Metric::new("chaos.busy_s", layers.chaos.busy_s(), "s"),
        Metric::new("world_other.calls", count(layers.other.calls()), "count"),
        Metric::new("world_other.busy_s", layers.other.busy_s(), "s"),
        Metric::new("compose.calls", spans.len() as f64, "count"),
        Metric::new("compose.busy_s", compose_busy_s, "s"),
        Metric::new(
            "compose.call_p50_us",
            if span_us.is_empty() {
                0.0
            } else {
                percentile(&span_us, 0.50)
            },
            "us",
        ),
        Metric::new("compose.attempts", sum(|o| o.attempts), "count"),
        Metric::new(
            "compose.recompositions",
            count(report.recompositions()),
            "count",
        ),
        Metric::new(
            "admission.shed",
            report.admission.shed_total() as f64,
            "count",
        ),
        Metric::new(
            "admission.peak_queue_depth",
            report.admission.peak_queue_depth as f64,
            "count",
        ),
        Metric::new(
            "admission.deadline_misses",
            report.admission.deadline_misses as f64,
            "count",
        ),
        Metric::new("session.self_s", self_s, "s"),
        Metric::new("session.self_share", self_s / interval.wall_s, "ratio"),
    ];
    Pass {
        layers: Some(Layers {
            metrics,
            wall_s: interval.wall_s,
            unattributed_s: self_s,
        }),
        ..finish(report, requests.len(), setup_s, interval, Vec::new())
    }
}

fn finish(
    report: SessionsReport,
    offered: usize,
    setup_s: f64,
    interval: crate::host::Interval,
    compose_us: Vec<f64>,
) -> Pass {
    let mut gates = Vec::new();
    if !report.counters.partitions_exactly() {
        gates.push(format!(
            "session counters do not partition: {:?}",
            report.counters
        ));
    }
    if report.counters.offered != offered {
        gates.push(format!(
            "offered {} sessions, report counts {}",
            offered, report.counters.offered
        ));
    }
    Pass {
        setup_s,
        interval,
        segments_cpu_s: vec![interval.cpu_s],
        digest: report_digest(&report),
        compose_us,
        quality: quality(&report),
        operations: offered as u64,
        gates,
        layers: None,
    }
}
