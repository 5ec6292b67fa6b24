//! Property-based invariants of the bandwidth broker's deterministic
//! water-filling (proptest), plus the end-to-end worker-count
//! determinism of a brokered session world.
//!
//! The algebraic properties run on randomized chain networks — flows
//! pinned to contiguous link spans with random capacities, weights and
//! demand windows:
//!
//! * **feasibility** — with zero floors, per-link grant sums never
//!   exceed capacity,
//! * **weighted max-min fairness** — every flow not pinned at its cap
//!   crosses a saturated bottleneck on which no other flow holds a
//!   larger weight-normalized grant (the classic max-min witness, with
//!   +1 slack per weight unit for integer rounding),
//! * **registration-order determinism** — the weighted max-min grants
//!   depend only on the flow *set*, never the order sessions arrived,
//! * **departure monotonicity** — deregistering a session never shrinks
//!   any survivor's grant (the preemption-free floors),
//! * **oracle equality under churn** — after every operation of a random
//!   churn sequence, under both sharing policies, the dense library
//!   broker publishes exactly the grants, epoch and reallocation count of
//!   the original `BTreeMap` kernel, kept here as `reference`.

use proptest::prelude::*;
use qosc_broker::{BandwidthBroker, FlowSpec, SharingPolicy};
use qosc_netsim::{LinkId, Node, Topology};
use std::collections::BTreeMap;

/// A chain topology with `caps.len()` links — the only way to mint
/// `LinkId`s is through a real topology, which also keeps the tests
/// honest about the id space the broker sees in production.
fn chain_links(caps: &[u64]) -> Vec<LinkId> {
    let mut topo = Topology::new();
    let mut prev = topo.add_node(Node::unconstrained("n0"));
    let mut links = Vec::new();
    for (i, _) in caps.iter().enumerate() {
        let next = topo.add_node(Node::unconstrained(format!("n{}", i + 1)));
        links.push(topo.connect_simple(prev, next, 1e9).unwrap());
        prev = next;
    }
    links
}

/// One generated flow: a contiguous span of chain links plus its demand
/// window. Spans are expressed as fractions of the chain so they stay
/// valid for any generated chain length.
#[derive(Debug, Clone)]
struct GenFlow {
    start_pct: u8,
    len_pct: u8,
    min_bps: u64,
    extra_bps: u64,
    weight: u32,
}

fn arb_flows() -> impl Strategy<Value = (Vec<u64>, Vec<GenFlow>)> {
    let caps = proptest::collection::vec(1_000u64..=1_000_000, 1..=6);
    let flows = proptest::collection::vec(
        (0u8..100, 1u8..100, 0u64..200_000, 1u64..2_000_000, 1u32..=5).prop_map(
            |(start_pct, len_pct, min_bps, extra_bps, weight)| GenFlow {
                start_pct,
                len_pct,
                min_bps,
                extra_bps,
                weight,
            },
        ),
        1..=8,
    );
    (caps, flows)
}

fn specs(links: &[LinkId], flows: &[GenFlow], zero_floors: bool) -> Vec<FlowSpec> {
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let start = (f.start_pct as usize * links.len()) / 100;
            let len = 1 + (f.len_pct as usize * (links.len() - start)) / 100;
            let min_bps = if zero_floors { 0 } else { f.min_bps };
            FlowSpec {
                session: i as u64,
                min_bps,
                max_bps: min_bps + f.extra_bps,
                weight: f.weight,
                hops: links[start..(start + len).min(links.len())]
                    .iter()
                    .map(|&l| (l, true))
                    .collect(),
            }
        })
        .collect()
}

fn broker_with(caps: &[u64], links: &[LinkId], specs: &[FlowSpec]) -> BandwidthBroker {
    let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
    for (&link, &cap) in links.iter().zip(caps) {
        broker.set_capacity(link, true, cap);
    }
    for spec in specs {
        broker.register(spec.clone());
    }
    broker
}

/// Per-link grant sums, keyed by link position in the chain.
fn link_usage(caps: &[u64], links: &[LinkId], broker: &BandwidthBroker) -> Vec<u64> {
    let mut used = vec![0u64; caps.len()];
    for (session, grant) in broker.grants() {
        let spec = broker.flow(session).unwrap();
        for (i, &link) in links.iter().enumerate() {
            if spec.hops.contains(&(link, true)) {
                used[i] += grant;
            }
        }
    }
    used
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// (a) With zero floors, no directed link is ever oversubscribed.
    #[test]
    fn grants_are_per_link_feasible((caps, flows) in arb_flows()) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, true);
        let broker = broker_with(&caps, &links, &specs);
        for (i, used) in link_usage(&caps, &links, &broker).iter().enumerate() {
            prop_assert!(
                *used <= caps[i],
                "link {i}: granted {used} over capacity {}", caps[i]
            );
        }
    }

    /// (b) Weighted max-min witness: every flow not pinned at its cap
    /// crosses a saturated link on which every flow's weight-normalized
    /// grant is at most its own (+1 per weight unit of integer slack).
    #[test]
    fn uncapped_flows_sit_on_a_fair_bottleneck((caps, flows) in arb_flows()) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, true);
        let broker = broker_with(&caps, &links, &specs);
        let used = link_usage(&caps, &links, &broker);
        for spec in &specs {
            let grant = broker.grant(spec.session).unwrap();
            if grant >= spec.max_bps {
                continue; // cap-pinned: fairness says nothing about it
            }
            let witness = links.iter().enumerate().any(|(i, &link)| {
                if !spec.hops.contains(&(link, true)) {
                    return false;
                }
                let crossing: Vec<&FlowSpec> = specs
                    .iter()
                    .filter(|s| s.hops.contains(&(link, true)))
                    .collect();
                let weight_sum: u64 = crossing.iter().map(|s| s.weight as u64).sum();
                // Saturated: not even one more unit per weight fits.
                if caps[i] - used[i] >= weight_sum {
                    return false;
                }
                // No one on this link beats our normalized share.
                crossing.iter().all(|other| {
                    let og = broker.grant(other.session).unwrap();
                    og * spec.weight as u64
                        <= (grant + spec.weight as u64) * other.weight as u64
                })
            });
            prop_assert!(
                witness,
                "session {} granted {grant} < cap {} without a bottleneck witness",
                spec.session, spec.max_bps
            );
        }
    }

    /// (c) The weighted max-min allocation depends only on the flow set:
    /// any registration order yields identical grants.
    #[test]
    fn grants_ignore_registration_order(
        ((caps, flows), seed) in (arb_flows(), 0u64..1_000)
    ) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, false);
        let ordered = broker_with(&caps, &links, &specs);
        // A cheap deterministic shuffle: rotate + stride permutation.
        let mut shuffled = specs.clone();
        let n = shuffled.len();
        shuffled.rotate_left((seed as usize) % n);
        if n > 1 && seed % 3 == 0 {
            shuffled.reverse();
        }
        let reordered = broker_with(&caps, &links, &shuffled);
        prop_assert_eq!(
            ordered.grants().collect::<Vec<_>>(),
            reordered.grants().collect::<Vec<_>>()
        );
    }

    /// (d) Departures are preemption-free: a session leaving never
    /// shrinks any survivor's grant.
    #[test]
    fn departure_never_shrinks_survivors(
        ((caps, flows), victim) in (arb_flows(), 0usize..8)
    ) {
        let links = chain_links(&caps);
        let specs = specs(&links, &flows, false);
        let mut broker = broker_with(&caps, &links, &specs);
        let before: BTreeMap<u64, u64> = broker.grants().collect();
        let victim = (victim % specs.len()) as u64;
        prop_assert!(broker.deregister(victim));
        for (session, grant) in broker.grants() {
            prop_assert!(
                grant >= before[&session],
                "session {session} shrank from {} to {grant} on a departure",
                before[&session]
            );
        }
    }
}

/// The broker's original `BTreeMap` kernel, kept verbatim as the test
/// oracle for the dense library implementation: capacities, flows and
/// grants in maps keyed by link and session, and the same epoch rule
/// (bump whenever the recomputed grants map differs from the published
/// one).
mod reference {
    use qosc_broker::{DirectedLink, FlowSpec, SharingPolicy};
    use qosc_netsim::LinkId;
    use std::collections::{BTreeMap, BTreeSet};

    fn weight_u64(flow: &FlowSpec) -> u64 {
        u64::from(flow.weight.max(1))
    }

    #[derive(Debug, Clone)]
    pub struct ReferenceBroker {
        policy: SharingPolicy,
        capacity: BTreeMap<DirectedLink, u64>,
        flows: BTreeMap<u64, (u64, FlowSpec)>,
        next_seq: u64,
        grants: BTreeMap<u64, u64>,
        epoch: u64,
        reallocations: u64,
    }

    impl ReferenceBroker {
        pub fn new(policy: SharingPolicy) -> ReferenceBroker {
            ReferenceBroker {
                policy,
                capacity: BTreeMap::new(),
                flows: BTreeMap::new(),
                next_seq: 0,
                grants: BTreeMap::new(),
                epoch: 0,
                reallocations: 0,
            }
        }

        pub fn set_capacity(&mut self, link: LinkId, forward: bool, capacity_bps: u64) {
            self.capacity.insert((link, forward), capacity_bps);
        }

        pub fn register(&mut self, flow: FlowSpec) {
            let seq = match self.flows.get(&flow.session) {
                Some((seq, _)) => *seq,
                None => {
                    let s = self.next_seq;
                    self.next_seq += 1;
                    s
                }
            };
            self.flows.insert(flow.session, (seq, flow));
            self.recompute(Floors::None);
        }

        pub fn deregister(&mut self, session: u64) -> bool {
            if self.flows.remove(&session).is_none() {
                return false;
            }
            self.recompute(Floors::PreviousGrants);
            true
        }

        pub fn rebalance(&mut self) {
            self.recompute(Floors::None);
        }

        pub fn flow(&self, session: u64) -> Option<&FlowSpec> {
            self.flows.get(&session).map(|(_, f)| f)
        }

        pub fn epoch(&self) -> u64 {
            self.epoch
        }

        pub fn reallocations(&self) -> u64 {
            self.reallocations
        }

        pub fn grants(&self) -> &BTreeMap<u64, u64> {
            &self.grants
        }

        fn recompute(&mut self, floors: Floors) {
            let next = match self.policy {
                SharingPolicy::Fcfs => self.compute_fcfs(),
                SharingPolicy::WeightedMaxMin => {
                    let flows: Vec<&FlowSpec> = self.flows.values().map(|(_, f)| f).collect();
                    let floor_of = |f: &FlowSpec| match floors {
                        Floors::None => f.min_bps.min(f.max_bps),
                        Floors::PreviousGrants => self
                            .grants
                            .get(&f.session)
                            .copied()
                            .unwrap_or(0)
                            .max(f.min_bps)
                            .min(f.max_bps),
                    };
                    waterfill(&flows, &self.capacity, floor_of)
                }
            };
            if next != self.grants {
                self.grants = next;
                self.epoch += 1;
                self.reallocations += 1;
            }
        }

        fn compute_fcfs(&self) -> BTreeMap<u64, u64> {
            let mut order: Vec<(&u64, &(u64, FlowSpec))> = self.flows.iter().collect();
            order.sort_by_key(|(_, (seq, _))| *seq);
            let mut residual = self.capacity.clone();
            let mut grants = BTreeMap::new();
            for (session, (_, flow)) in order {
                // Multiplicity-aware bottleneck: crossing a link c times caps
                // the rate at residual / c there.
                let mut crossings: BTreeMap<DirectedLink, u64> = BTreeMap::new();
                for hop in &flow.hops {
                    *crossings.entry(*hop).or_insert(0) += 1;
                }
                let mut avail = flow.max_bps;
                for (hop, count) in &crossings {
                    if let Some(r) = residual.get(hop) {
                        avail = avail.min(r / count);
                    }
                }
                grants.insert(*session, avail);
                for hop in &flow.hops {
                    if let Some(r) = residual.get_mut(hop) {
                        *r = r.saturating_sub(avail);
                    }
                }
            }
            grants
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Floors {
        None,
        PreviousGrants,
    }

    fn waterfill(
        flows: &[&FlowSpec],
        capacity: &BTreeMap<DirectedLink, u64>,
        floor_of: impl Fn(&FlowSpec) -> u64,
    ) -> BTreeMap<u64, u64> {
        let mut grants: BTreeMap<u64, u64> = BTreeMap::new();
        let mut residual = capacity.clone();
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| flows[i].session);

        // Tier 1: floors.
        for &i in &order {
            let flow = flows[i];
            let floor = floor_of(flow).min(flow.max_bps);
            grants.insert(flow.session, floor);
            for hop in &flow.hops {
                if let Some(r) = residual.get_mut(hop) {
                    *r = r.saturating_sub(floor);
                }
            }
        }

        // Tier 2: water-fill the headroom above the floors.
        let mut active: Vec<usize> = Vec::new();
        let mut weight_sum: BTreeMap<DirectedLink, u64> = BTreeMap::new();
        for &i in &order {
            let flow = flows[i];
            if grants[&flow.session] >= flow.max_bps {
                continue;
            }
            let constrained = flow.hops.iter().any(|h| residual.contains_key(h));
            if !constrained {
                grants.insert(flow.session, flow.max_bps);
                continue;
            }
            for hop in &flow.hops {
                if residual.contains_key(hop) {
                    *weight_sum.entry(*hop).or_insert(0) += weight_u64(flow);
                }
            }
            active.push(i);
        }

        while !active.is_empty() {
            let mut level = u64::MAX;
            let mut bottleneck: Option<DirectedLink> = None;
            for (link, w) in &weight_sum {
                if *w == 0 {
                    continue;
                }
                let l = residual.get(link).copied().unwrap_or(0) / w;
                if l < level {
                    level = l;
                    bottleneck = Some(*link);
                }
            }
            let Some(bottleneck) = bottleneck else { break };

            let mut frozen: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&i| {
                    let f = flows[i];
                    f.max_bps - grants[&f.session] <= level.saturating_mul(weight_u64(f))
                })
                .collect();
            if frozen.is_empty() {
                frozen = active
                    .iter()
                    .copied()
                    .filter(|&i| flows[i].hops.contains(&bottleneck))
                    .collect();
            }
            debug_assert!(!frozen.is_empty());

            let frozen_set: BTreeSet<usize> = frozen.iter().copied().collect();
            for &i in &frozen {
                let flow = flows[i];
                let headroom = flow.max_bps - grants[&flow.session];
                let extra = headroom.min(level.saturating_mul(weight_u64(flow)));
                *grants.get_mut(&flow.session).expect("granted in tier 1") += extra;
                for hop in &flow.hops {
                    if let Some(r) = residual.get_mut(hop) {
                        *r = r.saturating_sub(extra);
                    }
                    if let Some(w) = weight_sum.get_mut(hop) {
                        *w = w.saturating_sub(weight_u64(flow));
                    }
                }
            }
            active.retain(|i| !frozen_set.contains(i));
        }

        grants
    }
}

/// Directed links of the churn chain: two per link, both directions.
const CHURN_LINKS: usize = 4;

/// One generated flow for the churn property. `hops` index the
/// `2 * CHURN_LINKS` directed links and may repeat; the demand window and
/// weight are drawn independently, so `min_bps > max_bps` and `weight: 0`
/// both occur.
#[derive(Debug, Clone)]
struct ChurnFlow {
    session: u64,
    min_bps: u64,
    max_bps: u64,
    weight: u32,
    hops: Vec<usize>,
}

/// A broker operation, applied to the library broker and the oracle alike.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Register the flow (a re-pin if the session is already present).
    Register(ChurnFlow),
    /// Re-pin a present session, changing one aspect of its spec:
    /// 0 nothing, 1 hops, 2 demand window, 3 weight (taken from `with`).
    Repin {
        tweak: u8,
        with: ChurnFlow,
    },
    /// Deregister a session, present or absent.
    Deregister(u64),
    /// Stage a capacity (possibly on a link no flow has seen capacitated
    /// yet), then rebalance.
    SetCapacity {
        link: usize,
        capacity_bps: u64,
    },
    Rebalance,
}

/// Quantized rates: coarse steps make equal levels on different links
/// (and caps equal to a level share) common, so tie-breaks are exercised.
fn churn_bps(steps: u64) -> impl Strategy<Value = u64> {
    (0..steps).prop_map(|k| k * 1_000)
}

/// Quantized capacities with a small jitter: two links whose levels
/// `floor(residual / Σw)` tie but whose remainders differ give different
/// grants depending on which one is frozen first.
fn churn_capacity() -> impl Strategy<Value = u64> {
    (0u64..80, 0u64..3).prop_map(|(k, jitter)| k * 1_000 + jitter)
}

fn churn_flow() -> impl Strategy<Value = ChurnFlow> {
    (
        0u64..8,
        churn_bps(30),
        churn_bps(50),
        0u32..=4,
        proptest::collection::vec(0usize..2 * CHURN_LINKS, 0..=6),
    )
        .prop_map(|(session, min_bps, max_bps, weight, hops)| ChurnFlow {
            session,
            min_bps,
            max_bps,
            weight,
            hops,
        })
}

fn churn_op() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        churn_flow().prop_map(ChurnOp::Register),
        churn_flow().prop_map(ChurnOp::Register),
        (0u8..4, churn_flow()).prop_map(|(tweak, with)| ChurnOp::Repin { tweak, with }),
        (0u64..10).prop_map(ChurnOp::Deregister),
        (0usize..2 * CHURN_LINKS, churn_capacity())
            .prop_map(|(link, capacity_bps)| ChurnOp::SetCapacity { link, capacity_bps }),
        Just(ChurnOp::Rebalance),
    ]
}

/// Initial capacities: `None` leaves a directed link unconstrained until
/// a later `SetCapacity` first stages it.
fn churn_case() -> impl Strategy<Value = (Vec<Option<u64>>, Vec<ChurnOp>)> {
    (
        proptest::collection::vec(proptest::option::of(churn_capacity()), 2 * CHURN_LINKS),
        proptest::collection::vec(churn_op(), 1..=40),
    )
}

/// Drive one operation sequence through the library broker and the
/// oracle, asserting identical grants, epoch and reallocation count after
/// every step.
fn run_churn(policy: SharingPolicy, initial: &[Option<u64>], ops: &[ChurnOp]) {
    let chain = chain_links(&[0; CHURN_LINKS]);
    let directed = |k: usize| (chain[k / 2], k.is_multiple_of(2));
    let spec = |f: &ChurnFlow| FlowSpec {
        session: f.session,
        min_bps: f.min_bps,
        max_bps: f.max_bps,
        weight: f.weight,
        hops: f.hops.iter().map(|&k| directed(k)).collect(),
    };
    let mut broker = BandwidthBroker::new(policy);
    let mut oracle = reference::ReferenceBroker::new(policy);
    for (k, capacity) in initial.iter().enumerate() {
        if let Some(capacity) = *capacity {
            let (link, forward) = directed(k);
            broker.set_capacity(link, forward, capacity);
            oracle.set_capacity(link, forward, capacity);
        }
    }
    for (step, op) in ops.iter().enumerate() {
        match op {
            ChurnOp::Register(f) => {
                broker.register(spec(f));
                oracle.register(spec(f));
            }
            ChurnOp::Repin { tweak, with } => {
                let Some(current) = oracle.flow(with.session).cloned() else {
                    continue;
                };
                let fresh = spec(with);
                let repinned = match tweak {
                    0 => current,
                    1 => FlowSpec {
                        hops: fresh.hops,
                        ..current
                    },
                    2 => FlowSpec {
                        min_bps: fresh.min_bps,
                        max_bps: fresh.max_bps,
                        ..current
                    },
                    _ => FlowSpec {
                        weight: fresh.weight,
                        ..current
                    },
                };
                broker.register(repinned.clone());
                oracle.register(repinned);
            }
            ChurnOp::Deregister(session) => {
                assert_eq!(
                    broker.deregister(*session),
                    oracle.deregister(*session),
                    "step {step}: deregister({session}) disagrees"
                );
            }
            ChurnOp::SetCapacity { link, capacity_bps } => {
                let (id, forward) = directed(*link);
                broker.set_capacity(id, forward, *capacity_bps);
                oracle.set_capacity(id, forward, *capacity_bps);
                broker.rebalance();
                oracle.rebalance();
            }
            ChurnOp::Rebalance => {
                broker.rebalance();
                oracle.rebalance();
            }
        }
        let expected: Vec<(u64, u64)> = oracle.grants().iter().map(|(&s, &g)| (s, g)).collect();
        assert_eq!(
            broker.grants().collect::<Vec<_>>(),
            expected,
            "{policy:?} step {step} ({op:?}): grants diverge from the oracle"
        );
        assert_eq!(
            broker.epoch(),
            oracle.epoch(),
            "{policy:?} step {step}: epoch"
        );
        assert_eq!(
            broker.reallocations(),
            oracle.reallocations(),
            "{policy:?} step {step}: reallocations"
        );
        assert_eq!(broker.flow_count(), expected.len());
        for &(session, _) in &expected {
            assert_eq!(broker.flow(session), oracle.flow(session));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// (e) Under random churn — arrivals, re-pins of hops, window and
    /// weight, present and absent departures, capacity changes including
    /// links first capacitated after flows exist — the dense broker
    /// publishes exactly the oracle's grants, epoch and reallocation
    /// count after every operation, under both policies.
    #[test]
    fn churn_matches_the_reference_broker((initial, ops) in churn_case()) {
        run_churn(SharingPolicy::WeightedMaxMin, &initial, &ops);
        run_churn(SharingPolicy::Fcfs, &initial, &ops);
    }
}

mod worker_determinism {
    use qosc_core::{
        run_sessions, AbrConfig, AbrMode, ArrivalMeta, CompositionRequest, PriorityClass,
        ResilientEngineConfig, SessionEngineConfig, SessionRequest,
    };
    use qosc_media::FormatRegistry;
    use qosc_netsim::{Network, Node, Topology};
    use qosc_pipeline::{ChaosWorld, SharingPolicy};
    use qosc_profiles::{
        ContentProfile, ContextProfile, DeviceProfile, NetworkProfile, ProfileSet, UserProfile,
    };
    use qosc_services::{catalog, DiscoveryConfig, TranscoderDescriptor};

    /// A brokered world's session outcomes are bit-identical at every
    /// worker count — grant recomputation and reaction happen in the
    /// serialized phase of each instant, never on worker threads.
    #[test]
    fn brokered_runs_are_worker_invariant() {
        let formats = FormatRegistry::with_builtins();
        let render = |workers: usize| {
            let mut topo = Topology::new();
            let server = topo.add_node(Node::unconstrained("server"));
            let proxy = topo.add_node(Node::unconstrained("proxy"));
            let client = topo.add_node(Node::unconstrained("client"));
            topo.connect_simple(server, proxy, 100e6).unwrap();
            topo.connect_simple(proxy, client, 2e6).unwrap();
            let mut world =
                ChaosWorld::new(&formats, Network::new(topo), DiscoveryConfig::default());
            for spec in catalog::full_catalog() {
                world.join(TranscoderDescriptor::resolve(&spec, &formats, proxy).unwrap());
            }
            world.set_sharing(Some(SharingPolicy::WeightedMaxMin));
            let requests: Vec<SessionRequest> = (0..6)
                .map(|i| SessionRequest {
                    request: CompositionRequest {
                        profiles: ProfileSet {
                            user: UserProfile::demo("user-0"),
                            content: ContentProfile::demo_video("clip"),
                            device: DeviceProfile::demo_pda(),
                            context: ContextProfile::default(),
                            network: NetworkProfile::broadband(),
                        },
                        sender_host: server,
                        receiver_host: client,
                    },
                    arrival: ArrivalMeta {
                        arrival_us: i * 300_000,
                        priority: match i % 3 {
                            0 => PriorityClass::Interactive,
                            1 => PriorityClass::Standard,
                            _ => PriorityClass::Background,
                        },
                        service_cost_us: 1_000,
                        deadline_budget_us: None,
                    },
                    hold_us: 4_000_000,
                    demand_bps: 0,
                })
                .collect();
            let config = SessionEngineConfig {
                resilient: ResilientEngineConfig {
                    workers,
                    ..ResilientEngineConfig::default()
                },
                admission: None,
                tick_us: 250_000,
                abr: Some(AbrConfig::with_mode(AbrMode::Bola)),
                ..SessionEngineConfig::default()
            };
            let report = run_sessions(&mut world, &requests, &config, &qosc_telemetry::NoopSink);
            assert!(
                report.outcomes.iter().any(|o| o.grant_updates > 0),
                "contention on the 2 Mbps edge must reach sessions as grant updates"
            );
            format!("{:?} {:?}", report.outcomes, report.counters)
        };
        let reference = render(1);
        for workers in [2, 4, 8] {
            assert_eq!(render(workers), reference, "workers={workers} diverged");
        }
    }
}
