//! Cross-session bandwidth broker.
//!
//! The paper's `Bandwidth_AvailableBetween` (Equa. 2) reasoning is strictly
//! per-request: each chain grabs link capacity first-come first-served, so a
//! thousand concurrent sessions through one backbone link collapse the
//! satisfaction tail. This crate adds the missing cross-session arbiter: a
//! deterministic, preemption-free broker that knows every live session's
//! demand window `(min_bps, max_bps)`, its priority-class weight, and the
//! directed links its plan is pinned to, and computes a weighted max-min
//! fair allocation by integer water-filling over the link-flow incidence.
//!
//! Design points:
//!
//! - **All arithmetic is integer `u64` bps** with saturating operations and
//!   deterministic tie-breaks (flows by session id, links by
//!   `(LinkId, direction)`), so allocations are bit-identical across runs,
//!   worker counts and flow-registration orders.
//! - **Preemption-free departures.** When a flow leaves, its released
//!   bandwidth is redistributed by water-filling *upward from the surviving
//!   grants*: no survivor's grant ever decreases. Arrivals and capacity
//!   changes trigger a full rebalance (a newcomer must be able to squeeze
//!   incumbents down to their fair share — that is fairness, not
//!   preemption).
//! - **Epoch counter.** `epoch()` bumps only when the set of sessions or a
//!   published grant actually changes, so consumers (the session event
//!   loop) can cheaply detect reallocations and re-evaluate ladder rungs
//!   without re-composing.
//! - **Dense state.** Capacitated links get dense indices in ascending
//!   `(LinkId, direction)` order; flows live in a session-ordered `Vec`
//!   carrying their FCFS sequence number and precomputed link indices, with
//!   grants in a parallel `Vec`. Both policies run over plain slices, so a
//!   recompute touches no map. Measured on X19's 1,000-session fat-tree, a
//!   call re-fills ~600 flows × 8 hops in about one water-fill round, and
//!   the flow–link graph is a single connected component: the per-call
//!   cost is the flow walk itself, which is why the broker recomputes
//!   everything rather than tracking components.
//!
//! The greedy first-come first-served baseline lives behind the same API
//! ([`SharingPolicy::Fcfs`]) so benchmarks compare both under identical
//! event sequences.

use qosc_netsim::LinkId;
use qosc_telemetry::MetricsRegistry;
use std::collections::BTreeMap;

/// A directed traversal of one link: `(link, forward?)` — the same encoding
/// `Route::directed_hops` produces.
pub type DirectedLink = (LinkId, bool);

/// One session's registered demand, pinned to its plan's route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Session identifier (index into the session table); the deterministic
    /// tie-break key.
    pub session: u64,
    /// Guaranteed floor in bps (granted before any water-filling; callers
    /// must keep admission honest so floors stay feasible).
    pub min_bps: u64,
    /// Demand ceiling in bps — the flow is frozen at this cap once reached.
    pub max_bps: u64,
    /// Priority-class weight (e.g. interactive 4, standard 2, background 1).
    /// Zero is treated as one.
    pub weight: u32,
    /// Directed links the flow crosses; duplicates count multiply (a flow
    /// crossing a link twice consumes twice its rate there).
    pub hops: Vec<DirectedLink>,
}

impl FlowSpec {
    fn weight_u64(&self) -> u64 {
        u64::from(self.weight.max(1))
    }
}

/// Allocation discipline used on every recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Greedy first-come first-served: replay registration order, grant each
    /// flow `min(max_bps, bottleneck residual)`. The paper's implicit
    /// baseline.
    Fcfs,
    /// Weighted max-min fairness via integer water-filling with iterative
    /// bottleneck-link freezing.
    WeightedMaxMin,
}

/// One registered flow in the dense table.
#[derive(Debug, Clone)]
struct FlowRecord {
    spec: FlowSpec,
    /// FCFS registration order; a re-pin keeps it.
    seq: u64,
    /// Dense indices of the capacitated links the flow crosses, ascending,
    /// duplicates kept. Hops over links without a capacity are dropped:
    /// they constrain nothing.
    links: Vec<usize>,
}

/// The broker: capacities + registered flows + published grants.
#[derive(Debug, Clone)]
pub struct BandwidthBroker {
    policy: SharingPolicy,
    /// Directed links with a staged capacity, ascending; a link's position
    /// is its dense index. Links never staged are unconstrained.
    links: Vec<DirectedLink>,
    /// Effective capacity (bps), parallel to `links`.
    capacity: Vec<u64>,
    /// Registered flows, ascending by session id.
    flows: Vec<FlowRecord>,
    /// Published grants (bps), parallel to `flows`.
    grants: Vec<u64>,
    next_seq: u64,
    epoch: u64,
    reallocations: u64,
}

impl BandwidthBroker {
    pub fn new(policy: SharingPolicy) -> BandwidthBroker {
        BandwidthBroker {
            policy,
            links: Vec::new(),
            capacity: Vec::new(),
            flows: Vec::new(),
            grants: Vec::new(),
            next_seq: 0,
            epoch: 0,
            reallocations: 0,
        }
    }

    pub fn policy(&self) -> SharingPolicy {
        self.policy
    }

    /// Stage an effective-capacity update for one directed link. Does not
    /// recompute: callers batch capacity changes (e.g. one chaos event can
    /// squeeze many links) and then call [`BandwidthBroker::rebalance`].
    /// A link seen for the first time shifts the dense indices, so every
    /// flow's link list is rebuilt then (and only then).
    pub fn set_capacity(&mut self, link: LinkId, forward: bool, capacity_bps: u64) {
        match self.links.binary_search(&(link, forward)) {
            Ok(i) => self.capacity[i] = capacity_bps,
            Err(i) => {
                self.links.insert(i, (link, forward));
                self.capacity.insert(i, capacity_bps);
                for flow in &mut self.flows {
                    flow.links = dense_links(&self.links, &flow.spec.hops);
                }
            }
        }
    }

    /// Register (or re-pin) a session's flow, then rebalance from scratch.
    /// A re-pin replaces the previous spec but keeps the original FCFS
    /// sequence number, so rung switches don't launder queue position.
    pub fn register(&mut self, flow: FlowSpec) {
        let links = dense_links(&self.links, &flow.hops);
        let arrived = match self.slot(flow.session) {
            Ok(i) => {
                let record = &mut self.flows[i];
                record.spec = flow;
                record.links = links;
                false
            }
            Err(i) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.flows.insert(
                    i,
                    FlowRecord {
                        spec: flow,
                        seq,
                        links,
                    },
                );
                self.grants.insert(i, 0);
                true
            }
        };
        self.recompute(Floors::None, arrived);
    }

    /// Remove a departing session's flow. The released bandwidth is
    /// redistributed preemption-free: survivors are water-filled upward
    /// from their current grants, so no survivor's grant decreases.
    pub fn deregister(&mut self, session: u64) -> bool {
        let Ok(i) = self.slot(session) else {
            return false;
        };
        self.flows.remove(i);
        self.grants.remove(i);
        self.recompute(Floors::PreviousGrants, true);
        true
    }

    /// Full rebalance against the current capacities (arrivals and
    /// capacity changes rebalance from the registered floors only).
    pub fn rebalance(&mut self) {
        self.recompute(Floors::None, false);
    }

    /// Granted rate in bps for a session, if it has a registered flow.
    pub fn grant(&self, session: u64) -> Option<u64> {
        self.slot(session).ok().map(|i| self.grants[i])
    }

    /// The registered spec for a session, if any.
    pub fn flow(&self, session: u64) -> Option<&FlowSpec> {
        self.slot(session).ok().map(|i| &self.flows[i].spec)
    }

    /// Bumps every time the set of sessions or a published grant changes.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of recomputes that changed the set of sessions or at least
    /// one grant.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// All current grants as `(session, bps)`, in session-id order.
    pub fn grants(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.flows
            .iter()
            .zip(&self.grants)
            .map(|(flow, &grant)| (flow.spec.session, grant))
    }

    /// Publish per-class gauges and the reallocation counter.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        registry
            .counter("qosc_broker_reallocations_total")
            .store(self.reallocations);
        registry
            .gauge("qosc_broker_flows")
            .set(self.flows.len() as i64);
        let mut by_weight: BTreeMap<u64, u64> = BTreeMap::new();
        for (flow, &granted) in self.flows.iter().zip(&self.grants) {
            *by_weight.entry(flow.spec.weight_u64()).or_insert(0) += granted;
        }
        for (weight, total) in by_weight {
            registry
                .gauge(&format!("qosc_broker_granted_bps_weight_{weight}"))
                .set(total.min(i64::MAX as u64) as i64);
        }
    }

    fn slot(&self, session: u64) -> Result<usize, usize> {
        self.flows
            .binary_search_by_key(&session, |flow| flow.spec.session)
    }

    /// Recompute every grant; bump the epoch if the session set changed
    /// (`membership_changed`) or any grant value moved.
    fn recompute(&mut self, floors: Floors, membership_changed: bool) {
        let next = match self.policy {
            SharingPolicy::Fcfs => fcfs(&self.flows, &self.capacity),
            SharingPolicy::WeightedMaxMin => {
                let previous = match floors {
                    Floors::None => None,
                    Floors::PreviousGrants => Some(self.grants.as_slice()),
                };
                waterfill(&self.flows, &self.capacity, previous)
            }
        };
        if membership_changed || next != self.grants {
            self.grants = next;
            self.epoch += 1;
            self.reallocations += 1;
        }
    }
}

/// Which floor each flow water-fills upward from.
#[derive(Debug, Clone, Copy)]
enum Floors {
    /// Registered `min_bps` — full rebalance (arrival / capacity change).
    None,
    /// `max(previous grant, min_bps)` — preemption-free departure.
    PreviousGrants,
}

/// Dense indices of the capacitated links among `hops`, ascending with
/// duplicates kept.
fn dense_links(links: &[DirectedLink], hops: &[DirectedLink]) -> Vec<usize> {
    let mut dense: Vec<usize> = hops
        .iter()
        .filter_map(|hop| links.binary_search(hop).ok())
        .collect();
    dense.sort_unstable();
    dense
}

/// Greedy first-come first-served grants, parallel to `flows`: in
/// registration order, each flow takes `min(max_bps, bottleneck
/// residual)`, where crossing a link `c` times caps the rate at
/// `residual / c` there.
fn fcfs(flows: &[FlowRecord], capacity: &[u64]) -> Vec<u64> {
    let mut grants = vec![0; flows.len()];
    let mut residual = capacity.to_vec();
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_unstable_by_key(|&i| flows[i].seq);
    for i in order {
        let flow = &flows[i];
        let avail = flow
            .links
            .chunk_by(|a, b| a == b)
            .fold(flow.spec.max_bps, |avail, run| {
                avail.min(residual[run[0]] / run.len() as u64)
            });
        grants[i] = avail;
        for &l in &flow.links {
            residual[l] = residual[l].saturating_sub(avail);
        }
    }
    grants
}

/// Integer weighted max-min water-filling; grants parallel to `flows`.
///
/// Tier 1 grants every flow its floor — `min(min_bps, max_bps)`, or on a
/// departure `previous` grant clamped into the window — saturating the
/// residuals (admission keeps floors feasible, the kernel stays total
/// regardless). Tier 2 then raises all unfrozen flows in lock-step
/// proportional to weight: each round computes the per-link level
/// `floor(residual / Σ weights crossing)` over the dense links in ascending
/// `(LinkId, direction)` order, takes the global minimum `λ` (the first
/// link achieving it is the bottleneck), freezes cap-limited flows
/// (remaining headroom `≤ λ·w`) at their cap, otherwise freezes every flow
/// crossing the bottleneck at exactly `λ·w`. No sub-weight remainder is
/// distributed, so the result is independent of flow order; the waste per
/// saturated link is below the link's weight sum. On X19's contention
/// workload a call typically ends after a single round.
fn waterfill(flows: &[FlowRecord], capacity: &[u64], previous: Option<&[u64]>) -> Vec<u64> {
    let mut grants = Vec::with_capacity(flows.len());
    let mut residual = capacity.to_vec();

    // Tier 1: floors.
    for (i, flow) in flows.iter().enumerate() {
        let spec = &flow.spec;
        let floor = match previous {
            None => spec.min_bps,
            Some(previous) => previous[i].max(spec.min_bps),
        }
        .min(spec.max_bps);
        grants.push(floor);
        for &l in &flow.links {
            residual[l] = residual[l].saturating_sub(floor);
        }
    }

    // Tier 2: water-fill the headroom above the floors. Per-link weight
    // sums are maintained incrementally (each flow is frozen exactly once),
    // keeping a recompute at O(flows·hops + rounds·(links + flows)).
    let mut weight_sum = vec![0; capacity.len()];
    let mut active = Vec::new();
    for (i, flow) in flows.iter().enumerate() {
        if grants[i] >= flow.spec.max_bps {
            continue;
        }
        if flow.links.is_empty() {
            // No shared link on the path: grant the full demand.
            grants[i] = flow.spec.max_bps;
            continue;
        }
        for &l in &flow.links {
            weight_sum[l] += flow.spec.weight_u64();
        }
        active.push(i);
    }

    while !active.is_empty() {
        let mut level = u64::MAX;
        let mut bottleneck = None;
        for (l, &w) in weight_sum.iter().enumerate() {
            if w == 0 {
                continue;
            }
            let link_level = residual[l] / w;
            if link_level < level {
                level = link_level;
                bottleneck = Some(l);
            }
        }
        let Some(bottleneck) = bottleneck else { break };

        // Cap-limited flows freeze first (at their cap, which is at or
        // below the level share); only if none exist does the bottleneck
        // link freeze its crossers at exactly λ·w. Whether a flow freezes
        // depends only on its own grant, so freezing in place is exact.
        let capped = |i: usize, grants: &[u64]| {
            let spec = &flows[i].spec;
            spec.max_bps - grants[i] <= level.saturating_mul(spec.weight_u64())
        };
        let cap_round = active.iter().any(|&i| capped(i, &grants));
        let before = active.len();
        active.retain(|&i| {
            let freezes = if cap_round {
                capped(i, &grants)
            } else {
                flows[i].links.binary_search(&bottleneck).is_ok()
            };
            if !freezes {
                return true;
            }
            let flow = &flows[i];
            let weight = flow.spec.weight_u64();
            let extra = (flow.spec.max_bps - grants[i]).min(level.saturating_mul(weight));
            grants[i] += extra;
            for &l in &flow.links {
                residual[l] = residual[l].saturating_sub(extra);
                weight_sum[l] = weight_sum[l].saturating_sub(weight);
            }
            false
        });
        debug_assert!(active.len() < before);
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;
    use qosc_netsim::{Node, Topology};

    fn line_topology(links: usize) -> (Topology, Vec<LinkId>) {
        let mut topo = Topology::new();
        let mut prev = topo.add_node(Node::unconstrained("n0"));
        let mut ids = Vec::new();
        for i in 0..links {
            let next = topo.add_node(Node::unconstrained(format!("n{}", i + 1)));
            ids.push(topo.connect_simple(prev, next, 1e9).expect("connect"));
            prev = next;
        }
        (topo, ids)
    }

    fn flow(session: u64, min: u64, max: u64, weight: u32, hops: Vec<DirectedLink>) -> FlowSpec {
        FlowSpec {
            session,
            min_bps: min,
            max_bps: max,
            weight,
            hops,
        }
    }

    #[test]
    fn equal_weights_split_a_single_bottleneck_evenly() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 9_000);
        for s in 0..3 {
            broker.register(flow(s, 0, 100_000, 1, vec![(l, true)]));
        }
        for s in 0..3 {
            assert_eq!(broker.grant(s), Some(3_000));
        }
    }

    #[test]
    fn weights_shape_the_split() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 7_000);
        broker.register(flow(0, 0, 100_000, 4, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 2, vec![(l, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(4_000));
        assert_eq!(broker.grant(1), Some(2_000));
        assert_eq!(broker.grant(2), Some(1_000));
    }

    #[test]
    fn capped_flow_releases_its_share_to_the_rest() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 12_000);
        broker.register(flow(0, 0, 2_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(2_000));
        assert_eq!(broker.grant(1), Some(5_000));
        assert_eq!(broker.grant(2), Some(5_000));
    }

    #[test]
    fn mins_are_granted_before_water_filling() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(0, 8_000, 100_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        // Session 0 keeps its floor; the 2k headroom splits 1k/1k.
        assert_eq!(broker.grant(0), Some(9_000));
        assert_eq!(broker.grant(1), Some(1_000));
    }

    #[test]
    fn multi_link_bottleneck_freezing_redistributes() {
        // L1 cap 10k carries {A, B}; L2 cap 6k carries {B, C}. Max-min:
        // B and C freeze at 3k on L2, then A takes the 7k left on L1.
        let (_topo, ids) = line_topology(2);
        let (l1, l2) = (ids[0], ids[1]);
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l1, true, 10_000);
        broker.set_capacity(l2, true, 6_000);
        broker.register(flow(0, 0, 100_000, 1, vec![(l1, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l1, true), (l2, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l2, true)]));
        assert_eq!(broker.grant(1), Some(3_000));
        assert_eq!(broker.grant(2), Some(3_000));
        assert_eq!(broker.grant(0), Some(7_000));
    }

    #[test]
    fn departure_is_preemption_free() {
        // Same shape as above; when C leaves, a from-scratch max-min would
        // cut A from 7k to 5k (B rises to 5k on L1). The broker instead
        // water-fills upward from the surviving grants: A keeps 7k, B rises
        // only into capacity nobody holds.
        let (_topo, ids) = line_topology(2);
        let (l1, l2) = (ids[0], ids[1]);
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l1, true, 10_000);
        broker.set_capacity(l2, true, 6_000);
        broker.register(flow(0, 0, 100_000, 1, vec![(l1, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l1, true), (l2, true)]));
        broker.register(flow(2, 0, 100_000, 1, vec![(l2, true)]));
        assert!(broker.deregister(2));
        assert_eq!(broker.grant(0), Some(7_000));
        assert_eq!(broker.grant(1), Some(3_000));
        // The next arrival rebalances from scratch.
        broker.register(flow(3, 0, 100_000, 1, vec![(l2, true)]));
        assert_eq!(broker.grant(0), Some(7_000));
        assert_eq!(broker.grant(1), Some(3_000));
        assert_eq!(broker.grant(3), Some(3_000));
    }

    #[test]
    fn fcfs_is_registration_ordered() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::Fcfs);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(7, 0, 8_000, 1, vec![(l, true)]));
        broker.register(flow(1, 0, 8_000, 1, vec![(l, true)]));
        broker.register(flow(3, 0, 8_000, 1, vec![(l, true)]));
        // First registrant wins regardless of session id.
        assert_eq!(broker.grant(7), Some(8_000));
        assert_eq!(broker.grant(1), Some(2_000));
        assert_eq!(broker.grant(3), Some(0));
        // A re-pin keeps queue position: session 7 lowering its demand
        // frees capacity for session 1, not for itself.
        broker.register(flow(7, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(7), Some(4_000));
        assert_eq!(broker.grant(1), Some(6_000));
        assert_eq!(broker.grant(3), Some(0));
    }

    #[test]
    fn epoch_bumps_only_on_actual_grant_changes() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 10_000);
        broker.register(flow(0, 0, 4_000, 1, vec![(l, true)]));
        let e = broker.epoch();
        // Uncontended second flow: its arrival changes the grants map (new
        // entry) but must not disturb session 0.
        broker.register(flow(1, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.grant(0), Some(4_000));
        assert!(broker.epoch() > e);
        let e = broker.epoch();
        // Identical re-pin: no grant changes, no epoch bump.
        broker.register(flow(1, 0, 4_000, 1, vec![(l, true)]));
        assert_eq!(broker.epoch(), e);
        // Squeeze then rebalance: grants drop, epoch bumps.
        broker.set_capacity(l, true, 6_000);
        broker.rebalance();
        assert!(broker.epoch() > e);
        assert_eq!(broker.grant(0), Some(3_000));
        assert_eq!(broker.grant(1), Some(3_000));
    }

    #[test]
    fn duplicate_hops_count_multiply() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 12_000);
        // Session 0 crosses the link twice: rate g consumes 2g there.
        broker.register(flow(0, 0, 100_000, 1, vec![(l, true), (l, true)]));
        broker.register(flow(1, 0, 100_000, 1, vec![(l, true)]));
        // Weight sum on the link is 2+1 = 3 → level 4k; both freeze there:
        // session 0 at 4k (consuming 8k), session 1 at 4k.
        assert_eq!(broker.grant(0), Some(4_000));
        assert_eq!(broker.grant(1), Some(4_000));
    }

    #[test]
    fn metrics_export_publishes_class_gauges() {
        let (_topo, ids) = line_topology(1);
        let l = ids[0];
        let mut broker = BandwidthBroker::new(SharingPolicy::WeightedMaxMin);
        broker.set_capacity(l, true, 6_000);
        broker.register(flow(0, 0, 100_000, 4, vec![(l, true)]));
        broker.register(flow(1, 0, 100_000, 2, vec![(l, true)]));
        let registry = MetricsRegistry::new();
        broker.export_metrics(&registry);
        assert_eq!(registry.gauge_value("qosc_broker_flows"), Some(2));
        assert_eq!(
            registry.gauge_value("qosc_broker_granted_bps_weight_4"),
            Some(4_000)
        );
        assert_eq!(
            registry.gauge_value("qosc_broker_granted_bps_weight_2"),
            Some(2_000)
        );
        assert!(registry.counter_value("qosc_broker_reallocations_total") >= Some(1));
    }
}
