//! Outside-in per-layer timing for the session workloads.
//!
//! [`TracedWorld`] is a forwarding [`SessionWorld`] decorator: every
//! trait method calls the wrapped world's method and, for the methods
//! that do real work, records a call count and wall time per layer.
//! [`ComposeClock`] is a [`TelemetrySink`] that stamps wall time at each
//! `CompositionStarted`/`CompositionFinished` pair the engine emits, so
//! composition is timed where the engine calls the composer.
//!
//! A method the decorator forgot to forward would silently fall back to
//! the trait default and change behaviour; the benchmark therefore
//! requires the traced run's report digest to equal the untraced one.

use qosc_core::{AdaptationPlan, Composer, SessionWorld};
use qosc_services::{QosObservation, ServiceId};
use qosc_telemetry::{Event, EventKind, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Calls into one layer and the wall time they took.
#[derive(Default)]
pub struct Layer {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Layer {
    fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn count(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Per-layer clocks of one traced pass.
#[derive(Default)]
pub struct WorldLayers {
    /// `register_session_flow` / `deregister_session_flow`: the broker.
    pub broker: Layer,
    /// `session_delivery_ppm` / `delivery_ppm`: world delivery.
    pub delivery: Layer,
    /// `plan_alive` / `plan_routable`: liveness checks.
    pub liveness: Layer,
    /// `apply_world_event`: chaos replay.
    pub chaos: Layer,
    /// Every other trait call (grant epochs, composer handles, SLA
    /// hooks) — counted and timed so nothing is unattributed by
    /// omission.
    pub other: Layer,
}

/// Forwarding decorator that times each call into the wrapped world.
pub struct TracedWorld<'w, W> {
    pub inner: &'w mut W,
    pub layers: WorldLayers,
}

impl<'w, W: SessionWorld> TracedWorld<'w, W> {
    pub fn new(inner: &'w mut W) -> TracedWorld<'w, W> {
        TracedWorld {
            inner,
            layers: WorldLayers::default(),
        }
    }
}

impl<W: SessionWorld> SessionWorld for TracedWorld<'_, W> {
    fn composer(&self) -> Composer<'_> {
        // Called once per worker per composition instant; returns a
        // handle of borrowed references, so it is counted, not timed.
        self.layers.other.count();
        self.inner.composer()
    }

    fn plan_alive(&self, plan: &AdaptationPlan) -> bool {
        self.layers.liveness.time(|| self.inner.plan_alive(plan))
    }

    fn plan_routable(&self, plan: &AdaptationPlan) -> bool {
        self.layers.liveness.time(|| self.inner.plan_routable(plan))
    }

    fn delivery_ppm(&self, plan: &AdaptationPlan, demand_bps: u64) -> u64 {
        self.layers
            .delivery
            .time(|| self.inner.delivery_ppm(plan, demand_bps))
    }

    fn observe_service(&self, service: ServiceId) -> Option<QosObservation> {
        self.layers
            .other
            .time(|| self.inner.observe_service(service))
    }

    fn observed_latency_us(&self, plan: &AdaptationPlan) -> u64 {
        self.layers
            .other
            .time(|| self.inner.observed_latency_us(plan))
    }

    fn probate_service(&mut self, service: ServiceId, observed_ppm: u64, now_us: u64) -> bool {
        self.layers
            .other
            .time(|| self.inner.probate_service(service, observed_ppm, now_us))
    }

    fn probe_service(&mut self, service: ServiceId, now_us: u64) -> bool {
        self.layers
            .other
            .time(|| self.inner.probe_service(service, now_us))
    }

    fn report_service_failure(&mut self, service: ServiceId, now_us: u64) {
        self.layers
            .other
            .time(|| self.inner.report_service_failure(service, now_us))
    }

    fn world_event_times(&self) -> &[u64] {
        self.layers.other.count();
        self.inner.world_event_times()
    }

    fn apply_world_event(&mut self, index: usize) {
        self.layers
            .chaos
            .time(|| self.inner.apply_world_event(index))
    }

    fn register_session_flow(
        &mut self,
        session: u64,
        plan: &AdaptationPlan,
        demand_bps: u64,
        weight: u32,
    ) {
        self.layers.broker.time(|| {
            self.inner
                .register_session_flow(session, plan, demand_bps, weight)
        })
    }

    fn deregister_session_flow(&mut self, session: u64) {
        self.layers
            .broker
            .time(|| self.inner.deregister_session_flow(session))
    }

    fn grant_epoch(&self) -> u64 {
        self.layers.other.time(|| self.inner.grant_epoch())
    }

    fn session_delivery_ppm(
        &self,
        session: u64,
        plan_gen: u32,
        plan: &AdaptationPlan,
        demand_bps: u64,
    ) -> u64 {
        self.layers.delivery.time(|| {
            self.inner
                .session_delivery_ppm(session, plan_gen, plan, demand_bps)
        })
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("compose clock poisoned by a panicking composition worker")
}

/// Telemetry sink that times each composition rung the engine runs.
#[derive(Default)]
pub struct ComposeClock {
    started: Mutex<Option<Instant>>,
    spans_ns: Mutex<Vec<u64>>,
}

impl ComposeClock {
    /// Wall time of every `CompositionStarted` → `CompositionFinished`
    /// span, in emission order, nanoseconds.
    pub fn spans_ns(&self) -> Vec<u64> {
        lock(&self.spans_ns).clone()
    }
}

impl TelemetrySink for ComposeClock {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        match event.kind {
            EventKind::CompositionStarted { .. } => {
                *lock(&self.started) = Some(Instant::now());
            }
            EventKind::CompositionFinished { .. } => {
                if let Some(start) = lock(&self.started).take() {
                    let ns = start.elapsed().as_nanos() as u64;
                    lock(&self.spans_ns).push(ns);
                }
            }
            _ => {}
        }
    }
}
