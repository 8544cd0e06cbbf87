//! The replay engine: drive a churn trace through the control plane.
//!
//! Two replay targets share a trace:
//!
//! * [`replay_delta`] — the offline solver's persistent delta path
//!   ([`miro_bgp::solver::multi::MultiFailState`]), in serial mode (one
//!   `apply` per event, the cost a what-if sweep pays per variant) or
//!   batched mode (one `apply` per co-temporal batch, one cone
//!   recomputation per affected subtree). Both modes end with the exact
//!   same routing tables — the equivalence contract proptested in
//!   `miro_bgp::solver::multi` — so their [`DeltaReplayReport::table_fnv`]
//!   must match and the events/sec ratio is pure batching win. MIRO's
//!   tunnel layer rides along: one [`MiroNetwork`] negotiates standing
//!   avoid-AS requests over the engines' pre-churn tables, and after every
//!   batch that toggled a link [`MiroNetwork::routes_changed`] applies
//!   section 4.3's two teardown rules to the engine's live table; each
//!   requester it struck re-asks at once. Those are the teardown and
//!   re-negotiation counts the evaluation reports.
//! * [`replay_sim`] — the message-level simulator ([`miro_bgp::sim`]),
//!   which also honors origin announce/withdraw events for its
//!   destination. Its per-batch activation counts are the *convergence
//!   lag* distribution: how many speaker activations the network needs to
//!   quiesce after each batch lands.
//!
//! Origin events are skipped (and counted) on the delta path — the
//! solver's table is per-destination and a withdrawn origin is simply an
//! unreachable one; the simulator models them faithfully.

use crate::trace::{EventKind, Trace, TraceError};
use miro_bgp::sim::{GaoRexford, Outcome, Sim};
use miro_bgp::solver::multi::{ApplyStats, LinkEvent, MultiFailState};
use miro_bgp::solver::{DeltaScratch, RoutingState, SolveScratch};
use miro_core::negotiate::Constraint;
use miro_core::node::MiroNetwork;
use miro_core::strategy::{avoidable_ases, TargetStrategy};
use miro_topology::{AsId, NodeId, Topology};
use std::time::Instant;

/// How the delta replay groups events into `apply` calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchMode {
    /// One event per `apply` — the one-at-a-time baseline.
    Serial,
    /// One `apply` per co-temporal batch — coalesced cone recomputation.
    Batched,
}

impl BatchMode {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            BatchMode::Serial => "serial",
            BatchMode::Batched => "batched",
        }
    }
}

/// Replay failures.
#[derive(Debug)]
pub enum ReplayError {
    /// The trace itself was unusable.
    Trace(TraceError),
    /// The embedded topology has no nodes to route between.
    EmptyTopology,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "{e}"),
            ReplayError::EmptyTopology => write!(f, "trace topology has no nodes"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> Self {
        ReplayError::Trace(e)
    }
}

/// Nearest-rank percentile of an (unsorted) sample; 0 for an empty one.
pub fn percentile(samples: &[u64], p: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = (v.len() as u64 * p as u64).div_ceil(100).clamp(1, v.len() as u64);
    v[rank as usize - 1]
}

/// What [`replay_delta`] measured.
#[derive(Clone, Debug)]
pub struct DeltaReplayReport {
    /// Serial or batched.
    pub mode: BatchMode,
    /// Tracked destination ASNs (highest-degree nodes of the topology).
    pub dests: Vec<u32>,
    /// Total events in the trace.
    pub events: usize,
    /// Link events applied to each engine.
    pub link_events: usize,
    /// Origin announce/withdraw events (counted, not applied here).
    pub origin_events: usize,
    /// Events naming ASes absent from the topology.
    pub unknown_events: usize,
    /// Co-temporal batches replayed.
    pub batches: usize,
    /// Wall-clock nanoseconds spent inside the apply loop.
    pub elapsed_ns: u64,
    /// `events * dests / elapsed` — per-engine event application rate.
    pub events_per_sec: f64,
    /// Combined FNV-1a over all engines' final tables. Serial and batched
    /// replays of the same trace must agree on this.
    pub table_fnv: u64,
    /// Net link failures applied (summed over engines).
    pub downs: usize,
    /// Net link restorations applied.
    pub ups: usize,
    /// Events that netted out (flap pairs, redundant toggles).
    pub cancelled: usize,
    /// Degenerate events the engine ignored.
    pub ignored: usize,
    /// Table entries rewritten across the whole replay.
    pub recomputed: usize,
    /// Applies whose restoration worklist spent its budget and fell back
    /// to a full masked re-solve.
    pub full_resolves: usize,
    /// Per-batch recomputed-entry counts: p50.
    pub recompute_p50: u64,
    /// Per-batch recomputed-entry counts: p95.
    pub recompute_p95: u64,
    /// Per-batch recomputed-entry counts: max.
    pub recompute_max: u64,
    /// Retire-and-re-drain rounds of the batch's deepest `apply` — how
    /// far a restoration rippled: p50.
    pub restore_rounds_p50: u64,
    /// Deepest-apply restoration rounds per batch: p95.
    pub restore_rounds_p95: u64,
    /// Deepest-apply restoration rounds per batch: max.
    pub restore_rounds_max: u64,
    /// Leases torn down because churn moved a route they stood on.
    pub tunnel_teardowns: usize,
    /// Torn-down requesters whose immediate re-ask found a seller.
    pub tunnel_renegotiations: usize,
}

/// Standing avoid-AS requests seeded per tracked destination. Enough
/// leases to make teardown rates statistically meaningful, few enough to
/// stay out of the timed loop's way.
const STANDING_REQUESTS: usize = 8;

/// `requester` asks the ASes on its default path, nearest first and short
/// of `avoid` (section 6.2.1), for a way around `avoid`; the first that
/// sells one ends the walk.
fn ask(net: &mut MiroNetwork<'_>, st: &RoutingState<'_>, requester: NodeId, avoid: NodeId) -> bool {
    TargetStrategy::OnPath.targets(st, requester, Some(avoid)).into_iter().any(|responder| {
        let wish = vec![Constraint::AvoidAs(avoid)];
        net.negotiate(st, requester, responder, wish, u32::MAX).is_ok()
    })
}

/// Seed `st.dest()`'s standing requests: in node order, each AS with
/// something section 5.3 would let it avoid asks once, until
/// [`STANDING_REQUESTS`] have found a seller.
fn seed(net: &mut MiroNetwork<'_>, st: &RoutingState<'_>) {
    let mut sold = 0;
    for x in st.topology().nodes() {
        if sold == STANDING_REQUESTS {
            break;
        }
        let eligible = avoidable_ases(st, x);
        if !eligible.is_empty() {
            sold += ask(net, st, x, eligible[x as usize % eligible.len()]) as usize;
        }
    }
}

/// Pick the `count` highest-degree nodes (ties broken by lowest ASN) as
/// tracked destinations — the "popular prefixes" of the workload.
fn pick_dests(topo: &Topology, count: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = topo.nodes().collect();
    nodes.sort_by_key(|&x| (std::cmp::Reverse(topo.degree(x)), topo.asn(x).0));
    nodes.truncate(count.max(1));
    nodes
}

/// Replay `trace` through the solver's delta path for the `dests`
/// highest-degree destinations. See the module docs for semantics.
pub fn replay_delta(
    trace: &Trace,
    mode: BatchMode,
    dests: usize,
) -> Result<DeltaReplayReport, ReplayError> {
    let topo = trace.topology()?;
    if topo.num_nodes() == 0 {
        return Err(ReplayError::EmptyTopology);
    }
    let dest_nodes = pick_dests(&topo, dests);

    // Translate the whole trace up front so the timed loop measures the
    // engine, not ASN lookups. Per batch: the link events plus the counts
    // of origin/unknown events it carried.
    let mut link_events = 0usize;
    let mut origin_events = 0usize;
    let mut unknown_events = 0usize;
    let mut batches: Vec<Vec<LinkEvent>> = Vec::new();
    for batch in trace.batches() {
        let mut evs = Vec::with_capacity(batch.len());
        for e in batch {
            match e.kind {
                EventKind::LinkDown(a, b) | EventKind::LinkUp(a, b) => {
                    match (topo.node(AsId(a)), topo.node(AsId(b))) {
                        (Some(x), Some(y)) => {
                            link_events += 1;
                            evs.push(match e.kind {
                                EventKind::LinkDown(..) => LinkEvent::Down(x, y),
                                _ => LinkEvent::Up(x, y),
                            });
                        }
                        _ => unknown_events += 1,
                    }
                }
                EventKind::Withdraw(_) | EventKind::Announce(_) => origin_events += 1,
            }
        }
        batches.push(evs);
    }

    let mut solve = SolveScratch::new();
    let mut engines: Vec<MultiFailState<'_>> =
        dest_nodes.iter().map(|&d| MultiFailState::solve(&topo, d, &mut solve)).collect();
    let mut net = MiroNetwork::new(&topo);
    engines.iter().for_each(|engine| seed(&mut net, engine));
    let (mut teardowns, mut renegotiations) = (0usize, 0usize);
    let mut scratch = DeltaScratch::new();

    let mut total = ApplyStats::default();
    let mut full_resolves = 0usize;
    let mut per_batch_recompute: Vec<u64> = Vec::with_capacity(batches.len());
    let mut per_batch_rounds: Vec<u64> = Vec::with_capacity(batches.len());

    let start = Instant::now();
    for evs in &batches {
        let mut batch_recompute = 0usize;
        let mut batch_rounds = 0usize;
        for engine in engines.iter_mut() {
            let (mut engine_recompute, mut toggled) = (0usize, 0usize);
            let mut tally = |s: ApplyStats| {
                toggled += s.downs + s.ups;
                total.downs += s.downs;
                total.ups += s.ups;
                total.cancelled += s.cancelled;
                total.ignored += s.ignored;
                full_resolves += s.full_resolve as usize;
                engine_recompute += s.recomputed;
                batch_rounds = batch_rounds.max(s.restore_rounds);
            };
            match mode {
                BatchMode::Batched => tally(engine.apply(evs, &mut scratch)),
                BatchMode::Serial => {
                    for ev in evs {
                        tally(engine.apply(std::slice::from_ref(ev), &mut scratch));
                    }
                }
            }
            // Any toggled link, not only a rewritten table entry: a lease
            // rides an alternate, and an alternate dies with an off-tree
            // link that no best path — so no table entry — ever used.
            if toggled > 0 {
                for lease in net.routes_changed(engine) {
                    teardowns += 1;
                    if let Some(&Constraint::AvoidAs(avoid)) = lease.constraints.first() {
                        renegotiations += ask(&mut net, engine, lease.upstream, avoid) as usize;
                    }
                }
            }
            batch_recompute += engine_recompute;
        }
        total.recomputed += batch_recompute;
        per_batch_recompute.push(batch_recompute as u64);
        per_batch_rounds.push(batch_rounds as u64);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let mut table_fnv = 0xcbf2_9ce4_8422_2325u64;
    for engine in &engines {
        table_fnv ^= engine.table_fnv();
        table_fnv = table_fnv.wrapping_mul(0x0000_0100_0000_01b3);
    }

    let applied = (link_events + origin_events + unknown_events) * engines.len();
    Ok(DeltaReplayReport {
        mode,
        dests: dest_nodes.iter().map(|&d| topo.asn(d).0).collect(),
        events: trace.events.len(),
        link_events,
        origin_events,
        unknown_events,
        batches: batches.len(),
        elapsed_ns,
        events_per_sec: applied as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        table_fnv,
        downs: total.downs,
        ups: total.ups,
        cancelled: total.cancelled,
        ignored: total.ignored,
        recomputed: total.recomputed,
        full_resolves,
        recompute_p50: percentile(&per_batch_recompute, 50),
        recompute_p95: percentile(&per_batch_recompute, 95),
        recompute_max: per_batch_recompute.iter().copied().max().unwrap_or(0),
        restore_rounds_p50: percentile(&per_batch_rounds, 50),
        restore_rounds_p95: percentile(&per_batch_rounds, 95),
        restore_rounds_max: per_batch_rounds.iter().copied().max().unwrap_or(0),
        tunnel_teardowns: teardowns,
        tunnel_renegotiations: renegotiations,
    })
}

/// What [`replay_sim`] measured.
#[derive(Clone, Debug)]
pub struct SimReplayReport {
    /// The simulated destination's ASN.
    pub dest: u32,
    /// Total events in the trace.
    pub events: usize,
    /// Events the simulator acted on (link toggles + this destination's
    /// origin churn).
    pub applied_events: usize,
    /// Events skipped (other origins, unknown ASes, non-links).
    pub skipped_events: usize,
    /// Co-temporal batches replayed.
    pub batches: usize,
    /// Batches that reconverged within the step budget.
    pub converged_batches: usize,
    /// Batches still flapping when the budget ran out.
    pub diverged_batches: usize,
    /// Activations to quiesce after a batch: p50.
    pub lag_p50: u64,
    /// Activations to quiesce after a batch: p95.
    pub lag_p95: u64,
    /// Activations to quiesce after a batch: max.
    pub lag_max: u64,
    /// Wall-clock nanoseconds in the replay loop.
    pub elapsed_ns: u64,
    /// Trace events per second of replay.
    pub events_per_sec: f64,
    /// Nodes with a route when the dust settled.
    pub reachable: usize,
}

/// Replay `trace` through the message-level simulator for the topology's
/// highest-degree destination. `seed` drives the activation scheduler;
/// `step_budget` bounds activations per batch.
pub fn replay_sim(
    trace: &Trace,
    seed: u64,
    step_budget: usize,
) -> Result<SimReplayReport, ReplayError> {
    let topo = trace.topology()?;
    if topo.num_nodes() == 0 {
        return Err(ReplayError::EmptyTopology);
    }
    let dest = pick_dests(&topo, 1)[0];
    let dest_asn = topo.asn(dest).0;

    let mut sim = Sim::new(&topo, GaoRexford, dest);
    // Cold-start convergence is setup, not churn.
    sim.run(seed, step_budget.max(topo.num_nodes() * 64));

    let mut applied = 0usize;
    let mut skipped = 0usize;
    let mut lags: Vec<u64> = Vec::new();
    let mut converged = 0usize;
    let mut diverged = 0usize;
    let mut batches = 0usize;

    let start = Instant::now();
    for (bi, batch) in trace.batches().enumerate() {
        batches += 1;
        for e in batch {
            match e.kind {
                EventKind::LinkDown(a, b) | EventKind::LinkUp(a, b) => {
                    match (topo.node(AsId(a)), topo.node(AsId(b))) {
                        (Some(x), Some(y)) if topo.rel(x, y).is_some() => {
                            applied += 1;
                            if matches!(e.kind, EventKind::LinkDown(..)) {
                                sim.fail_link(x, y);
                            } else {
                                sim.restore_link(x, y);
                            }
                        }
                        _ => skipped += 1,
                    }
                }
                EventKind::Withdraw(a) if a == dest_asn => {
                    applied += 1;
                    sim.withdraw_origin();
                }
                EventKind::Announce(a) if a == dest_asn => {
                    applied += 1;
                    sim.announce_origin();
                }
                _ => skipped += 1,
            }
        }
        match sim.run(seed.wrapping_add(bi as u64), step_budget) {
            Outcome::Converged { steps } => {
                converged += 1;
                lags.push(steps as u64);
            }
            Outcome::Diverged { steps } => {
                diverged += 1;
                lags.push(steps as u64);
            }
        }
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let reachable = topo.nodes().filter(|&x| sim.selected(x).is_some()).count();
    Ok(SimReplayReport {
        dest: dest_asn,
        events: trace.events.len(),
        applied_events: applied,
        skipped_events: skipped,
        batches,
        converged_batches: converged,
        diverged_batches: diverged,
        lag_p50: percentile(&lags, 50),
        lag_p95: percentile(&lags, 95),
        lag_max: lags.iter().copied().max().unwrap_or(0),
        elapsed_ns,
        events_per_sec: trace.events.len() as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        reachable,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use miro_topology::gen as topo_gen;

    fn small_trace(events: usize, seed: u64) -> Trace {
        let topo = topo_gen::GenParams::tiny(7).generate();
        generate(&topo, &GenConfig { seed, events, ..GenConfig::default() })
    }

    #[test]
    fn serial_and_batched_replays_agree_on_the_table() {
        let trace = small_trace(2_000, 11);
        let serial = replay_delta(&trace, BatchMode::Serial, 2).unwrap();
        let batched = replay_delta(&trace, BatchMode::Batched, 2).unwrap();
        assert_eq!(serial.table_fnv, batched.table_fnv, "equivalence contract broken");
        assert_eq!(serial.dests, batched.dests);
        assert_eq!(serial.link_events, batched.link_events);
        // Batching can only save work, never add it.
        assert!(batched.recomputed <= serial.recomputed);
    }

    #[test]
    fn batched_replay_coalesces_flaps() {
        let trace = small_trace(3_000, 5);
        let batched = replay_delta(&trace, BatchMode::Batched, 1).unwrap();
        assert!(batched.batches < trace.events.len(), "bursts must share batches");
        assert!(batched.downs + batched.ups + batched.cancelled > 0);
        assert!(batched.events_per_sec > 0.0);
    }

    #[test]
    fn tunnel_churn_is_observed() {
        let trace = small_trace(4_000, 23);
        let r = replay_delta(&trace, BatchMode::Batched, 2).unwrap();
        assert!(r.tunnel_teardowns > 0, "sustained churn must cut some tunnel");
        assert!(r.tunnel_renegotiations <= r.tunnel_teardowns);
        // Leases are swept once per batch against a table both modes agree
        // on, so serial and batched report equal tunnel counts.
        let serial = replay_delta(&trace, BatchMode::Serial, 2).unwrap();
        assert_eq!(
            (serial.tunnel_teardowns, serial.tunnel_renegotiations),
            (r.tunnel_teardowns, r.tunnel_renegotiations)
        );
    }

    #[test]
    fn sim_replay_reconverges_and_counts_lag() {
        let trace = small_trace(300, 3);
        let r = replay_sim(&trace, 99, 200_000).unwrap();
        assert_eq!(r.batches, trace.batches().count());
        assert_eq!(r.converged_batches + r.diverged_batches, r.batches);
        assert_eq!(r.diverged_batches, 0, "tiny topologies must reconverge");
        assert!(r.lag_max >= r.lag_p95 && r.lag_p95 >= r.lag_p50);
        assert!(r.applied_events + r.skipped_events == trace.events.len());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 95), 7);
        // Two samples: the median is the lower one (rank ceil(2 * 0.5) = 1),
        // where a floor-index percentile would return the larger.
        assert_eq!((percentile(&[9, 3], 50), percentile(&[9, 3], 99)), (3, 9));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 100), 100);
    }
}
