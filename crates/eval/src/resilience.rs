//! `miro resilience` — control-plane robustness under an unreliable
//! channel, including full session-lifecycle recovery.
//!
//! Sweeps the [`miro_core::chan::FaultyChannel`] fault knobs (drop /
//! duplicate / reorder) over a Gao2005-shaped topology and measures what
//! the [`miro_core::reliable`] layer delivers at each point:
//!
//! * **negotiation success rate** — handshakes completed via
//!   retransmit/backoff, over pairs known to succeed on a perfect channel
//!   (so loss measures the reliability layer, not semantic rejects);
//! * **handshake latency** — virtual ticks from first `Request` to the
//!   terminal outcome, mean and p95;
//! * **fallbacks** — every exhausted negotiation must surface a typed
//!   failure and degrade to the BGP default path (asserted, not hoped);
//! * **double establishes** — must be zero at every fault level;
//! * **tunnel survival** — fraction of pairs with a live tunnel after a
//!   further stretch of lossy keepalive traffic (paced re-negotiation may
//!   resurrect tunnels during this window — that is the feature);
//! * **RTO trajectory** — per-peer SRTT/RTO learned from handshake echoes;
//! * **outage recovery** — a scheduled total blackout long enough to
//!   expire every tunnel's soft state; the paced re-negotiation machinery
//!   then has to win service back. Run twice per point — adaptive RTO vs
//!   the legacy static ladder — so the estimator has to pay for itself;
//! * **crash-restart recovery** — the busiest responder loses its entire
//!   session and tunnel table mid-run; keepalive death detection plus
//!   pacing must re-establish with zero orphaned tunnels at quiescence.
//!
//! The sweep is seeded and deterministic; results go to `RESILIENCE.json`
//! (next to `BENCH_solver.json`) so CI can pin a success floor with
//! `--check-floor` and a recovery floor (rate + zero orphans) with
//! `--check-recovery-floor`.

use crate::harness::{self, gate, Cmd, Flag, Kind};
use crate::report;
use miro_bgp::solver::{RoutingState, SolveScratch};
use miro_core::chan::FaultConfig;
use miro_core::node::MiroNetwork;
use miro_core::reliable::{FallbackEvent, ReliabilityConfig, ReliableNet, RtoMode};
use miro_topology::gen::DatasetPreset;
use miro_topology::{NodeId, Topology};
use serde::Serialize;
use std::fmt::Write as _;

/// Drop rates swept, in per-mille. Duplication rides at half the drop
/// rate and reordering at the full drop rate, so one axis describes the
/// whole channel. The 100‰ point (10% drop + 5% dup + 10% reorder) is the
/// acceptance point `--check-floor` and `--check-recovery-floor` pin.
const DROP_SWEEP: &[u32] = &[0, 50, 100, 200, 300];

/// Ticks of continued lossy keepalive traffic after the handshakes
/// settle, for the survival measurement. Several times the keepalive
/// timeout (35), so sustained-loss expiry has room to show.
const SURVIVAL_TICKS: u64 = 200;

/// Per-sweep-point hard cap on settling time; generous next to the worst
/// retransmit schedule (~256 ticks at the default backoff ladder).
const MAX_SETTLE_TICKS: u64 = 2_000;

/// Per-scenario cap on draining the paced re-negotiation machinery: up to
/// 6 attempts per episode, each bounded by the retransmit ladder plus a
/// jittered sleep capped at 256 ticks.
const MAX_RECOVERY_TICKS: u64 = 8_000;

/// How long after a disruption ends its keepalive deaths can still
/// surface: the soft-state timeout (35 ticks) plus heartbeat slack.
/// Bounds the episode window each recovery scenario accounts for.
const DETECTION_SLACK: u64 = 50;

/// Repetitions pooled per recovery scenario per sweep point. Each uses a
/// distinct sub-seed; the adaptive and static runs share the sub-seed
/// sequence so the comparison measures the timer policy, not one channel
/// realization.
const SCENARIO_REPS: u64 = 4;

/// Perfect-channel ticks appended after each recovery scenario before
/// orphans are counted: two soft-state timeouts, enough for every
/// one-sided tunnel to be expired or torn down. Zero orphans after this
/// is a hard invariant, not a tuning outcome.
const HEAL_TICKS: u64 = 80;

/// Recovery metrics of one fault scenario (scheduled outage or
/// crash-restart). An *episode* is an original retryable fallback —
/// chained per-attempt failures are accounted to their origin.
#[derive(Serialize)]
pub struct RecoveryStats {
    /// Retryable fallback episodes opened by the scenario.
    pub episodes: u64,
    /// Episodes a paced re-negotiation closed with a fresh tunnel.
    pub recovered: u64,
    /// `recovered / episodes` (1.0 when nothing needed recovery).
    pub recovery_rate: f64,
    /// Ticks from fallback to recovery, over recovered episodes.
    pub mean_recovery_ticks: f64,
    pub median_recovery_ticks: u64,
    pub p95_recovery_ticks: u64,
    /// Re-negotiation attempts launched across all episodes.
    pub retry_attempts: u64,
    /// One-sided tunnels at quiescence over a healed channel. Must be 0.
    pub orphaned_tunnels: u64,
    /// Ticks from scenario start to quiescence (recovery machinery
    /// drained), before the healing epilogue.
    pub quiesce_ticks: u64,
}

/// Aggregate of the per-peer adaptive-RTO estimators after the handshake
/// phase.
#[derive(Serialize)]
pub struct RtoTrajectory {
    pub peers: u64,
    pub samples: u64,
    pub srtt_mean: f64,
    pub rto_mean: f64,
    pub rto_peak: u64,
}

#[derive(Serialize)]
pub struct SweepPoint {
    pub drop_permille: u32,
    pub dup_permille: u32,
    pub reorder_permille: u32,
    pub attempted: u64,
    pub succeeded: u64,
    pub success_rate: f64,
    /// Typed failures among the original handshakes, each with a recorded
    /// degrade-to-default event.
    pub fallbacks: u64,
    /// Negotiations that allocated more than one tunnel (must be 0).
    pub double_established: u64,
    pub mean_latency_ticks: f64,
    pub p95_latency_ticks: u64,
    /// Requester-side retransmissions across the original handshakes.
    pub retransmits: u64,
    /// Channel duplicates absorbed by the sequence layer.
    pub duplicates_suppressed: u64,
    pub settle_ticks: u64,
    /// Pairs with a live tunnel after `SURVIVAL_TICKS` more lossy ticks
    /// (paced re-negotiation included).
    pub tunnels_surviving: u64,
    pub survival_rate: f64,
    /// Adaptive-RTO estimator state after the handshake phase.
    pub rto: RtoTrajectory,
    /// Scheduled-blackout scenario under adaptive RTO.
    pub outage_recovery: RecoveryStats,
    /// The same scenario under the legacy static ladder, for comparison.
    pub outage_recovery_static: RecoveryStats,
    /// Busiest-responder crash-restart scenario (adaptive RTO).
    pub crash_recovery: RecoveryStats,
}

impl SweepPoint {
    /// One-sided tunnels left by all three recovery scenarios. Must be 0.
    fn orphans(&self) -> u64 {
        let scenarios = [&self.outage_recovery, &self.outage_recovery_static, &self.crash_recovery];
        scenarios.iter().map(|s| s.orphaned_tunnels).sum()
    }
}

#[derive(Serialize)]
pub struct ResilienceReport {
    pub seed: u64,
    pub scale: f64,
    pub nodes: u64,
    pub pairs: u64,
    pub outage_ticks: u64,
    pub points: Vec<SweepPoint>,
}

/// `miro resilience`. The scheduled outage defaults to 60 ticks —
/// comfortably past the keepalive timeout (35), so every tunnel's soft
/// state dies during the window.
pub static CMD: Cmd = Cmd {
    name: "resilience",
    positional: &[],
    flags: &[
        Flag { name: "--seed", kind: Kind::Num, default: "20060911", help: "seed of the topology, the pairs and every channel" },
        Flag { name: "--scale", kind: Kind::F64, default: "0.01", help: "Gao 2005 topology scale, 1.0 = paper size" },
        Flag { name: "--pairs", kind: Kind::Num, default: "40", help: "pre-screened (requester, responder) pairs" },
        Flag { name: "--outage-ticks", kind: Kind::Num, default: "60", help: "length of the scheduled blackout, at least 1" },
        Flag { name: "--out", kind: Kind::Str, default: "RESILIENCE.json", help: "where the JSON report goes" },
        Flag { name: "--check-floor", kind: Kind::F64, default: "", help: "fail under this handshake success % at 10% drop" },
        Flag { name: "--check-recovery-floor", kind: Kind::F64, default: "", help: "fail under this outage / crash recovery % at 10% drop, on any orphaned tunnel, or if adaptive RTO recovers slower than the static ladder" },
    ],
};

/// Entry point for `miro resilience` ([`CMD`]). Returns the
/// human-readable report; JSON lands in `--out`. With `--check-floor`,
/// errors if the handshake success rate at the 10%-drop point falls below
/// `PCT` percent. With `--check-recovery-floor`, errors if the outage- or
/// crash-recovery rate at the same point falls below `PCT` percent, if
/// ANY scenario at ANY point left an orphaned tunnel at quiescence, or if
/// adaptive-RTO recovery regressed past the static ladder's numbers
/// (beyond a 5%+1-tick noise band) at any sweep point.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let (seed, scale): (u64, f64) = (a.get("--seed")?, a.get("--scale")?);
    let pairs: usize = a.get("--pairs")?;
    let outage_ticks: u64 = a.get("--outage-ticks")?;
    if outage_ticks == 0 {
        return Err("--outage-ticks must be at least 1".to_string());
    }
    let out_path: String = a.get("--out")?;
    let (floor, recovery_floor) = (a.opt("--check-floor")?, a.opt("--check-recovery-floor")?);

    let topo = DatasetPreset::Gao2005.params(scale, seed).generate();
    let (dest, candidates) = workable_pairs(&topo, pairs, seed);
    if candidates.is_empty() {
        return Err("no negotiable pairs found; raise --scale".to_string());
    }
    let st = RoutingState::solve(&topo, dest);

    let mut points = Vec::new();
    for &drop in DROP_SWEEP {
        let (dup, reorder) = (drop / 2, drop);
        points.push(sweep_point(&topo, &st, &candidates, drop, dup, reorder, seed, outage_ticks));
    }

    let report = ResilienceReport {
        seed,
        scale,
        nodes: topo.num_nodes() as u64,
        pairs: candidates.len() as u64,
        outage_ticks,
        points,
    };

    let mut out = render(&report);
    out.push_str(&harness::emit(&out_path, &report)?);
    report::persist("resilience", &report);

    const GATE_POINT: &str = "at 10% drop / 5% dup / 10% reorder";
    let at = report.points.iter().find(|p| p.drop_permille == 100).expect("DROP_SWEEP has the 100‰ point");
    if let Some(floor) = floor {
        let got = at.success_rate * 100.0;
        gate(&format!("handshake success % {GATE_POINT}"), got, Some(floor))?;
        let _ = writeln!(out, "floor check: {got:.1}% >= {floor:.1}% at 10% drop — ok");
    }

    if let Some(floor) = recovery_floor {
        let orphans: u64 = report.points.iter().map(SweepPoint::orphans).sum();
        if orphans > 0 {
            return Err(format!(
                "recovery floor violated: {orphans} orphaned tunnel(s) survived quiescence"
            ));
        }
        let got = at.outage_recovery.recovery_rate * 100.0;
        gate(&format!("outage recovery % {GATE_POINT}"), got, Some(floor))?;
        let crash = at.crash_recovery.recovery_rate * 100.0;
        gate(&format!("crash-restart recovery % {GATE_POINT}"), crash, Some(floor))?;
        // Adaptive RTO must not regress recovery versus the legacy static
        // ladder at ANY sweep point — same outage, same sub-seeds, same
        // pacing schedule, only the timer policy differs. The band
        // (5% + 1 tick) absorbs channel-dice noise on a metric whose unit
        // is one virtual tick; genuine stalls (an inflated estimator
        // pacing re-negotiation) blow straight through it.
        for p in &report.points {
            let (a, s) = (&p.outage_recovery, &p.outage_recovery_static);
            let band = |stat: f64| stat * 1.05 + 1.0;
            if a.mean_recovery_ticks > band(s.mean_recovery_ticks)
                || (a.p95_recovery_ticks as f64) > band(s.p95_recovery_ticks as f64)
            {
                return Err(format!(
                    "recovery floor violated: adaptive RTO regressed recovery at {}‰ drop \
                     (mean {:.1} vs {:.1}, p95 {} vs {} ticks)",
                    p.drop_permille,
                    a.mean_recovery_ticks,
                    s.mean_recovery_ticks,
                    a.p95_recovery_ticks,
                    s.p95_recovery_ticks,
                ));
            }
        }
        let _ = writeln!(
            out,
            "recovery floor check: outage {got:.1}% / crash {crash:.1}% >= {floor:.1}%, \
             0 orphans, adaptive RTO within the no-regression band at every point — ok"
        );
    }
    Ok(out)
}

/// Pick (requester, responder) pairs that negotiate successfully on a
/// perfect channel, plus the destination they share: the sweep then
/// measures only channel effects. Responders are drawn from each
/// requester's default path (the paper's on-path strategy).
fn workable_pairs(topo: &Topology, want: usize, seed: u64) -> (NodeId, Vec<(NodeId, NodeId)>) {
    let n = topo.num_nodes() as NodeId;
    // A deterministic, seed-shifted scan over destinations; the first
    // destination yielding enough workable pairs wins.
    let mut best: (NodeId, Vec<(NodeId, NodeId)>) = (0, Vec::new());
    let mut scratch = SolveScratch::new();
    for probe in 0..8u64 {
        let dest = ((seed.wrapping_add(probe * 7919)) % u64::from(n)) as NodeId;
        let st = RoutingState::solve_into(topo, dest, &mut scratch);
        let mut net = MiroNetwork::new(topo);
        let mut found = Vec::new();
        for req in 0..n {
            if found.len() >= want {
                break;
            }
            if req == dest {
                continue;
            }
            let Some(path) = st.path(req) else { continue };
            // First on-path AS beyond the requester, destination excluded.
            let Some(&resp) = path.iter().skip(1).find(|&&x| x != dest && x != req) else {
                continue;
            };
            if net.negotiate(&st, req, resp, Vec::new(), 1_000).is_ok() {
                found.push((req, resp));
            }
        }
        st.recycle(&mut scratch);
        if found.len() > best.1.len() {
            best = (dest, found);
        }
        if best.1.len() >= want {
            break;
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn sweep_point(
    topo: &Topology,
    st: &RoutingState<'_>,
    pairs: &[(NodeId, NodeId)],
    drop: u32,
    dup: u32,
    reorder: u32,
    seed: u64,
    outage_ticks: u64,
) -> SweepPoint {
    let fault = FaultConfig::lossy(drop, dup, reorder);
    let mut net = ReliableNet::new(topo, fault, seed ^ u64::from(drop));
    let settle_ticks = establish(&mut net, st, pairs);

    // The paced re-negotiation machinery may already have launched fresh
    // sessions for early failures; handshake metrics cover only the
    // ORIGINAL negotiations (ids 0..pairs, allocated in start order).
    let originals: Vec<_> = net
        .outcomes()
        .iter()
        .filter(|o| (o.id.0 as usize) < pairs.len())
        .collect();
    assert_eq!(originals.len(), pairs.len(), "every negotiation reaches a terminal state");
    let succeeded = originals.iter().filter(|o| o.result.is_ok()).count() as u64;
    // The robustness contract: every failure is a typed, recorded
    // fallback to the BGP default path — never a silent loss of service.
    for o in originals.iter().filter(|o| o.result.is_err()) {
        assert!(
            net.fallbacks().iter().any(|f| f.id == o.id),
            "each failure records its fallback"
        );
    }
    let fallbacks = originals.len() as u64 - succeeded;

    let mut latencies: Vec<u64> = originals
        .iter()
        .filter(|o| o.result.is_ok())
        .map(|o| o.latency())
        .collect();
    latencies.sort_unstable();
    let retransmits: u64 = originals.iter().map(|o| u64::from(o.retransmits)).sum();
    let double_established = net.double_establish_count() as u64;
    assert_eq!(double_established, 0, "duplicate-safe handlers never double-establish");
    let snap = net.rto_snapshot();
    let rto = RtoTrajectory {
        peers: snap.peers as u64,
        samples: snap.samples,
        srtt_mean: snap.srtt_mean,
        rto_mean: snap.rto_mean,
        rto_peak: snap.rto_peak,
    };

    // Survival: keep the channel lossy and let keepalives (and paced
    // re-negotiation) fight it.
    for _ in 0..SURVIVAL_TICKS {
        net.tick(st);
    }
    let tunnels_surviving = net.leases().len().min(pairs.len()) as u64;

    // Pool several repetitions per scenario (distinct sub-seeds, the SAME
    // sub-seed sequence for both RTO modes) so per-point recovery numbers
    // measure the policy, not one channel realization.
    let scen_seeds: Vec<u64> =
        (0..SCENARIO_REPS).map(|r| seed ^ (u64::from(drop) << 17) ^ (r * 0x9e37_79b9)).collect();
    let run_outage = |mode: RtoMode| -> RecoveryStats {
        pool(
            scen_seeds
                .iter()
                .map(|&s| outage_scenario(topo, st, pairs, fault, s, outage_ticks, mode))
                .collect(),
        )
    };
    let outage_recovery = run_outage(RtoMode::Adaptive);
    let outage_recovery_static = run_outage(RtoMode::StaticLadder);
    let crash_recovery =
        pool(scen_seeds.iter().map(|&s| crash_scenario(topo, st, pairs, fault, s)).collect());

    SweepPoint {
        drop_permille: drop,
        dup_permille: dup,
        reorder_permille: reorder,
        attempted: pairs.len() as u64,
        succeeded,
        success_rate: succeeded as f64 / pairs.len() as f64,
        fallbacks,
        double_established,
        mean_latency_ticks: mean(&latencies),
        p95_latency_ticks: percentile(&latencies, 95),
        retransmits,
        duplicates_suppressed: net.duplicates_suppressed as u64,
        settle_ticks,
        tunnels_surviving,
        survival_rate: tunnels_surviving as f64 / pairs.len() as f64,
        rto,
        outage_recovery,
        outage_recovery_static,
        crash_recovery,
    }
}

/// Start every pair's negotiation, one per tick so retransmit timers do
/// not all fire in lockstep, and run until each reaches a terminal state.
/// Returns the settling time.
fn establish(net: &mut ReliableNet<'_>, st: &RoutingState<'_>, pairs: &[(NodeId, NodeId)]) -> u64 {
    for &(req, resp) in pairs {
        net.start(st, req, resp, Vec::new(), 1_000).expect("pre-screened pairs are never self-negotiations");
        net.tick(st);
    }
    net.run_until_settled(st, MAX_SETTLE_TICKS)
}

/// Mean of a sample, 0 when it is empty.
fn mean(sample: &[u64]) -> f64 {
    if sample.is_empty() { 0.0 } else { sample.iter().sum::<u64>() as f64 / sample.len() as f64 }
}

/// The `q`-th percentile of a sorted sample, 0 when it is empty.
fn percentile(sorted: &[u64], q: usize) -> u64 {
    sorted.get(sorted.len().saturating_sub(1) * q / 100).copied().unwrap_or(0)
}

/// Summarize the retryable fallback episodes opened in
/// `from_tick..=until_tick` — the window the scenario's disruption can
/// reach (detection lags the fault by up to a keepalive timeout). Later
/// episodes are ordinary steady-state churn on the lossy channel, a
/// different population from what the scenario is measuring. The orphan
/// count stays global: no scenario may strand a tunnel anywhere.
fn recovery_stats(
    net: &ReliableNet<'_>,
    from_tick: u64,
    until_tick: u64,
    quiesce_ticks: u64,
) -> ScenarioRaw {
    // One episode per (requester, dest) pair: the FIRST retryable origin
    // fallback in the window answers "the disruption felled this pair —
    // how long until service returned". A pair re-dying later (steady
    // churn at heavy loss) is not the scenario's doing, and counting it
    // for whichever RTO mode happened to churn would skew the comparison.
    let mut first: std::collections::BTreeMap<(NodeId, NodeId), &FallbackEvent> =
        std::collections::BTreeMap::new();
    for f in net.fallbacks().iter().filter(|f| {
        f.retry_of.is_none() && f.reason.is_retryable() && (from_tick..=until_tick).contains(&f.at)
    }) {
        first.entry((f.requester, f.dest)).or_insert(f);
    }
    let origins: Vec<&FallbackEvent> = first.into_values().collect();
    ScenarioRaw {
        recovery_ticks: origins.iter().filter_map(|f| f.recovery_ticks()).collect(),
        episodes: origins.len() as u64,
        retry_attempts: origins.iter().map(|f| u64::from(f.retry_attempts)).sum(),
        orphaned_tunnels: net.orphan_count() as u64,
        quiesce_ticks,
    }
}

/// One scenario repetition's raw evidence, before pooling.
struct ScenarioRaw {
    recovery_ticks: Vec<u64>,
    episodes: u64,
    retry_attempts: u64,
    orphaned_tunnels: u64,
    quiesce_ticks: u64,
}

/// Pool the repetitions of one scenario into the reported stats.
fn pool(raws: Vec<ScenarioRaw>) -> RecoveryStats {
    let episodes: u64 = raws.iter().map(|r| r.episodes).sum();
    let mut ticks: Vec<u64> = raws.iter().flat_map(|r| r.recovery_ticks.iter().copied()).collect();
    ticks.sort_unstable();
    RecoveryStats {
        episodes,
        recovered: ticks.len() as u64,
        recovery_rate: if episodes == 0 { 1.0 } else { ticks.len() as f64 / episodes as f64 },
        mean_recovery_ticks: mean(&ticks),
        median_recovery_ticks: percentile(&ticks, 50),
        p95_recovery_ticks: percentile(&ticks, 95),
        retry_attempts: raws.iter().map(|r| r.retry_attempts).sum(),
        orphaned_tunnels: raws.iter().map(|r| r.orphaned_tunnels).sum(),
        quiesce_ticks: raws.iter().map(|r| r.quiesce_ticks).max().unwrap_or(0),
    }
}

/// Establish all pairs, then black the channel out completely for
/// `outage_ticks` — long enough (by default) for every tunnel's soft
/// state to expire — and let the paced re-negotiation machinery win the
/// service back over the still-lossy steady-state channel. Ends with a
/// healed-channel epilogue so the orphan count is a hard invariant.
fn outage_scenario(
    topo: &Topology,
    st: &RoutingState<'_>,
    pairs: &[(NodeId, NodeId)],
    fault: FaultConfig,
    seed: u64,
    outage_ticks: u64,
    mode: RtoMode,
) -> ScenarioRaw {
    let rel = ReliabilityConfig { rto_mode: mode, ..Default::default() };
    let mut net = ReliableNet::try_with_reliability(topo, fault, seed, rel)
        .expect("default timers and the sweep's fault model validate");
    establish(&mut net, st, pairs);
    let from = net.clock;
    let outage_start = net.clock + 5;
    net.schedule_outage(outage_start, outage_start + outage_ticks)
        .expect("outage_ticks is validated nonzero");
    while net.clock < outage_start + outage_ticks {
        net.tick(st);
    }
    let quiesce_ticks = net.run_until_quiescent(st, MAX_RECOVERY_TICKS);
    heal_and_settle(&mut net, st);
    recovery_stats(&net, from, outage_start + outage_ticks + DETECTION_SLACK, quiesce_ticks)
}

/// Establish all pairs, then crash-restart the responder serving the most
/// of them: its entire session and tunnel table vanishes. Keepalive death
/// detection plus paced re-negotiation must re-establish; the healed
/// epilogue then proves zero orphans.
fn crash_scenario(
    topo: &Topology,
    st: &RoutingState<'_>,
    pairs: &[(NodeId, NodeId)],
    fault: FaultConfig,
    seed: u64,
) -> ScenarioRaw {
    let mut net = ReliableNet::new(topo, fault, seed ^ 0xc5a5);
    establish(&mut net, st, pairs);
    // The busiest responder hurts the most when it dies.
    let mut counts: std::collections::BTreeMap<NodeId, usize> = std::collections::BTreeMap::new();
    for &(_, resp) in pairs {
        *counts.entry(resp).or_default() += 1;
    }
    let victim = counts
        .iter()
        .max_by_key(|&(node, count)| (*count, std::cmp::Reverse(*node)))
        .map(|(node, _)| *node)
        .expect("pairs is nonempty");
    let from = net.clock;
    net.crash_restart(victim);
    // Death detection: the keepalive/Teardown fast path over the lossy
    // channel, with soft-state expiry (35 ticks) as the backstop.
    for _ in 0..DETECTION_SLACK {
        net.tick(st);
    }
    let quiesce_ticks = net.run_until_quiescent(st, MAX_RECOVERY_TICKS);
    heal_and_settle(&mut net, st);
    recovery_stats(&net, from, from + DETECTION_SLACK, quiesce_ticks)
}

/// Heal the channel to perfect, run two keepalive timeouts so every
/// one-sided tunnel is expired or torn down, and drain any last paced
/// retries. After this, a nonzero orphan count is a bug, not bad luck.
fn heal_and_settle(net: &mut ReliableNet<'_>, st: &RoutingState<'_>) {
    net.set_fault(FaultConfig::PERFECT);
    for _ in 0..HEAL_TICKS {
        net.tick(st);
    }
    net.run_until_quiescent(st, MAX_RECOVERY_TICKS);
}

fn render(r: &ResilienceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "resilience sweep — Gao2005 scale {} ({} nodes), {} pairs, seed {}, outage {} ticks",
        r.scale, r.nodes, r.pairs, r.seed, r.outage_ticks
    );
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{}", p.drop_permille),
                format!("{}/{}", p.succeeded, p.attempted),
                report::pct(p.success_rate * 100.0),
                format!("{:.1}", p.mean_latency_ticks),
                format!("{}", p.retransmits),
                format!("{:.1}", p.rto.rto_mean),
                report::pct(p.survival_rate * 100.0),
                report::pct(p.outage_recovery.recovery_rate * 100.0),
                format!(
                    "{:.0}/{}",
                    p.outage_recovery.mean_recovery_ticks, p.outage_recovery.p95_recovery_ticks
                ),
                format!(
                    "{:.0}/{}",
                    p.outage_recovery_static.mean_recovery_ticks,
                    p.outage_recovery_static.p95_recovery_ticks
                ),
                report::pct(p.crash_recovery.recovery_rate * 100.0),
                format!("{}", p.orphans()),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "drop\u{2030}", "ok", "success", "lat(mean)", "rexmit", "rto",
            "survival", "recov", "rT(adpt)", "rT(stat)", "crash", "orphan",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::harness::TempPath;

    /// Run the sweep at `args` with `--out` pointed at a scratch file
    /// (removed when the returned guard drops).
    fn sweep(args: &str) -> (Result<String, String>, TempPath) {
        let out = TempPath::new("resilience_test", ".json");
        let mut args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        args.extend(["--out".to_string(), out.0.display().to_string()]);
        (run(&args), out)
    }

    #[test]
    fn tiny_sweep_end_to_end() {
        let (report, out) = sweep("--pairs 6 --seed 7");
        let report = report.expect("sweep runs");
        assert!(report.contains("success"), "human table rendered");
        assert!(report.contains("recov"), "recovery columns rendered");
        let json = std::fs::read_to_string(&out.0).expect("JSON written");
        let parsed: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        let serde_json::JsonValue::Obj(top) = &parsed else { panic!("top-level object") };
        let serde_json::JsonValue::Arr(points) = &top["points"] else { panic!("points array") };
        assert_eq!(points.len(), DROP_SWEEP.len());
        let obj = |p: &serde_json::JsonValue, key: &str| -> serde_json::JsonValue {
            let serde_json::JsonValue::Obj(o) = p else { panic!("object") };
            o[key].clone()
        };
        let num = |p: &serde_json::JsonValue, key: &str| -> f64 {
            let serde_json::JsonValue::Num(n) = obj(p, key) else { panic!("{key} numeric") };
            n
        };
        // Perfect-channel point: everything succeeds, nothing retransmits.
        assert_eq!(num(&points[0], "drop_permille"), 0.0);
        assert_eq!(num(&points[0], "success_rate"), 1.0);
        assert_eq!(num(&points[0], "retransmits"), 0.0);
        // Its outage scenario kills and recovers every pair, orphan-free.
        let recovery = obj(&points[0], "outage_recovery");
        assert!(num(&recovery, "episodes") >= 1.0, "the outage opened episodes");
        assert_eq!(num(&recovery, "recovery_rate"), 1.0, "perfect channel recovers all");
        assert_eq!(num(&recovery, "orphaned_tunnels"), 0.0);
        // The crash scenario detected and healed the restart.
        let crash = obj(&points[0], "crash_recovery");
        assert!(num(&crash, "episodes") >= 1.0, "the crash opened episodes");
        assert_eq!(num(&crash, "recovery_rate"), 1.0);
        assert_eq!(num(&crash, "orphaned_tunnels"), 0.0);
        for p in points {
            assert_eq!(num(p, "double_established"), 0.0);
            // The RTO trajectory is present at every point.
            let rto = obj(p, "rto");
            assert!(num(&rto, "samples") >= 1.0, "estimators sampled");
            let stat = obj(p, "outage_recovery_static");
            assert_eq!(num(&stat, "orphaned_tunnels"), 0.0);
        }
    }

    /// After the emitter's `host_parallelism` stamp, RESILIENCE.json keys
    /// come in the report structs' field order — schema consumers (and
    /// diffs) see a stable layout.
    #[test]
    fn json_key_order_is_stable() {
        let (report, out) = sweep("--pairs 4 --seed 9");
        report.expect("sweep runs");
        let json = std::fs::read_to_string(&out.0).expect("JSON written");
        assert!(json.starts_with("{\"host_parallelism\":"), "{json}");
        // Spot-check the ordering at both nesting levels.
        for window in [
            ["\"seed\"", "\"scale\"", "\"nodes\"", "\"pairs\"", "\"outage_ticks\"", "\"points\""],
            [
                "\"attempted\"",
                "\"double_established\"",
                "\"survival_rate\"",
                "\"rto\"",
                "\"outage_recovery\"",
                "\"crash_recovery\"",
            ],
        ] {
            let mut last = 0;
            for key in window {
                let at = json.find(key).unwrap_or_else(|| panic!("{key} present"));
                assert!(at > last, "{key} out of order");
                last = at;
            }
        }
        // Running twice with the same inputs produces byte-identical JSON.
        let (report2, out2) = sweep("--pairs 4 --seed 9");
        report2.expect("sweep runs");
        assert_eq!(json, std::fs::read_to_string(&out2.0).unwrap(), "deterministic output");
    }

    #[test]
    fn impossible_floor_fails_the_gate() {
        let (report, _out) = sweep("--pairs 6 --seed 7 --check-floor 101");
        let err = report.expect_err("101% floor cannot be met");
        assert!(err.contains("handshake success") && err.contains("< required 101"), "{err}");
    }

    #[test]
    fn impossible_recovery_floor_fails_the_gate() {
        let (report, _out) = sweep("--pairs 6 --seed 7 --check-recovery-floor 101");
        let err = report.expect_err("101% recovery floor cannot be met");
        assert!(err.contains("outage recovery") && err.contains("< required 101"), "{err}");
    }

    #[test]
    fn bad_flags_are_errors_that_name_the_flag() {
        let err = |args: &str| sweep(args).0.expect_err(args);
        assert!(err("--bogus").contains("--bogus"));
        assert!(err("--outage-ticks 0").contains("--outage-ticks"), "empty outage window");
        // A scale the generator cannot honour is refused here (it used
        // to panic there); zero is honoured with the smallest graph.
        assert!(err("--scale nan").contains("--scale"));
        assert!(err("--scale -1").contains("--scale"));
        assert!(!err("--scale 0 --pairs 2 --check-floor 101").contains("--scale"));
    }
}
