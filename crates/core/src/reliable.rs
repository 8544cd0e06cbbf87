//! The Figure-4.2 negotiation made correct over an unreliable control
//! channel (the §4.3 soft-state design, exercised under failure) — the one
//! message-level state machine of the crate.
//!
//! [`MiroNetwork`](crate::node::MiroNetwork) is the synchronous reference:
//! every message delivered instantly and exactly once. [`ReliableNet`]
//! drives the same [`NetState`] — same admission and offer decision, same
//! offer choice, same establish → adopt → lease steps — one message at a
//! time over a [`FaultyChannel`] that drops, duplicates, reorders, delays,
//! blacks out entire windows, and survives a responder crash-restart; on a
//! perfect channel the two agree on tunnel id, path and price. The
//! reliability layer on top is classical:
//!
//! * **sequence numbers** — every transmission carries a fresh sequence
//!   number; receivers suppress exact duplicates (the channel's
//!   duplication fault) while retransmissions get new numbers and are
//!   absorbed by idempotent handlers instead;
//! * **adaptive retransmission timers** — each Seq→Ack exchange of the
//!   handshake (`Request`→`Offers`, `Offers`→`Accept`,
//!   `Accept`→`Established`, `Established`→`Ack`) is one `Exchange`: the
//!   message awaiting its answer, its retransmit timer, and an RTT echo on
//!   the virtual clock. Per-peer [`RtoEstimator`]s fold the unambiguous
//!   echoes (Karn's algorithm: retransmitted exchanges never feed the
//!   estimator) into RFC 6298 SRTT/RTTVAR, and fresh sends start their
//!   backoff from the learned RTO instead of a static base. Retries still
//!   double the timer, clamped to [`ReliabilityConfig::rto_max`];
//!   [`RtoMode::StaticLadder`] recovers the old fixed ladder for A/B runs;
//! * **idempotent handlers** — a replayed `Request` or `Accept` is
//!   answered with what the session already said (a replayed `Accept`
//!   never allocates a second tunnel), a replayed `Established` is
//!   re-`Ack`ed, and a replayed `Teardown` is a no-op;
//! * **graceful fallback with paced re-negotiation** — when retries are
//!   exhausted, or an established tunnel's session later dies, the
//!   requester degrades to the BGP default path (the paper's core
//!   guarantee: MIRO only ever adds to BGP) and records a
//!   [`FallbackEvent`]. Channel-caused fallbacks are then *retried* on a
//!   decorrelated-jitter schedule — sleep `min(cap, rand(base, 3·prev))`
//!   — up to [`ReliabilityConfig::retry_budget`] attempts, so a transient
//!   outage is healed without a thundering herd. Recovery is written back
//!   onto the original event (`recovered_at`); semantic failures
//!   (`Rejected`, `NoneAcceptable`) are never retried — no schedule can
//!   change a policy answer.
//!
//! Keepalives ride the same lossy bus: each side of a live tunnel
//! heartbeats the other every [`ReliabilityConfig::keepalive_interval`]
//! ticks and expires it after [`ReliabilityConfig::keepalive_timeout`]
//! ticks of silence. A keepalive for a tunnel the receiver does not hold —
//! the receiver crashed, or already expired it — is answered with a
//! `Teardown`, so a restarted responder kills its peers' stale tunnels
//! within one heartbeat round instead of a full soft-state timeout
//! ([`ReliableNet::crash_restart`] models the crash itself: the whole
//! session table and tunnel table vanish, the id allocator survives as a
//! boot-epoch-prefixed id space).
//!
//! Orphan safety: if the responder establishes but the requester has
//! already fallen back (or its `Ack` never lands), the orphan tunnel is
//! reaped by soft-state expiry — exactly the "idle tunnels in the
//! downstream ASes" scenario §4.3 designed for. [`ReliableNet::orphan_count`]
//! measures the invariant directly.

use crate::chan::{mix, Envelope, FaultConfig, FaultyChannel};
use crate::config::ConfigError;
use crate::export::Offer;
use crate::handshake::NetState;
use crate::negotiate::{Constraint, Message, NegotiationError, NegotiationId, RejectReason};
use crate::node::choose_offer;
use crate::rto::RtoEstimator;
use crate::tunnel::{TeardownReason, TunnelId};
use miro_bgp::solver::RoutingState;
use miro_topology::{NodeId, Topology};
use std::collections::{BTreeMap, HashSet};
use std::ops::{Deref, DerefMut};

/// How retransmission timeouts are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoMode {
    /// Per-peer RFC 6298 SRTT/RTTVAR estimation seeded from handshake
    /// echoes; fresh sends start at the learned RTO.
    Adaptive,
    /// The legacy fixed ladder: every fresh send starts at
    /// [`ReliabilityConfig::rto_initial`] and doubles. Kept for A/B
    /// comparison runs.
    StaticLadder,
}

/// Timer constants of the reliability layer, in virtual ticks.
#[derive(Clone, Copy, Debug)]
pub struct ReliabilityConfig {
    /// RTO before any RTT sample exists (and always, under
    /// [`RtoMode::StaticLadder`]); doubles on every retry.
    pub rto_initial: u64,
    /// Lower clamp of the adaptive RTO.
    pub rto_min: u64,
    /// Upper clamp of the adaptive RTO *and* of the doubling backoff.
    pub rto_max: u64,
    /// Adaptive estimation or the legacy static ladder.
    pub rto_mode: RtoMode,
    /// Retransmissions per handshake stage before giving up.
    pub max_retries: u32,
    /// Keepalive period per tunnel side.
    pub keepalive_interval: u64,
    /// Soft-state expiry after this much heartbeat silence. Must exceed
    /// `keepalive_interval` (it defaults to 3.5x) so a tunnel survives
    /// transient keepalive loss.
    pub keepalive_timeout: u64,
    /// Floor of the decorrelated-jitter re-negotiation sleep.
    pub retry_base: u64,
    /// Ceiling of the decorrelated-jitter re-negotiation sleep.
    pub retry_cap: u64,
    /// Re-negotiation attempts per fallback episode before giving up for
    /// good. `0` disables paced re-negotiation entirely.
    pub retry_budget: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            rto_initial: 4,
            rto_min: 2,
            rto_max: 128,
            rto_mode: RtoMode::Adaptive,
            max_retries: 5,
            keepalive_interval: 10,
            keepalive_timeout: 35,
            retry_base: 16,
            retry_cap: 256,
            retry_budget: 6,
        }
    }
}

impl ReliabilityConfig {
    /// Reject configurations that would silently misbehave.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rto_initial == 0 {
            return Err(ConfigError::ZeroInitialRto);
        }
        if self.rto_min > self.rto_max {
            return Err(ConfigError::RtoRange { min: self.rto_min, max: self.rto_max });
        }
        if self.max_retries == 0 {
            return Err(ConfigError::ZeroMaxRetries);
        }
        if self.keepalive_interval > 0 && self.keepalive_timeout <= self.keepalive_interval {
            return Err(ConfigError::KeepaliveTimeout {
                interval: self.keepalive_interval,
                timeout: self.keepalive_timeout,
            });
        }
        if self.retry_base == 0 || self.retry_base > self.retry_cap {
            return Err(ConfigError::RetryRange { base: self.retry_base, cap: self.retry_cap });
        }
        Ok(())
    }
}

/// A control message as it travels the bus: payload plus a per-transmission
/// sequence number for duplicate suppression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqMessage {
    pub seq: u64,
    pub msg: Message,
}

/// Which handshake stage ran out of retries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// No `Offers`/`Reject` ever arrived for our `Request`.
    Request,
    /// No `Established` ever arrived for our `Accept`.
    Accept,
}

/// Why a negotiation over the unreliable channel did not produce a tunnel
/// (or stopped providing one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// The responder said no (semantic failure, same as the synchronous
    /// harness). Never retried.
    Rejected(RejectReason),
    /// Offers arrived but none fit the budget. Never retried.
    NoneAcceptable,
    /// The channel ate our retries at the given stage. Retried on the
    /// jitter schedule.
    RetriesExhausted(Stage),
    /// An *established* tunnel's session died after the fact — soft-state
    /// expiry or a peer `Teardown` (e.g. the responder crash-restarted).
    /// Retried on the jitter schedule.
    SessionDied,
}

impl FailReason {
    /// Whether paced re-negotiation can plausibly help: channel failures
    /// yes, policy answers no.
    pub fn is_retryable(&self) -> bool {
        matches!(self, FailReason::RetriesExhausted(_) | FailReason::SessionDied)
    }
}

/// Terminal record of one negotiation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegotiationOutcome {
    pub id: NegotiationId,
    pub requester: NodeId,
    pub responder: NodeId,
    pub dest: NodeId,
    pub result: Result<TunnelId, FailReason>,
    /// Virtual time the `Request` was first sent / the outcome settled.
    pub started_at: u64,
    pub finished_at: u64,
    /// Requester-side retransmissions spent on this negotiation.
    pub retransmits: u32,
}

impl NegotiationOutcome {
    /// Handshake latency in virtual ticks, retries included.
    pub fn latency(&self) -> u64 {
        self.finished_at - self.started_at
    }
}

/// Observability record: a requester fell back to its BGP default path.
///
/// Retryable episodes are updated in place as the pacing machinery works:
/// `retry_attempts` counts launched re-negotiations, `recovered_at` is set
/// when one of them lands a tunnel again. An event with
/// `retry_of == Some(origin)` is a *chained* record — one failed attempt
/// within the origin episode — and should be excluded when counting
/// distinct outage episodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FallbackEvent {
    pub id: NegotiationId,
    pub requester: NodeId,
    pub dest: NodeId,
    pub reason: FailReason,
    /// The default path the requester degrades to (empty when the
    /// destination is unreachable by BGP too — then there is no service,
    /// negotiated or not, and nothing MIRO can make worse).
    pub default_path: Vec<NodeId>,
    pub at: u64,
    /// When a paced re-negotiation restored a tunnel for this episode.
    pub recovered_at: Option<u64>,
    /// Re-negotiation attempts launched for this episode so far.
    pub retry_attempts: u32,
    /// `Some(origin)` when this event records a failed retry attempt of an
    /// earlier episode rather than a fresh episode.
    pub retry_of: Option<NegotiationId>,
}

impl FallbackEvent {
    /// Ticks from fallback to recovery, when recovery happened.
    pub fn recovery_ticks(&self) -> Option<u64> {
        self.recovered_at.map(|r| r - self.at)
    }
}

/// Pacing state threaded through the retry attempts of one episode.
#[derive(Clone, Copy, Debug)]
struct RetryCtx {
    /// Index of the origin [`FallbackEvent`] in the fallbacks log.
    fallback: usize,
    /// Previous sleep, for the decorrelated-jitter recurrence (0 = none
    /// yet).
    prev_sleep: u64,
    /// Attempts launched so far for this episode.
    attempts: u32,
    /// Negotiation id of the origin episode.
    origin: NegotiationId,
}

/// A re-negotiation waiting for its jittered launch time.
#[derive(Clone, Copy, Debug)]
struct PendingRetry {
    ctx: RetryCtx,
    /// Index of the requester session whose request is repeated.
    session: usize,
    next_at: u64,
}

/// One Seq→Ack exchange of the handshake, either side: the message that
/// awaits an answer, its retransmit timer, and its standing as an RTT echo.
#[derive(Clone, Debug)]
struct Exchange {
    /// Retransmitted when the timer fires; replayed verbatim when a
    /// duplicate of the message it answered arrives — the negotiation
    /// never moves backwards.
    msg: Message,
    sent_at: u64,
    backoff: u64,
    retries: u32,
    /// Karn: once retransmitted (or, for `Offers`, replayed) the answer
    /// cannot be matched to one send, so it never feeds the estimator.
    ambiguous: bool,
}

/// What [`Exchange::poll`] asks of its session.
enum Timer {
    Idle,
    Resend,
    Exhausted,
}

impl Exchange {
    /// One retransmit-timer step: nothing until `backoff` ticks of silence,
    /// then a resend with the backoff doubled (clamped to `rto_max`), until
    /// `max_retries` are spent.
    fn poll(&mut self, now: u64, rel: &ReliabilityConfig) -> Timer {
        if now.saturating_sub(self.sent_at) < self.backoff {
            return Timer::Idle;
        }
        if self.retries >= rel.max_retries {
            return Timer::Exhausted;
        }
        self.retries += 1;
        self.ambiguous = true;
        self.backoff = (self.backoff * 2).min(rel.rto_max);
        self.sent_at = now;
        Timer::Resend
    }

    /// The RTT this exchange measured if its answer arrives `now`.
    fn echo(&self, now: u64) -> Option<u64> {
        (!self.ambiguous).then(|| now - self.sent_at)
    }
}

#[derive(Clone, Copy, Debug)]
enum ReqState {
    AwaitOffers,
    AwaitEstablished,
    Done(TunnelId),
    /// Terminal. Either the handshake never completed (the reason lives in
    /// the recorded [`NegotiationOutcome`]) or it was `Done` and the
    /// tunnel's session later died (expiry or peer teardown); recovery
    /// happens in a *new* session launched by the pacing machinery.
    Failed,
}

struct ReqSession {
    id: NegotiationId,
    requester: NodeId,
    responder: NodeId,
    dest: NodeId,
    constraints: Vec<Constraint>,
    max_price: u32,
    state: ReqState,
    /// The `Request`, then the `Accept`, awaiting its answer.
    xchg: Exchange,
    retransmits_total: u32,
    started_at: u64,
    /// `Some` when this session *is* a paced retry of an earlier episode.
    retry: Option<RetryCtx>,
}

impl ReqSession {
    fn in_flight(&self) -> bool {
        matches!(self.state, ReqState::AwaitOffers | ReqState::AwaitEstablished)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RespState {
    /// Replied with `Offers` (or a terminal `Reject`); waiting for
    /// `Accept` — the requester's retransmit timer drives this stage.
    Offered,
    /// Tunnel allocated; retransmitting `Established` until `Ack`.
    Established,
    /// `Ack` seen, retries exhausted (soft state covers the rest), or the
    /// `Accept` was refused.
    Closed,
}

struct RespSession {
    requester: NodeId,
    responder: NodeId,
    state: RespState,
    /// The `Offers`/`Reject`, then the `Established`, this session last
    /// answered with.
    xchg: Exchange,
}

/// Aggregate view of the per-peer RTO estimators, for metrics exports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RtoSnapshot {
    /// Directed peer pairs with at least one RTT sample.
    pub peers: usize,
    /// Total RTT samples folded in across all pairs.
    pub samples: u64,
    /// Mean smoothed RTT across sampled pairs (0.0 when none).
    pub srtt_mean: f64,
    /// Mean current RTO across sampled pairs (0.0 when none).
    pub rto_mean: f64,
    /// Highest RTO any estimator ever reported (0 when none sampled).
    pub rto_peak: u64,
}

/// The whole-network harness over the unreliable bus. One instance drives
/// negotiations and tunnel soft state for the destination of the
/// [`RoutingState`] passed to [`ReliableNet::tick`]. Derefs to the
/// [`NetState`] it shares with the synchronous reference (`config_mut`,
/// `leases`, `tunnels`, `topology`, `clock`, and `log` — here the
/// transcript of every message handed to the bus, pre-fault).
pub struct ReliableNet<'t> {
    net: NetState<'t>,
    bus: FaultyChannel<SeqMessage>,
    rel: ReliabilityConfig,
    /// Indexed by negotiation id: sessions are never removed.
    req_sessions: Vec<ReqSession>,
    resp_sessions: BTreeMap<NegotiationId, RespSession>,
    /// Every tunnel id ever allocated per negotiation — more than one
    /// entry for the same id would be a double-establish.
    session_tunnels: BTreeMap<NegotiationId, Vec<TunnelId>>,
    next_seq: u64,
    /// Per-receiver sets of sequence numbers already processed.
    seen: Vec<HashSet<u64>>,
    /// Channel-duplicated transmissions suppressed by sequence numbers.
    pub duplicates_suppressed: usize,
    /// Per-directed-pair RTT estimators, keyed (local, peer).
    rtt: BTreeMap<(NodeId, NodeId), RtoEstimator>,
    /// Seed for the retry-schedule jitter. Sleeps are a pure hash of
    /// (seed, episode origin, attempt) — independent of the channel's
    /// fault dice so pacing does not perturb the loss pattern, and
    /// identical across [`RtoMode`]s so recovery-time comparisons isolate
    /// the timer policy.
    jitter_seed: u64,
    pending_retries: Vec<PendingRetry>,
    outcomes: Vec<NegotiationOutcome>,
    fallbacks: Vec<FallbackEvent>,
}

impl<'t> Deref for ReliableNet<'t> {
    type Target = NetState<'t>;
    fn deref(&self) -> &NetState<'t> {
        &self.net
    }
}

impl DerefMut for ReliableNet<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.net
    }
}

impl<'t> ReliableNet<'t> {
    /// Default reliability knobs; panics on an invalid `fault` (see
    /// [`ReliableNet::try_with_reliability`] for the fallible form).
    pub fn new(topo: &'t Topology, fault: FaultConfig, seed: u64) -> Self {
        Self::try_with_reliability(topo, fault, seed, ReliabilityConfig::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a network, rejecting invalid fault or reliability knobs with
    /// a typed error instead of latent misbehaviour.
    pub fn try_with_reliability(
        topo: &'t Topology,
        fault: FaultConfig,
        seed: u64,
        rel: ReliabilityConfig,
    ) -> Result<Self, ConfigError> {
        rel.validate()?;
        Ok(ReliableNet {
            net: NetState::new(topo),
            bus: FaultyChannel::try_new(seed, fault)?,
            rel,
            req_sessions: Vec::new(),
            resp_sessions: BTreeMap::new(),
            session_tunnels: BTreeMap::new(),
            next_seq: 0,
            seen: vec![HashSet::new(); topo.num_nodes()],
            duplicates_suppressed: 0,
            rtt: BTreeMap::new(),
            jitter_seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            pending_retries: Vec::new(),
            outcomes: Vec::new(),
            fallbacks: Vec::new(),
        })
    }

    /// Change the channel fault model mid-run (e.g. start an outage after
    /// establishment).
    pub fn set_fault(&mut self, fault: FaultConfig) {
        self.bus.set_fault(fault);
    }

    /// Black out the channel completely for `start..end` (virtual ticks):
    /// every send inside the window is dropped, on top of whatever the
    /// steady-state fault model does outside it.
    pub fn schedule_outage(&mut self, start: u64, end: u64) -> Result<(), ConfigError> {
        self.bus.schedule_outage(start, end)
    }

    /// Terminal negotiation records, in settlement order.
    pub fn outcomes(&self) -> &[NegotiationOutcome] {
        &self.outcomes
    }

    /// Every recorded degrade-to-default event (origin episodes and
    /// chained retry failures; filter on `retry_of` to tell them apart).
    pub fn fallbacks(&self) -> &[FallbackEvent] {
        &self.fallbacks
    }

    /// Re-negotiations currently waiting for their jittered launch tick.
    pub fn pending_retry_count(&self) -> usize {
        self.pending_retries.len()
    }

    /// Number of negotiations that allocated more than one tunnel — the
    /// invariant the duplicate-safe handlers exist to keep at zero.
    pub fn double_establish_count(&self) -> usize {
        self.session_tunnels.values().filter(|v| v.len() > 1).count()
    }

    /// Live tunnels whose peer does not hold the matching record — the
    /// quantity crash-restart teardown exists to drive to zero. Only
    /// meaningful at quiescence over a healed channel: mid-outage, a
    /// half-expired tunnel is legitimately one-sided for a few ticks.
    pub fn orphan_count(&self) -> usize {
        let managers = &self.net.managers;
        let mut orphans = 0;
        for n in 0..managers.len() {
            for t in managers[n].iter() {
                orphans += managers[t.peer as usize].get(n as NodeId, t.id).is_none() as usize;
            }
        }
        orphans
    }

    /// Aggregate view of every per-peer RTO estimator.
    pub fn rto_snapshot(&self) -> RtoSnapshot {
        let sampled: Vec<&RtoEstimator> =
            self.rtt.values().filter(|e| e.samples() > 0).collect();
        if sampled.is_empty() {
            return RtoSnapshot { peers: 0, samples: 0, srtt_mean: 0.0, rto_mean: 0.0, rto_peak: 0 };
        }
        let n = sampled.len() as f64;
        RtoSnapshot {
            peers: sampled.len(),
            samples: sampled.iter().map(|e| e.samples()).sum(),
            srtt_mean: sampled.iter().map(|e| e.srtt()).sum::<f64>() / n,
            rto_mean: sampled.iter().map(|e| e.rto() as f64).sum::<f64>() / n,
            rto_peak: sampled.iter().map(|e| e.peak()).max().unwrap_or(0),
        }
    }

    /// The node's process restarts: tunnel table, teardown history,
    /// responder sessions, and the duplicate-suppression window all
    /// vanish (soft state is exactly the state you may lose). In-flight
    /// *requester* sessions of the node die silently — the process that
    /// cared about them is gone, so no outcome is recorded. The tunnel id
    /// allocator survives (boot-epoch-prefixed id space), so post-restart
    /// establishments never collide with ids peers still hold. Returns
    /// the tunnel ids that were live here. Peers discover the crash via
    /// keepalives: the restarted node answers heartbeats for unknown
    /// tunnels with `Teardown`, which marks the peer's session dead and
    /// feeds the paced re-negotiation machinery.
    pub fn crash_restart(&mut self, node: NodeId) -> Vec<TunnelId> {
        let lost = self.net.managers[node as usize].crash();
        self.seen[node as usize].clear();
        self.resp_sessions.retain(|_, s| s.responder != node);
        for s in self.req_sessions.iter_mut().filter(|s| s.requester == node && s.in_flight()) {
            s.state = ReqState::Failed;
        }
        let sessions = &self.req_sessions;
        self.pending_retries.retain(|p| sessions[p.session].requester != node);
        self.rtt.retain(|(local, _), _| *local != node);
        lost
    }

    fn post(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.net.log.push((from, to, msg.clone()));
        self.bus.send(self.net.clock, from, to, SeqMessage { seq, msg });
    }

    /// Send `msg` as a fresh exchange whose timer starts at the RTO learned
    /// for the pair (the configured initial RTO before any sample, and
    /// always under [`RtoMode::StaticLadder`]).
    fn open(&mut self, from: NodeId, to: NodeId, msg: Message) -> Exchange {
        self.post(from, to, msg.clone());
        let backoff = match self.rel.rto_mode {
            RtoMode::StaticLadder => None,
            RtoMode::Adaptive => self.rtt.get(&(from, to)).map(|e| e.rto()),
        };
        Exchange {
            msg,
            sent_at: self.net.clock,
            backoff: backoff.unwrap_or(self.rel.rto_initial),
            retries: 0,
            ambiguous: false,
        }
    }

    /// Fold the echo of an answered exchange (`None`: Karn disqualified it)
    /// into the (local, peer) estimator.
    fn sample_rtt(&mut self, local: NodeId, peer: NodeId, echo: Option<u64>) {
        let (Some(rtt), RtoMode::Adaptive) = (echo, self.rel.rto_mode) else { return };
        let (initial, min, max) = (self.rel.rto_initial, self.rel.rto_min, self.rel.rto_max);
        self.rtt
            .entry((local, peer))
            .or_insert_with(|| RtoEstimator::new(initial, min, max))
            .sample(rtt);
    }

    /// Begin a negotiation (Figure 4.2 step 1) for `st.dest()`. The
    /// handshake then progresses inside [`ReliableNet::tick`]; watch
    /// [`ReliableNet::outcomes`] for the result.
    pub fn start(
        &mut self,
        st: &RoutingState<'_>,
        requester: NodeId,
        responder: NodeId,
        constraints: Vec<Constraint>,
        max_price: u32,
    ) -> Result<NegotiationId, NegotiationError> {
        self.net.check_pair(requester, responder, Some(st.dest()))?;
        Ok(self.launch(st.dest(), requester, responder, constraints, max_price, None))
    }

    /// Create and send a fresh `Request` session (initial or paced retry).
    fn launch(
        &mut self,
        dest: NodeId,
        requester: NodeId,
        responder: NodeId,
        constraints: Vec<Constraint>,
        max_price: u32,
        retry: Option<RetryCtx>,
    ) -> NegotiationId {
        let id = self.net.next_id();
        debug_assert_eq!(id.0 as usize, self.req_sessions.len());
        let request = Message::Request { id, dest, constraints: constraints.clone() };
        let xchg = self.open(requester, responder, request);
        self.req_sessions.push(ReqSession {
            id,
            requester,
            responder,
            dest,
            constraints,
            max_price,
            state: ReqState::AwaitOffers,
            xchg,
            retransmits_total: 0,
            started_at: self.net.clock,
            retry,
        });
        id
    }

    /// All handshakes (both sides) have reached a terminal state. Tunnel
    /// soft state may still be live — keepalives keep flowing — and paced
    /// re-negotiations may still be pending (see
    /// [`ReliableNet::quiescent`]).
    pub fn handshakes_settled(&self) -> bool {
        !self.req_sessions.iter().any(ReqSession::in_flight)
            && self.resp_sessions.values().all(|s| s.state != RespState::Established)
            && self.bus.is_idle()
    }

    /// Settled *and* no re-negotiation is waiting to launch: nothing will
    /// change again without external input.
    pub fn quiescent(&self) -> bool {
        self.handshakes_settled() && self.pending_retries.is_empty()
    }

    /// Tick until every handshake settles (or `max_ticks` elapse); returns
    /// the number of ticks consumed. Pending paced retries do NOT hold
    /// this loop open — use [`ReliableNet::run_until_quiescent`] to also
    /// drain the recovery machinery.
    pub fn run_until_settled(&mut self, st: &RoutingState<'_>, max_ticks: u64) -> u64 {
        let start = self.net.clock;
        while !self.handshakes_settled() && self.net.clock - start < max_ticks {
            self.tick(st);
        }
        self.net.clock - start
    }

    /// Tick until [`ReliableNet::quiescent`] (or `max_ticks` elapse);
    /// returns the number of ticks consumed.
    pub fn run_until_quiescent(&mut self, st: &RoutingState<'_>, max_ticks: u64) -> u64 {
        let start = self.net.clock;
        while !self.quiescent() && self.net.clock - start < max_ticks {
            self.tick(st);
        }
        self.net.clock - start
    }

    /// One tick of virtual time: deliver due messages (duplicate-
    /// suppressed), run retransmit timers, launch due re-negotiations,
    /// heartbeat live tunnels, expire stale soft state.
    pub fn tick(&mut self, st: &RoutingState<'_>) {
        self.net.clock += 1;
        let due = self.bus.deliver_due(self.net.clock);
        for Envelope { from, to, msg } in due {
            if !self.seen[to as usize].insert(msg.seq) {
                self.duplicates_suppressed += 1;
                continue;
            }
            self.handle(st, from, to, msg.msg);
        }
        self.run_timers(st);
        self.pace_retries();
        self.heartbeat();
        self.expire_soft_state(st);
    }

    fn handle(&mut self, st: &RoutingState<'_>, from: NodeId, to: NodeId, msg: Message) {
        match msg {
            Message::Request { id, dest, constraints } => {
                self.on_request(st, from, to, id, dest, &constraints)
            }
            Message::Offers { id, offers } => self.on_offers(st, from, to, id, offers),
            Message::Reject { id, reason } => self.on_reject(st, from, to, id, reason),
            Message::Accept { id, choice } => self.on_accept(st, from, to, id, choice),
            Message::Established { id, tunnel } => self.on_established(st, from, to, id, tunnel),
            Message::Ack { id } => {
                let Some(sess) = self.resp_sessions.get_mut(&id).filter(|s| s.responder == to)
                else {
                    return;
                };
                // Established→Ack is the responder's RTT echo. Only its own
                // timer disqualifies it: an `Established` replayed to a
                // duplicate `Accept` keeps the clock of the first send.
                let echo = match sess.state {
                    RespState::Established => sess.xchg.echo(self.net.clock),
                    _ => None,
                };
                sess.state = RespState::Closed;
                let requester = sess.requester;
                self.sample_rtt(to, requester, echo);
            }
            Message::Keepalive { tunnel } => {
                // Refresh on *receipt* only: a heartbeat that the channel
                // eats refreshes nobody, which is the whole point.
                if !self.net.managers[to as usize].keepalive(from, tunnel, self.net.clock) {
                    // The peer pings state we do not hold — we crashed, or
                    // already expired it. Answer with Teardown so the peer
                    // learns of the death within one heartbeat round
                    // instead of a full soft-state timeout. Exception: a
                    // handshake with this peer is still in flight, so the
                    // tunnel may be adopted a tick from now.
                    let pending = self
                        .req_sessions
                        .iter()
                        .any(|s| s.requester == to && s.responder == from && s.in_flight());
                    if !pending {
                        self.post(to, from, Message::Teardown { tunnel });
                    }
                }
            }
            Message::Teardown { tunnel } => {
                // Idempotent: unknown or replayed ids are a no-op.
                let held = self.net.managers[to as usize].teardown(
                    from,
                    tunnel,
                    TeardownReason::PeerRequest,
                );
                self.net.drop_lease(tunnel, from, to);
                // If that tunnel backed one of our Done requester
                // sessions, the session is dead.
                if held {
                    self.session_died(st, to, from, tunnel);
                }
            }
        }
    }

    /// The requester session `id` names, if `requester` owns it.
    fn req_index(&self, id: NegotiationId, requester: NodeId) -> Option<usize> {
        let i = id.0 as usize;
        (self.req_sessions.get(i)?.requester == requester).then_some(i)
    }

    /// Responder, step 1 -> 2: answer a `Request` with `Offers` or
    /// `Reject`. A duplicate `Request` (channel dup of a retransmission)
    /// replays whatever this session already answered.
    fn on_request(
        &mut self,
        st: &RoutingState<'_>,
        from: NodeId,
        to: NodeId,
        id: NegotiationId,
        dest: NodeId,
        constraints: &[Constraint],
    ) {
        debug_assert_eq!(dest, st.dest(), "one ReliableNet drives one destination");
        if let Some(sess) = self.resp_sessions.get_mut(&id) {
            if sess.responder == to {
                // Karn: a replayed Offers makes the Offers→Accept echo
                // ambiguous.
                sess.xchg.ambiguous |= sess.state == RespState::Offered;
                let replay = sess.xchg.msg.clone();
                self.post(to, from, replay);
            }
            return;
        }
        let reply = match self.net.responder_offers(st, from, to, constraints, false) {
            Ok(offers) => Message::Offers { id, offers },
            Err(reason) => Message::Reject { id, reason },
        };
        let xchg = self.open(to, from, reply);
        let sess = RespSession { requester: from, responder: to, state: RespState::Offered, xchg };
        self.resp_sessions.insert(id, sess);
    }

    /// Requester, step 2 -> 3: pick an offer and `Accept` it.
    fn on_offers(
        &mut self,
        st: &RoutingState<'_>,
        from: NodeId,
        to: NodeId,
        id: NegotiationId,
        offers: Vec<Offer>,
    ) {
        let Some(i) = self.req_index(id, to) else { return };
        let s = &self.req_sessions[i];
        if !matches!(s.state, ReqState::AwaitOffers) {
            // Duplicate of an Offers we already answered: the Accept
            // retransmit timer (or the established tunnel) covers us.
            return;
        }
        // Request→Offers is the requester's first RTT echo.
        let echo = s.xchg.echo(self.net.clock);
        let choice = choose_offer(&offers, &s.constraints, s.max_price);
        self.sample_rtt(to, from, echo);
        match choice {
            Some(choice) => {
                let xchg = self.open(to, from, Message::Accept { id, choice });
                let s = &mut self.req_sessions[i];
                s.state = ReqState::AwaitEstablished;
                s.xchg = xchg;
            }
            // Semantic failure: nothing fits the budget and the
            // constraints. No retry can fix it.
            None => self.fall_back(st, i, FailReason::NoneAcceptable),
        }
    }

    fn on_reject(
        &mut self,
        st: &RoutingState<'_>,
        from: NodeId,
        to: NodeId,
        id: NegotiationId,
        reason: RejectReason,
    ) {
        let Some(i) = self.req_index(id, to) else { return };
        if !self.req_sessions[i].in_flight() {
            return;
        }
        // A Reject answers our message just as an Offers would: still an
        // RTT echo.
        let echo = self.req_sessions[i].xchg.echo(self.net.clock);
        self.sample_rtt(to, from, echo);
        self.fall_back(st, i, FailReason::Rejected(reason));
    }

    /// Responder, step 3 -> 4: allocate the tunnel exactly once and report
    /// `Established`. The first `Accept` to arrive wins; any later one —
    /// or one for a session that answered `Reject` — replays what the
    /// session already said, so the tunnel it allocated (if any) is
    /// reported again with the SAME id, never a new allocation.
    fn on_accept(
        &mut self,
        st: &RoutingState<'_>,
        from: NodeId,
        to: NodeId,
        id: NegotiationId,
        choice: usize,
    ) {
        let Some(sess) = self.resp_sessions.get(&id) else { return };
        if sess.responder != to || sess.requester != from {
            return;
        }
        let offer = match (sess.state, &sess.xchg.msg) {
            (RespState::Offered, Message::Offers { offers, .. }) => offers.get(choice).cloned(),
            _ => {
                let replay = sess.xchg.msg.clone();
                self.post(to, from, replay);
                return;
            }
        };
        // Offers→Accept is the responder's RTT echo.
        let echo = sess.xchg.echo(self.net.clock);
        self.sample_rtt(to, from, echo);
        let (reply, state) = match offer {
            Some(offer) => {
                // The requester's budget and constraints stay on its side.
                let tid = self.net.establish(st, from, to, &offer, 0, Vec::new());
                self.session_tunnels.entry(id).or_default().push(tid);
                (Message::Established { id, tunnel: tid }, RespState::Established)
            }
            None => (Message::Reject { id, reason: RejectReason::BadChoice }, RespState::Closed),
        };
        let xchg = self.open(to, from, reply);
        let sess = self.resp_sessions.get_mut(&id).expect("session exists");
        sess.state = state;
        sess.xchg = xchg;
    }

    /// Requester, step 4: adopt the tunnel (once) and `Ack`. Duplicates
    /// re-`Ack`; an `Established` arriving after we already fell back is
    /// declined with a `Teardown` so the responder's orphan dies fast.
    fn on_established(
        &mut self,
        st: &RoutingState<'_>,
        from: NodeId,
        to: NodeId,
        id: NegotiationId,
        tunnel: TunnelId,
    ) {
        let Some(i) = self.req_index(id, to) else { return };
        match self.req_sessions[i].state {
            ReqState::AwaitEstablished => {}
            ReqState::Done(adopted) if adopted == tunnel => {
                return self.post(to, from, Message::Ack { id });
            }
            // Fallen back already — or a different id for the same session,
            // which can only be a confused responder: decline the stray
            // allocation.
            ReqState::Done(_) | ReqState::Failed => {
                return self.post(to, from, Message::Teardown { tunnel });
            }
            ReqState::AwaitOffers => return, // impossible per causality; ignore
        }
        // Accept→Established is the requester's second RTT echo.
        let echo = self.req_sessions[i].xchg.echo(self.net.clock);
        self.sample_rtt(to, from, echo);
        self.net.adopt(to, from, st.dest(), tunnel);
        let s = &mut self.req_sessions[i];
        s.state = ReqState::Done(tunnel);
        // A successful paced retry closes its origin episode; the session
        // then carries no retry context forward — if this tunnel dies
        // later, that is a fresh episode with a fresh budget.
        if let Some(ctx) = s.retry.take() {
            self.fallbacks[ctx.fallback].recovered_at = Some(self.net.clock);
        }
        self.settle(i, Ok(tunnel));
        self.post(to, from, Message::Ack { id });
    }

    /// Record the terminal outcome of requester session `i`.
    fn settle(&mut self, i: usize, result: Result<TunnelId, FailReason>) {
        let s = &self.req_sessions[i];
        self.outcomes.push(NegotiationOutcome {
            id: s.id,
            requester: s.requester,
            responder: s.responder,
            dest: s.dest,
            result,
            started_at: s.started_at,
            finished_at: self.net.clock,
            retransmits: s.retransmits_total,
        });
    }

    /// The one fall-back path: the requester of session `i` degrades to
    /// its BGP default path. A handshake that never completed settles its
    /// outcome with `reason`; an established session whose tunnel died
    /// (`SessionDied`) already has one. Channel failures are handed to the
    /// pacing machinery for a jittered re-negotiation.
    fn fall_back(&mut self, st: &RoutingState<'_>, i: usize, reason: FailReason) {
        if self.req_sessions[i].in_flight() {
            self.settle(i, Err(reason));
        }
        let s = &mut self.req_sessions[i];
        s.state = ReqState::Failed;
        let retry_ctx = s.retry.take();
        self.fallbacks.push(FallbackEvent {
            id: s.id,
            requester: s.requester,
            dest: s.dest,
            reason,
            default_path: st.path(s.requester).unwrap_or_default(),
            at: self.net.clock,
            recovered_at: None,
            retry_attempts: 0,
            retry_of: retry_ctx.map(|c| c.origin),
        });
        if !reason.is_retryable() {
            return;
        }
        // RFC 6298 §5.7: after enough timeouts to kill a session — or
        // silence long enough to expire soft state — what the estimators
        // learned is likely bogus. Drop both directions so the retry
        // handshake probes from the configured initial RTO.
        self.rtt.remove(&(s.requester, s.responder));
        self.rtt.remove(&(s.responder, s.requester));
        // A failed fresh episode opens a retry budget; a failed retry
        // attempt continues spending its origin's.
        let ctx = retry_ctx.unwrap_or(RetryCtx {
            fallback: self.fallbacks.len() - 1,
            prev_sleep: 0,
            attempts: 0,
            origin: s.id,
        });
        self.schedule_retry(ctx, i);
    }

    /// The tunnel behind an established session died under `local` (peer
    /// teardown or soft-state expiry): if `local` was its requester, fall
    /// back.
    fn session_died(&mut self, st: &RoutingState<'_>, local: NodeId, peer: NodeId, tunnel: TunnelId) {
        let died = self.req_sessions.iter().position(|s| {
            s.requester == local
                && s.responder == peer
                && matches!(s.state, ReqState::Done(t) if t == tunnel)
        });
        if let Some(i) = died {
            self.fall_back(st, i, FailReason::SessionDied);
        }
    }

    /// Queue the next attempt of an episode — a repeat of session
    /// `session`'s request — on the decorrelated-jitter schedule, unless
    /// its budget is spent.
    fn schedule_retry(&mut self, mut ctx: RetryCtx, session: usize) {
        if ctx.attempts >= self.rel.retry_budget {
            return; // budget spent (or pacing disabled): stay on default
        }
        let base = self.rel.retry_base;
        let prev = if ctx.prev_sleep == 0 { base } else { ctx.prev_sleep };
        let hi = prev.saturating_mul(3).min(self.rel.retry_cap).max(base);
        let dice = mix(self.jitter_seed ^ (ctx.origin.0 << 8) ^ u64::from(ctx.attempts));
        let sleep = base + dice % (hi - base + 1);
        ctx.prev_sleep = sleep;
        self.pending_retries.push(PendingRetry { ctx, session, next_at: self.net.clock + sleep });
    }

    /// Launch every paced re-negotiation whose jittered sleep elapsed.
    fn pace_retries(&mut self) {
        let now = self.net.clock;
        let (due, rest): (Vec<PendingRetry>, Vec<PendingRetry>) =
            self.pending_retries.iter().copied().partition(|p| p.next_at <= now);
        self.pending_retries = rest;
        for PendingRetry { mut ctx, session, .. } in due {
            ctx.attempts += 1;
            self.fallbacks[ctx.fallback].retry_attempts = ctx.attempts;
            let s = &self.req_sessions[session];
            let (dest, constraints) = (s.dest, s.constraints.clone());
            self.launch(dest, s.requester, s.responder, constraints, s.max_price, Some(ctx));
        }
    }

    /// Step every live exchange's retransmit timer — a requester awaiting
    /// `Offers` or `Established`, a responder awaiting `Ack` — then send
    /// the resends and fail the requesters that ran out of retries.
    fn run_timers(&mut self, st: &RoutingState<'_>) {
        let (now, rel) = (self.net.clock, self.rel);
        let mut resend: Vec<(NodeId, NodeId, Message)> = Vec::new();
        let mut exhausted: Vec<usize> = Vec::new();
        for (i, s) in self.req_sessions.iter_mut().enumerate().filter(|(_, s)| s.in_flight()) {
            match s.xchg.poll(now, &rel) {
                Timer::Idle => {}
                Timer::Resend => {
                    s.retransmits_total += 1;
                    resend.push((s.requester, s.responder, s.xchg.msg.clone()));
                }
                Timer::Exhausted => exhausted.push(i),
            }
        }
        for s in self.resp_sessions.values_mut().filter(|s| s.state == RespState::Established) {
            match s.xchg.poll(now, &rel) {
                Timer::Idle => {}
                Timer::Resend => resend.push((s.responder, s.requester, s.xchg.msg.clone())),
                // Give up retransmitting; if the requester truly never
                // heard us, its missing keepalives expire the orphan.
                Timer::Exhausted => s.state = RespState::Closed,
            }
        }
        for (from, to, msg) in resend {
            self.post(from, to, msg);
        }
        for i in exhausted {
            let stage = match self.req_sessions[i].state {
                ReqState::AwaitOffers => Stage::Request,
                _ => Stage::Accept,
            };
            self.fall_back(st, i, FailReason::RetriesExhausted(stage));
        }
    }

    /// Symmetric §4.3 heartbeats through the lossy bus: each side of every
    /// live tunnel pings the other; state refreshes only on receipt.
    fn heartbeat(&mut self) {
        let every = self.rel.keepalive_interval;
        if every == 0 || !self.net.clock.is_multiple_of(every) {
            return;
        }
        let pings: Vec<(NodeId, NodeId, TunnelId)> = self
            .net
            .leases
            .iter()
            .flat_map(|l| {
                [(l.upstream, l.downstream, l.id), (l.downstream, l.upstream, l.id)]
            })
            .collect();
        for (from, to, id) in pings {
            // Only ping for tunnels we still hold ourselves.
            if self.net.managers[from as usize].get(to, id).is_some() {
                self.post(from, to, Message::Keepalive { tunnel: id });
            }
        }
    }

    fn expire_soft_state(&mut self, st: &RoutingState<'_>) {
        let now = self.net.clock;
        let timeout = self.rel.keepalive_timeout;
        let mut teardowns: Vec<(NodeId, NodeId, TunnelId)> = Vec::new();
        for (n, m) in self.net.managers.iter_mut().enumerate() {
            // Capture peers before expiry removes the records.
            let before = teardowns.len();
            teardowns.extend(
                m.iter()
                    .filter(|t| now.saturating_sub(t.last_heartbeat) > timeout)
                    .map(|t| (n as NodeId, t.peer, t.id)),
            );
            if teardowns.len() > before {
                m.expire(now, timeout);
            }
        }
        for (from, to, id) in teardowns {
            // Best-effort: hurry the peer along (may itself be lost; the
            // peer's own timer is the backstop).
            self.post(from, to, Message::Teardown { tunnel: id });
            self.net.drop_lease(id, from, to);
            // Expiry on the requester's own side kills its session too.
            self.session_died(st, from, to, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::ResponderConfig;
    use crate::node::MiroNetwork;
    use miro_topology::gen::figure_1_1;

    fn setup() -> (Topology, [NodeId; 6]) {
        figure_1_1()
    }

    fn kinds(log: &[(NodeId, NodeId, Message)]) -> Vec<&'static str> {
        log.iter()
            .map(|(_, _, m)| match m {
                Message::Request { .. } => "request",
                Message::Offers { .. } => "offers",
                Message::Accept { .. } => "accept",
                Message::Established { .. } => "established",
                Message::Ack { .. } => "ack",
                Message::Reject { .. } => "reject",
                Message::Keepalive { .. } => "keepalive",
                Message::Teardown { .. } => "teardown",
            })
            .collect()
    }

    /// On a perfect channel the reliability layer is transparent: same
    /// tunnel, same path, same price as the synchronous harness, and the
    /// transcript is Figure 4.2 plus the closing Ack.
    #[test]
    fn perfect_channel_matches_synchronous_harness() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);

        let mut sync_net = MiroNetwork::new(&t);
        let sync_tid =
            sync_net.negotiate(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let sync_lease = sync_net.leases()[0].clone();

        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 1);
        let id = net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let ticks = net.run_until_settled(&st, 50);
        assert!(ticks <= 6, "perfect channel settles in a handful of ticks: {ticks}");

        assert_eq!(net.outcomes().len(), 1);
        let out = &net.outcomes()[0];
        assert_eq!(out.id, id);
        assert_eq!(out.result, Ok(sync_tid), "same downstream id allocation");
        assert_eq!(out.retransmits, 0, "no retransmissions on a perfect channel");
        let lease = &net.leases()[0];
        assert_eq!(lease.path, sync_lease.path);
        assert_eq!(lease.price, sync_lease.price);
        assert_eq!((lease.upstream, lease.downstream), (a, b));
        assert!(net.tunnels(a).get(b, sync_tid).is_some());
        assert!(net.tunnels(b).get(a, sync_tid).is_some());
        assert_eq!(
            kinds(&net.log)[..5],
            ["request", "offers", "accept", "established", "ack"]
        );
        assert!(net.fallbacks().is_empty());
        assert_eq!(net.double_establish_count(), 0);
        assert_eq!(net.orphan_count(), 0);
    }

    /// Semantic rejections surface the same reasons as the synchronous
    /// harness, now as typed outcomes with a recorded fallback — and are
    /// never fed to the pacing machinery (no schedule fixes policy).
    #[test]
    fn rejections_record_fallback_to_default_path() {
        let (t, [a, b, _c, d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 2);
        *net.config_mut(b) = ResponderConfig { allow: Some(vec![d]), ..Default::default() };
        let id = net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        assert_eq!(
            net.outcomes()[0].result,
            Err(FailReason::Rejected(RejectReason::NotAllowed))
        );
        let fb = &net.fallbacks()[0];
        assert_eq!(fb.id, id);
        assert_eq!(fb.requester, a);
        assert_eq!(
            fb.default_path,
            st.path(a).unwrap(),
            "the requester degrades to its BGP default path"
        );
        assert!(net.leases().is_empty());
        assert_eq!(net.pending_retry_count(), 0, "semantic failures are never retried");
    }

    /// The requester filters on budget too: offers that all cost more
    /// than it will pay end the session with a typed outcome, no `Accept`
    /// is ever sent, and — a policy answer — it is never retried.
    #[test]
    fn budget_too_small_is_none_acceptable() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 5);
        // BCF is a peer route priced at 180; a budget of 150 can't buy it.
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 150).unwrap();
        net.run_until_quiescent(&st, 50);
        assert_eq!(net.outcomes()[0].result, Err(FailReason::NoneAcceptable));
        assert_eq!(kinds(&net.log), ["request", "offers"]);
        assert_eq!(net.fallbacks().len(), 1);
        assert!(net.leases().is_empty() && net.tunnels(b).is_empty());
    }

    /// A channel that eats everything: retries back off, then the
    /// requester gives up and falls back. Nothing is ever established,
    /// and — with no RTT echo ever arriving — Karn keeps the estimator
    /// empty, so the timing is exactly the static initial-RTO ladder.
    #[test]
    fn total_blackout_exhausts_retries_and_falls_back() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig {
            drop_permille: 1000,
            ..FaultConfig::PERFECT
        }, 3);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let ticks = net.run_until_settled(&st, 2_000);
        // 5 retries with doubling backoff from 4: 4+8+16+32+64+128 ticks.
        assert!(ticks < 300, "bounded retries actually bound time: {ticks}");
        assert_eq!(
            net.outcomes()[0].result,
            Err(FailReason::RetriesExhausted(Stage::Request))
        );
        assert_eq!(net.outcomes()[0].retransmits, 5);
        assert_eq!(net.fallbacks().len(), 1);
        assert_eq!(net.rto_snapshot().samples, 0, "Karn: no echo, no sample");
        assert!(net.leases().is_empty());
        assert!(net.tunnels(a).is_empty() && net.tunnels(b).is_empty());
        assert_eq!(net.pending_retry_count(), 1, "the episode queued a paced retry");
    }

    /// Moderate loss: retransmits push the handshake through.
    #[test]
    fn lossy_channel_succeeds_via_retransmit() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut ok = 0;
        for seed in 0..50u64 {
            let mut net = ReliableNet::new(&t, FaultConfig::lossy(100, 50, 100), seed);
            net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
            net.run_until_settled(&st, 2_000);
            assert_eq!(net.double_establish_count(), 0, "seed {seed}");
            match net.outcomes()[0].result {
                Ok(tid) => {
                    ok += 1;
                    assert!(net.tunnels(a).get(b, tid).is_some(), "seed {seed}");
                    assert!(net.tunnels(b).get(a, tid).is_some(), "seed {seed}");
                }
                Err(_) => {
                    assert_eq!(net.fallbacks().len(), 1, "failure recorded: seed {seed}");
                }
            }
        }
        assert!(ok >= 48, "10% loss overwhelmingly succeeds via retransmit: {ok}/50");
    }

    /// Every message duplicated: exactly one tunnel, tables agree, and the
    /// sequence layer (not luck) absorbed the copies.
    #[test]
    fn full_duplication_never_double_establishes() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig {
            dup_permille: 1000,
            delay_min: 0,
            delay_max: 2,
            ..FaultConfig::PERFECT
        }, 7);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 500);
        assert!(net.outcomes()[0].result.is_ok());
        assert_eq!(net.leases().len(), 1);
        assert_eq!(net.double_establish_count(), 0);
        assert_eq!(net.tunnels(a).len(), 1);
        assert_eq!(net.tunnels(b).len(), 1);
        assert!(net.duplicates_suppressed > 0, "the sequence layer did real work");
    }

    /// §4.3 under real loss: a tunnel survives transient keepalive loss
    /// (timeout > interval), and expires cleanly on both sides — ledger
    /// included — under a sustained outage.
    #[test]
    fn keepalive_soft_state_survives_transient_loss_and_expires_under_outage() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::lossy(100, 0, 100), 11);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 2_000);
        let tid = net.outcomes()[0].result.expect("established");
        // 10% keepalive loss for 200 ticks: with timeout 35 and interval
        // 10, expiry needs ~3 consecutive losses on a side — survives.
        for _ in 0..200 {
            net.tick(&st);
        }
        assert_eq!(net.leases().len(), 1, "tunnel survives transient loss");
        assert!(net.tunnels(a).get(b, tid).is_some());
        assert!(net.tunnels(b).get(a, tid).is_some());
        // Total outage: both sides expire their soft state. (Paced
        // re-negotiations launch but die against the same blackout.)
        net.set_fault(FaultConfig { drop_permille: 1000, ..FaultConfig::PERFECT });
        for _ in 0..100 {
            net.tick(&st);
        }
        assert!(net.leases().is_empty(), "ledger reaped");
        assert!(net.tunnels(a).get(b, tid).is_none(), "upstream expired");
        assert!(net.tunnels(b).get(a, tid).is_none(), "downstream expired");
        let died: Vec<_> = net
            .fallbacks()
            .iter()
            .filter(|f| f.reason == FailReason::SessionDied)
            .collect();
        assert_eq!(died.len(), 1, "the death was recorded as a fallback episode");
        assert_eq!(died[0].recovered_at, None, "nothing recovers under blackout");
    }

    /// A late `Established` after the requester already fell back is
    /// declined with a `Teardown`: no half-open tunnel survives. Pacing is
    /// disabled so the cleanup window stays quiet.
    #[test]
    fn late_established_after_fallback_is_torn_down() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        // Fast-exhausting requester so the race is easy to hit: one retry,
        // 1-tick initial RTO, no paced re-negotiation.
        let rel = ReliabilityConfig {
            rto_initial: 1,
            rto_min: 1,
            max_retries: 1,
            retry_budget: 0,
            ..Default::default()
        };
        let mut hit = false;
        for seed in 0..200u64 {
            let mut net = ReliableNet::try_with_reliability(
                &t,
                FaultConfig { drop_permille: 450, delay_min: 0, delay_max: 4, dup_permille: 0, reorder_permille: 0 },
                seed,
                rel,
            )
            .unwrap();
            net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
            net.run_until_settled(&st, 400);
            let failed = net.outcomes()[0].result.is_err();
            let responder_established = !net.tunnels(b).is_empty() || !net
                .tunnels(b)
                .torn_down
                .is_empty();
            if failed && responder_established {
                hit = true;
                // Let teardown / soft-state expiry finish the cleanup.
                for _ in 0..80 {
                    net.tick(&st);
                }
                assert!(net.tunnels(a).is_empty(), "seed {seed}: requester clean");
                assert!(net.tunnels(b).is_empty(), "seed {seed}: orphan reaped");
                assert!(net.leases().is_empty(), "seed {seed}: ledger clean");
                assert_eq!(net.orphan_count(), 0, "seed {seed}");
            }
        }
        assert!(hit, "the fallback-vs-established race was actually exercised");
    }

    /// Self-negotiation is refused exactly like the synchronous harness.
    #[test]
    fn self_negotiation_refused() {
        let (t, [a, b, ..]) = setup();
        let st = RoutingState::solve(&t, a);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 0);
        for responder in [a, b] {
            assert_eq!(
                net.start(&st, a, responder, vec![], 100),
                Err(NegotiationError::SelfNegotiation),
                "`a` is the destination: no alternate toward itself either"
            );
        }
    }

    /// An id past the topology is refused at `start` — it used to reach the
    /// bus and index `seen[to]` out of bounds on delivery.
    #[test]
    fn unknown_node_refused() {
        let (t, [a, ..]) = setup();
        let st = RoutingState::solve(&t, a);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 0);
        let ghost = t.num_nodes() as NodeId;
        for (req, resp) in [(a, ghost), (ghost, a)] {
            assert_eq!(
                net.start(&st, req, resp, vec![], 100),
                Err(NegotiationError::UnknownNode(ghost))
            );
        }
        net.tick(&st);
        assert!(net.log.is_empty() && net.quiescent());
    }

    /// Construction-time validation rejects degenerate knobs with typed
    /// errors instead of latent misbehaviour.
    #[test]
    fn config_validation_rejects_nonsense() {
        let (t, _) = setup();
        let bad = |rel: ReliabilityConfig| {
            ReliableNet::try_with_reliability(&t, FaultConfig::PERFECT, 0, rel).err().unwrap()
        };
        assert_eq!(
            bad(ReliabilityConfig { max_retries: 0, ..Default::default() }),
            ConfigError::ZeroMaxRetries
        );
        assert_eq!(
            bad(ReliabilityConfig { rto_initial: 0, ..Default::default() }),
            ConfigError::ZeroInitialRto
        );
        assert_eq!(
            bad(ReliabilityConfig { rto_min: 9, rto_max: 3, ..Default::default() }),
            ConfigError::RtoRange { min: 9, max: 3 }
        );
        assert_eq!(
            bad(ReliabilityConfig {
                keepalive_interval: 10,
                keepalive_timeout: 10,
                ..Default::default()
            }),
            ConfigError::KeepaliveTimeout { interval: 10, timeout: 10 }
        );
        assert_eq!(
            bad(ReliabilityConfig { retry_base: 0, ..Default::default() }),
            ConfigError::RetryRange { base: 0, cap: 256 }
        );
        assert_eq!(
            bad(ReliabilityConfig { retry_base: 64, retry_cap: 8, ..Default::default() }),
            ConfigError::RetryRange { base: 64, cap: 8 }
        );
        // Invalid FaultConfig also surfaces through the same constructor.
        assert_eq!(
            ReliableNet::try_with_reliability(
                &t,
                FaultConfig { drop_permille: 1500, ..FaultConfig::PERFECT },
                0,
                ReliabilityConfig::default(),
            )
            .err()
            .unwrap(),
            ConfigError::PermilleOutOfRange { knob: "drop_permille", value: 1500 }
        );
    }

    /// Handshake echoes feed the per-peer estimators; on a short-RTT
    /// channel the learned RTO undercuts the static initial value.
    #[test]
    fn adaptive_rto_learns_the_channel() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 13);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        let snap = net.rto_snapshot();
        assert!(snap.peers >= 2, "both directions sampled: {}", snap.peers);
        assert!(snap.samples >= 3, "3 echoes in one clean handshake: {}", snap.samples);
        assert!(
            (snap.srtt_mean - 2.0).abs() < 1e-6,
            "perfect channel: one tick each way, srtt {}",
            snap.srtt_mean
        );
        // First sample R=2: RTO = 2 + 4·1 = 6; the second tightens it.
        // Either way the timer now reflects the measured channel, bounded
        // well under the doubling ladder's reach.
        assert!(
            snap.rto_mean >= 2.0 && snap.rto_mean <= 6.0,
            "learned RTO tracks the 2-tick RTT: {}",
            snap.rto_mean
        );
        assert!(snap.rto_peak <= 6, "peak stays near the measurement: {}", snap.rto_peak);
    }

    /// StaticLadder mode never samples: the A/B baseline really is the
    /// legacy fixed ladder.
    #[test]
    fn static_ladder_mode_disables_estimation() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let rel = ReliabilityConfig { rto_mode: RtoMode::StaticLadder, ..Default::default() };
        let mut net =
            ReliableNet::try_with_reliability(&t, FaultConfig::PERFECT, 13, rel).unwrap();
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        assert_eq!(net.rto_snapshot().samples, 0);
        assert!(net.outcomes()[0].result.is_ok());
    }

    /// A scheduled outage long enough to expire the soft state: the
    /// session dies, the paced re-negotiation machinery retries through
    /// the healed channel, and the original episode records its recovery.
    #[test]
    fn paced_retry_recovers_after_scheduled_outage() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 17);
        net.schedule_outage(10, 70).unwrap();
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        let first_tid = net.outcomes()[0].result.expect("establishes before the outage");
        // Drive time through the outage window (the net is quiescent until
        // the missing keepalives kill the session), then drain recovery.
        while net.clock < 75 {
            net.tick(&st);
        }
        let ticks = net.run_until_quiescent(&st, 2_000);
        assert!(ticks < 2_000, "recovery quiesces well inside the budget");
        // The outage (60 ticks > keepalive_timeout 35) killed the tunnel…
        assert!(net.tunnels(a).get(b, first_tid).is_none());
        let origin: Vec<_> = net
            .fallbacks()
            .iter()
            .filter(|fb| fb.retry_of.is_none() && fb.reason == FailReason::SessionDied)
            .collect();
        assert_eq!(origin.len(), 1, "exactly one fresh outage episode");
        // …and a paced retry brought service back on the original record.
        assert!(origin[0].recovered_at.is_some(), "episode recovered: {:?}", origin[0]);
        assert!(origin[0].retry_attempts >= 1);
        let new_tid = net
            .outcomes()
            .iter()
            .rev()
            .find_map(|o| o.result.ok())
            .expect("a retry re-established");
        assert_ne!(new_tid, first_tid, "fresh allocation, no id reuse");
        assert!(net.tunnels(a).get(b, new_tid).is_some());
        assert!(net.tunnels(b).get(a, new_tid).is_some());
        assert_eq!(net.leases().len(), 1);
        assert_eq!(net.orphan_count(), 0);
        assert_eq!(net.double_establish_count(), 0);
    }

    /// Under a permanent blackout the retry budget bounds the pacing
    /// machinery: a fixed number of attempts, then quiescence on the
    /// default path, with the episode left unrecovered.
    #[test]
    fn retry_budget_bounds_give_up_under_permanent_outage() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let rel = ReliabilityConfig {
            rto_initial: 1,
            rto_min: 1,
            max_retries: 2,
            retry_base: 4,
            retry_cap: 8,
            retry_budget: 2,
            ..Default::default()
        };
        let mut net =
            ReliableNet::try_with_reliability(&t, FaultConfig::PERFECT, 23, rel).unwrap();
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        net.outcomes()[0].result.expect("establishes before the blackout");
        net.set_fault(FaultConfig { drop_permille: 1000, ..FaultConfig::PERFECT });
        // Tick until the keepalive silence kills the session, then drain.
        while net.fallbacks().is_empty() && net.clock < 200 {
            net.tick(&st);
        }
        assert!(!net.fallbacks().is_empty(), "the blackout killed the session");
        let ticks = net.run_until_quiescent(&st, 2_000);
        assert!(ticks < 2_000, "the budget actually bounds the machinery: {ticks}");
        assert_eq!(net.pending_retry_count(), 0, "gave up for good");
        let origin: Vec<_> =
            net.fallbacks().iter().filter(|fb| fb.retry_of.is_none()).collect();
        assert_eq!(origin.len(), 1);
        assert_eq!(origin[0].reason, FailReason::SessionDied);
        assert_eq!(origin[0].retry_attempts, 2, "exactly the budget was spent");
        assert_eq!(origin[0].recovered_at, None);
        let chained: Vec<_> =
            net.fallbacks().iter().filter(|fb| fb.retry_of.is_some()).collect();
        assert_eq!(chained.len(), 2, "each failed attempt left a chained record");
        assert!(chained
            .iter()
            .all(|fb| fb.retry_of == Some(origin[0].id)
                && fb.reason == FailReason::RetriesExhausted(Stage::Request)));
    }

    /// Responder crash-restart: the requester detects the death via the
    /// keepalive/Teardown fast path, re-negotiates through pacing, and the
    /// restarted responder allocates a *fresh* id (boot-epoch allocator).
    #[test]
    fn crash_restart_renegotiates_with_fresh_id() {
        let (t, [a, b, _c, _d, e, f]) = setup();
        let st = RoutingState::solve(&t, f);
        let mut net = ReliableNet::new(&t, FaultConfig::PERFECT, 29);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.run_until_settled(&st, 50);
        let first_tid = net.outcomes()[0].result.expect("established");
        let lost = net.crash_restart(b);
        assert_eq!(lost, vec![first_tid], "the responder lost its only tunnel");
        assert!(net.tunnels(b).is_empty());
        assert!(net.tunnels(a).get(b, first_tid).is_some(), "requester still believes");
        // Tick until the keepalive/Teardown exchange surfaces the death,
        // then drain the paced recovery.
        while net.fallbacks().is_empty() && net.clock < 100 {
            net.tick(&st);
        }
        assert!(!net.fallbacks().is_empty(), "the crash was detected");
        let ticks = net.run_until_quiescent(&st, 2_000);
        assert!(ticks < 2_000);
        // Death detection beat the 35-tick soft-state timeout: the next
        // keepalive (≤10 ticks out) was answered with Teardown.
        let origin: Vec<_> = net
            .fallbacks()
            .iter()
            .filter(|fb| fb.retry_of.is_none() && fb.reason == FailReason::SessionDied)
            .collect();
        assert_eq!(origin.len(), 1);
        assert!(
            origin[0].at <= net.outcomes()[0].finished_at + net.rel.keepalive_interval + 2,
            "keepalive/Teardown detected the crash within one heartbeat round: {}",
            origin[0].at
        );
        assert!(origin[0].recovered_at.is_some(), "re-negotiation healed it");
        let new_tid = net
            .outcomes()
            .iter()
            .rev()
            .find_map(|o| o.result.ok())
            .expect("re-established");
        assert_ne!(new_tid, first_tid, "restart never re-issues a pre-crash id");
        assert!(net.tunnels(a).get(b, first_tid).is_none(), "stale tunnel torn down");
        assert!(net.tunnels(a).get(b, new_tid).is_some());
        assert!(net.tunnels(b).get(a, new_tid).is_some());
        assert_eq!(net.leases().len(), 1, "ledger reflects exactly the new tunnel");
        assert_eq!(net.orphan_count(), 0, "zero orphans at quiescence");
    }
}
