//! A deterministic unreliable message channel — the repo's one seeded
//! fault injector.
//!
//! MIRO's §4.3 soft-state machinery (retransmits, keepalives, idle-tunnel
//! expiry) only means something if the control channel can actually lose,
//! duplicate, reorder, and delay messages. [`FaultyChannel`] is that
//! channel, generic over the message type; what it carries in this tree
//! is the typed Figure-4.2 negotiation messages.
//!
//! Faults are rolled from seeded per-mille dice, and delivery runs on the
//! same virtual clock as the rest of the control plane, so every
//! experiment is exactly reproducible: same seed, same knobs, same
//! schedule of drops and duplicates. The dice are keyed per directed
//! (from, to) pair — "fault lanes" — so one flow's retransmission
//! behavior never perturbs another flow's loss pattern, and comparative
//! experiments over the same seed stay comparable.

use crate::config::ConfigError;
use miro_topology::NodeId;
use std::collections::BTreeMap;

/// Finalizer of the splitmix64 generator — one well-mixed word per input.
pub(crate) fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fault dice for one transmission: a short hash chain keyed purely by
/// (channel seed, from, to, nth send on that directed pair). Two runs
/// that send the same nth message on a pair get the same fate for it,
/// whatever any *other* pair did in between — fault lanes are isolated,
/// so comparative experiments (e.g. RTO policies) are not coupled
/// through a shared RNG stream.
struct Dice(u64);

impl Dice {
    fn new(seed: u64, from: NodeId, to: NodeId, nth: u64) -> Dice {
        let pair = (u64::from(from) << 32) | u64::from(to);
        Dice(mix(mix(seed ^ pair) ^ nth))
    }

    fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    fn roll(&mut self, permille: u32) -> bool {
        permille > 0 && self.next() % 1000 < u64::from(permille)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// Fault knobs, all probabilities in 1/1000 so configurations are exact
/// integers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Probability a sent message is silently discarded.
    pub drop_permille: u32,
    /// Probability a surviving message is delivered twice (the copy gets
    /// an independently drawn delay, so duplicates typically arrive apart
    /// and often out of order).
    pub dup_permille: u32,
    /// Probability a surviving message is held back an extra 1–3 ticks on
    /// top of its base delay, landing after messages sent later.
    pub reorder_permille: u32,
    /// Base delivery delay, drawn uniformly from `delay_min..=delay_max`
    /// ticks per transmission.
    pub delay_min: u64,
    pub delay_max: u64,
}

impl FaultConfig {
    /// The perfect channel: instant, exactly-once, in-order delivery.
    /// A reliability layer running over this must behave exactly like the
    /// synchronous harness it replaces.
    pub const PERFECT: FaultConfig = FaultConfig {
        drop_permille: 0,
        dup_permille: 0,
        reorder_permille: 0,
        delay_min: 0,
        delay_max: 0,
    };

    /// A lossy channel with the given drop/duplicate/reorder rates and a
    /// small (0–2 tick) base delay jitter.
    pub fn lossy(drop_permille: u32, dup_permille: u32, reorder_permille: u32) -> FaultConfig {
        FaultConfig {
            drop_permille,
            dup_permille,
            reorder_permille,
            delay_min: 0,
            delay_max: 2,
        }
    }

    /// Construction-time validation: per-mille knobs must fit in 0..=1000
    /// and the delay range must be non-empty. Returns a typed error so
    /// callers can reject bad configs instead of silently misbehaving.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (knob, value) in [
            ("drop_permille", self.drop_permille),
            ("dup_permille", self.dup_permille),
            ("reorder_permille", self.reorder_permille),
        ] {
            if value > 1000 {
                return Err(ConfigError::PermilleOutOfRange { knob, value });
            }
        }
        if self.delay_min > self.delay_max {
            return Err(ConfigError::DelayRange { min: self.delay_min, max: self.delay_max });
        }
        Ok(())
    }
}

/// A message in flight or delivered: who sent it, to whom, and the payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<T> {
    pub from: NodeId,
    pub to: NodeId,
    pub msg: T,
}

/// What the channel did with every transmission so far. The accounting
/// invariant is `sent + duplicated == delivered + dropped + in_flight`:
/// every enqueued copy (original or duplicate) is eventually either
/// delivered or was dropped at send time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages handed to [`FaultyChannel::send`].
    pub sent: usize,
    /// Envelopes returned by [`FaultyChannel::deliver_due`].
    pub delivered: usize,
    /// Messages discarded at send time.
    pub dropped: usize,
    /// Extra copies enqueued by the duplication fault.
    pub duplicated: usize,
    /// Messages that took the reorder (extra-delay) path.
    pub reordered: usize,
    /// Of the dropped messages, how many fell inside a scheduled outage
    /// window (counted in `dropped` too — the accounting invariant is
    /// unchanged).
    pub outage_dropped: usize,
}

struct InFlight<T> {
    deliver_at: u64,
    /// Enqueue order; tie-break so equal-tick deliveries are stable.
    order: u64,
    env: Envelope<T>,
}

/// The unreliable channel itself. All sends and deliveries run on a
/// caller-supplied virtual clock; the channel never blocks.
pub struct FaultyChannel<T> {
    seed: u64,
    /// Sends so far per directed pair — the per-lane dice index.
    lane_sent: BTreeMap<(NodeId, NodeId), u64>,
    cfg: FaultConfig,
    queue: Vec<InFlight<T>>,
    order: u64,
    /// Scheduled total-loss windows as half-open `start..end` tick ranges:
    /// every send whose `now` falls inside one is dropped, whatever the
    /// per-mille knobs say. Messages already in flight keep their
    /// delivery schedule (the outage models a severed link, not a purge
    /// of the speed-of-light pipe).
    outages: Vec<(u64, u64)>,
    pub stats: ChannelStats,
}

impl<T: Clone> FaultyChannel<T> {
    /// Like [`FaultyChannel::try_new`] but panics on an invalid config —
    /// the convenient constructor for tests and static configurations.
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultyChannel<T> {
        Self::try_new(seed, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct with validation: an invalid [`FaultConfig`] is a typed
    /// error, never a silently misbehaving channel.
    pub fn try_new(seed: u64, cfg: FaultConfig) -> Result<FaultyChannel<T>, ConfigError> {
        cfg.validate()?;
        Ok(FaultyChannel {
            seed,
            lane_sent: BTreeMap::new(),
            cfg,
            queue: Vec::new(),
            order: 0,
            outages: Vec::new(),
            stats: ChannelStats::default(),
        })
    }

    /// Swap the fault configuration mid-run (e.g. to model an outage
    /// starting after tunnels are established). In-flight messages keep
    /// their already-drawn delivery times.
    pub fn set_fault(&mut self, cfg: FaultConfig) {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        self.cfg = cfg;
    }

    /// Schedule a total outage for the half-open tick range `start..end`:
    /// during it every send is dropped (100% loss), after it the
    /// configured fault knobs apply again automatically. Windows may
    /// overlap; each is validated to be non-empty.
    pub fn schedule_outage(&mut self, start: u64, end: u64) -> Result<(), ConfigError> {
        if end <= start {
            return Err(ConfigError::EmptyOutage { start, end });
        }
        self.outages.push((start, end));
        Ok(())
    }

    /// Is `now` inside a scheduled outage window?
    pub fn in_outage(&self, now: u64) -> bool {
        self.outages.iter().any(|&(s, e)| s <= now && now < e)
    }

    pub fn fault(&self) -> FaultConfig {
        self.cfg
    }

    fn enqueue(&mut self, deliver_at: u64, env: Envelope<T>) {
        let order = self.order;
        self.order += 1;
        self.queue.push(InFlight { deliver_at, order, env });
    }

    /// Transmit one message at virtual time `now`. The message is dropped,
    /// delayed, duplicated, and/or reordered per the configured knobs;
    /// surviving copies become visible to [`FaultyChannel::deliver_due`]
    /// once the clock reaches their delivery tick.
    pub fn send(&mut self, now: u64, from: NodeId, to: NodeId, msg: T) {
        self.stats.sent += 1;
        if self.in_outage(now) {
            self.stats.dropped += 1;
            self.stats.outage_dropped += 1;
            return;
        }
        let nth = self.lane_sent.entry((from, to)).or_insert(0);
        let mut dice = Dice::new(self.seed, from, to, *nth);
        *nth += 1;
        if dice.roll(self.cfg.drop_permille) {
            self.stats.dropped += 1;
            return;
        }
        let base = dice.range(self.cfg.delay_min, self.cfg.delay_max);
        let extra = if dice.roll(self.cfg.reorder_permille) {
            self.stats.reordered += 1;
            // At least one extra tick so the message genuinely lands after
            // traffic sent at the same instant, even with zero base delay.
            dice.range(1, 3)
        } else {
            0
        };
        let env = Envelope { from, to, msg };
        if dice.roll(self.cfg.dup_permille) {
            self.stats.duplicated += 1;
            let dup_delay = dice.range(self.cfg.delay_min, self.cfg.delay_max + 3);
            self.enqueue(now + dup_delay, env.clone());
        }
        self.enqueue(now + base + extra, env);
    }

    /// Drain every message whose delivery tick has arrived, ordered by
    /// (delivery tick, enqueue order). With [`FaultConfig::PERFECT`] this
    /// returns sends in exactly the order they were made.
    pub fn deliver_due(&mut self, now: u64) -> Vec<Envelope<T>> {
        let mut due: Vec<InFlight<T>> = Vec::new();
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].deliver_at <= now {
                due.push(self.queue.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|m| (m.deliver_at, m.order));
        self.stats.delivered += due.len();
        due.into_iter().map(|m| m.env).collect()
    }

    /// Copies enqueued but not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// True when nothing is waiting for delivery.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(ch: &mut FaultyChannel<u32>, until: u64) -> Vec<u32> {
        let mut got = Vec::new();
        for t in 0..=until {
            got.extend(ch.deliver_due(t).into_iter().map(|e| e.msg));
        }
        got
    }

    #[test]
    fn perfect_channel_is_instant_exactly_once_in_order() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(1, FaultConfig::PERFECT);
        for m in 0..50 {
            ch.send(0, 1, 2, m);
        }
        let got: Vec<u32> = ch.deliver_due(0).into_iter().map(|e| e.msg).collect();
        assert_eq!(got, (0..50).collect::<Vec<u32>>());
        assert!(ch.is_idle());
        assert_eq!(ch.stats.sent, 50);
        assert_eq!(ch.stats.delivered, 50);
        assert_eq!(ch.stats.dropped + ch.stats.duplicated + ch.stats.reordered, 0);
    }

    #[test]
    fn drop_rate_is_roughly_honored_and_accounted() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(2, FaultConfig::lossy(200, 0, 0));
        for m in 0..2000 {
            ch.send(0, 1, 2, m);
        }
        let rate = ch.stats.dropped as f64 / 2000.0;
        assert!((0.15..0.25).contains(&rate), "drop rate {rate}");
        let got = drain_all(&mut ch, 10);
        assert_eq!(got.len(), 2000 - ch.stats.dropped);
        assert_eq!(
            ch.stats.sent + ch.stats.duplicated,
            ch.stats.delivered + ch.stats.dropped
        );
    }

    #[test]
    fn duplicates_arrive_twice() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(3, FaultConfig {
            dup_permille: 1000,
            ..FaultConfig::PERFECT
        });
        ch.send(0, 1, 2, 7);
        let got = drain_all(&mut ch, 10);
        assert_eq!(got, vec![7, 7]);
        assert_eq!(ch.stats.duplicated, 1);
    }

    #[test]
    fn reordering_actually_reorders() {
        // Every message gets the extra-delay path with zero base delay: a
        // message sent at t and one sent at t+3 can swap.
        let cfg = FaultConfig {
            reorder_permille: 500,
            ..FaultConfig::PERFECT
        };
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(4, cfg);
        for m in 0..200u32 {
            ch.send(u64::from(m), 1, 2, m);
        }
        let got = drain_all(&mut ch, 300);
        assert_eq!(got.len(), 200, "nothing lost");
        assert!(got.windows(2).any(|w| w[0] > w[1]), "some inversion observed");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<u32>>());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = FaultConfig::lossy(300, 200, 200);
        let mut a: FaultyChannel<u32> = FaultyChannel::new(9, cfg);
        let mut b: FaultyChannel<u32> = FaultyChannel::new(9, cfg);
        for m in 0..200 {
            a.send(u64::from(m % 17), 1, 2, m);
            b.send(u64::from(m % 17), 1, 2, m);
        }
        for t in 0..40 {
            assert_eq!(a.deliver_due(t), b.deliver_due(t));
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn fault_lanes_are_isolated_per_pair() {
        // The fate of pair (1,2)'s messages must not depend on how much
        // traffic OTHER pairs pushed through the same channel.
        let cfg = FaultConfig::lossy(300, 200, 200);
        let mut quiet: FaultyChannel<u32> = FaultyChannel::new(11, cfg);
        let mut noisy: FaultyChannel<u32> = FaultyChannel::new(11, cfg);
        for m in 0..100 {
            for other in 3..8 {
                noisy.send(0, other, other + 1, 9000 + m); // interleaved bystander traffic
            }
            quiet.send(0, 1, 2, m);
            noisy.send(0, 1, 2, m);
        }
        let from_pair = |ch: &mut FaultyChannel<u32>| -> Vec<(u64, u32)> {
            let mut got = Vec::new();
            for t in 0..40 {
                got.extend(
                    ch.deliver_due(t)
                        .into_iter()
                        .filter(|e| e.from == 1)
                        .map(|e| (t, e.msg)),
                );
            }
            got
        };
        assert_eq!(from_pair(&mut quiet), from_pair(&mut noisy));
    }

    #[test]
    fn mid_run_fault_swap_applies_to_new_sends_only() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(5, FaultConfig {
            delay_min: 5,
            delay_max: 5,
            ..FaultConfig::PERFECT
        });
        ch.send(0, 1, 2, 1);
        ch.set_fault(FaultConfig { drop_permille: 1000, ..FaultConfig::PERFECT });
        ch.send(0, 1, 2, 2); // dropped under the new config
        let got = drain_all(&mut ch, 10);
        assert_eq!(got, vec![1], "in-flight message kept its schedule");
        assert_eq!(ch.stats.dropped, 1);
    }

    #[test]
    #[should_panic(expected = "per-mille")]
    fn out_of_range_knobs_are_rejected() {
        let _: FaultyChannel<u32> =
            FaultyChannel::new(0, FaultConfig { drop_permille: 1001, ..FaultConfig::PERFECT });
    }

    #[test]
    fn validation_errors_are_typed() {
        use crate::config::ConfigError;
        let bad = FaultConfig { dup_permille: 1500, ..FaultConfig::PERFECT };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::PermilleOutOfRange { knob: "dup_permille", value: 1500 })
        );
        let bad = FaultConfig { delay_min: 5, delay_max: 2, ..FaultConfig::PERFECT };
        assert_eq!(bad.validate(), Err(ConfigError::DelayRange { min: 5, max: 2 }));
        assert!(FaultyChannel::<u32>::try_new(0, bad).is_err());
        assert!(FaultConfig::PERFECT.validate().is_ok());
    }

    #[test]
    fn outage_window_blacks_out_sends_then_heals() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(6, FaultConfig::PERFECT);
        ch.schedule_outage(10, 20).unwrap();
        ch.send(5, 1, 2, 1); // before the window: delivered
        ch.send(10, 1, 2, 2); // first tick of the window: dropped
        ch.send(19, 1, 2, 3); // last tick of the window: dropped
        ch.send(20, 1, 2, 4); // window over: delivered
        let got = drain_all(&mut ch, 30);
        assert_eq!(got, vec![1, 4]);
        assert_eq!(ch.stats.outage_dropped, 2);
        assert_eq!(ch.stats.dropped, 2);
        assert_eq!(
            ch.stats.sent + ch.stats.duplicated,
            ch.stats.delivered + ch.stats.dropped,
            "accounting invariant holds through outages"
        );
    }

    #[test]
    fn outage_spares_messages_already_in_flight() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(7, FaultConfig {
            delay_min: 5,
            delay_max: 5,
            ..FaultConfig::PERFECT
        });
        ch.send(0, 1, 2, 9); // delivery at t=5, inside the window below
        ch.schedule_outage(1, 10).unwrap();
        let got = drain_all(&mut ch, 10);
        assert_eq!(got, vec![9], "the severed link does not purge the pipe");
    }

    #[test]
    fn empty_outage_window_is_rejected() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(8, FaultConfig::PERFECT);
        assert!(ch.schedule_outage(7, 7).is_err());
        assert!(ch.schedule_outage(9, 3).is_err());
    }
}
