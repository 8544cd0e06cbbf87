//! `churn_flap`: restoration-heavy delta use of `bgp.multi`.
//!
//! A generated churn trace goes through its on-disk codec, then every
//! co-temporal batch is applied to four persistent `MultiFailState`
//! engines (the four highest-degree destinations, as
//! `churn::replay_delta` picks them), timed per batch. One replay of the
//! whole trace is one round; rounds start from fresh engines, so every
//! round is the same fixed work. Single thread.

use crate::ctx::{timed, top_degree, Ctx, Inputs, Layers, Measured, Workload, DATASET_SEED};
use crate::keys::Rng;
use crate::procfs::{self, Who};
use crate::trace::Tracer;
use miro_bgp::solver::multi::{ApplyStats, LinkEvent, MultiFailState};
use miro_bgp::solver::{DeltaScratch, SolveScratch};
use miro_churn::{generate, replay_delta, BatchMode, EventKind, GenConfig, Trace};
use miro_topology::{AsId, NodeId, Topology};
use std::time::Instant;

/// Engines, i.e. tracked destinations.
const ENGINES: usize = 4;

pub struct ChurnFlap {
    inputs: Inputs,
    trace: Trace,
    dests: Vec<NodeId>,
    /// Link events per co-temporal batch, as node ids, and the failed
    /// set they net out to.
    batches: Vec<Vec<LinkEvent>>,
    net: Vec<(NodeId, NodeId)>,
    /// Trace events of any kind, the numerator of `ops_per_s`.
    events: u64,
    /// Per-`apply` `(seconds, stats)` of the last traced pass.
    applies: Vec<(f64, ApplyStats)>,
    base_solve_s: f64,
}

/// Give the events new arrival times from `seed`, keeping their order:
/// which links flap is part of the dataset (it decides how many
/// restorations hit a tracked routing tree, and with four flappers and
/// four trees that is a lottery worth 10x in events/s between seeds),
/// when they arrive is traffic. Any grouping of one event sequence into
/// co-temporal batches must yield the same tables, which the oracle
/// checks.
fn retime(trace: &mut Trace, seed: u64, cfg: &GenConfig) {
    let mut rng = Rng::new(seed);
    let mut now = 0u64;
    for (i, e) in trace.events.iter_mut().enumerate() {
        let burst = (rng.next() >> 11) as f64 / (1u64 << 53) as f64 <= cfg.burst_fraction;
        if i > 0 && !burst {
            now += 1 + rng.below(2 * cfg.mean_gap_ms as usize) as u64;
        }
        e.at_ms = now;
    }
}

/// The trace's batches with ASNs resolved; origin events and unknown
/// ASes carry no link work and are dropped, as `replay_delta` does.
fn link_batches(topo: &Topology, trace: &Trace) -> Vec<Vec<LinkEvent>> {
    trace
        .batches()
        .map(|batch| {
            batch
                .iter()
                .filter_map(|e| {
                    let (a, b, down) = match e.kind {
                        EventKind::LinkDown(a, b) => (a, b, true),
                        EventKind::LinkUp(a, b) => (a, b, false),
                        EventKind::Withdraw(_) | EventKind::Announce(_) => return None,
                    };
                    let (x, y) = (topo.node(AsId(a))?, topo.node(AsId(b))?);
                    Some(if down {
                        LinkEvent::Down(x, y)
                    } else {
                        LinkEvent::Up(x, y)
                    })
                })
                .collect()
        })
        .collect()
}

/// The combined digest `replay_delta` reports over its engines.
pub fn combined_fnv(engines: &[MultiFailState<'_>]) -> u64 {
    engines.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, e| {
        (h ^ e.table_fnv()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The links left down after every batch, worked out from the events
/// alone: last state per link wins, links the topology lacks are noise.
/// Sorted and low-high normalised, as `MultiFailState::failed_links` is.
pub fn net_failures(topo: &Topology, batches: &[Vec<LinkEvent>]) -> Vec<(NodeId, NodeId)> {
    let mut down = std::collections::BTreeMap::new();
    for ev in batches.iter().flatten() {
        let (a, b, is_down) = match *ev {
            LinkEvent::Down(a, b) => (a, b, true),
            LinkEvent::Up(a, b) => (a, b, false),
        };
        if a != b && topo.rel(a, b).is_some() {
            down.insert((a.min(b), a.max(b)), is_down);
        }
    }
    down.into_iter()
        .filter_map(|(link, is_down)| is_down.then_some(link))
        .collect()
}

/// Oracle: engines that replayed the trace batch by batch must hold the
/// failed set the events net out to, and the tables fresh engines reach
/// when given only that set, as one batch.
pub fn agrees_with_net_failures(
    topo: &Topology,
    replayed: &[MultiFailState<'_>],
    net: &[(NodeId, NodeId)],
) -> bool {
    let mut solve = SolveScratch::new();
    let mut delta = DeltaScratch::new();
    let as_batch: Vec<LinkEvent> = net.iter().map(|&(a, b)| LinkEvent::Down(a, b)).collect();
    let fresh: Vec<MultiFailState<'_>> = replayed
        .iter()
        .map(|e| {
            let mut f = MultiFailState::solve(topo, e.dest(), &mut solve);
            f.apply(&as_batch, &mut delta);
            f
        })
        .collect();
    replayed.iter().all(|e| e.failed_links() == net)
        && combined_fnv(&fresh) == combined_fnv(replayed)
}

impl ChurnFlap {
    fn fresh_engines(&self) -> Vec<MultiFailState<'_>> {
        let mut solve = SolveScratch::new();
        self.dests
            .iter()
            .map(|&d| MultiFailState::solve(&self.inputs.topo, d, &mut solve))
            .collect()
    }
}

impl Workload for ChurnFlap {
    const NAME: &'static str = "churn_flap";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<ChurnFlap, String> {
        let inputs = Inputs::prepare(ctx, tr)?;
        let cfg = GenConfig {
            seed: DATASET_SEED,
            events: ctx.scale.churn_events,
            ..GenConfig::default()
        };
        let mut generated = tr.span("churn.gen.generate", 0, |_| generate(&inputs.topo, &cfg));
        retime(&mut generated, ctx.seed, &cfg);
        let bytes = tr
            .span("churn.trace.encode", 0, |_| generated.encode())
            .map_err(|e| format!("trace does not encode: {e}"))?;
        tr.count("churn.trace.bytes", bytes.len() as u64);
        let path = ctx.run.path().join("churn.mct");
        std::fs::write(&path, &bytes).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let read = std::fs::read(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let trace = tr
            .span("churn.trace.decode", 0, |_| Trace::decode(&read))
            .map_err(|e| format!("trace does not decode: {e}"))?;
        if trace != generated {
            return Err("churn trace changed across encode + decode".to_string());
        }
        let dests = top_degree(&inputs.topo, ENGINES);
        let batches = link_batches(&inputs.topo, &trace);
        let net = net_failures(&inputs.topo, &batches);
        let events = trace.events.len() as u64;
        let mut w = ChurnFlap {
            inputs,
            trace,
            dests,
            batches,
            net,
            events,
            applies: Vec::new(),
            base_solve_s: 0.0,
        };
        // Engine construction is set-up; every round repeats it untimed.
        let (engines, s) = tr.span("bgp.multi.base_solve", 0, |_| timed(|| w.fresh_engines()));
        drop(engines);
        w.base_solve_s = s;
        Ok(w)
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String> {
        let mut m = Measured::default();
        let mut applies = Vec::new();
        let mut scratch = DeltaScratch::new();
        procfs::reset_own_hwm();
        let start = Instant::now();
        while m.round_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = m.round_rates.len() as u64;
            let mut engines = self.fresh_engines();
            let cpu0 = procfs::usage(Who::Me).cpu;
            let t0 = Instant::now();
            let whole = tr.enter("churn_flap.apply_loop", round);
            for evs in &self.batches {
                if tr.is_on() {
                    // Traced: every engine's apply on its own.
                    let t_batch = Instant::now();
                    let mut t = t_batch;
                    for engine in engines.iter_mut() {
                        let stats = engine.apply(evs, &mut scratch);
                        let now = Instant::now();
                        let name = if stats.full_resolve {
                            "bgp.multi.apply_full"
                        } else {
                            "bgp.multi.apply_cone"
                        };
                        tr.record(name, round, t, now);
                        applies.push(((now - t).as_secs_f64(), stats));
                        t = now;
                    }
                    // The batch is done when all four tables reflect it.
                    m.unit_us.push((t - t_batch).as_secs_f64() * 1e6);
                } else {
                    for engine in engines.iter_mut() {
                        engine.apply(evs, &mut scratch);
                    }
                }
            }
            tr.exit(whole);
            let wall = t0.elapsed().as_secs_f64();
            let ops = self.events * ENGINES as u64;
            m.round(ops, wall, (procfs::usage(Who::Me).cpu - cpu0).as_secs_f64());
            m.attempted += ops;
            if !agrees_with_net_failures(&self.inputs.topo, &engines, &self.net) {
                m.failed += ops;
            }
        }
        m.peak_rss_kb = procfs::vm_hwm_kb(std::process::id())?;
        self.applies.extend(applies);
        Ok(m)
    }

    fn probes(
        &mut self,
        _ctx: &Ctx,
        traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let (mut cone, mut full) = ((0.0f64, 0u64), (0.0f64, 0u64));
        let mut sum = ApplyStats::default();
        for (s, st) in &self.applies {
            let bucket = if st.full_resolve {
                &mut full
            } else {
                &mut cone
            };
            bucket.0 += s;
            bucket.1 += 1;
            sum.downs += st.downs;
            sum.ups += st.ups;
            sum.cancelled += st.cancelled;
            sum.ignored += st.ignored;
            sum.recomputed += st.recomputed;
        }
        let rounds = traced.round_rates.len().max(1) as f64;
        let link_events: usize = self.batches.iter().map(Vec::len).sum::<usize>() * ENGINES;
        out.insert(
            "bgp.multi.apply_cone_us",
            cone.0 * 1e6 / cone.1.max(1) as f64,
        );
        out.insert(
            "bgp.multi.apply_full_us",
            full.0 * 1e6 / full.1.max(1) as f64,
        );
        out.insert(
            "bgp.multi.full_share_of_time",
            full.0 / (full.0 + cone.0).max(f64::MIN_POSITIVE),
        );
        // Counts are per round: every round replays the same trace.
        out.insert("bgp.multi.full_resolves", full.1 as f64 / rounds);
        out.insert("bgp.multi.downs", sum.downs as f64 / rounds);
        out.insert("bgp.multi.ups", sum.ups as f64 / rounds);
        out.insert(
            "bgp.multi.recomputed_per_event",
            sum.recomputed as f64 / rounds / link_events.max(1) as f64,
        );
        out.insert(
            "bgp.multi.cancelled_share",
            sum.cancelled as f64 / rounds / link_events.max(1) as f64,
        );
        out.insert("bgp.multi.base_solve_ms", self.base_solve_s * 1e3);
        out.insert("churn.gen.generate_ms", tr.secs("churn.gen.generate") * 1e3);
        let mb = tr.counted("churn.trace.bytes") as f64 / 1e6;
        out.insert(
            "churn.trace.encode_mb_per_s",
            mb / tr.secs("churn.trace.encode"),
        );
        out.insert(
            "churn.trace.decode_events_per_s",
            self.events as f64 / tr.secs("churn.trace.decode"),
        );

        // The library's own replay of the same trace: same engines plus
        // the tunnel fleet swept after every batch.
        let report = tr
            .span("churn.replay.replay_delta", 0, |_| {
                replay_delta(&self.trace, BatchMode::Batched, ENGINES)
            })
            .map_err(|e| format!("replay_delta failed: {e}"))?;
        let raw_rate = crate::stats::median(&traced.round_rates);
        out.insert("churn.replay.events_per_s", report.events_per_sec);
        out.insert(
            "churn.replay.fleet_share",
            1.0 - report.events_per_sec / raw_rate,
        );
        out.insert("churn.replay.teardowns", report.tunnel_teardowns as f64);
        out.insert(
            "churn.replay.renegotiations",
            report.tunnel_renegotiations as f64,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miro_topology::GenParams;

    fn replay<'t>(
        topo: &'t Topology,
        dests: &[NodeId],
        batches: &[Vec<LinkEvent>],
    ) -> Vec<MultiFailState<'t>> {
        let (mut solve, mut delta) = (SolveScratch::new(), DeltaScratch::new());
        let mut engines: Vec<_> = dests
            .iter()
            .map(|&d| MultiFailState::solve(topo, d, &mut solve))
            .collect();
        for evs in batches {
            for e in engines.iter_mut() {
                e.apply(evs, &mut delta);
            }
        }
        engines
    }

    #[test]
    fn oracle_passes_a_true_replay_and_fails_a_lost_batch() {
        let topo = GenParams::tiny(7).generate();
        let mut trace = generate(
            &topo,
            &GenConfig {
                seed: 5,
                events: 400,
                ..GenConfig::default()
            },
        );
        retime(&mut trace, 9, &GenConfig::default());
        let batches = link_batches(&topo, &trace);
        let net = net_failures(&topo, &batches);
        let dests = top_degree(&topo, ENGINES);
        assert!(!net.is_empty(), "the trace must leave something down");
        assert!(agrees_with_net_failures(
            &topo,
            &replay(&topo, &dests, &batches),
            &net
        ));

        // A replay that lost the batch which took a still-failed link
        // down ends with a different failed set and different tables.
        let (a, b) = net[0];
        let lost = batches
            .iter()
            .rposition(|evs| {
                evs.iter()
                    .any(|e| matches!(*e, LinkEvent::Down(x, y) if (x.min(y), x.max(y)) == (a, b)))
            })
            .expect("a failed link went down somewhere");
        let mut short = batches.clone();
        short.remove(lost);
        assert!(!agrees_with_net_failures(
            &topo,
            &replay(&topo, &dests, &short),
            &net
        ));
    }

    #[test]
    fn retiming_regroups_but_never_reorders() {
        let topo = GenParams::tiny(7).generate();
        let cfg = GenConfig {
            seed: 5,
            events: 300,
            ..GenConfig::default()
        };
        let base = generate(&topo, &cfg);
        let (mut x, mut y, mut z) = (base.clone(), base.clone(), base.clone());
        retime(&mut x, 1, &cfg);
        retime(&mut y, 1, &cfg);
        retime(&mut z, 2, &cfg);
        assert_eq!(x, y);
        assert_ne!(x.batches().count(), z.batches().count());
        let kinds = |t: &Trace| t.events.iter().map(|e| e.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&x), kinds(&base));
        assert!(x.events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // Any grouping nets out to the same failed set.
        assert_eq!(
            net_failures(&topo, &link_batches(&topo, &x)),
            net_failures(&topo, &link_batches(&topo, &z))
        );
    }
}
