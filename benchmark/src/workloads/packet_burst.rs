//! `packet_burst`: the only workload where `dataplane` runs at all.
//!
//! The `bench-dataplane` set-up rebuilt from public API: an LPM with one
//! /20 per reachable destination at the max-degree vantage, four tunnels
//! (two pinned by destination-prefix rules, two behind a TOS-triggered
//! `HashSplitter` group), Zipf(1.0) flows, and a frame ring mixed
//! 50/25/15/10 forward/encap/split/decap. `burst::Engine::forward_burst`
//! at batch 64 cycles the ring on one thread. The gated numbers use the
//! smallest frames (46 bytes), where per-packet cost is everything; the
//! traced pass adds 1,400-byte payloads, where per-byte copies into the
//! arena show.

use crate::ctx::{timed, Ctx, Inputs, Layers, Measured, Scale, Workload};
use crate::keys::{Rng, Zipf};
use crate::procfs::{self, Who};
use crate::trace::Tracer;
use bytes::Bytes;
use miro_bgp::engine::par_over_dests;
use miro_dataplane::burst::{BurstScratch, Engine, OneVerdict, TunnelSpec, Verdict};
use miro_dataplane::classifier::{Action, Classifier, HashSplitter, Match};
use miro_dataplane::encap;
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_dataplane::lpm::{Prefix, PrefixTrie};
use miro_shard::sample_dests;
use miro_topology::{NodeId, Topology};
use std::hint::black_box;
use std::time::Instant;

/// The engine's local tunnel-endpoint address. Destination prefixes are
/// `node_id << 12` (/20 per AS), far below 200.0.0.0 at every scale here.
const LOCAL: Ipv4Addr4 = Ipv4Addr4([200, 0, 0, 1]);
/// Virtual tunnel id the split group answers to.
const GROUP: u32 = 1000;
/// TOS marking that sends a flow to the split group.
const SPLIT_TOS: u8 = 0xb8;
const BATCH: usize = 64;
/// Payload bytes: 20 + 26 = the 46-byte minimum frame, and near-MTU.
const SMALL: usize = 26;
const LARGE: usize = 1400;
/// Laps of the ring per round.
const LAPS_PER_ROUND: usize = 4;
/// One burst in this many is timed on its own.
const TIME_EVERY: usize = 16;

/// What a frame of the ring should do.
#[derive(Clone, Copy)]
enum Lane {
    Forward,
    Encap,
    Split,
    Decap,
}

/// 50/25/15/10 over twenty slots.
const MIX: [Lane; 20] = {
    use Lane::*;
    [
        Forward, Encap, Forward, Split, Forward, Encap, Forward, Decap, Forward, Split, Forward,
        Encap, Forward, Encap, Forward, Split, Forward, Decap, Forward, Encap,
    ]
};

pub struct PacketBurst {
    engine: Engine,
    /// The destinations flows draw from, and the two with pinned tunnels.
    plain: Vec<NodeId>,
    pinned: [NodeId; 2],
    ring: Vec<Bytes>,
    seed: u64,
}

fn dest_prefix(d: NodeId) -> Prefix {
    Prefix::new(Ipv4Addr4::from_u32(d << 12), 20)
}

/// One ring: `flows` flow templates per lane, sampled Zipf-style into
/// `len` frames following [`MIX`].
fn build_ring(w: &PacketBurst, payload: usize, flows: usize, len: usize) -> Vec<Bytes> {
    let mut rng = Rng::new(w.seed ^ payload as u64);
    let mut lane_flows = |lane: Lane| -> Vec<Bytes> {
        let dests: &[NodeId] = if matches!(lane, Lane::Encap) {
            &w.pinned
        } else {
            &w.plain
        };
        let zipf = Zipf::new(dests.len());
        (0..flows)
            .map(|_| {
                let d = dests[zipf.sample(&mut rng)];
                let dst = Ipv4Addr4::from_u32((d << 12) | (rng.next() as u32 & 0xfff));
                let src = Ipv4Addr4::from_u32(0xC801_0000 | (rng.next() as u32 & 0xffff));
                let mut body = vec![0xAB; payload];
                body[..2].copy_from_slice(&((rng.next() as u16) | 1024).to_be_bytes());
                body[2..4].copy_from_slice(&443u16.to_be_bytes());
                let mut h = Ipv4Header::new(src, dst, 6, payload as u16);
                if matches!(lane, Lane::Split) {
                    h.dscp_ecn = SPLIT_TOS;
                }
                let frame = h.emit_with_payload(&body);
                match lane {
                    Lane::Decap => {
                        let remote = Ipv4Addr4::from_u32((d << 12) | 0x123);
                        encap::encapsulate(&frame, remote, LOCAL, 1 + (rng.next() as u32 % 4))
                            .expect("a near-MTU inner fits")
                    }
                    _ => frame,
                }
            })
            .collect()
    };
    let per_lane = [
        lane_flows(Lane::Forward),
        lane_flows(Lane::Encap),
        lane_flows(Lane::Split),
        lane_flows(Lane::Decap),
    ];
    let zipf = Zipf::new(flows);
    (0..len)
        .map(|i| per_lane[MIX[i % MIX.len()] as usize][zipf.sample(&mut rng)].clone())
        .collect()
}

/// Is the burst path's verdict (with its output bytes) the per-packet
/// path's? The dataplane oracle.
pub fn same_verdict(one: &OneVerdict, burst: Verdict, scratch: &BurstScratch) -> bool {
    match (one, burst) {
        (
            OneVerdict::Forward {
                next_hop: n1,
                packet,
            },
            Verdict::Forward { next_hop, out },
        ) => *n1 == next_hop && packet[..] == *scratch.out_bytes(out),
        (
            OneVerdict::Encap {
                tunnel: t1,
                next_hop: n1,
                packet,
            },
            Verdict::Encap {
                tunnel,
                next_hop,
                out,
            },
        ) => *t1 == tunnel && *n1 == next_hop && packet[..] == *scratch.out_bytes(out),
        (OneVerdict::Decap { tunnel: t1, packet }, Verdict::Decap { tunnel, out }) => {
            *t1 == tunnel && packet[..] == *scratch.out_bytes(out)
        }
        (OneVerdict::Drop, Verdict::Drop)
        | (OneVerdict::NoRoute, Verdict::NoRoute)
        | (OneVerdict::TtlExpired, Verdict::TtlExpired) => true,
        (OneVerdict::Malformed(e1), Verdict::Malformed(e2)) => *e1 == e2,
        _ => false,
    }
}

/// Frames of one lap on which the two paths disagree.
pub fn lap_disagreements(engine: &Engine, ring: &[Bytes]) -> u64 {
    let mut scratch = BurstScratch::new();
    let mut wrong = 0u64;
    for chunk in ring.chunks(BATCH) {
        let views: Vec<&[u8]> = chunk.iter().map(|f| &f[..]).collect();
        engine.forward_burst(&views, &mut scratch);
        for (frame, &v) in chunk.iter().zip(scratch.verdicts()) {
            wrong += !same_verdict(&engine.forward_one(frame), v, &scratch) as u64;
        }
    }
    wrong
}

/// Packets per second of `laps` laps at `batch`, and payload bytes out.
fn run_laps(
    engine: &Engine,
    views: &[&[u8]],
    batch: usize,
    laps: usize,
    scratch: &mut BurstScratch,
) -> (f64, u64) {
    let mut bytes_out = 0u64;
    let t = Instant::now();
    for _ in 0..laps {
        for chunk in views.chunks(batch) {
            engine.forward_burst(chunk, scratch);
            bytes_out += out_bytes(scratch);
        }
    }
    (
        (laps * views.len()) as f64 / t.elapsed().as_secs_f64(),
        bytes_out,
    )
}

/// Bytes the last burst emitted.
fn out_bytes(scratch: &BurstScratch) -> u64 {
    scratch
        .verdicts()
        .iter()
        .map(|v| match *v {
            Verdict::Forward { out, .. }
            | Verdict::Encap { out, .. }
            | Verdict::Decap { out, .. } => out.len as u64,
            _ => 0,
        })
        .sum()
}

impl PacketBurst {
    fn build(
        topo: &Topology,
        scale: &Scale,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<PacketBurst, String> {
        let vantage: NodeId = topo
            .nodes()
            .max_by_key(|&n| topo.neighbors(n).len())
            .ok_or("empty topology")?;
        let dests: Vec<NodeId> = sample_dests(topo.num_nodes(), scale.lpm_dests)
            .into_iter()
            .filter(|&d| d != vantage)
            .collect();
        let next_hops = tr.span("bgp.engine.par_over_dests", 0, |_| {
            par_over_dests(topo, &dests, 2, move |d, st| {
                st.best(vantage).map(|b| (d, b.next))
            })
        });
        let mut lpm: PrefixTrie<u32> = PrefixTrie::new();
        let mut routable: Vec<NodeId> = Vec::new();
        tr.span("dataplane.lpm.insert", 0, |_| {
            for (d, next) in next_hops.into_iter().flatten() {
                lpm.insert(dest_prefix(d), next);
                routable.push(d);
            }
        });
        if routable.len() < 8 {
            return Err(format!(
                "the vantage reaches only {} destinations",
                routable.len()
            ));
        }
        // Endpoints live inside routed prefixes so their next hops
        // resolve; tunnels 1-2 are entered by destination rule, 3-4 by
        // the split group.
        let ends = [routable[0], routable[1], routable[2], routable[3]];
        let tunnels: Vec<TunnelSpec> = ends
            .iter()
            .zip(1u32..)
            .map(|(&d, id)| TunnelSpec {
                id,
                ingress: LOCAL,
                endpoint: Ipv4Addr4::from_u32((d << 12) | 0x123),
            })
            .collect();
        let classifier = Classifier::new(vec![
            (
                Match {
                    dst: Some(dest_prefix(ends[0])),
                    ..Default::default()
                },
                Action::Tunnel(1),
            ),
            (
                Match {
                    dst: Some(dest_prefix(ends[1])),
                    ..Default::default()
                },
                Action::Tunnel(2),
            ),
            (
                Match {
                    tos: Some(SPLIT_TOS),
                    ..Default::default()
                },
                Action::Tunnel(GROUP),
            ),
        ]);
        let splitter = HashSplitter::new(vec![(1, 3), (1, 4)]);
        let engine = tr.span("dataplane.burst.engine_new", 0, |_| {
            Engine::new(LOCAL, lpm, classifier, tunnels, vec![(GROUP, splitter)])
        });
        let plain = routable
            .iter()
            .copied()
            .filter(|d| *d != ends[0] && *d != ends[1])
            .collect();
        let mut w = PacketBurst {
            engine,
            plain,
            pinned: [ends[0], ends[1]],
            ring: Vec::new(),
            seed,
        };
        w.ring = tr.span("loadgen.build_ring", 0, |_| {
            build_ring(&w, SMALL, scale.flows, scale.ring)
        });
        Ok(w)
    }
}

impl Workload for PacketBurst {
    const NAME: &'static str = "packet_burst";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Result<PacketBurst, String> {
        let inputs = Inputs::prepare(ctx, tr)?;
        PacketBurst::build(&inputs.topo, &ctx.scale, ctx.seed, tr)
    }

    fn measure(&mut self, _ctx: &Ctx, seconds: f64, tr: &mut Tracer) -> Result<Measured, String> {
        // Oracle first, outside the clock: one lap, both paths.
        let mut m = Measured {
            attempted: self.ring.len() as u64,
            failed: lap_disagreements(&self.engine, &self.ring),
            ..Measured::default()
        };

        let views: Vec<&[u8]> = self.ring.iter().map(|f| &f[..]).collect();
        let mut scratch = BurstScratch::new();
        run_laps(&self.engine, &views, BATCH, 1, &mut scratch); // warm the scratch
        procfs::reset_own_hwm();
        let start = Instant::now();
        while m.round_rates.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let round = m.round_rates.len() as u64;
            let whole = tr.enter("packet_burst.round", round);
            let cpu0 = procfs::usage(Who::Me).cpu;
            let t0 = Instant::now();
            for _ in 0..LAPS_PER_ROUND {
                for (i, chunk) in views.chunks(BATCH).enumerate() {
                    if tr.is_on() && i % TIME_EVERY == 0 {
                        let t = Instant::now();
                        self.engine.forward_burst(chunk, &mut scratch);
                        let end = Instant::now();
                        m.unit_us.push((end - t).as_secs_f64() * 1e6);
                        tr.record("dataplane.burst.forward_burst", round, t, end);
                    } else {
                        self.engine.forward_burst(chunk, &mut scratch);
                    }
                    black_box(scratch.verdicts());
                }
            }
            let wall = t0.elapsed().as_secs_f64();
            tr.exit(whole);
            let ops = (LAPS_PER_ROUND * views.len()) as u64;
            m.round(ops, wall, (procfs::usage(Who::Me).cpu - cpu0).as_secs_f64());
        }
        m.attempted += m.ops;
        m.peak_rss_kb = procfs::vm_hwm_kb(std::process::id())?;
        Ok(m)
    }

    fn probes(
        &mut self,
        ctx: &Ctx,
        _traced: &Measured,
        tr: &mut Tracer,
        out: &mut Layers,
    ) -> Result<(), String> {
        let engine = &self.engine;
        let views: Vec<&[u8]> = self.ring.iter().map(|f| &f[..]).collect();
        let n = views.len() as f64;
        let mut scratch = BurstScratch::new();

        // The four public stages, timed separately over the same ring.
        let mut stage = [0.0f64; 4];
        let (mut descents, mut reused, mut unique, mut fwd) = (0usize, 0usize, 0usize, 0usize);
        let (mut errors, mut bytes) = (0u64, 0u64);
        let whole = tr.enter("dataplane.burst.stages", 0);
        for chunk in views.chunks(BATCH) {
            let t0 = Instant::now();
            engine.preparse(chunk, &mut scratch);
            let t1 = Instant::now();
            engine.lookup(&mut scratch);
            let t2 = Instant::now();
            engine.decide(&mut scratch);
            let t3 = Instant::now();
            engine.emit(chunk, &mut scratch);
            let t4 = Instant::now();
            for (s, d) in stage.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3]) {
                *s += d.as_secs_f64();
            }
            descents += scratch.lookup_stats.descents;
            reused += scratch.lookup_stats.reused;
            unique += scratch.unique_flows;
            fwd += scratch.lookup_stats.descents + scratch.lookup_stats.reused;
            errors += scratch
                .verdicts()
                .iter()
                .filter(|v| matches!(v, Verdict::Malformed(_)))
                .count() as u64;
            bytes += out_bytes(&scratch);
        }
        tr.exit(whole);
        for (name, s) in [
            "dataplane.burst.preparse_ns_per_pkt",
            "dataplane.burst.lookup_ns_per_pkt",
            "dataplane.burst.decide_ns_per_pkt",
            "dataplane.burst.emit_ns_per_pkt",
        ]
        .into_iter()
        .zip(stage)
        {
            out.insert(name, s * 1e9 / n);
        }
        out.insert(
            "dataplane.lpm.reuse_share",
            reused as f64 / (descents + reused).max(1) as f64,
        );
        out.insert(
            "dataplane.burst.unique_flow_share",
            unique as f64 / fwd.max(1) as f64,
        );
        out.insert("dataplane.burst.error_share", errors as f64 / n);
        out.insert("dataplane.encap.bytes_out_per_pkt", bytes as f64 / n);

        let ((), s) = tr.span("dataplane.burst.forward_one", 0, |_| {
            timed(|| {
                self.ring
                    .iter()
                    .for_each(|f| drop(black_box(engine.forward_one(f))))
            })
        });
        out.insert("dataplane.burst.forward_one_ns_per_pkt", s * 1e9 / n);

        let dsts: Vec<Ipv4Addr4> = self
            .ring
            .iter()
            .map(|f| Ipv4Addr4([f[16], f[17], f[18], f[19]]))
            .collect();
        let ((), s) = tr.span("dataplane.lpm.lookup", 0, |_| {
            timed(|| {
                dsts.iter().for_each(|&d| {
                    black_box(engine.lpm().lookup(d));
                })
            })
        });
        out.insert("dataplane.lpm.lookup_ns", s * 1e9 / n);

        for (name, batch) in [
            ("dataplane.burst.batch8_mpps", 8),
            ("dataplane.burst.batch4096_mpps", 4096),
        ] {
            let (pps, _) = tr.span("dataplane.burst.forward_burst", batch as u64, |_| {
                run_laps(engine, &views, batch, 2, &mut scratch)
            });
            out.insert(name, pps / 1e6);
        }

        // Near-MTU payloads: inner payload bytes emitted per second.
        let large = build_ring(self, LARGE, ctx.scale.flows, ctx.scale.ring / 8);
        if lap_disagreements(engine, &large) != 0 {
            return Err("burst and per-packet paths disagree on near-MTU frames".to_string());
        }
        let large_views: Vec<&[u8]> = large.iter().map(|f| &f[..]).collect();
        run_laps(engine, &large_views, BATCH, 1, &mut scratch);
        let (pps, _) = tr.span("dataplane.burst.forward_burst", LARGE as u64, |_| {
            run_laps(engine, &large_views, BATCH, 8, &mut scratch)
        });
        out.insert(
            "dataplane.burst.goodput_gbps",
            pps * LARGE as f64 * 8.0 / 1e9,
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::SMOKE;
    use miro_dataplane::burst::PktRange;

    fn small() -> PacketBurst {
        let topo = miro_topology::GenParams::tiny(7).generate();
        PacketBurst::build(&topo, &SMOKE, 5, &mut Tracer::off()).unwrap()
    }

    #[test]
    fn the_ring_follows_the_mix_and_both_paths_agree_on_it() {
        let w = small();
        assert_eq!(w.ring.len(), SMOKE.ring);
        assert_eq!(lap_disagreements(&w.engine, &w.ring), 0);
        let mut kinds = [0usize; 4];
        for f in &w.ring {
            match w.engine.forward_one(f) {
                OneVerdict::Forward { .. } => kinds[0] += 1,
                OneVerdict::Encap { .. } => kinds[1] += 1,
                OneVerdict::Decap { .. } => kinds[2] += 1,
                other => panic!("the ring holds only forwardable frames, got {other:?}"),
            }
        }
        // 50% forward, 25% pinned + 15% split encap, 10% decap.
        let n = w.ring.len();
        assert!((kinds[0] * 100).abs_diff(n * 50) <= n && (kinds[1] * 100).abs_diff(n * 40) <= n);
        assert!((kinds[2] * 100).abs_diff(n * 10) <= n);
        let large = build_ring(&w, LARGE, 16, 64);
        assert!(large.iter().all(|f| f.len() >= LARGE + 20));
        assert_eq!(lap_disagreements(&w.engine, &large), 0);
    }

    #[test]
    fn one_tampered_verdict_fails_the_packet_oracle() {
        let w = small();
        let views: Vec<&[u8]> = w.ring[..BATCH].iter().map(|f| &f[..]).collect();
        let mut scratch = BurstScratch::new();
        w.engine.forward_burst(&views, &mut scratch);
        for (frame, &v) in w.ring[..BATCH].iter().zip(scratch.verdicts()) {
            let one = w.engine.forward_one(frame);
            assert!(same_verdict(&one, v, &scratch));
            let tampered = match v {
                Verdict::Forward { next_hop, out } => Verdict::Forward {
                    next_hop: next_hop + 1,
                    out,
                },
                Verdict::Encap {
                    tunnel,
                    next_hop,
                    out,
                } => Verdict::Encap {
                    tunnel: tunnel + 1,
                    next_hop,
                    out,
                },
                // One byte short: the bytes no longer match.
                Verdict::Decap { tunnel, out } => Verdict::Decap {
                    tunnel,
                    out: PktRange {
                        start: out.start,
                        len: out.len - 1,
                    },
                },
                other => panic!("unexpected {other:?}"),
            };
            assert!(!same_verdict(&one, tampered, &scratch));
            assert!(!same_verdict(&one, Verdict::Drop, &scratch));
        }
    }
}
