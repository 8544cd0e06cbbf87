//! `miro bench-dataplane` — burst-mode forwarding engine timing at
//! packets-per-second scale.
//!
//! Builds a forwarding engine from *solved* route tables: a preset
//! topology is generated, every destination's stable state is solved with
//! the solver kernel, and the vantage AS's best next hops become LPM
//! entries (one /20 per destination AS). Four MIRO tunnels are installed
//! on top — two driven directly by destination-prefix classifier rules,
//! two behind a hash-split group keyed by the TOS marking of section 3.5.
//!
//! Four synthesized streams then exercise one pipeline stage each, with
//! Zipf-skewed destinations so batches carry the duplicate flows real
//! traffic does:
//!
//! * **forward** — plain destination-based forwarding (LPM + TTL rewrite);
//! * **encap**   — tunnel-bound traffic (classifier → template stamp);
//! * **decap**   — tunnel traffic arriving at the local endpoint;
//! * **split**   — TOS-marked flows fanned across the 2-tunnel group.
//!
//! Each stream is timed through [`Engine::forward_burst`] at every
//! `--batch` size and through the packet-at-a-time [`Engine::forward_one`]
//! baseline (reported as `batch: 1, baseline: true`), [`REPS`] times per
//! row: `ms` is the fastest repetition, `median_ms` the median and
//! `spread` (slowest − fastest) / median. A per-packet
//! checksum of every verdict (next hops, tunnel ids, output lengths) must
//! agree across all batch sizes *and* the baseline before anything is
//! reported, and a prefix of each stream is compared byte-for-byte.
//!
//! The LPM is also measured in isolation: per-packet
//! [`PrefixTrie::lookup`] (the reference `forward_one` walks) against the
//! burst path's compiled [`StrideTable::get`] over the same destination
//! sequence. `--check-lookup-speedup F` turns that ratio into a hard CI
//! gate — it compares two single-threaded code paths on the same host, so
//! it holds on 1-CPU runners too. `--capture FILE`
//! writes a sample of the encapsulated output packets as pcapng for
//! Wireshark inspection. Results land in `BENCH_dataplane.json`.
//!
//! [`Engine::forward_burst`]: miro_dataplane::burst::Engine::forward_burst
//! [`Engine::forward_one`]: miro_dataplane::burst::Engine::forward_one
//! [`PrefixTrie::lookup`]: miro_dataplane::lpm::PrefixTrie::lookup
//! [`StrideTable::get`]: miro_dataplane::lpm::StrideTable::get

use crate::harness::{self, gate, host_parallelism, ms, Cmd, Flag, Kind, Rng, Zipf, SEED};
use bytes::Bytes;
use miro_bgp::engine::par_over_dests;
use miro_dataplane::burst::{BurstScratch, Engine, OneVerdict, TunnelSpec, Verdict};
use miro_dataplane::classifier::{Action, Classifier, HashSplitter, Match};
use miro_dataplane::encap;
use miro_dataplane::ipv4::{Ipv4Addr4, Ipv4Header};
use miro_dataplane::lpm::{Prefix, PrefixTrie};
use miro_dataplane::pcapng;
use miro_topology::NodeId;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub static CMD: Cmd = Cmd {
    name: "bench-dataplane",
    positional: &[],
    flags: &[
        Flag { name: "--scale", kind: Kind::Str, default: "small", help: "topology the route table is solved from" },
        Flag { name: "--flows", kind: Kind::Num, default: "4096", help: "distinct flows per stage" },
        Flag { name: "--packets", kind: Kind::Num, default: "131072", help: "packets per stage" },
        Flag { name: "--batch", kind: Kind::UsizeList, default: "8,64,512,4096", help: "burst sizes, one row each" },
        Flag { name: "--out", kind: Kind::Str, default: "BENCH_dataplane.json", help: "where the JSON lands" },
        Flag { name: "--capture", kind: Kind::Str, default: "", help: "write a pcapng sample of the encapsulated output" },
        Flag { name: "--check-lookup-speedup", kind: Kind::F64, default: "", help: "fail under this stride-table-vs-trie LPM speedup" },
        Flag { name: "--list", kind: Kind::Switch, default: "", help: "print stages, scales, row schemas and flags; run nothing" },
    ],
};

/// Timing repetitions per row.
const REPS: usize = 5;

/// Largest accepted `--batch` entry: beyond this it is certainly a typo.
const MAX_BATCH: usize = 1 << 20;

/// The engine's local tunnel-endpoint address. Destination prefixes are
/// `node_id << 12` (/20 per AS), so anything under 200.0.0.0 is spoken
/// for only up to ~800k nodes — far above every preset scale here.
const LOCAL: Ipv4Addr4 = Ipv4Addr4([200, 0, 0, 1]);

/// Virtual tunnel id the split group answers to.
const GROUP: u32 = 1000;

/// [`REPS`] wall times of one measurement, sorted.
struct Reps(Vec<Duration>);

impl Reps {
    /// Run `f` [`REPS`] times; every run must return the same checksum.
    fn time(mut f: impl FnMut() -> u64) -> (Reps, u64) {
        let mut walls = Vec::with_capacity(REPS);
        let mut sink = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let s = f();
            walls.push(start.elapsed());
            assert!(sink.is_none_or(|prev| prev == s), "repetitions disagree");
            sink = Some(s);
        }
        walls.sort_unstable();
        (Reps(walls), sink.unwrap_or(0))
    }

    fn min(&self) -> Duration {
        self.0[0]
    }

    fn median(&self) -> Duration {
        self.0[self.0.len() / 2]
    }

    /// (slowest − fastest) / median.
    fn spread(&self) -> f64 {
        (self.0[self.0.len() - 1] - self.0[0]).as_secs_f64() / self.median().as_secs_f64().max(1e-12)
    }
}

/// One timing row: a stage at a batch size (or the baseline).
#[derive(Serialize)]
struct StageRow {
    stage: &'static str,
    batch: usize,
    baseline: bool,
    ms: f64,
    median_ms: f64,
    spread: f64,
    mpps: f64,
    ns_per_pkt: f64,
}

impl StageRow {
    fn new(stage: &'static str, batch: usize, baseline: bool, reps: &Reps, packets: usize) -> StageRow {
        let secs = reps.min().as_secs_f64();
        StageRow {
            stage,
            batch,
            baseline,
            ms: ms(reps.min()),
            median_ms: ms(reps.median()),
            spread: reps.spread(),
            mpps: packets as f64 / secs.max(1e-12) / 1e6,
            ns_per_pkt: secs * 1e9 / packets.max(1) as f64,
        }
    }
}

/// The isolated LPM A/B result: fastest repetition of each side.
#[derive(Serialize)]
struct LookupRow {
    packets: usize,
    trie_ms: f64,
    table_ms: f64,
    speedup: f64,
    /// The larger of the two sides' spreads.
    spread: f64,
    table_bytes: usize,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    engine: &'static str,
    baseline: &'static str,
    seed: u64,
    reps: usize,
    scale: &'static str,
    nodes: usize,
    prefixes: usize,
    tunnels: usize,
    flows: usize,
    packets: usize,
    stages: Vec<StageRow>,
    lookup: LookupRow,
}

/// Entry point for `miro bench-dataplane`.
pub fn run(args: &[String]) -> Result<String, String> {
    let a = CMD.parse(args)?;
    let (flows, packets): (usize, usize) = (a.get("--flows")?, a.get("--packets")?);
    let out_path: String = a.get("--out")?;
    let capture: Option<String> = a.opt("--capture")?;
    let check_speedup = a.opt("--check-lookup-speedup")?;
    let batches = a.list("--batch")?;
    if let Some(b) = batches.iter().find(|&&b| b > MAX_BATCH) {
        return Err(format!("--batch {b} is absurd (max {MAX_BATCH})"));
    }

    if a.on("--list") {
        let mut out = String::from("bench-dataplane stages:\n");
        out.push_str("  forward  plain LPM forwarding (TTL rewrite, no tunnel)\n");
        out.push_str("  encap    classifier-directed tunnel entry (template stamp)\n");
        out.push_str("  decap    tunnel exit at the local endpoint (outer+shim strip)\n");
        out.push_str("  split    TOS-marked flows hashed across a 2-tunnel group\n");
        out.push_str("scales:\n");
        for sc in harness::SCALES {
            let _ = writeln!(out, "{sc}");
        }
        out.push_str("row schemas:\n");
        out.push_str(
            "  stages[] = {stage, batch, baseline, ms, median_ms, spread, mpps, ns_per_pkt}\n",
        );
        out.push_str("  lookup   = {packets, trie_ms, table_ms, speedup, spread, table_bytes}\n");
        out.push_str(&CMD.usage());
        return Ok(out);
    }

    if flows == 0 || packets == 0 {
        return Err("--flows and --packets must be at least 1".to_string());
    }
    let sc = harness::scale(&a.get::<String>("--scale")?)?;

    // ---- Route table from the solved topology -------------------------
    let topo = sc.preset.params(sc.factor, SEED).generate();
    let vantage: NodeId = topo
        .nodes()
        .max_by_key(|&n| topo.neighbors(n).len())
        .ok_or("empty topology")?;
    let dests: Vec<NodeId> = topo.nodes().filter(|&d| d != vantage).collect();
    let threads = host_parallelism().min(8);
    let next_hops = par_over_dests(&topo, &dests, threads, move |d, st| {
        st.best(vantage).map(|b| (d, b.next))
    });
    let mut lpm: PrefixTrie<u32> = PrefixTrie::new();
    let mut routable: Vec<NodeId> = Vec::new();
    for (d, next) in next_hops.into_iter().flatten() {
        lpm.insert(dest_prefix(d), next);
        routable.push(d);
    }
    if routable.len() < 8 {
        return Err(format!(
            "vantage AS{} reaches only {} destinations — topology too small",
            topo.asn(vantage),
            routable.len()
        ));
    }

    // ---- Tunnels, classifier, split group -----------------------------
    // Endpoints live inside routed destination prefixes, so their next
    // hops resolve; t1/t2 are entered by destination rule, t3/t4 by the
    // split group.
    let tunnel_dests = [routable[0], routable[1], routable[2], routable[3]];
    let tunnels: Vec<TunnelSpec> = tunnel_dests
        .iter()
        .enumerate()
        .map(|(i, &d)| TunnelSpec {
            id: i as u32 + 1,
            ingress: LOCAL,
            endpoint: Ipv4Addr4::from_u32((d << 12) | 0x123),
        })
        .collect();
    let classifier = Classifier::new(vec![
        (
            Match { dst: Some(dest_prefix(tunnel_dests[0])), ..Default::default() },
            Action::Tunnel(1),
        ),
        (
            Match { dst: Some(dest_prefix(tunnel_dests[1])), ..Default::default() },
            Action::Tunnel(2),
        ),
        (Match { tos: Some(0xb8), ..Default::default() }, Action::Tunnel(GROUP)),
    ]);
    let splitter = HashSplitter::new(vec![(1, 3), (1, 4)]);
    let eng = Engine::new(LOCAL, lpm, classifier, tunnels, vec![(GROUP, splitter)]);

    // ---- Streams ------------------------------------------------------
    // `forward`/`split` draw Zipf-skewed destinations from the routable
    // set (minus the rule-matched prefixes); `encap` dwells entirely in
    // them; `decap` is pre-encapsulated traffic addressed to us.
    let mut rng = Rng::new(SEED);
    let plain_dests: Vec<NodeId> =
        routable.iter().copied().filter(|d| *d != tunnel_dests[0] && *d != tunnel_dests[1]).collect();
    let streams: Vec<(&'static str, Vec<Bytes>)> = vec![
        ("forward", synth_stream(&mut rng, &plain_dests, flows, packets, 0x00, None)),
        (
            "encap",
            synth_stream(&mut rng, &tunnel_dests[..2], flows, packets, 0x00, None),
        ),
        (
            "decap",
            synth_stream(&mut rng, &plain_dests, flows, packets, 0x00, Some(&eng)),
        ),
        ("split", synth_stream(&mut rng, &plain_dests, flows, packets, 0xb8, None)),
    ];

    // ---- Equivalence pin before any timing ----------------------------
    for (stage, frames) in &streams {
        let n = frames.len().min(4096);
        verify_equivalence(&eng, &frames[..n]).map_err(|e| format!("stage {stage}: {e}"))?;
    }

    // ---- Timing -------------------------------------------------------
    let mut report = format!(
        "bench-dataplane: {} nodes, {} routed /20s, {} flows x {} packets per stage\n",
        topo.num_nodes(),
        routable.len(),
        flows,
        packets
    );
    let mut rows: Vec<StageRow> = Vec::new();
    let per_stage = batches.len() + 1;
    for (stage, frames) in &streams {
        let views: Vec<&[u8]> = frames.iter().map(|f| &f[..]).collect();
        let mut sinks: Vec<u64> = Vec::new();
        let mut scratch = BurstScratch::new();
        for &batch in &batches {
            let (reps, sink) = Reps::time(|| burst_sink(&eng, &views, batch, &mut scratch));
            sinks.push(sink);
            rows.push(StageRow::new(stage, batch, false, &reps, frames.len()));
        }
        let (reps, sink) = Reps::time(|| {
            frames.iter().fold(0u64, |s, f| s.wrapping_add(sink_one(&eng.forward_one(f))))
        });
        sinks.push(sink);
        rows.push(StageRow::new(stage, 1, true, &reps, frames.len()));
        // Every batch size and the baseline must have produced identical
        // verdict streams (checksummed over next hops, tunnels, lengths).
        if sinks.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("stage {stage}: verdict checksums diverge: {sinks:?}"));
        }
        for r in &rows[rows.len() - per_stage..] {
            let tag = if r.baseline { "single" } else { " burst" };
            let _ = writeln!(
                report,
                "  {:<8} {tag} batch {:>4} | {:>8.2} ms | {:>6.2} Mpps | {:>6.1} ns/pkt | spread {:>4.0}%",
                r.stage, r.batch, r.ms, r.mpps, r.ns_per_pkt, r.spread * 100.0,
            );
        }
    }

    // ---- Isolated LPM A/B ---------------------------------------------
    let lookup = time_lookup(&eng, &streams[0].1);
    let _ = writeln!(
        report,
        "  lookup   trie {:>8.2} ms | table {:>8.2} ms | {:.2}x | table {} KB",
        lookup.trie_ms,
        lookup.table_ms,
        lookup.speedup,
        lookup.table_bytes / 1024,
    );

    // ---- Optional pcapng capture of encapsulated output ---------------
    if let Some(path) = &capture {
        let written = capture_encap(&eng, &streams[1].1, path)
            .map_err(|e| format!("cannot write capture {path:?}: {e}"))?;
        let _ = writeln!(report, "  captured {written} encapsulated packets to {path}");
    }

    let json = Report {
        bench: "dataplane-burst",
        engine: "burst-preparse-stride-lpm-per-packet-decide-arena",
        baseline: "forward_one-per-packet-alloc",
        seed: SEED,
        reps: REPS,
        scale: sc.name,
        nodes: topo.num_nodes(),
        prefixes: routable.len(),
        tunnels: tunnel_dests.len(),
        flows,
        packets,
        stages: rows,
        lookup,
    };
    report.push_str(&harness::emit(&out_path, &json)?);

    gate("stride-table lookup", json.lookup.speedup, check_speedup)?;
    Ok(report)
}

/// Destination AS -> its /20 (dense node ids keep this collision-free).
fn dest_prefix(d: NodeId) -> Prefix {
    Prefix::new(Ipv4Addr4::from_u32(d << 12), 20)
}

/// Synthesize one stream: `flows` distinct flow keys over `dests`
/// (Zipf-ranked), then `packets` frames sampling those flows Zipf-style.
/// `tos` marks every packet (0xb8 triggers the split group). With
/// `encap_for` the stream is the *decap* workload: each frame is wrapped
/// toward that engine's local endpoint.
fn synth_stream(
    rng: &mut Rng,
    dests: &[NodeId],
    flows: usize,
    packets: usize,
    tos: u8,
    encap_for: Option<&Engine>,
) -> Vec<Bytes> {
    let dest_zipf = Zipf::new(dests.len());
    let mut flow_frames: Vec<Bytes> = Vec::with_capacity(flows);
    for _ in 0..flows {
        let d = dests[dest_zipf.sample(rng)];
        let dst = Ipv4Addr4::from_u32((d << 12) | (rng.next_u64() as u32 & 0xfff));
        let src = Ipv4Addr4::from_u32(0xC801_0000 | (rng.next_u64() as u32 & 0xffff));
        let sport = (rng.next_u64() as u16) | 1024;
        let dport = 443u16;
        let mut payload = Vec::with_capacity(26);
        payload.extend_from_slice(&sport.to_be_bytes());
        payload.extend_from_slice(&dport.to_be_bytes());
        payload.extend_from_slice(&[0xAB; 22]);
        let mut h = Ipv4Header::new(src, dst, 6, payload.len() as u16);
        h.dscp_ecn = tos;
        let frame = h.emit_with_payload(&payload);
        let frame = match encap_for {
            None => frame,
            Some(eng) => {
                let remote = Ipv4Addr4::from_u32((d << 12) | 0x123);
                encap::encapsulate(&frame, remote, eng.local(), 1 + (rng.next_u64() as u32 % 4))
                    .expect("small inner fits")
            }
        };
        flow_frames.push(frame);
    }
    let flow_zipf = Zipf::new(flows);
    (0..packets).map(|_| flow_frames[flow_zipf.sample(rng)].clone()).collect()
}

/// Fold a verdict into a stream checksum: next hops, tunnel ids, error
/// discriminants and output lengths all contribute, so two runs agree iff
/// they made the same per-packet choices.
fn sink_verdict(v: &Verdict) -> u64 {
    match *v {
        Verdict::Forward { next_hop, out } => 1 + next_hop as u64 * 31 + out.len as u64 * 7,
        Verdict::Encap { tunnel, next_hop, out } => {
            2 + tunnel as u64 * 131 + next_hop as u64 * 31 + out.len as u64 * 7
        }
        Verdict::Decap { tunnel, out } => 3 + tunnel as u64 * 131 + out.len as u64 * 7,
        Verdict::Drop => 4,
        Verdict::NoRoute => 5,
        Verdict::TtlExpired => 6,
        Verdict::Malformed(_) => 7,
    }
}

fn sink_one(v: &OneVerdict) -> u64 {
    match v {
        OneVerdict::Forward { next_hop, packet } => {
            1 + *next_hop as u64 * 31 + packet.len() as u64 * 7
        }
        OneVerdict::Encap { tunnel, next_hop, packet } => {
            2 + *tunnel as u64 * 131 + *next_hop as u64 * 31 + packet.len() as u64 * 7
        }
        OneVerdict::Decap { tunnel, packet } => {
            3 + *tunnel as u64 * 131 + packet.len() as u64 * 7
        }
        OneVerdict::Drop => 4,
        OneVerdict::NoRoute => 5,
        OneVerdict::TtlExpired => 6,
        OneVerdict::Malformed(_) => 7,
    }
}

/// One pass of the burst pipeline over `views` in chunks of `batch`; the
/// verdict checksum.
fn burst_sink(eng: &Engine, views: &[&[u8]], batch: usize, scratch: &mut BurstScratch) -> u64 {
    let mut s = 0u64;
    for chunk in views.chunks(batch) {
        eng.forward_burst(chunk, scratch);
        for v in scratch.verdicts() {
            s = s.wrapping_add(sink_verdict(v));
        }
    }
    s
}

/// Per-packet trie `lookup` vs the compiled table's `get` over the
/// stream's destination sequence — the isolated figure
/// `--check-lookup-speedup` gates on. Both sides fold the same next hops.
fn time_lookup(eng: &Engine, frames: &[Bytes]) -> LookupRow {
    let dsts: Vec<Ipv4Addr4> = frames
        .iter()
        .map(|f| Ipv4Addr4([f[16], f[17], f[18], f[19]]))
        .collect();
    let fold = |nh: Option<u32>| nh.map_or(1, |n| u64::from(n) + 2);
    let (trie, trie_sink) = Reps::time(|| {
        dsts.iter().fold(0u64, |s, &d| s.wrapping_add(fold(eng.lpm().lookup(d).map(|(_, &n)| n))))
    });
    let (table, table_sink) = Reps::time(|| {
        dsts.iter().fold(0u64, |s, &d| s.wrapping_add(fold(eng.table().get(d).copied())))
    });
    assert_eq!(trie_sink, table_sink, "lookup paths disagree");
    LookupRow {
        packets: dsts.len(),
        trie_ms: ms(trie.min()),
        table_ms: ms(table.min()),
        speedup: trie.min().as_secs_f64() / table.min().as_secs_f64().max(1e-12),
        spread: trie.spread().max(table.spread()),
        table_bytes: eng.table().bytes(),
    }
}

/// Byte-for-byte equivalence of the two paths over a stream prefix.
fn verify_equivalence(eng: &Engine, frames: &[Bytes]) -> Result<(), String> {
    let views: Vec<&[u8]> = frames.iter().map(|f| &f[..]).collect();
    let mut scratch = BurstScratch::new();
    eng.forward_burst(&views, &mut scratch);
    for (i, frame) in frames.iter().enumerate() {
        let one = eng.forward_one(frame);
        let batched = scratch.verdicts()[i];
        let same = match (&one, batched) {
            (OneVerdict::Forward { next_hop: n1, packet }, Verdict::Forward { next_hop, out }) => {
                *n1 == next_hop && &packet[..] == scratch.out_bytes(out)
            }
            (
                OneVerdict::Encap { tunnel: t1, next_hop: n1, packet },
                Verdict::Encap { tunnel, next_hop, out },
            ) => *t1 == tunnel && *n1 == next_hop && &packet[..] == scratch.out_bytes(out),
            (OneVerdict::Decap { tunnel: t1, packet }, Verdict::Decap { tunnel, out }) => {
                *t1 == tunnel && &packet[..] == scratch.out_bytes(out)
            }
            (OneVerdict::Drop, Verdict::Drop)
            | (OneVerdict::NoRoute, Verdict::NoRoute)
            | (OneVerdict::TtlExpired, Verdict::TtlExpired) => true,
            (OneVerdict::Malformed(e1), Verdict::Malformed(e2)) => *e1 == e2,
            _ => false,
        };
        if !same {
            return Err(format!(
                "packet {i}: burst {batched:?} != single-packet {one:?}"
            ));
        }
    }
    Ok(())
}

/// Write up to 256 encapsulated output packets to a pcapng file.
fn capture_encap(eng: &Engine, frames: &[Bytes], path: &str) -> std::io::Result<u64> {
    let n = frames.len().min(256);
    let views: Vec<&[u8]> = frames[..n].iter().map(|f| &f[..]).collect();
    let mut scratch = BurstScratch::new();
    eng.forward_burst(&views, &mut scratch);
    let mut w = pcapng::create(path)?;
    for (i, v) in scratch.verdicts().iter().enumerate() {
        if let Verdict::Encap { out, .. } = v {
            w.write_packet(i as u64, scratch.out_bytes(*out))?;
        }
    }
    let written = w.packets();
    w.finish()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::TempPath;

    const STAGES: &[&str] = &["forward", "encap", "decap", "split"];

    fn arg(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn list_prints_stages_and_schemas() {
        let out = run(&arg("--list")).unwrap();
        for stage in STAGES {
            assert!(out.contains(stage), "{stage} in {out}");
        }
        assert!(out.contains("row schemas:"), "{out}");
        assert!(out.contains("stages[] = {stage, batch, baseline, ms, median_ms, spread, mpps, ns_per_pkt}"));
        assert!(out.contains("lookup   = {packets, trie_ms, table_ms, speedup, spread, table_bytes}"));
        assert!(out.ends_with(&CMD.usage()), "{out}");
    }

    #[test]
    fn bad_values_are_rejected_before_any_work() {
        assert!(run(&arg("--scale nosuch")).unwrap_err().contains("unknown scale"));
        assert!(run(&arg("--flows 0")).unwrap_err().contains("--flows"));
        let err = run(&arg(&format!("--batch 8,{}", MAX_BATCH + 1))).unwrap_err();
        assert!(err.contains("absurd"), "{err}");
    }

    #[test]
    fn tiny_bench_end_to_end() {
        let (out, cap) = (TempPath::new("dataplane_test", ".json"), TempPath::new("dataplane_test", ".pcapng"));
        let report = run(&arg(&format!(
            "--scale tiny --flows 256 --packets 4000 --batch 4,32 --out {} --capture {}",
            out.0.display(),
            cap.0.display()
        )))
        .unwrap();
        for stage in STAGES {
            assert!(report.contains(stage), "{stage} row present: {report}");
        }
        assert!(report.contains("Mpps"), "{report}");
        assert!(report.contains("captured"), "{report}");
        let json = std::fs::read_to_string(&out.0).unwrap();
        let v: serde_json::JsonValue = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(v["bench"].as_str(), Some("dataplane-burst"));
        assert_eq!(v["scale"].as_str(), Some("tiny"));
        assert_eq!(v["nodes"].as_f64(), Some(209.0));
        assert_eq!(v["tunnels"].as_f64(), Some(4.0));
        assert_eq!((v["flows"].as_f64(), v["packets"].as_f64()), (Some(256.0), Some(4000.0)));
        assert!(v["host_parallelism"].as_f64().unwrap() >= 1.0);
        // 4 stages x (2 batch sizes + baseline).
        let stages = v["stages"].as_array().expect("stages array");
        assert_eq!(stages.len(), 4 * 3);
        for (i, row) in stages.iter().enumerate() {
            assert_eq!(row["stage"].as_str(), Some(STAGES[i / 3]));
            assert_eq!(row["baseline"].as_bool(), Some(i % 3 == 2));
            assert_eq!(row["batch"].as_f64(), Some([4.0, 32.0, 1.0][i % 3]));
            assert!(row["mpps"].as_f64().unwrap() > 0.0);
            assert!(row["ns_per_pkt"].as_f64().unwrap() > 0.0);
        }
        assert_eq!(v["reps"].as_f64(), Some(REPS as f64));
        assert!(v["lookup"]["speedup"].as_f64().unwrap() > 0.0);
        assert!(v["lookup"]["table_bytes"].as_f64().unwrap() >= f64::from(4u32 << 16));
        // The capture is a readable pcapng: SHB magic first.
        let cap = std::fs::read(&cap.0).unwrap();
        assert_eq!(&cap[..4], &0x0A0D_0D0Au32.to_le_bytes());
        assert!(cap.len() > 48, "has packet blocks beyond the preamble");
    }
}
