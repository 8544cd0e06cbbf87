//! The paper's measurement pipeline, end to end: ground-truth topology ->
//! BGP stable routes -> AS-path extraction -> relationship inference
//! (Gao and Agarwal) -> re-annotated topology, with accuracy checks —
//! and the two route engines cross-validated on every dataset preset.

use miro_bgp::sim::{GaoRexford, Sim};
use miro_bgp::solver::{as_paths_to, RoutingState};
use miro_topology::gen::DatasetPreset;
use miro_topology::infer::{agarwal_infer, agreement, gao_infer, AgarwalParams, GaoParams};
use miro_topology::{GenParams, Rel};

fn small_world() -> miro_topology::Topology {
    DatasetPreset::Gao2005.params(0.012, 3).generate()
}

/// Gao inference over solver-produced AS paths recovers most
/// provider-customer links of the ground truth.
#[test]
fn gao_inference_recovers_most_relationships() {
    let truth = small_world();
    let dests: Vec<_> = truth.nodes().step_by(3).collect();
    let paths = as_paths_to(&truth, &dests);
    assert!(paths.len() > 5_000, "plenty of vantage paths: {}", paths.len());
    let inferred = gao_infer(&paths, GaoParams::default());
    let acc = agreement(&truth, &inferred);
    assert!(acc > 0.75, "Gao agreement too low: {acc}");
}

/// The Agarwal pipeline also recovers the bulk of the hierarchy; the
/// paper treats it as the secondary reference ("the Gao algorithm
/// produces more accurate inference results"), so allow it a lower bar —
/// and check the Table 5.1 signature that it labels far *fewer sibling*
/// links than Gao's algorithm (177 vs 687 at paper scale).
#[test]
fn agarwal_inference_is_reasonable_and_sibling_lighter() {
    let truth = small_world();
    let dests: Vec<_> = truth.nodes().step_by(3).collect();
    let paths = as_paths_to(&truth, &dests);
    let gao = gao_infer(&paths, GaoParams::default());
    let aga = agarwal_infer(&paths, AgarwalParams::default());
    let acc = agreement(&truth, &aga);
    assert!(acc > 0.55, "Agarwal agreement too low: {acc}");
    let count_rel = |t: &miro_topology::Topology, want: Rel| {
        t.nodes()
            .flat_map(|x| t.neighbors(x).iter().map(move |&(y, r)| (x, y, r)))
            .filter(|&(x, y, r)| x < y && r == want)
            .count()
    };
    assert!(
        count_rel(&aga, Rel::Sibling) <= count_rel(&gao, Rel::Sibling),
        "Agarwal should label fewer siblings ({} vs {})",
        count_rel(&aga, Rel::Sibling),
        count_rel(&gao, Rel::Sibling)
    );
    assert!(count_rel(&aga, Rel::Peer) > 0, "it must still find peering links");
}

/// Inference degrades gracefully with fewer vantage points (fewer paths):
/// accuracy with 1/8 of the destinations is below accuracy with all of
/// them, but both stay sane.
#[test]
fn inference_improves_with_more_vantage_points() {
    let truth = small_world();
    let few: Vec<_> = truth.nodes().step_by(24).collect();
    let many: Vec<_> = truth.nodes().step_by(3).collect();
    let acc_few = agreement(&truth, &gao_infer(&as_paths_to(&truth, &few), GaoParams::default()));
    let acc_many =
        agreement(&truth, &gao_infer(&as_paths_to(&truth, &many), GaoParams::default()));
    assert!(acc_many >= acc_few - 0.05, "more data should not hurt much: {acc_many} vs {acc_few}");
    assert!(acc_few > 0.5);
}

/// Engine cross-validation on every Table 5.1 preset: the closed-form
/// solver and the event-driven simulator agree on every node's selected
/// path (the stable state is unique under Guideline A).
#[test]
fn solver_and_simulator_agree_on_every_preset() {
    for preset in DatasetPreset::ALL {
        let t = preset.params(0.006, 9).generate();
        for d in t.nodes().step_by(37) {
            let st = RoutingState::solve(&t, d);
            let mut sim = Sim::new(&t, GaoRexford, d);
            assert!(sim.run(17, 50_000_000).converged(), "{preset:?} dest {d}");
            for x in t.nodes() {
                assert_eq!(
                    sim.selected(x).map(|p| p.to_vec()),
                    st.path(x),
                    "{preset:?}: engines disagree at node {x} for dest {d}"
                );
            }
        }
    }
}

/// Link failure: after failing the first hop of some node's path, the
/// simulator reconverges and the new state equals a fresh solve on the
/// edited topology.
#[test]
fn failure_reconvergence_matches_fresh_solve() {
    let t = GenParams::tiny(33).generate();
    let d = t.nodes().next().expect("non-empty");
    let mut sim = Sim::new(&t, GaoRexford, d);
    assert!(sim.run(5, 10_000_000).converged());
    // Fail the busiest first-hop link into d.
    let victim = t
        .neighbors(d)
        .iter()
        .map(|&(n, _)| n)
        .next()
        .expect("destination has neighbors");
    sim.fail_link(d, victim);
    assert!(sim.run(6, 10_000_000).converged());
    // Fresh solve on a rebuilt topology without that link.
    let mut b = miro_topology::TopologyBuilder::new();
    for x in t.nodes() {
        b.add_as(t.asn(x));
    }
    for x in t.nodes() {
        for &(y, rel) in t.neighbors(x) {
            if x < y && !(x == d && y == victim) && !(x == victim && y == d) {
                // `neighbors` reports what y is to x, which is exactly the
                // builder's `link(x, y, rel)` convention.
                b.link(t.asn(x), t.asn(y), rel);
            }
        }
    }
    let t2 = b.build().expect("valid");
    let st2 = RoutingState::solve(&t2, t2.node(t.asn(d)).expect("present"));
    for x in t.nodes() {
        let sim_path: Option<Vec<_>> =
            sim.selected(x).map(|p| p.iter().map(|&h| t.asn(h)).collect());
        let x2 = t2.node(t.asn(x)).expect("present");
        let solve_path: Option<Vec<_>> =
            st2.path(x2).map(|p| p.iter().map(|&h| t2.asn(h)).collect());
        assert_eq!(sim_path, solve_path, "post-failure state at {:?}", t.asn(x));
    }
}

/// The full ingest pipeline, end to end: a CAIDA-format snapshot on disk
/// -> `miro ingest` (the actual CLI entry point) -> JSON cache ->
/// `miro-eval`'s dataset loader -> a whole-network what-if solve over
/// the loaded graph.
#[test]
fn ingest_cache_feeds_the_eval_pipeline() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/data/caida_sample.txt");
    let cache = std::env::temp_dir().join("miro_pipeline_ingest.cache.json");
    let report = miro_cli::ingest::run(&[
        fixture.to_string(),
        "--out".into(),
        cache.display().to_string(),
        "--name".into(),
        "caida-sample".into(),
    ])
    .expect("ingest succeeds");
    assert!(report.contains("accepted 23 edges over 16 ASes"), "{report}");

    let ds = miro_eval::datasets::Dataset::load_cache(&cache.display().to_string())
        .expect("cache loads");
    assert_eq!(ds.name(), "caida-sample");
    assert_eq!(ds.census.nodes, 16);
    assert_eq!(ds.census.edges, 23);

    // One solve per destination through the parallel what-if engine; for
    // each, knock out the destination's first tree link and confirm the
    // delta answer matches a full masked re-solve.
    let topo = &ds.topo;
    let dests: Vec<_> = topo.nodes().collect();
    let checks = miro_bgp::engine::par_over_dests_whatif(topo, &dests, 2, |d, wi| {
        let reachable = wi.base().reachable_count();
        let Some((v, next)) = topo
            .nodes()
            .filter(|&v| v != d)
            .find_map(|v| wi.base().best(v).map(|r| (v, r.next)))
        else {
            return (reachable, true);
        };
        let delta_best = wi.without_link(v, next, |st| st.best(v));
        let full = RoutingState::solve_without_link(topo, d, v, next);
        (reachable, delta_best == full.best(v))
    });
    assert_eq!(checks.len(), 16);
    for (reachable, delta_ok) in checks {
        assert_eq!(reachable, 16, "the fixture is connected");
        assert!(delta_ok, "what-if delta must match the masked re-solve");
    }
}

/// FNV-1a over the graph's CSR as the public views expose it: AS
/// numbers, adjacency offsets, `(neighbor, tag)` pairs, and the four
/// class partitions with their offsets.
fn csr_digest(t: &miro_topology::Topology) -> u64 {
    let mut words: Vec<u32> = t.nodes().map(|x| t.asn(x).0).collect();
    let mut offset = 0;
    words.push(offset);
    for x in t.nodes() {
        offset += t.degree(x) as u32;
        words.push(offset);
    }
    for x in t.nodes() {
        words.extend(t.neighbors(x).iter().flat_map(|&(y, rel)| [y, rel.tag() as u32]));
    }
    let mut part_off = vec![0];
    for x in t.nodes() {
        for class in [t.provider_neighbors(x), t.sibling_neighbors(x), t.customer_neighbors(x), t.peer_neighbors(x)] {
            words.extend_from_slice(class);
            part_off.push(part_off.last().unwrap() + class.len() as u32);
        }
    }
    words.extend(part_off);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    miro_shard::fnv1a(&bytes)
}

/// A topology loaded through an ingest cache is the graph the cache was
/// written from, node for node and slice for slice: the table bytes
/// depend on the numbering and on every adjacency and class slice.
#[test]
fn a_cache_load_builds_the_same_csr() {
    use miro_topology::io::stream::{self, IngestCache};
    let path = std::env::temp_dir().join(format!("miro_csr_pin_{}.json", std::process::id()));
    for (factor, nodes, digest) in [(0.01, 209, 0xaa3a_e3b3_7f0a_45fb_u64), (0.5, 10_465, 0x5355_9b12_c820_585e)] {
        let generated = DatasetPreset::Gao2005.params(factor, 42).generate();
        let (parsed, stats) =
            stream::parse_str(&miro_topology::io::to_text(&generated)).expect("parses");
        let cache = IngestCache::new("pin".into(), "generated".into(), stats, miro_topology::io::TopologyDoc::of(&parsed));
        std::fs::write(&path, serde_json::to_string(&cache).expect("serializes")).expect("tmp write");
        let (_, t) = stream::load_cache(&path).expect("cache loads");
        assert_eq!(t.num_nodes(), nodes);
        assert_eq!(csr_digest(&t), digest, "factor {factor}: {:#018x}", csr_digest(&t));
    }
    let _ = std::fs::remove_file(&path);
}

/// `solve_without_link` agrees with a fresh solve on the edited topology
/// for every link incident to sampled destinations — the cheap what-if
/// the control plane uses on withdrawals.
#[test]
fn masked_solve_matches_topology_rebuild() {
    let t = GenParams::tiny(71).generate();
    let d = t.nodes().next().expect("non-empty");
    for &(victim, _) in t.neighbors(d).iter().take(3) {
        let masked = RoutingState::solve_without_link(&t, d, d, victim);
        // Rebuild without the link.
        let mut b = miro_topology::TopologyBuilder::new();
        for x in t.nodes() {
            b.add_as(t.asn(x));
        }
        for x in t.nodes() {
            for &(y, rel) in t.neighbors(x) {
                if x < y && !(x == d.min(victim) && y == d.max(victim)) {
                    b.link(t.asn(x), t.asn(y), rel);
                }
            }
        }
        let t2 = b.build().expect("valid");
        let st2 = RoutingState::solve(&t2, t2.node(t.asn(d)).expect("present"));
        for x in t.nodes() {
            let masked_path: Option<Vec<_>> =
                masked.path(x).map(|p| p.iter().map(|&h| t.asn(h)).collect());
            let x2 = t2.node(t.asn(x)).expect("present");
            let rebuilt_path: Option<Vec<_>> =
                st2.path(x2).map(|p| p.iter().map(|&h| t2.asn(h)).collect());
            assert_eq!(masked_path, rebuilt_path, "node {:?}", t.asn(x));
            // Candidate sets agree too (the MIRO-relevant part).
            let masked_cands = masked.candidates(x).len();
            let rebuilt_cands = st2.candidates(x2).len();
            assert_eq!(masked_cands, rebuilt_cands, "candidates at {:?}", t.asn(x));
        }
    }
}
