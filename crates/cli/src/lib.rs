//! `miro` — an interactive / scriptable simulator shell.
//!
//! Operators explore MIRO the way they explore BGP: load a topology, look
//! at tables, poke at negotiations, fail links, watch state react. The
//! shell is line-oriented and deterministic, so sessions double as
//! reproducible scripts (`miro < scenario.txt`).
//!
//! ```text
//! miro> gen gao2005 0.01 42
//! miro> show topology
//! miro> show ip bgp 111 to 937
//! miro> candidates 111 to 937
//! miro> negotiate 111 with 222 to 937 avoid 555 budget 250 policy e
//! miro> leases
//! miro> fail link 333 555
//! miro> policy load data/avoid_as5.policy
//! miro> policy apply 1 AVOID_AS to 6
//! miro> quit
//! ```
//!
//! Every command is implemented in [`Repl::exec`], which returns the
//! response text — the binary is a thin stdin/stdout loop around it, and
//! the tests drive it directly.

pub mod bench;
pub mod bench_dataplane;
pub mod bench_query;
pub mod churn_cmd;
pub mod ingest;
pub mod serve_cmd;
pub mod shard_cmd;

/// The command harness, shared with `miro-eval`'s own front ends.
pub use miro_eval::harness;

use miro_bgp::show;
use miro_bgp::solver::multi::{LinkEvent, MultiFailState};
use miro_bgp::solver::{DeltaScratch, SolveScratch};
use miro_core::export::{ExportPolicy, ResponderConfig};
use miro_core::negotiate::Constraint;
use miro_core::node::{Lease, MiroNetwork};
use miro_core::strategy::avoid_via_multihop_negotiation;
use miro_core::strategy::TargetStrategy;
use miro_policy::{bridge, Config};
use miro_topology::gen::DatasetPreset;
use miro_topology::{io as topo_io, AsId, NodeId, Topology};
use std::collections::HashMap;
use std::fmt::Write as _;

/// AS numbers, space-separated (the `[3 6]` of every path the shell prints).
fn spaced(asns: impl IntoIterator<Item = u32>) -> String {
    asns.into_iter().map(|a| a.to_string()).collect::<Vec<_>>().join(" ")
}

fn as_list(topo: &Topology, path: &[NodeId]) -> String {
    spaced(path.iter().map(|&h| topo.asn(h).0))
}

/// Who tunnels to whom, for which destination, along what.
fn route_of(topo: &Topology, l: &Lease) -> String {
    let (up, down, dest) = (topo.asn(l.upstream), topo.asn(l.downstream), topo.asn(l.dest));
    format!("AS{up} -> AS{down} for AS{dest} via [{}]", as_list(topo, &l.path))
}

/// The shell state. The loaded topology is intentionally leaked
/// (`Box::leak`): a shell session loads a handful of topologies at most,
/// and the `'static` borrow keeps the live [`MiroNetwork`] simple.
pub struct Repl {
    topo: Option<&'static Topology>,
    net: Option<MiroNetwork<'static>>,
    /// `Down` per link `fail link` took down; every solve applies them.
    failed: Vec<LinkEvent>,
    /// Chapter 6 configurations loaded with `policy load` into the live
    /// network, by `router bgp` AS number.
    policies: HashMap<u32, Config>,
    clock_step: u64,
    keepalive_timeout: u64,
}

impl Default for Repl {
    fn default() -> Self {
        Self::new()
    }
}

impl Repl {
    pub fn new() -> Repl {
        Repl { topo: None, net: None, failed: Vec::new(), policies: HashMap::new(), clock_step: 10, keepalive_timeout: 30 }
    }

    fn install(&mut self, topo: Topology) -> String {
        let leaked: &'static Topology = Box::leak(Box::new(topo));
        self.topo = Some(leaked);
        self.net = Some(MiroNetwork::new(leaked));
        self.failed.clear();
        self.policies.clear();
        format!(
            "loaded topology: {} ASes, {} links",
            leaked.num_nodes(),
            leaked.num_edges()
        )
    }

    fn node(&self, asn: u32) -> Result<(NodeId, &'static Topology), String> {
        let topo = self.topo.ok_or("no topology loaded (use `gen` or `load`)")?;
        let n = topo.node(AsId(asn)).ok_or(format!("unknown AS {asn}"))?;
        Ok((n, topo))
    }

    /// The routes toward `dest` BGP converges to on the loaded topology
    /// with the `failed` links down — the one solve every command reads.
    fn solve(failed: &[LinkEvent], topo: &'static Topology, dest: NodeId) -> MultiFailState<'static> {
        let mut st = MultiFailState::solve(topo, dest, &mut SolveScratch::new());
        st.apply(failed, &mut DeltaScratch::new());
        st
    }

    /// Execute one command line; returns the response text.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| -> Result<u32, String> {
            s.parse().map_err(|_| format!("not a number: {s:?}"))
        };
        match words.as_slice() {
            [] | ["#", ..] => Ok(String::new()),
            ["help"] => Ok(HELP.to_string()),
            ["gen", preset, scale, seed] => {
                if matches!(*preset, "fig1.1" | "fig1-1") {
                    return Ok(self.install(miro_topology::gen::figure_1_1().0));
                }
                let preset: DatasetPreset = preset.parse()?;
                let scale: f64 = scale.parse().map_err(|_| "bad scale".to_string())?;
                let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
                Ok(self.install(preset.params(scale, seed).generate()))
            }
            ["load", path] => {
                // The streaming parser, so the shell can load real CAIDA
                // snapshots (either text format, lenient about dups).
                let f = std::fs::File::open(path)
                    .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                let (topo, _) = topo_io::stream::parse(std::io::BufReader::new(f))
                    .map_err(|e| e.to_string())?;
                Ok(self.install(topo))
            }
            ["save", path] => {
                let topo = self.topo.ok_or("no topology loaded")?;
                std::fs::write(path, topo_io::to_text(topo))
                    .map_err(|e| format!("cannot write {path:?}: {e}"))?;
                Ok(format!("saved {} links to {path}", topo.num_edges()))
            }
            ["show", "topology"] => {
                let topo = self.topo.ok_or("no topology loaded")?;
                let census = miro_topology::stats::link_census(topo);
                let mut out = format!(
                    "{} ASes, {} links (P/C {}, peering {}, sibling {}); \
                     {} stubs ({} multi-homed), {} leaves",
                    census.nodes,
                    census.edges,
                    census.pc_links,
                    census.peering_links,
                    census.sibling_links,
                    census.stubs,
                    census.multihomed_stubs,
                    census.leaves
                );
                for ev in &self.failed {
                    let (LinkEvent::Down(a, b) | LinkEvent::Up(a, b)) = *ev;
                    let _ = write!(out, "\n  link AS{}-AS{} is down", topo.asn(a), topo.asn(b));
                }
                Ok(out)
            }
            ["show", "ip", "bgp", asn, "to", dest] => {
                let (x, topo) = self.node(num(asn)?)?;
                let (d, _) = self.node(num(dest)?)?;
                let st = Self::solve(&self.failed, topo, d);
                let rows = show::show_ip_bgp(&st, x);
                if rows.is_empty() {
                    return Ok(format!("AS{asn} has no route to AS{dest}"));
                }
                Ok(show::format_table(&rows))
            }
            ["candidates", asn, "to", dest] => {
                let (x, topo) = self.node(num(asn)?)?;
                let (d, _) = self.node(num(dest)?)?;
                let st = Self::solve(&self.failed, topo, d);
                let best = st.path(x);
                let mut out = String::new();
                for c in st.candidates(x) {
                    let tag = if Some(&c.path) == best.as_ref() { "*" } else { " " };
                    let _ = writeln!(out, "{tag} {:?} [{}]", c.class, as_list(topo, &c.path));
                }
                Ok(out)
            }
            ["negotiate", src, "with", responder, "to", dest, rest @ ..]
            | ["multihop", src, "with", responder, "to", dest, rest @ ..] => {
                let multihop = words[0] == "multihop";
                let (s, topo) = self.node(num(src)?)?;
                let (r, _) = self.node(num(responder)?)?;
                let (d, _) = self.node(num(dest)?)?;
                let mut avoid: Option<NodeId> = None;
                let mut budget = u32::MAX;
                let mut policy = ExportPolicy::RespectExport;
                let mut it = rest.iter();
                while let Some(&w) = it.next() {
                    match w {
                        "avoid" => {
                            let a = num(it.next().ok_or("avoid needs an AS")?)?;
                            avoid = Some(self.node(a)?.0);
                        }
                        "budget" => {
                            budget = num(it.next().ok_or("budget needs a value")?)?;
                        }
                        "policy" => {
                            policy = match *it.next().ok_or("policy needs s|e|a")? {
                                "s" => ExportPolicy::Strict,
                                "e" => ExportPolicy::RespectExport,
                                "a" => ExportPolicy::Flexible,
                                other => return Err(format!("unknown policy {other:?}")),
                            };
                        }
                        other => return Err(format!("unknown option {other:?}")),
                    }
                }
                let st = Self::solve(&self.failed, topo, d);
                if multihop {
                    let a = avoid.ok_or("multihop needs `avoid <asn>`")?;
                    let out = avoid_via_multihop_negotiation(
                        &st,
                        s,
                        a,
                        &ResponderConfig { policy, ..Default::default() },
                        TargetStrategy::OnPath,
                        None,
                    );
                    return Ok(match out.chosen {
                        Some((resp, route)) => format!(
                            "success via AS{} after {} contacts / {} paths: [{}]",
                            topo.asn(resp),
                            out.ases_contacted,
                            out.paths_received,
                            as_list(topo, &route.path)
                        ),
                        None => format!(
                            "failed after {} contacts / {} paths",
                            out.ases_contacted, out.paths_received
                        ),
                    });
                }
                let net = self.net.as_mut().ok_or("no topology loaded")?;
                net.config_mut(r).policy = policy;
                let constraints: Vec<Constraint> =
                    avoid.into_iter().map(Constraint::AvoidAs).collect();
                match net.negotiate(&st, s, r, constraints, budget) {
                    Ok(tid) => {
                        let lease = net
                            .leases()
                            .iter()
                            .find(|l| l.id == tid)
                            .expect("fresh lease recorded");
                        Ok(format!(
                            "tunnel {} established: AS{} buys [{}] from AS{} at price {}",
                            tid.0,
                            topo.asn(lease.upstream),
                            as_list(topo, &lease.path),
                            topo.asn(lease.downstream),
                            lease.price
                        ))
                    }
                    Err(e) => Err(format!("negotiation failed: {e}")),
                }
            }
            ["leases"] => {
                let topo = self.topo.ok_or("no topology loaded")?;
                let net = self.net.as_ref().ok_or("no topology loaded")?;
                if net.leases().is_empty() {
                    return Ok("no live leases".to_string());
                }
                let mut out = String::new();
                for lease in net.leases() {
                    let _ = writeln!(out, "tunnel {}: {} price {}", lease.id.0, route_of(topo, lease), lease.price);
                }
                Ok(out)
            }
            ["tick"] => {
                let net = self.net.as_mut().ok_or("no topology loaded")?;
                net.tick(self.clock_step, self.keepalive_timeout);
                Ok(format!("t={} ({} lease(s) live)", net.clock, net.leases().len()))
            }
            ["fail", "link", a, b] => {
                let (na, topo) = self.node(num(a)?)?;
                let (nb, _) = self.node(num(b)?)?;
                if topo.rel(na, nb).is_none() {
                    return Err(format!("no link between AS{a} and AS{b}"));
                }
                let down = LinkEvent::Down(na.min(nb), na.max(nb));
                if self.failed.contains(&down) {
                    return Err(format!("link AS{a}-AS{b} is already down"));
                }
                self.failed.push(down);
                // BGP reconverges; each destination some lease serves
                // re-checks its leases against the new routes (section 4.3).
                let net = self.net.as_mut().ok_or("no topology loaded")?;
                let mut dests: Vec<NodeId> = net.leases().iter().map(|l| l.dest).collect();
                dests.sort_unstable();
                dests.dedup();
                let mut struck = Vec::new();
                for d in dests {
                    struck.extend(net.routes_changed(&Self::solve(&self.failed, topo, d)));
                }
                let (dropped, live) = (struck.len(), net.leases().len());
                let mut out = format!("link AS{a}-AS{b} failed; {dropped} lease(s) dropped, {live} survive");
                for lease in &struck {
                    let _ = write!(out, "\n  tunnel {} torn down: {}", lease.id.0, route_of(topo, lease));
                }
                Ok(out)
            }
            ["policy", "load", path] => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path:?}: {e}"))?;
                let cfg = miro_policy::parse_config(&text).map_err(|e| format!("{path}: {e}"))?;
                let asn = cfg.router_asn.ok_or(format!("{path}: no `router bgp <asn>` line"))?;
                let (x, topo) = self.node(asn)?;
                let responder = bridge::responder(&cfg, topo).map_err(|e| format!("{path}: {e}"))?;
                let mut summary = format!(
                    "policy for AS{asn}: {} route-map entries, {} negotiation block(s)",
                    cfg.route_maps.len(),
                    cfg.negotiations.len()
                );
                if cfg.accept.is_some() {
                    let from = responder.allow.as_ref().map_or("any".into(), |a| format!("[{}]", as_list(topo, a)));
                    let m = responder.max_tunnels;
                    let limit = if m == usize::MAX { "none".into() } else { m.to_string() };
                    let [c, p, v] = responder.prices.map(|p| p.map_or("-".into(), |p| p.to_string()));
                    let _ = write!(summary, "\naccepts negotiation from {from}, tunnel limit {limit}, prices {c}/{p}/{v} (customer/peer/provider)");
                }
                *self.net.as_mut().ok_or("no topology loaded")?.config_mut(x) = responder;
                self.policies.insert(asn, cfg);
                Ok(summary)
            }
            ["policy", "apply", asn, map, "to", dest] => {
                let (x, topo) = self.node(num(asn)?)?;
                let (d, _) = self.node(num(dest)?)?;
                let cfg = self
                    .policies
                    .get(&topo.asn(x).0)
                    .ok_or(format!("no policy loaded for AS{asn} (use `policy load`)"))?;
                if !cfg.route_maps.iter().any(|rm| rm.name == *map) {
                    return Err(format!("AS{asn}'s policy has no route-map {map:?}"));
                }
                let st = Self::solve(&self.failed, topo, d);
                let net = self.net.as_mut().ok_or("no topology loaded")?;
                let (kept, outcomes) = bridge::run_policy(cfg, net, &st, x, map);
                let mut out = format!(
                    "route-map {map}: {} of {} candidate(s) kept\n",
                    kept.len(),
                    st.candidates(x).len()
                );
                for r in &kept {
                    let path = spaced(r.path.iter().copied());
                    let _ = writeln!(out, "  keep [{path}] local-pref {}", r.local_pref);
                }
                for o in &outcomes {
                    let t = &o.trigger;
                    let _ = writeln!(
                        out,
                        "negotiation {}: avoid [{}], budget {}, targets [{}]",
                        t.negotiation,
                        spaced(t.avoid.iter().copied()),
                        t.max_cost.map_or("unlimited".to_string(), |c| c.to_string()),
                        spaced(t.targets.iter().copied())
                    );
                    for (target, result) in &o.attempts {
                        let _ = match result {
                            Ok(tid) => writeln!(out, "  AS{}: tunnel {} established", topo.asn(*target), tid.0),
                            Err(e) => writeln!(out, "  AS{}: {e}", topo.asn(*target)),
                        };
                    }
                }
                Ok(out)
            }
            ["quit"] | ["exit"] => Ok("bye".to_string()),
            other => Err(format!("unknown command {:?} (try `help`)", other.join(" "))),
        }
    }

    /// Run a whole script; each line's output is prefixed with the line.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let _ = writeln!(out, "miro> {trimmed}");
            match self.exec(trimmed) {
                Ok(s) if s.is_empty() => {}
                Ok(s) => {
                    let _ = writeln!(out, "{}", s.trim_end());
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
            if trimmed == "quit" || trimmed == "exit" {
                break;
            }
        }
        out
    }
}

const HELP: &str = "\
commands:
  gen <gao2000|gao2003|gao2005|agarwal2004|internet|fig1.1> <scale> <seed>
  load <path> | save <path>     (save writes the topology as loaded: failed links are shell state)
  show topology                 (lists the links `fail link` took down)
  show ip bgp <asn> to <dest-asn>
  candidates <asn> to <dest-asn>
  negotiate <src> with <responder> to <dest> [avoid <asn>] [budget N] [policy s|e|a]
  multihop  <src> with <responder> to <dest> avoid <asn> [policy s|e|a]
  leases | tick | fail link <a> <b>
  policy load <config-file>     (route-maps for `policy apply`; accept/filter statements set the AS's responder rules)
  policy apply <asn> <route-map> to <dest-asn>
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_1_session_end_to_end() {
        let mut repl = Repl::new();
        let out = repl.run_script(
            "gen fig1.1 1 1\n\
             show topology\n\
             show ip bgp 1 to 6\n\
             candidates 2 to 6\n\
             negotiate 1 with 2 to 6 avoid 5 budget 250 policy e\n\
             leases\n\
             tick\n\
             quit\n",
        );
        assert!(out.contains("6 ASes, 8 links"), "{out}");
        assert!(out.contains("*> "), "best route rendered: {out}");
        assert!(out.contains("tunnel 0 established"), "{out}");
        assert!(out.contains("AS1 buys [3 6] from AS2 at price 180"), "{out}");
        assert!(out.contains("tunnel 0: AS1 -> AS2 for AS6 via [3 6] price 180"), "{out}");
        assert!(out.contains("bye"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut repl = Repl::new();
        let out = repl.run_script(
            "show topology\n\
             gen fig1.1 1 1\n\
             negotiate 1 with 2 to 6 avoid 6\n\
             frobnicate\n\
             negotiate 99 with 2 to 6\n",
        );
        assert!(out.contains("error: no topology loaded"));
        assert!(out.contains("error: negotiation failed"));
        assert!(out.contains("error: unknown command"));
        assert!(out.contains("error: unknown AS 99"));
    }

    /// `policy load` / `policy apply`: configuration text drives the
    /// negotiation (the Chapter 6 loop), and every way to hold it wrong is
    /// an error line, not a panic.
    #[test]
    fn policy_commands_drive_the_bridge_and_report_misuse() {
        let conf = harness::TempPath::new("cli_policy", ".conf");
        let bare = harness::TempPath::new("cli_policy_bare", ".conf");
        std::fs::write(
            &conf.0,
            "router bgp 1\nroute-map AVOID_AS permit 10\nmatch empty path 200\n\
             try negotiation NEG-5\nip as-path access-list 200 deny _5_\n\
             ip as-path access-list 200 permit .*\nnegotiation NEG-5\nmatch all path _5_\n\
             start negotiation #1 with maximum cost 250\n",
        )
        .expect("tmp write");
        std::fs::write(&bare.0, "route-map X permit 10\n").expect("tmp write");
        let mut repl = Repl::new();
        let out = repl.run_script(&format!(
            "gen fig1.1 1 1\n\
             policy apply 1 AVOID_AS to 6\n\
             policy load {bare}\n\
             policy load /nonexistent/policy.conf\n\
             policy load {conf}\n\
             policy apply 2 AVOID_AS to 6\n\
             policy apply 1 NO_SUCH_MAP to 6\n\
             policy apply 1 AVOID_AS to 6\n\
             leases\n",
            bare = bare.0.display(),
            conf = conf.0.display()
        ));
        assert!(out.contains("error: no policy loaded for AS1"), "{out}");
        assert!(out.contains("no `router bgp <asn>` line"), "{out}");
        assert!(out.contains("error: cannot read \"/nonexistent/policy.conf\""), "{out}");
        assert!(out.contains("policy for AS1: 1 route-map entries, 1 negotiation block(s)"), "{out}");
        assert!(out.contains("error: no policy loaded for AS2"), "{out}");
        assert!(out.contains("error: AS1's policy has no route-map \"NO_SUCH_MAP\""), "{out}");
        assert!(out.contains("route-map AVOID_AS: 0 of 2 candidate(s) kept"), "{out}");
        assert!(out.contains("negotiation NEG-5: avoid [5], budget 250, targets [2 4]"), "{out}");
        assert!(out.contains("  AS2: tunnel 0 established"), "{out}");
        assert!(out.contains("tunnel 0: AS1 -> AS2 for AS6 via [3 6] price 180"), "{out}");
    }

    #[test]
    fn multihop_command_reports_the_composed_path() {
        // The multihop fixture from miro-core, driven through the shell.
        let mut repl = Repl::new();
        let dir = std::env::temp_dir().join("miro_cli_test_topo.txt");
        let text = "2 1 c\n2 4 c\n2 3 c\n3 4 c\n3 6 c\n4 5 c\n6 5 c\n";
        std::fs::write(&dir, text).expect("tmp write");
        let out = repl.run_script(&format!(
            "load {}\nmultihop 1 with 2 to 5 avoid 4 policy e\n",
            dir.display()
        ));
        assert!(out.contains("success via AS2"), "{out}");
        assert!(out.contains("[3 6 5]"), "{out}");
    }

    #[test]
    fn generated_datasets_work_in_the_shell() {
        let mut repl = Repl::new();
        let out = repl.run_script("gen gao2005 0.01 7\nshow topology\n");
        assert!(out.contains("209 ASes"), "{out}");
        assert!(out.contains("stubs"), "{out}");
    }

    #[test]
    fn save_and_reload_round_trip() {
        let mut repl = Repl::new();
        let path = std::env::temp_dir().join("miro_cli_roundtrip.txt");
        let script = format!(
            "gen fig1.1 1 1\nsave {p}\nload {p}\nshow topology\n",
            p = path.display()
        );
        let out = repl.run_script(&script);
        assert!(out.contains("saved 8 links"), "{out}");
        let shows: Vec<&str> =
            out.lines().filter(|l| l.contains("6 ASes, 8 links")).collect();
        assert!(shows.len() >= 2, "both loads agree: {out}");
    }

    #[test]
    fn fail_link_reconverges_routes() {
        let mut repl = Repl::new();
        let out = repl.run_script(
            "gen fig1.1 1 1\n\
             negotiate 1 with 2 to 6 avoid 5 budget 250 policy e\n\
             fail link 3 6\n\
             show ip bgp 2 to 6\n",
        );
        // The C-F (3-6) link is gone: B's only candidate is now via E.
        assert!(out.contains("link AS3-AS6 failed; 1 lease(s) dropped, 0 survive"), "{out}");
        assert!(out.contains("tunnel 0 torn down: AS1 -> AS2 for AS6 via [3 6]"), "{out}");
        let table = out.split("show ip bgp").nth(1).expect("table output");
        assert!(table.contains("5 6"), "B routes via E after the failure: {out}");
        assert!(!table.contains("3 6"), "the dead link is gone: {out}");
    }

    /// A failure tears down only the leases standing on it, failures
    /// accumulate on the one loaded topology, and `show topology` lists them.
    #[test]
    fn fail_link_keeps_the_leases_it_does_not_touch() {
        let mut repl = Repl::new();
        let out = repl.run_script(
            "gen fig1.1 1 1\n\
             negotiate 1 with 2 to 6 avoid 5 budget 250 policy e\n\
             fail link 4 5\n\
             leases\n\
             fail link 5 4\n\
             fail link 1 2\n\
             show topology\n\
             candidates 1 to 6\n",
        );
        // D-E is on neither AB nor BCF.
        assert!(out.contains("link AS4-AS5 failed; 0 lease(s) dropped, 1 survive"), "{out}");
        assert!(out.contains("tunnel 0: AS1 -> AS2 for AS6 via [3 6] price 180"), "{out}");
        assert!(out.contains("error: link AS5-AS4 is already down"), "{out}");
        // A-B is the path AB itself: A tears the tunnel down.
        assert!(out.contains("link AS1-AS2 failed; 1 lease(s) dropped, 0 survive"), "{out}");
        assert!(out.contains("8 links"), "the loaded topology is untouched: {out}");
        assert!(out.contains("  link AS4-AS5 is down\n  link AS1-AS2 is down"), "{out}");
        // Both failures apply: A is left with D, D with nothing.
        let candidates = out.split("candidates 1 to 6").nth(1).expect("candidates output");
        assert_eq!(candidates.trim(), "", "A is cut off from F: {out}");
    }
}
