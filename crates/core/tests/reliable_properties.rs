//! Property-based tests for the reliability layer: under arbitrary
//! duplication, reordering, and delay (but no loss), every negotiation
//! completes, no negotiation ever owns two tunnels, and the requester and
//! responder tunnel tables agree at quiescence.
//!
//! Loss is excluded from the *completion* property on purpose: with
//! `drop_permille: 0` retries cannot exhaust, so completion is a *hard*
//! invariant rather than a probability; the lossy regimes are covered by
//! seeded unit tests in `miro_core::reliable` and the `miro resilience`
//! sweep. The crash-restart property below does include loss — its
//! invariants (ledger/table agreement, zero orphans) must hold whether or
//! not any individual re-negotiation survives.

use miro_bgp::solver::RoutingState;
use miro_core::chan::FaultConfig;
use miro_core::negotiate::Constraint;
use miro_core::reliable::ReliableNet;
use miro_topology::gen::figure_1_1;
use proptest::prelude::*;

proptest! {
    /// Duplicate/reorder-safety: two concurrent negotiations toward the
    /// same destination settle into exactly one tunnel each, with both
    /// endpoint tables holding exactly the leases in the ledger.
    #[test]
    fn duplication_and_reordering_never_corrupt_state(
        seed in 0u64..300,
        dup in 0u32..501,
        reorder in 0u32..501,
        delay_max in 0u64..5,
    ) {
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let fault = FaultConfig {
            drop_permille: 0,
            dup_permille: dup,
            reorder_permille: reorder,
            delay_min: 0,
            delay_max,
        };
        let mut net = ReliableNet::new(&t, fault, seed);
        // The two pairs that negotiate successfully in Figure 1.1 toward
        // f, both against the same responder so its table sees
        // interleaved (and possibly duplicated/reordered) sessions.
        let id_a = net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        let id_d = net.start(&st, e, b, vec![], 250).unwrap();
        let ticks = net.run_until_settled(&st, 3_000);
        prop_assert!(net.handshakes_settled(), "must settle, took {} ticks", ticks);

        // With zero loss nothing can exhaust: both handshakes complete.
        prop_assert_eq!(net.outcomes().len(), 2);
        for out in net.outcomes() {
            prop_assert!(out.result.is_ok(), "no-loss channel cannot fail: {:?}", out);
        }
        prop_assert!(net.fallbacks().is_empty());
        prop_assert_eq!(net.double_establish_count(), 0);

        // The ledger holds exactly one lease per negotiation...
        prop_assert_eq!(net.leases().len(), 2);
        let tid_a = net.outcomes().iter().find(|o| o.id == id_a).unwrap().result.unwrap();
        let tid_d = net.outcomes().iter().find(|o| o.id == id_d).unwrap().result.unwrap();
        prop_assert_ne!(tid_a, tid_d, "responder allocates distinct ids");

        // ...and requester/responder tables agree at quiescence: each
        // requester holds its tunnel, the responder holds both, and the
        // paired records match on peer, path, and price.
        prop_assert_eq!(net.tunnels(a).len(), 1);
        prop_assert_eq!(net.tunnels(e).len(), 1);
        prop_assert_eq!(net.tunnels(b).len(), 2);
        for (req, tid) in [(a, tid_a), (e, tid_d)] {
            let up = net.tunnels(req).get(b, tid).expect("requester side holds the tunnel");
            let down = net.tunnels(b).get(req, tid).expect("responder side holds the tunnel");
            prop_assert_eq!(up.peer, b);
            prop_assert_eq!(down.peer, req);
            prop_assert_eq!(&up.path, &down.path);
            prop_assert_eq!(up.price, down.price);
        }
        // The negotiated constraint is honored end to end.
        prop_assert!(
            !net.tunnels(a).get(b, tid_a).unwrap().path.contains(&e),
            "AvoidAs constraint honored"
        );
    }

    /// Crash-restart safety under arbitrary faults (loss included): after
    /// the shared responder loses all soft state, keepalive-death
    /// detection plus paced re-negotiation must drain to quiescence with
    /// zero orphaned tunnels, no double-established negotiations, and the
    /// lease ledger in exact agreement with both endpoint tables — no
    /// tunnel anywhere may reference a session the restarted process no
    /// longer knows about.
    #[test]
    fn crash_restart_never_leaves_orphans_or_dead_session_refs(
        seed in 0u64..200,
        drop in 0u32..301,
        dup in 0u32..301,
        reorder in 0u32..301,
        delay_max in 0u64..4,
    ) {
        let (t, [a, b, _c, _d, e, f]) = figure_1_1();
        let st = RoutingState::solve(&t, f);
        let fault = FaultConfig {
            drop_permille: drop,
            dup_permille: dup,
            reorder_permille: reorder,
            delay_min: 0,
            delay_max,
        };
        let mut net = ReliableNet::new(&t, fault, seed);
        net.start(&st, a, b, vec![Constraint::AvoidAs(e)], 250).unwrap();
        net.start(&st, e, b, vec![], 250).unwrap();
        net.run_until_settled(&st, 5_000);

        // The responder's process restarts: every tunnel it held is gone,
        // but its peers still hold theirs and keep heartbeating.
        net.crash_restart(b);
        // Detection runs over the still-faulty channel for a while...
        for _ in 0..100 {
            net.tick(&st);
        }
        // ...then the channel heals. Tick through several keepalive
        // rounds explicitly (quiescence alone does not wait for the next
        // heartbeat interval), then drain the recovery machinery.
        net.set_fault(FaultConfig::PERFECT);
        for _ in 0..200 {
            net.tick(&st);
        }
        net.run_until_quiescent(&st, 20_000);
        prop_assert!(net.quiescent(), "recovery machinery must drain");

        prop_assert_eq!(net.orphan_count(), 0, "no one-sided tunnels at quiescence");
        prop_assert_eq!(net.double_establish_count(), 0);

        // Ledger <-> table agreement: every lease is held by both sides
        // with matching records...
        for l in net.leases() {
            let up = net.tunnels(l.upstream).get(l.downstream, l.id);
            let down = net.tunnels(l.downstream).get(l.upstream, l.id);
            prop_assert!(up.is_some() && down.is_some(), "lease {:?} one-sided", l.id);
            let (up, down) = (up.unwrap(), down.unwrap());
            prop_assert_eq!(up.peer, l.downstream);
            prop_assert_eq!(down.peer, l.upstream);
            prop_assert_eq!(&up.path, &down.path);
            prop_assert_eq!(up.price, down.price);
        }
        // ...and every live tunnel anywhere is backed by a lease: the
        // only nodes that can hold tunnels are the two requesters and the
        // responder, and each lease accounts for exactly two records.
        let live: usize = [a, b, e].iter().map(|&n| net.tunnels(n).len()).sum();
        prop_assert_eq!(
            live,
            2 * net.leases().len(),
            "a tunnel outlived its session (dead-session reference)"
        );
    }
}
