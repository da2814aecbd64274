//! Cross-cutting behavioural tests of the baseline protocols, driven
//! through the scripted context (no simulator).

use rica_channel::ChannelClass;
use rica_net::testing::ScriptedCtx;
use rica_net::{
    ControlKind, ControlPacket, DataPacket, FlowId, LsuEntry, NodeId, RoutingProtocol, RxInfo,
    Timer, TopologySnapshot,
};
use rica_protocols::{Abr, Aodv, Bgca, LinkState};
use rica_sim::SimDuration;

fn rx(from: u32) -> RxInfo {
    RxInfo { from: NodeId(from), class: ChannelClass::A }
}

fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
    DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, rica_sim::SimTime::ZERO)
}

// ------------------------------------------------------------- link state

#[test]
fn ls_missed_delta_leaves_stale_link_until_next_change() {
    // The deliberately fragile delta semantics: missing seq 2 leaves n1's
    // link to n9 in our view even though n1 dropped it; a later delta for
    // the same link heals it.
    let mut ctx = ScriptedCtx::new(NodeId(0));
    ctx.set_initial_topology(Some(TopologySnapshot {
        links: vec![
            (NodeId(0), NodeId(1), ChannelClass::A),
            (NodeId(1), NodeId(9), ChannelClass::A),
        ],
    }));
    let mut p = LinkState::new();
    p.on_start(&mut ctx);
    assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), Some(NodeId(1)));
    // Seq 2 (which would remove 1-9) is LOST. Seq 3 arrives with an
    // unrelated change: our stale view still routes via the dead link.
    p.on_control(
        &mut ctx,
        &ControlPacket::Lsu {
            origin: NodeId(1),
            seq: 3,
            entries: [LsuEntry { neighbor: NodeId(0), class: ChannelClass::B }].into(),
            down: [].into(),
        },
        rx(1),
    );
    assert_eq!(
        p.next_hop_to(NodeId(0), NodeId(9)),
        Some(NodeId(1)),
        "stale link survives a missed delta — the paper's inconsistency"
    );
    // Seq 4 finally mentions the link: healed.
    p.on_control(
        &mut ctx,
        &ControlPacket::Lsu {
            origin: NodeId(1),
            seq: 4,
            entries: [].into(),
            down: [NodeId(9)].into(),
        },
        rx(1),
    );
    assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), None);
}

#[test]
fn ls_equal_cost_routes_are_deterministic() {
    // Two equal-cost paths: the tie-break must be stable (no flapping
    // between runs of ensure_routes).
    let mut ctx = ScriptedCtx::new(NodeId(0));
    ctx.set_initial_topology(Some(TopologySnapshot {
        links: vec![
            (NodeId(0), NodeId(1), ChannelClass::A),
            (NodeId(1), NodeId(9), ChannelClass::A),
            (NodeId(0), NodeId(2), ChannelClass::A),
            (NodeId(2), NodeId(9), ChannelClass::A),
        ],
    }));
    let mut p = LinkState::new();
    p.on_start(&mut ctx);
    let first = p.next_hop_to(NodeId(0), NodeId(9));
    for seq in 1..=5u64 {
        // Force recompute via an irrelevant LSU.
        p.on_control(
            &mut ctx,
            &ControlPacket::Lsu { origin: NodeId(7), seq, entries: [].into(), down: [].into() },
            rx(7),
        );
        assert_eq!(p.next_hop_to(NodeId(0), NodeId(9)), first);
    }
}

// ------------------------------------------------------------------- abr

#[test]
fn abr_lq_for_unknown_flow_is_harmless() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Abr::new();
    p.on_control(
        &mut ctx,
        &ControlPacket::LqRep {
            src: NodeId(0),
            dst: NodeId(9),
            origin: NodeId(5),
            seq: 77,
            csi_hops: 1.0,
            topo_hops: 1,
        },
        rx(8),
    );
    assert!(ctx.unicasts.is_empty());
    assert!(ctx.sent_data.is_empty());
}

#[test]
fn abr_beacons_rearm_forever() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Abr::new();
    p.on_start(&mut ctx);
    for _ in 0..5 {
        let t = ctx.fire_next_timer();
        assert_eq!(t, Timer::Beacon);
        p.on_timer(&mut ctx, t);
    }
    let beacons = ctx.broadcasts.iter().filter(|b| b.kind() == ControlKind::Beacon).count();
    assert_eq!(beacons, 5);
    assert!(ctx.pending_timers().iter().any(|t| t.timer == Timer::Beacon));
}

#[test]
fn abr_duplicate_lq_is_suppressed() {
    let mut ctx = ScriptedCtx::new(NodeId(6));
    let mut p = Abr::new();
    let lq = ControlPacket::Lq {
        src: NodeId(0),
        dst: NodeId(9),
        origin: NodeId(5),
        bcast_id: 3,
        ttl: 3,
        csi_hops: 0.0,
        topo_hops: 0,
    };
    p.on_control(&mut ctx, &lq, rx(5));
    p.on_control(&mut ctx, &lq, rx(4));
    let lqs = ctx.broadcasts.iter().filter(|b| b.kind() == ControlKind::Lq).count();
    assert_eq!(lqs, 1, "each LQ flood relayed once");
}

// ------------------------------------------------------------------ bgca

#[test]
fn bgca_stale_lqrep_seq_is_ignored() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Bgca::new();
    // Install a route and break it, starting repair with bcast id 0.
    p.on_control(
        &mut ctx,
        &ControlPacket::Rreq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            csi_hops: 0.0,
            topo_hops: 0,
        },
        rx(1),
    );
    p.on_control(
        &mut ctx,
        &ControlPacket::Rrep {
            src: NodeId(0),
            dst: NodeId(9),
            seq: 0,
            csi_hops: 1.0,
            topo_hops: 2,
        },
        rx(7),
    );
    p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 0)]);
    assert!(p.is_repairing(NodeId(0), NodeId(9)));
    // A reply answering a *different* (stale) query: must not splice.
    p.on_control(
        &mut ctx,
        &ControlPacket::LqRep {
            src: NodeId(0),
            dst: NodeId(9),
            origin: NodeId(5),
            seq: 99,
            csi_hops: 1.0,
            topo_hops: 1,
        },
        rx(8),
    );
    assert!(p.is_repairing(NodeId(0), NodeId(9)), "stale seq must not complete the repair");
    assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), None);
}

#[test]
fn bgca_monitor_rearms_itself() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Bgca::new();
    p.on_start(&mut ctx);
    for _ in 0..3 {
        let t = ctx.fire_next_timer();
        assert_eq!(t, Timer::LinkMonitor);
        p.on_timer(&mut ctx, t);
    }
    assert!(ctx.pending_timers().iter().any(|t| t.timer == Timer::LinkMonitor));
}

// ------------------------------------------------------------------ aodv

#[test]
fn aodv_reverse_path_survives_multiple_floods() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Aodv::new();
    for bcast in 0..3u64 {
        p.on_control(
            &mut ctx,
            &ControlPacket::Rreq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: bcast,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx((bcast % 2) as u32 + 1),
        );
    }
    ctx.clear_actions();
    // Reply to the middle flood: forwarded to that flood's upstream (n2,
    // because bcast 1 came from node (1 % 2) + 1 = 2).
    p.on_control(
        &mut ctx,
        &ControlPacket::Rrep {
            src: NodeId(0),
            dst: NodeId(9),
            seq: 1,
            csi_hops: 0.0,
            topo_hops: 3,
        },
        rx(7),
    );
    assert_eq!(ctx.unicasts.len(), 1);
    assert_eq!(ctx.unicasts[0].0, NodeId(2));
}

#[test]
fn aodv_data_refreshes_route_lifetime() {
    let mut ctx = ScriptedCtx::new(NodeId(5));
    let mut p = Aodv::new();
    p.on_control(
        &mut ctx,
        &ControlPacket::Rrep {
            src: NodeId(0),
            dst: NodeId(9),
            seq: 0,
            csi_hops: 0.0,
            topo_hops: 2,
        },
        rx(7),
    );
    // Keep the route warm with traffic every 2 s (timeout is 3 s): it must
    // never expire even after 10 s total.
    for i in 0..5 {
        ctx.advance(SimDuration::from_secs(2));
        ctx.clear_actions();
        p.on_data(&mut ctx, data(0, 9, i), Some(rx(1)));
        assert_eq!(ctx.sent_data.len(), 1, "route expired at +{} s", (i + 1) * 2);
    }
}
