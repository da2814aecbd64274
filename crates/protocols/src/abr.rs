//! ABR (associativity-based routing), as characterised by the paper:
//! beacon-counted link stability, stability-first route selection with load
//! awareness, and localized-query (LQ) repair at the break point while data
//! waits in the repairing terminal. Everything but the beacons and the
//! route score is the shared [`FlowRouted`] engine.

use rica_net::{ControlPacket, IdMap, NodeCtx, NodeId, RxInfo, Timer};
use rica_sim::{SimDuration, SimTime};

use crate::flow::{FloodCopy, FlowPolicy, FlowRouted};

/// The ABR baseline.
pub type Abr = FlowRouted<AbrPolicy>;

/// Route score under ABR's selection rules: prefer more stable links, then
/// lighter load, then fewer hops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Score {
    stable_links: u8,
    load: u32,
    topo: u8,
}

/// ABR's part of [`Abr`]: associativity ticks, the BQ flood and its
/// stability-first score.
#[derive(Debug, Default)]
pub struct AbrPolicy {
    /// Associativity ticks per neighbour: (consecutive beacons, last heard).
    ticks: IdMap<(u32, SimTime)>,
}

impl AbrPolicy {
    fn ticks_for(&self, neighbor: NodeId) -> u32 {
        self.ticks.get(neighbor).map_or(0, |&(t, _)| t)
    }

    fn is_stable(&self, neighbor: NodeId, ctx: &dyn NodeCtx) -> bool {
        self.ticks_for(neighbor) >= ctx.config().abr_stability_ticks
    }
}

impl Abr {
    /// Associativity ticks currently credited to `neighbor`.
    pub fn ticks_for(&self, neighbor: NodeId) -> u32 {
        self.policy.ticks_for(neighbor)
    }
}

impl FlowPolicy for AbrPolicy {
    const NAME: &'static str = "ABR";
    type Metric = Score;

    fn flood_packet(src: NodeId, dst: NodeId, bcast_id: u64, m: Score) -> ControlPacket {
        ControlPacket::Bq {
            src,
            dst,
            bcast_id,
            topo_hops: m.topo,
            stable_links: m.stable_links,
            load: m.load,
        }
    }

    fn read_flood(
        &self,
        ctx: &dyn NodeCtx,
        pkt: &ControlPacket,
        rx: RxInfo,
    ) -> Option<FloodCopy<Score>> {
        let ControlPacket::Bq { src, dst, bcast_id, topo_hops, stable_links, load } = *pkt else {
            return None;
        };
        let stable_inc = u8::from(self.is_stable(rx.from, ctx));
        let metric = Score {
            stable_links: stable_links.saturating_add(stable_inc),
            load,
            topo: topo_hops.saturating_add(1),
        };
        Some(FloodCopy { src, dst, bcast_id, metric })
    }

    /// A relay adds its own queue occupancy to the route load.
    fn relay_metric(ctx: &dyn NodeCtx, m: Score) -> Score {
        Score { load: m.load.saturating_add(ctx.data_queue_total() as u32), ..m }
    }

    fn better(a: &Score, b: &Score) -> bool {
        (a.stable_links, std::cmp::Reverse(a.load), std::cmp::Reverse(a.topo))
            > (b.stable_links, std::cmp::Reverse(b.load), std::cmp::Reverse(b.topo))
    }

    /// ABR's reply carries no CSI distance.
    fn reply_hops(m: &Score) -> (f64, u8) {
        (0.0, m.topo)
    }

    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        let period = ctx.config().beacon_period;
        let jitter_ns = ctx.rng().u64_below(period.as_nanos().max(1));
        ctx.set_timer(SimDuration::from_nanos(jitter_ns), Timer::Beacon);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        if !matches!(pkt, ControlPacket::Beacon) {
            return;
        }
        let now = ctx.now();
        let period = ctx.config().beacon_period;
        let loss = ctx.config().beacon_loss_limit;
        let entry = self.ticks.get_or_insert_with(rx.from, || (0, now));
        let gap = now.saturating_since(entry.1);
        if gap > period.mul_f64(loss as f64 + 0.5) {
            entry.0 = 1; // association broke; start over
        } else {
            entry.0 = entry.0.saturating_add(1);
        }
        entry.1 = now;
    }

    fn on_timer(_engine: &mut Abr, ctx: &mut dyn NodeCtx, timer: Timer) {
        if timer == Timer::Beacon {
            ctx.broadcast(ControlPacket::Beacon);
            let period = ctx.config().beacon_period;
            ctx.set_timer(period, Timer::Beacon);
        }
    }

    /// A broken link ends the association.
    fn on_link_failure(&mut self, neighbor: NodeId) {
        self.ticks.remove(neighbor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::{DataPacket, DropReason, FlowId, RoutingProtocol};

    fn rx(from: u32) -> RxInfo {
        RxInfo { from: NodeId(from), class: ChannelClass::A }
    }

    fn data(src: u32, dst: u32, seq: u64) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(src), NodeId(dst), 512, SimTime::ZERO)
    }

    fn beacon_n_times(p: &mut Abr, ctx: &mut ScriptedCtx, from: u32, n: u32) {
        for _ in 0..n {
            ctx.advance(SimDuration::from_secs(1));
            p.on_control(ctx, &ControlPacket::Beacon, rx(from));
        }
    }

    #[test]
    fn associativity_ticks_accumulate_and_reset() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        beacon_n_times(&mut p, &mut ctx, 3, 4);
        assert_eq!(p.ticks_for(NodeId(3)), 4);
        assert!(p.policy.is_stable(NodeId(3), &ctx), "threshold is 4 ticks");
        // A long silence breaks the association: ticks restart at 1.
        ctx.advance(SimDuration::from_secs(10));
        p.on_control(&mut ctx, &ControlPacket::Beacon, rx(3));
        assert_eq!(p.ticks_for(NodeId(3)), 1);
        assert!(!p.policy.is_stable(NodeId(3), &ctx));
    }

    #[test]
    fn bq_relay_accumulates_stability_and_load() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        beacon_n_times(&mut p, &mut ctx, 1, 5); // n1 is a stable neighbour
        ctx.set_queue_len(NodeId(7), 4); // we are loaded
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 1,
                stable_links: 1,
                load: 2,
            },
            rx(1),
        );
        match &ctx.broadcasts[0] {
            ControlPacket::Bq { topo_hops, stable_links, load, .. } => {
                assert_eq!(*topo_hops, 2);
                assert_eq!(*stable_links, 2, "the stable incoming link counted");
                assert_eq!(*load, 6, "our queue occupancy added");
            }
            other => panic!("expected BQ, got {other:?}"),
        }
    }

    #[test]
    fn destination_prefers_stability_over_hops() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Abr::new();
        let bq = |stable: u8, topo: u8, load: u32| ControlPacket::Bq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            topo_hops: topo,
            stable_links: stable,
            load,
        };
        // Short but unstable route via n1.
        p.on_control(&mut ctx, &bq(0, 2, 0), rx(1));
        // Longer, fully stable route via n2 — ABR picks this one
        // ("ABR inclines to select the route with the highest stability and
        // normally such a route has a greater number of hops").
        p.on_control(&mut ctx, &bq(4, 5, 0), rx(2));
        let t = ctx.fire_next_timer();
        assert_eq!(t, Timer::ReplyWindow { src: NodeId(0), dst: NodeId(9) });
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.unicasts.len(), 1);
        assert_eq!(ctx.unicasts[0].0, NodeId(2));
    }

    #[test]
    fn destination_breaks_stability_ties_by_load_then_hops() {
        let mut ctx = ScriptedCtx::new(NodeId(9));
        let mut p = Abr::new();
        let bq = |stable: u8, topo: u8, load: u32| ControlPacket::Bq {
            src: NodeId(0),
            dst: NodeId(9),
            bcast_id: 0,
            topo_hops: topo,
            stable_links: stable,
            load,
        };
        p.on_control(&mut ctx, &bq(2, 3, 9), rx(1));
        p.on_control(&mut ctx, &bq(2, 6, 2), rx(2)); // lighter load wins
        p.on_control(&mut ctx, &bq(2, 2, 9), rx(3));
        let t = ctx.fire_next_timer();
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.unicasts[0].0, NodeId(2));
    }

    #[test]
    fn link_failure_triggers_lq_and_holds_data() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        // Establish a route as relay: BQ then RREP.
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            rx(1),
        );
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 3,
            },
            rx(7),
        );
        ctx.clear_actions();
        // The link to n7 breaks with a packet in flight.
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1)]);
        // An LQ flood goes out; the packet is NOT dropped.
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Lq { .. })));
        assert!(ctx.dropped.is_empty());
        // More data arriving during the repair is held too.
        p.on_data(&mut ctx, data(0, 9, 2), Some(rx(1)));
        assert!(ctx.sent_data.is_empty());
        // The destination answers: packets flush along the partial route.
        p.on_control(
            &mut ctx,
            &ControlPacket::LqRep {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                seq: 0,
                csi_hops: 1.0,
                topo_hops: 2,
            },
            rx(8),
        );
        assert_eq!(ctx.sent_data.len(), 2, "held packets released");
        assert!(ctx.sent_data.iter().all(|(nh, _)| *nh == NodeId(8)));
        assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), Some(NodeId(8)));
    }

    #[test]
    fn lq_timeout_drops_held_and_notifies_source() {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = Abr::new();
        p.on_control(
            &mut ctx,
            &ControlPacket::Bq {
                src: NodeId(0),
                dst: NodeId(9),
                bcast_id: 0,
                topo_hops: 0,
                stable_links: 0,
                load: 0,
            },
            rx(1),
        );
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 3,
            },
            rx(7),
        );
        ctx.clear_actions();
        p.on_link_failure(&mut ctx, NodeId(7), vec![data(0, 9, 1)]);
        // Fire the LQ deadline without any reply.
        let t = ctx
            .pending_timers()
            .iter()
            .map(|t| t.timer)
            .find(|t| matches!(t, Timer::LqTimeout { .. }))
            .expect("deadline armed");
        ctx.advance(SimDuration::from_secs(1));
        p.on_timer(&mut ctx, t);
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::LinkBreak);
        assert!(ctx
            .unicasts
            .iter()
            .any(|(to, pkt)| *to == NodeId(1) && matches!(pkt, ControlPacket::Rerr { .. })));
    }

    #[test]
    fn lq_relay_decrements_ttl_and_dst_replies() {
        let mut relay_ctx = ScriptedCtx::new(NodeId(6));
        let mut relay = Abr::new();
        relay.on_control(
            &mut relay_ctx,
            &ControlPacket::Lq {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                bcast_id: 3,
                ttl: 2,
                csi_hops: 0.0,
                topo_hops: 0,
            },
            rx(5),
        );
        assert!(matches!(relay_ctx.broadcasts[0], ControlPacket::Lq { ttl: 1, topo_hops: 1, .. }));
        // Destination replies immediately to the first copy.
        let mut dst_ctx = ScriptedCtx::new(NodeId(9));
        let mut dst = Abr::new();
        dst.on_control(
            &mut dst_ctx,
            &ControlPacket::Lq {
                src: NodeId(0),
                dst: NodeId(9),
                origin: NodeId(5),
                bcast_id: 3,
                ttl: 1,
                csi_hops: 1.0,
                topo_hops: 1,
            },
            rx(6),
        );
        assert!(matches!(
            dst_ctx.unicasts[0],
            (NodeId(6), ControlPacket::LqRep { origin: NodeId(5), seq: 3, .. })
        ));
    }

    #[test]
    fn source_restarts_discovery_on_rerr() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        let mut p = Abr::new();
        p.on_data(&mut ctx, data(0, 9, 0), None);
        p.on_control(
            &mut ctx,
            &ControlPacket::Rrep {
                src: NodeId(0),
                dst: NodeId(9),
                seq: 0,
                csi_hops: 0.0,
                topo_hops: 2,
            },
            rx(4),
        );
        ctx.clear_actions();
        p.on_control(
            &mut ctx,
            &ControlPacket::Rerr { src: NodeId(0), dst: NodeId(9), reporter: NodeId(4) },
            rx(4),
        );
        assert!(ctx.broadcasts.iter().any(|b| matches!(b, ControlPacket::Bq { .. })));
    }
}
