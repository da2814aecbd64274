//! Source-side buffer for data packets awaiting route discovery.

use std::collections::{BTreeMap, VecDeque};

use rica_sim::SimTime;

use crate::{DataPacket, DropReason, NodeCtx, NodeId};

/// Packets generated at the source while no route to their destination
/// exists yet, grouped by destination — the one source buffer every
/// on-demand protocol uses.
///
/// The buffer owns its drop policy: it holds at most
/// [`ProtocolConfig::pending_cap`](crate::ProtocolConfig::pending_cap)
/// packets per destination (a full buffer drops the newcomer as
/// [`DropReason::BufferOverflow`]), and like the link queues a packet
/// expires after
/// [`ProtocolConfig::max_queue_residency`](crate::ProtocolConfig::max_queue_residency)
/// (3 s in the paper; [`DropReason::BufferTimeout`]) — a discovery that
/// takes longer than that cannot save it anyway. Sizes are read from
/// [`NodeCtx::config`] and every drop is recorded through
/// [`NodeCtx::drop_data`].
#[derive(Debug, Default)]
pub struct PendingBuffer {
    by_dst: BTreeMap<NodeId, VecDeque<(DataPacket, SimTime)>>,
}

impl PendingBuffer {
    /// Buffers `pkt` at the current time, or drops it as
    /// [`DropReason::BufferOverflow`] if its destination's buffer is full.
    pub fn push(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let q = self.by_dst.entry(pkt.dst).or_default();
        if q.len() >= ctx.config().pending_cap {
            ctx.drop_data(pkt, DropReason::BufferOverflow);
            return;
        }
        q.push_back((pkt, ctx.now()));
    }

    /// Takes every packet waiting for `dst`: expired ones are dropped as
    /// [`DropReason::BufferTimeout`] (before the caller sends anything),
    /// still-fresh ones are returned in FIFO order.
    pub fn take_for(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) -> Vec<DataPacket> {
        let Some(q) = self.by_dst.remove(&dst) else {
            return Vec::new();
        };
        let now = ctx.now();
        let max_residency = ctx.config().max_queue_residency;
        let mut fresh = Vec::with_capacity(q.len());
        for (pkt, at) in q {
            if now.saturating_since(at) > max_residency {
                ctx.drop_data(pkt, DropReason::BufferTimeout);
            } else {
                fresh.push(pkt);
            }
        }
        fresh
    }

    /// Discovery for `dst` gave up: drops everything waiting for it as
    /// [`DropReason::NoRoute`].
    pub fn drop_for(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        for (pkt, _) in self.by_dst.remove(&dst).unwrap_or_default() {
            ctx.drop_data(pkt, DropReason::NoRoute);
        }
    }

    /// Number of packets waiting for `dst`.
    pub fn len_for(&self, dst: NodeId) -> usize {
        self.by_dst.get(&dst).map_or(0, |q| q.len())
    }

    /// Whether any packet is waiting for `dst`.
    pub fn has_pending(&self, dst: NodeId) -> bool {
        self.len_for(dst) > 0
    }

    /// Total packets waiting across all destinations.
    pub fn total(&self) -> usize {
        self.by_dst.values().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ScriptedCtx;
    use crate::{FlowId, ProtocolConfig};
    use rica_sim::SimDuration;

    fn pkt(seq: u64, dst: u32) -> DataPacket {
        DataPacket::new(FlowId(0), seq, NodeId(0), NodeId(dst), 512, SimTime::ZERO)
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// A context whose buffer holds `cap` packets per destination for 3 s.
    fn ctx(cap: usize) -> ScriptedCtx {
        let cfg = ProtocolConfig {
            pending_cap: cap,
            max_queue_residency: SimDuration::from_secs(3),
            ..ProtocolConfig::default()
        };
        ScriptedCtx::new(NodeId(0)).with_config(cfg)
    }

    fn seqs(pkts: &[DataPacket]) -> Vec<u64> {
        pkts.iter().map(|p| p.seq).collect()
    }

    fn dropped(ctx: &ScriptedCtx, reason: DropReason) -> Vec<u64> {
        ctx.dropped.iter().filter(|(_, r)| *r == reason).map(|(p, _)| p.seq).collect()
    }

    #[test]
    fn groups_by_destination() {
        let mut ctx = ctx(8);
        let mut b = PendingBuffer::default();
        b.push(&mut ctx, pkt(0, 5));
        b.push(&mut ctx, pkt(1, 6));
        b.push(&mut ctx, pkt(2, 5));
        assert_eq!(b.len_for(NodeId(5)), 2);
        assert_eq!(b.len_for(NodeId(6)), 1);
        assert_eq!(b.total(), 3);
        ctx.set_now(secs(1.0));
        let five = b.take_for(&mut ctx, NodeId(5));
        assert_eq!(seqs(&five), vec![0, 2]);
        assert!(ctx.dropped.is_empty());
        assert!(!b.has_pending(NodeId(5)));
        assert!(b.has_pending(NodeId(6)));
    }

    #[test]
    fn per_destination_cap() {
        let mut ctx = ctx(2);
        let mut b = PendingBuffer::default();
        b.push(&mut ctx, pkt(0, 5));
        b.push(&mut ctx, pkt(1, 5));
        assert!(ctx.dropped.is_empty());
        b.push(&mut ctx, pkt(2, 5));
        assert_eq!(dropped(&ctx, DropReason::BufferOverflow), vec![2], "cap reached");
        b.push(&mut ctx, pkt(3, 6));
        assert_eq!(ctx.dropped.len(), 1, "other dst unaffected");
    }

    #[test]
    fn expiry_on_take() {
        let mut ctx = ctx(8);
        let mut b = PendingBuffer::default();
        b.push(&mut ctx, pkt(0, 5));
        ctx.set_now(secs(2.5));
        b.push(&mut ctx, pkt(1, 5));
        ctx.set_now(secs(4.0));
        let fresh = b.take_for(&mut ctx, NodeId(5));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].seq, 1);
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(dropped(&ctx, DropReason::BufferTimeout), vec![0]);
    }

    #[test]
    fn drop_for_drops_everything() {
        let mut ctx = ctx(8);
        let mut b = PendingBuffer::default();
        b.push(&mut ctx, pkt(0, 5));
        b.push(&mut ctx, pkt(1, 5));
        b.drop_for(&mut ctx, NodeId(5));
        assert_eq!(dropped(&ctx, DropReason::NoRoute), vec![0, 1]);
        assert_eq!(b.total(), 0);
        b.drop_for(&mut ctx, NodeId(5));
        assert_eq!(ctx.dropped.len(), 2);
    }
}
