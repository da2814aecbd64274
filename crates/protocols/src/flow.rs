//! The flow-routed engine behind ABR and BGCA.
//!
//! Both baselines of §III keep per-flow routes and share one life cycle:
//! a source floods a discovery query, the destination collects copies for
//! a reply window and answers the best one along reverse pointers, and a
//! broken (or, for BGCA, degraded) downstream link is repaired in place by
//! a TTL-limited local query while data waits at the repairing terminal.
//! [`FlowRouted`] implements that machinery once; a [`FlowPolicy`] supplies
//! only what differs — the discovery packet and its route metric, the
//! periodic timer, and the maintenance hooks (ABR's associativity ticks,
//! BGCA's bandwidth guard).

use rica_net::{
    ControlPacket, DataPacket, DropReason, IdMap, KeyMap, NodeCtx, NodeId, PendingBuffer,
    RoutePhase, RoutingProtocol, RxInfo, Timer, TimerToken,
};
use rica_sim::{SimDuration, SimTime};

/// A flow key: (source, destination).
pub(crate) type FlowKey = (NodeId, NodeId);

/// A per-flow route entry at one terminal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlowEntry {
    /// Next hop towards the source (REER/LQ-reply direction).
    pub upstream: Option<NodeId>,
    /// Next hop towards the destination.
    pub downstream: Option<NodeId>,
    /// Last forwarding use (idle entries expire).
    pub last_used: SimTime,
    /// Total route length (hops) learned from the reply that installed the
    /// entry.
    pub route_len: u8,
    /// Estimated remaining hops to the destination (drives local-query
    /// TTLs): `route_len − hops already travelled by passing data`.
    pub hops_to_dst: u8,
}

impl FlowEntry {
    fn new(now: SimTime) -> Self {
        FlowEntry { upstream: None, downstream: None, last_used: now, route_len: 2, hops_to_dst: 2 }
    }

    /// Refines the remaining-hop estimate from a data packet that has
    /// already travelled `travelled` hops from the source.
    fn observe_data_hops(&mut self, travelled: u32) {
        let travelled = travelled.min(u8::MAX as u32) as u8;
        self.hops_to_dst = self.route_len.saturating_sub(travelled).max(1);
    }

    pub fn is_fresh(&self, now: SimTime, idle: SimDuration) -> bool {
        now.saturating_since(self.last_used) <= idle
    }
}

/// State of an in-progress localized repair (ABR's LQ, BGCA's guarded
/// query): data for the flow waits here until a partial route is found or
/// the timeout expires.
#[derive(Debug)]
pub(crate) struct Repair {
    /// The local query broadcast id this repair is waiting on.
    bcast_id: u64,
    /// Data packets held while the repair runs (the paper's "data packets
    /// have to wait in the terminal performing LQ").
    held: Vec<DataPacket>,
    /// Whether the repair replaces a *broken* link (true) or merely a
    /// degraded one that keeps forwarding meanwhile (BGCA guard, false).
    link_down: bool,
    /// This repair's own `LqTimeout`, cancelled when the repair splices so
    /// that it cannot end a later repair of the same flow.
    deadline: TimerToken,
}

/// One received copy of a discovery flood, its metric already extended
/// over the link it arrived through.
#[derive(Debug, Clone, Copy)]
pub struct FloodCopy<M> {
    /// Flow source that initiated the discovery.
    pub src: NodeId,
    /// Flow destination being discovered.
    pub dst: NodeId,
    /// The source's flood id.
    pub bcast_id: u64,
    /// Route metric accumulated from the source up to this terminal.
    pub metric: M,
}

/// What one flow-routed protocol adds to [`FlowRouted`]: its discovery
/// packet and route metric, its periodic timer, and its maintenance hooks.
/// Every hook has a fixed place in the engine's sequence of [`NodeCtx`]
/// calls (timer arming order is the simulator's event tie-break).
pub trait FlowPolicy: Default + std::fmt::Debug + Sized {
    /// Protocol name (reports and figures).
    const NAME: &'static str;
    /// Route metric a discovery flood accumulates hop by hop; the default
    /// value is the source's.
    type Metric: Copy + Default + std::fmt::Debug;

    /// The discovery packet carrying `metric` for the flood `bcast_id`.
    fn flood_packet(src: NodeId, dst: NodeId, bcast_id: u64, metric: Self::Metric)
        -> ControlPacket;
    /// Reads `pkt` as a copy of this protocol's discovery flood (`None`
    /// for any other packet).
    fn read_flood(
        &self,
        ctx: &dyn NodeCtx,
        pkt: &ControlPacket,
        rx: RxInfo,
    ) -> Option<FloodCopy<Self::Metric>>;
    /// The metric a relay re-broadcasts, read at relay time.
    fn relay_metric(_ctx: &dyn NodeCtx, metric: Self::Metric) -> Self::Metric {
        metric
    }
    /// Whether the destination prefers `candidate` over `best`.
    fn better(candidate: &Self::Metric, best: &Self::Metric) -> bool;
    /// The `(csi_hops, topo_hops)` the destination's reply carries.
    fn reply_hops(metric: &Self::Metric) -> (f64, u8);

    /// Arms the periodic timer at start-up (and after a reboot).
    fn on_start(&mut self, ctx: &mut dyn NodeCtx);
    /// A control packet the engine does not handle (ABR's beacons).
    fn on_control(&mut self, _ctx: &mut dyn NodeCtx, _pkt: &ControlPacket, _rx: RxInfo) {}
    /// A timer the engine does not handle (the periodic one).
    fn on_timer(engine: &mut FlowRouted<Self>, ctx: &mut dyn NodeCtx, timer: Timer);
    /// A reply installed a route at this source or relay.
    fn on_route(&mut self, _ctx: &mut dyn NodeCtx) {}
    /// A local repair of `key` is starting at `now`.
    fn on_repair_start(&mut self, _key: FlowKey, _now: SimTime) {}
    /// The link to `neighbor` broke (called before the engine reacts).
    fn on_link_failure(&mut self, _neighbor: NodeId) {}
}

/// A flow-routed on-demand protocol: the engine shared by
/// [`Abr`](crate::Abr) and [`Bgca`](crate::Bgca), parameterised by its
/// [`FlowPolicy`].
#[derive(Debug, Default)]
pub struct FlowRouted<P: FlowPolicy> {
    /// The protocol-specific state and hooks.
    pub(crate) policy: P,
    /// Per-flow discovery dedup + reverse pointers: bcast id → upstream.
    reverse: KeyMap<FlowKey, KeyMap<u64, NodeId>>,
    /// Per-flow local-query dedup + reverse pointers: (origin, bcast) →
    /// towards origin.
    lq_reverse: KeyMap<FlowKey, KeyMap<(NodeId, u64), NodeId>>,
    /// Per-flow route entries.
    pub(crate) routes: KeyMap<FlowKey, FlowEntry>,
    /// Destination-side collection window per source: (bcast, best metric,
    /// via).
    windows: IdMap<(u64, P::Metric, NodeId)>,
    /// Destination-side: highest flood already answered, per source.
    replied: IdMap<u64>,
    /// Source-side discovery state per destination.
    discovery: IdMap<(u64, u32, TimerToken)>,
    /// In-progress local repairs per flow.
    pub(crate) repairs: KeyMap<FlowKey, Repair>,
    pending: PendingBuffer,
    next_bcast: u64,
    next_lq: u64,
}

impl<P: FlowPolicy> FlowRouted<P> {
    /// Creates a protocol instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The downstream of the flow `(src, dst)` at this terminal, if routed.
    pub fn downstream_of(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.routes.get(&(src, dst)).and_then(|e| e.downstream)
    }

    /// Whether this terminal is currently repairing the flow.
    pub fn is_repairing(&self, src: NodeId, dst: NodeId) -> bool {
        self.repairs.contains_key(&(src, dst))
    }

    fn start_discovery(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId, retries: u32) {
        let bcast_id = self.next_bcast;
        self.next_bcast += 1;
        let me = ctx.id();
        let phase =
            if retries == 0 { RoutePhase::DiscoveryStart } else { RoutePhase::DiscoveryRetry };
        ctx.note_route_phase(phase, me, dst);
        ctx.broadcast(P::flood_packet(me, dst, bcast_id, P::Metric::default()));
        let token = ctx.set_timer(ctx.config().rreq_retry_timeout, Timer::RreqRetry { dst });
        self.discovery.insert(dst, (bcast_id, retries, token));
    }

    fn send_as_source(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket) {
        let me = ctx.id();
        let now = ctx.now();
        let dst = pkt.dst;
        let idle = ctx.config().aodv_route_timeout;
        let nh = self
            .routes
            .get(&(me, dst))
            .filter(|e| e.is_fresh(now, idle))
            .and_then(|e| e.downstream);
        if let Some(nh) = nh {
            self.routes.get_mut(&(me, dst)).expect("exists").last_used = now;
            ctx.send_data(nh, pkt);
            return;
        }
        let discovering = self.discovery.contains(dst);
        self.pending.push(ctx, pkt);
        if !discovering {
            self.start_discovery(ctx, dst, 0);
        }
    }

    fn flush_pending(&mut self, ctx: &mut dyn NodeCtx, dst: NodeId) {
        for pkt in self.pending.take_for(ctx, dst) {
            self.send_as_source(ctx, pkt);
        }
    }

    /// One copy of a discovery flood: collected at the destination,
    /// relayed (once per flood) everywhere else.
    fn on_flood(&mut self, ctx: &mut dyn NodeCtx, copy: FloodCopy<P::Metric>, from: NodeId) {
        let FloodCopy { src, dst, bcast_id, metric } = copy;
        let me = ctx.id();
        if src == me {
            return;
        }
        if dst == me {
            if self.replied.get(src).is_some_and(|&b| bcast_id <= b) {
                return;
            }
            match self.windows.get_mut(src) {
                Some((wid, best, via)) if *wid == bcast_id => {
                    if P::better(&metric, best) {
                        *best = metric;
                        *via = from;
                    }
                }
                Some(_) => {}
                None => {
                    self.windows.insert(src, (bcast_id, metric, from));
                    ctx.set_timer(ctx.config().reply_window, Timer::ReplyWindow { src, dst });
                }
            }
            return;
        }
        let key: FlowKey = (src, dst);
        if self.reverse.get(&key).is_some_and(|m| m.contains_key(&bcast_id)) {
            return;
        }
        self.reverse.or_insert_with(key, KeyMap::new).insert(bcast_id, from);
        let metric = P::relay_metric(ctx, metric);
        ctx.broadcast(P::flood_packet(src, dst, bcast_id, metric));
    }

    /// Starts a local query for the flow at this (intermediate) terminal.
    /// `link_down == false` means a guard fired on a degraded but live
    /// link: data keeps flowing on the old route while the search runs;
    /// otherwise the packets in `held` wait for the partial route.
    pub(crate) fn start_repair(
        &mut self,
        ctx: &mut dyn NodeCtx,
        key: FlowKey,
        held: Vec<DataPacket>,
        link_down: bool,
    ) {
        let me = ctx.id();
        self.policy.on_repair_start(key, ctx.now());
        let bcast_id = self.next_lq;
        self.next_lq += 1;
        let slack = ctx.config().lq_ttl_slack;
        let ttl =
            self.routes.get(&key).map(|e| e.hops_to_dst).unwrap_or(2).saturating_add(slack).max(1);
        if link_down {
            if let Some(e) = self.routes.get_mut(&key) {
                e.downstream = None;
            }
        }
        ctx.note_route_phase(RoutePhase::RepairStart, key.0, key.1);
        ctx.broadcast(ControlPacket::Lq {
            src: key.0,
            dst: key.1,
            origin: me,
            bcast_id,
            ttl,
            csi_hops: 0.0,
            topo_hops: 0,
        });
        let deadline =
            ctx.set_timer(ctx.config().lq_timeout, Timer::LqTimeout { src: key.0, dst: key.1 });
        self.repairs.insert(key, Repair { bcast_id, held, link_down, deadline });
    }

    fn fail_repair(&mut self, ctx: &mut dyn NodeCtx, key: FlowKey) {
        let Some(repair) = self.repairs.remove(&key) else { return };
        if !repair.link_down {
            // Guard repair found nothing better: keep using the old route.
            debug_assert!(repair.held.is_empty());
            return;
        }
        for pkt in repair.held {
            ctx.drop_data(pkt, DropReason::LinkBreak);
        }
        self.remove_route_reporting(ctx, key);
    }

    /// Removes the flow's route here and reports the loss upstream, towards
    /// the source (the paper's RN / route notification).
    fn remove_route_reporting(&mut self, ctx: &mut dyn NodeCtx, key: FlowKey) {
        if let Some(up) = self.routes.remove(&key).and_then(|e| e.upstream) {
            ctx.unicast(up, ControlPacket::Rerr { src: key.0, dst: key.1, reporter: ctx.id() });
        }
    }
}

impl<P: FlowPolicy> RoutingProtocol for FlowRouted<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn on_start(&mut self, ctx: &mut dyn NodeCtx) {
        self.policy.on_start(ctx);
    }

    fn on_reboot(&mut self, ctx: &mut dyn NodeCtx) {
        // Cold restart: routes, reply history and the policy's state died
        // with the node; re-arm the periodic timer.
        *self = Self::new();
        self.on_start(ctx);
    }

    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo) {
        if let Some(copy) = self.policy.read_flood(ctx, pkt, rx) {
            self.on_flood(ctx, copy, rx.from);
            return;
        }
        let me = ctx.id();
        let now = ctx.now();
        match *pkt {
            ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops } => {
                let key: FlowKey = (src, dst);
                if src == me {
                    if let Some((_, _, token)) = self.discovery.remove(dst) {
                        ctx.cancel_timer(token);
                    }
                    let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                    e.downstream = Some(rx.from);
                    e.upstream = None;
                    e.last_used = now;
                    e.route_len = topo_hops.max(1);
                    e.hops_to_dst = topo_hops.max(1);
                    ctx.note_route_phase(RoutePhase::RouteSelected, me, dst);
                    self.policy.on_route(ctx);
                    self.flush_pending(ctx, dst);
                    return;
                }
                let Some(&up) = self.reverse.get(&key).and_then(|m| m.get(&seq)) else { return };
                let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                e.upstream = Some(up);
                e.downstream = Some(rx.from);
                e.last_used = now;
                e.route_len = topo_hops.max(1);
                e.hops_to_dst = topo_hops.max(1); // refined by passing data
                self.policy.on_route(ctx);
                ctx.unicast(up, ControlPacket::Rrep { src, dst, seq, csi_hops, topo_hops });
            }
            ControlPacket::Lq { src, dst, origin, bcast_id, ttl, csi_hops, topo_hops } => {
                if origin == me {
                    return;
                }
                let key: FlowKey = (src, dst);
                if self.lq_reverse.get(&key).is_some_and(|m| m.contains_key(&(origin, bcast_id))) {
                    return;
                }
                self.lq_reverse
                    .or_insert_with(key, KeyMap::new)
                    .insert((origin, bcast_id), rx.from);
                let new_csi = csi_hops + rx.class.csi_hops();
                let new_topo = topo_hops.saturating_add(1);
                if dst == me {
                    // First copy wins (partial routes are short; the full
                    // metric selection applies only to discovery floods).
                    ctx.unicast(
                        rx.from,
                        ControlPacket::LqRep {
                            src,
                            dst,
                            origin,
                            seq: bcast_id,
                            csi_hops: new_csi,
                            topo_hops: new_topo,
                        },
                    );
                    return;
                }
                let new_ttl = ttl.saturating_sub(1);
                if new_ttl == 0 {
                    return;
                }
                ctx.broadcast(ControlPacket::Lq {
                    src,
                    dst,
                    origin,
                    bcast_id,
                    ttl: new_ttl,
                    csi_hops: new_csi,
                    topo_hops: new_topo,
                });
            }
            ControlPacket::LqRep { src, dst, origin, seq, csi_hops, topo_hops } => {
                let key: FlowKey = (src, dst);
                if origin == me {
                    // Our repair succeeded: splice the partial route in and
                    // release the held packets.
                    let Some(repair) = self.repairs.remove(&key) else { return };
                    if repair.bcast_id != seq {
                        self.repairs.insert(key, repair); // answer to an old query
                        return;
                    }
                    ctx.cancel_timer(repair.deadline);
                    let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                    e.downstream = Some(rx.from);
                    e.last_used = now;
                    e.hops_to_dst = topo_hops.max(1);
                    e.route_len = e.route_len.max(topo_hops);
                    for pkt in repair.held {
                        ctx.send_data(rx.from, pkt);
                    }
                    return;
                }
                let Some(&toward_origin) =
                    self.lq_reverse.get(&key).and_then(|m| m.get(&(origin, seq)))
                else {
                    return;
                };
                let e = self.routes.or_insert_with(key, || FlowEntry::new(now));
                e.upstream = Some(toward_origin);
                e.downstream = Some(rx.from);
                e.last_used = now;
                self.policy.on_route(ctx);
                ctx.unicast(
                    toward_origin,
                    ControlPacket::LqRep { src, dst, origin, seq, csi_hops, topo_hops },
                );
            }
            ControlPacket::Rerr { src, dst, .. } => {
                let key: FlowKey = (src, dst);
                let from_downstream =
                    self.routes.get(&key).is_some_and(|e| e.downstream == Some(rx.from));
                if !from_downstream {
                    return;
                }
                if src == me {
                    self.routes.remove(&key);
                    if !self.discovery.contains(dst) {
                        self.start_discovery(ctx, dst, 0);
                    }
                } else {
                    self.remove_route_reporting(ctx, key);
                }
            }
            _ => self.policy.on_control(ctx, pkt, rx),
        }
    }

    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>) {
        let me = ctx.id();
        let now = ctx.now();
        if pkt.dst == me {
            ctx.deliver_local(pkt);
            return;
        }
        if pkt.src == me && rx.is_none() {
            self.send_as_source(ctx, pkt);
            return;
        }
        let Some(rx) = rx else {
            ctx.drop_data(pkt, DropReason::NoRoute);
            return;
        };
        let key: FlowKey = (pkt.src, pkt.dst);
        // A break repair holds the flow's packets (§III.B: "the packets
        // accumulate in the upstream terminal performing the local search
        // until a partial route is found"); a guard repair keeps forwarding
        // on the degraded link meanwhile.
        if let Some(repair) = self.repairs.get_mut(&key) {
            if repair.link_down {
                let cap = ctx.config().pending_cap;
                if repair.held.len() < cap {
                    repair.held.push(pkt);
                } else {
                    ctx.drop_data(pkt, DropReason::BufferOverflow);
                }
                return;
            }
        }
        let idle = ctx.config().aodv_route_timeout;
        match self.routes.get_mut(&key) {
            Some(e) if e.downstream.is_some() && e.is_fresh(now, idle) => {
                e.last_used = now;
                e.upstream = Some(rx.from);
                e.observe_data_hops(pkt.hops);
                let nh = e.downstream.expect("checked");
                ctx.send_data(nh, pkt);
            }
            _ => {
                ctx.unicast(rx.from, ControlPacket::Rerr { src: key.0, dst: key.1, reporter: me });
                ctx.drop_data(pkt, DropReason::NoRoute);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer) {
        match timer {
            Timer::RreqRetry { dst } => {
                let Some(&(_, retries, _)) = self.discovery.get(dst) else { return };
                let me = ctx.id();
                if self.routes.get(&(me, dst)).is_some_and(|e| e.downstream.is_some()) {
                    self.discovery.remove(dst);
                    return;
                }
                if retries >= ctx.config().rreq_max_retries {
                    self.discovery.remove(dst);
                    self.pending.drop_for(ctx, dst);
                    return;
                }
                self.start_discovery(ctx, dst, retries + 1);
            }
            Timer::ReplyWindow { src, dst } => {
                debug_assert_eq!(dst, ctx.id());
                let now = ctx.now();
                let Some((bcast_id, metric, via)) = self.windows.remove(src) else { return };
                self.replied.insert(src, bcast_id);
                let e = self.routes.or_insert_with((src, dst), || FlowEntry::new(now));
                e.upstream = Some(via);
                e.last_used = now;
                let (csi_hops, topo_hops) = P::reply_hops(&metric);
                ctx.unicast(
                    via,
                    ControlPacket::Rrep { src, dst, seq: bcast_id, csi_hops, topo_hops },
                );
            }
            // Still repairing when the deadline hits: give up.
            Timer::LqTimeout { src, dst } => self.fail_repair(ctx, (src, dst)),
            _ => P::on_timer(self, ctx, timer),
        }
    }

    fn current_downstream(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        self.downstream_of(src, dst)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    ) {
        self.policy.on_link_failure(neighbor);
        let me = ctx.id();
        // Group the stranded packets per flow.
        let mut per_flow: KeyMap<FlowKey, Vec<DataPacket>> = KeyMap::new();
        for pkt in undelivered {
            per_flow.or_insert_with((pkt.src, pkt.dst), Vec::new).push(pkt);
        }
        let affected: Vec<FlowKey> = self
            .routes
            .iter()
            .filter(|(_, e)| e.downstream == Some(neighbor))
            .map(|(k, _)| *k)
            .collect();
        for key in affected {
            let held = per_flow.remove(&key).unwrap_or_default();
            if key.0 == me {
                // Source: re-discover; salvage our packets.
                ctx.note_route_phase(RoutePhase::RouteLost, key.0, key.1);
                self.routes.remove(&key);
                for pkt in held {
                    self.pending.push(ctx, pkt);
                }
                if !self.discovery.contains(key.1) {
                    self.start_discovery(ctx, key.1, 0);
                }
            } else if let Some(repair) = self.repairs.get_mut(&key) {
                // A guard repair was already searching: it now also carries
                // the stranded packets and becomes a break repair.
                repair.link_down = true;
                repair.held.extend(held);
                if let Some(e) = self.routes.get_mut(&key) {
                    e.downstream = None;
                }
            } else {
                // Intermediate terminal: local query, data waits here.
                self.start_repair(ctx, key, held, true);
            }
        }
        // Packets of flows we have no entry for cannot be salvaged.
        for (_, pkts) in per_flow {
            for pkt in pkts {
                ctx.drop_data(pkt, DropReason::LinkBreak);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abr::AbrPolicy;
    use crate::bgca::BgcaPolicy;
    use rica_channel::ChannelClass;
    use rica_net::testing::ScriptedCtx;
    use rica_net::FlowId;

    fn rx(from: u32) -> RxInfo {
        RxInfo { from: NodeId(from), class: ChannelClass::A }
    }

    fn lq_rep(seq: u64) -> ControlPacket {
        ControlPacket::LqRep {
            src: NodeId(0),
            dst: NodeId(9),
            origin: NodeId(5),
            seq,
            csi_hops: 2.0,
            topo_hops: 2,
        }
    }

    /// Relay n5 with the route 0 →(1)→ 5 →(7)→ 9 installed by a flood
    /// and its reply.
    fn relay_with_route<P: FlowPolicy>() -> (ScriptedCtx, FlowRouted<P>) {
        let mut ctx = ScriptedCtx::new(NodeId(5));
        let mut p = FlowRouted::<P>::new();
        let flood = P::flood_packet(NodeId(0), NodeId(9), 0, P::Metric::default());
        p.on_control(&mut ctx, &flood, rx(1));
        let rrep = ControlPacket::Rrep {
            src: NodeId(0),
            dst: NodeId(9),
            seq: 0,
            csi_hops: 2.0,
            topo_hops: 2,
        };
        p.on_control(&mut ctx, &rrep, rx(7));
        ctx.clear_actions();
        (ctx, p)
    }

    /// Fires, in order, every armed timer due by `until`.
    fn fire_due<P: FlowPolicy>(p: &mut FlowRouted<P>, ctx: &mut ScriptedCtx, until: SimTime) {
        while ctx.pending_timers().first().is_some_and(|t| t.at <= until) {
            let timer = ctx.fire_next_timer();
            p.on_timer(ctx, timer);
        }
    }

    /// A repair splices, the flow breaks again, and the first repair's
    /// deadline passes while the second one still searches.
    fn stale_deadline_spares_the_next_repair<P: FlowPolicy>() {
        let (mut ctx, mut p) = relay_with_route::<P>();
        let lq_timeout = ctx.config().lq_timeout;
        p.on_link_failure(&mut ctx, NodeId(7), Vec::new());
        let first_deadline = ctx.now() + lq_timeout;
        ctx.advance(SimDuration::from_millis(50));
        p.on_control(&mut ctx, &lq_rep(0), rx(8));
        assert_eq!(p.downstream_of(NodeId(0), NodeId(9)), Some(NodeId(8)), "spliced");
        ctx.advance(SimDuration::from_millis(50));
        let pkt = DataPacket::new(FlowId(0), 1, NodeId(0), NodeId(9), 512, SimTime::ZERO);
        p.on_link_failure(&mut ctx, NodeId(8), vec![pkt]);
        let second_deadline = ctx.now() + lq_timeout;
        fire_due(&mut p, &mut ctx, first_deadline);
        assert!(p.is_repairing(NodeId(0), NodeId(9)), "the old deadline ended the new repair");
        assert!(ctx.dropped.is_empty());
        fire_due(&mut p, &mut ctx, second_deadline);
        assert!(!p.is_repairing(NodeId(0), NodeId(9)), "its own deadline still ends it");
        assert_eq!(ctx.dropped.len(), 1);
        assert_eq!(ctx.dropped[0].1, DropReason::LinkBreak);
    }

    #[test]
    fn abr_stale_lq_timeout_spares_the_next_repair() {
        stale_deadline_spares_the_next_repair::<AbrPolicy>();
    }

    #[test]
    fn bgca_stale_lq_timeout_spares_the_next_repair() {
        stale_deadline_spares_the_next_repair::<BgcaPolicy>();
    }

    #[test]
    fn entry_freshness() {
        let mut e = FlowEntry::new(SimTime::from_secs_f64(5.0));
        e.downstream = Some(NodeId(3));
        let idle = SimDuration::from_secs(1);
        assert!(e.is_fresh(SimTime::from_secs_f64(5.9), idle));
        assert!(!e.is_fresh(SimTime::from_secs_f64(6.1), idle));
    }
}
