//! The protocol ↔ node boundary: [`RoutingProtocol`] and [`NodeCtx`].

use rica_channel::ChannelClass;
use rica_sim::{Rng, SimDuration, SimTime};

use crate::{ControlPacket, DataPacket, NodeId, ProtocolConfig};

/// Opaque handle to a pending protocol timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Reception metadata attached to every packet a protocol receives: who
/// transmitted it, and the measured CSI class of the incoming link.
///
/// Measuring the class of the link a packet arrived through is exactly the
/// paper's per-packet CSI measurement (§II.B: "The intermediate terminal
/// also measures the CSI of the link through which this RREQ comes").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxInfo {
    /// The transmitting terminal (previous hop).
    pub from: NodeId,
    /// Measured class of the link the packet arrived through.
    pub class: ChannelClass,
}

/// Why a data packet was dropped (the paper's loss taxonomy, §III.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DropReason {
    /// A data buffer was full (congestion).
    BufferOverflow,
    /// The packet sat in buffers longer than the 3 s residency limit.
    BufferTimeout,
    /// No route to the destination and discovery failed / gave up.
    NoRoute,
    /// The carrying link broke and the packet could not be salvaged.
    LinkBreak,
    /// The terminal holding the packet (queued or mid-transmission)
    /// crashed; everything it held died with it.
    NodeCrashed,
}

impl DropReason {
    /// Every reason, in declaration (= `Ord`) order; `reason as usize`
    /// indexes this table (flat drop counters).
    pub const ALL: [DropReason; 5] = [
        DropReason::BufferOverflow,
        DropReason::BufferTimeout,
        DropReason::NoRoute,
        DropReason::LinkBreak,
        DropReason::NodeCrashed,
    ];
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::BufferOverflow => "buffer-overflow",
            DropReason::BufferTimeout => "buffer-timeout",
            DropReason::NoRoute => "no-route",
            DropReason::LinkBreak => "link-break",
            DropReason::NodeCrashed => "node-crash",
        };
        f.write_str(s)
    }
}

/// A phase in a route's lifecycle, reported through
/// [`NodeCtx::note_route_phase`] for observability. The vocabulary is
/// shared by all five protocols; each uses the phases that exist in its
/// state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePhase {
    /// A source began (or re-began) an on-demand discovery for a flow.
    DiscoveryStart,
    /// A discovery attempt timed out and is being retried.
    DiscoveryRetry,
    /// A source committed to a route (initial selection or a switch).
    RouteSelected,
    /// A broken route triggered a local repair attempt.
    RepairStart,
    /// A source lost its route and has no immediate replacement.
    RouteLost,
}

impl RoutePhase {
    /// Stable lowercase name (trace artifacts).
    pub fn name(self) -> &'static str {
        match self {
            RoutePhase::DiscoveryStart => "discovery-start",
            RoutePhase::DiscoveryRetry => "discovery-retry",
            RoutePhase::RouteSelected => "route-selected",
            RoutePhase::RepairStart => "repair-start",
            RoutePhase::RouteLost => "route-lost",
        }
    }
}

/// Protocol timers. One shared vocabulary for all five protocols: each
/// protocol uses the variants it needs and never receives another
/// protocol's timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    /// Periodic hello beacon (ABR associativity, link-state sensing).
    Beacon,
    /// Periodic on-route link monitoring (BGCA guard; link-state cost
    /// sampling).
    LinkMonitor,
    /// Source-side discovery retry: no reply for `dst` yet.
    RreqRetry {
        /// Destination being discovered.
        dst: NodeId,
    },
    /// Destination-side reply window expired: reply to the best collected
    /// RREQ/BQ for the flow `(src, dst)`.
    ReplyWindow {
        /// Flow source that initiated the discovery.
        src: NodeId,
        /// Flow destination (this node).
        dst: NodeId,
    },
    /// Source-side combining window expired (the paper's 40 ms): commit to
    /// the best route candidate for `dst`.
    SelectionWindow {
        /// Flow destination whose candidates are being combined.
        dst: NodeId,
    },
    /// RICA destination's periodic CSI-checking broadcast for the flow from
    /// `src` (§II.C).
    CsiBroadcast {
        /// Flow source (the terminal the checks flow towards).
        src: NodeId,
    },
    /// Local-repair reply deadline (ABR LQ / BGCA guarded query).
    LqTimeout {
        /// Flow source of the route under repair.
        src: NodeId,
        /// Flow destination of the route under repair.
        dst: NodeId,
    },
    /// Protocol-specific extension timer.
    Custom(u64),
}

impl Timer {
    /// Stable lowercase name of the timer kind, without its payload
    /// (trace artifacts and profiling labels).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Timer::Beacon => "beacon",
            Timer::LinkMonitor => "link-monitor",
            Timer::RreqRetry { .. } => "rreq-retry",
            Timer::ReplyWindow { .. } => "reply-window",
            Timer::SelectionWindow { .. } => "selection-window",
            Timer::CsiBroadcast { .. } => "csi-broadcast",
            Timer::LqTimeout { .. } => "lq-timeout",
            Timer::Custom(_) => "custom",
        }
    }
}

/// Capabilities the node (harness) exposes to its routing protocol.
///
/// Everything a protocol can *do* goes through this trait, which keeps each
/// protocol a deterministic state machine over `(packets, timers)` — and
/// therefore unit-testable against [`crate::testing::ScriptedCtx`].
pub trait NodeCtx {
    /// Current simulation time.
    fn now(&self) -> SimTime;
    /// This node's identifier.
    fn id(&self) -> NodeId;
    /// This node's private random stream (for jitter and tie-breaking).
    fn rng(&mut self) -> &mut Rng;
    /// The shared protocol configuration.
    fn config(&self) -> &ProtocolConfig;

    /// Queues `pkt` for CSMA/CA broadcast on the common channel. Every
    /// terminal in range receives it (collisions permitting).
    fn broadcast(&mut self, pkt: ControlPacket);
    /// Queues `pkt` for CSMA/CA transmission on the common channel,
    /// addressed to `to` (only `to` delivers it to its protocol).
    fn unicast(&mut self, to: NodeId, pkt: ControlPacket);

    /// Hands a data packet to the data plane for transmission to `next_hop`
    /// on the pair's PN-code channel. If the per-connection buffer is full
    /// the packet is dropped and recorded as a congestion loss (§III.A).
    fn send_data(&mut self, next_hop: NodeId, pkt: DataPacket);

    /// Delivers a packet addressed to this node to the local application
    /// (records end-to-end metrics).
    fn deliver_local(&mut self, pkt: DataPacket);
    /// Drops a data packet, recording the reason.
    fn drop_data(&mut self, pkt: DataPacket, reason: DropReason);

    /// Arms `timer` to fire after `delay`.
    fn set_timer(&mut self, delay: SimDuration, timer: Timer) -> TimerToken;
    /// Cancels a pending timer (no-op if it already fired).
    fn cancel_timer(&mut self, token: TimerToken);

    /// Measures the current CSI class of the link to `neighbor`, or `None`
    /// if out of radio range. This models the CDMA pilot-based channel
    /// estimation the ABICM modem performs continuously.
    fn link_class_to(&mut self, neighbor: NodeId) -> Option<ChannelClass>;
    /// Occupancy of this node's data queue towards `neighbor` (ABR's load
    /// criterion).
    fn data_queue_len(&self, neighbor: NodeId) -> usize;
    /// Total occupancy of all of this node's data queues (ABR's node-load
    /// criterion when relaying broadcast queries).
    fn data_queue_total(&self) -> usize;

    /// Observability hook: reports a route-lifecycle phase for the flow
    /// `(src, dst)` to the node's trace layer. Purely informational — the
    /// default implementation discards it, and implementations must not
    /// let it influence protocol behaviour.
    fn note_route_phase(&mut self, _phase: RoutePhase, _src: NodeId, _dst: NodeId) {}

    /// The accurate network-wide topology view at trial start (§III.A),
    /// or `None` outside start-up. Only a protocol that needs it (link
    /// state, from [`RoutingProtocol::on_start`]) asks; the harness builds
    /// it on the first request — an O(n²) pass over every pair — and
    /// lends the same view to every later requester, so trials whose
    /// protocols never ask never pay for it. A rebooted terminal gets
    /// `None`.
    fn initial_topology(&mut self) -> Option<&TopologySnapshot>;
}

/// A global adjacency snapshot: every in-range link with its current class.
///
/// The paper's link-state starting condition: "at the beginning of each
/// simulation run, an accurate view of the network topology is installed
/// in each mobile terminal" (§III.A). Served by
/// [`NodeCtx::initial_topology`]; on-demand protocols never request it.
#[derive(Debug, Default)]
pub struct TopologySnapshot {
    /// Undirected links `(a, b, class)` with `a < b`.
    pub links: Vec<(NodeId, NodeId, ChannelClass)>,
}

/// A routing protocol: a deterministic state machine driven by the node.
///
/// Implementations in this workspace: `rica_core::Rica` (the paper's
/// contribution) and `rica_protocols::{Aodv, Abr, Bgca, LinkState}`.
pub trait RoutingProtocol {
    /// Human-readable protocol name (used in reports and figures).
    fn name(&self) -> &'static str;

    /// Called once at simulation start (schedule periodic timers here;
    /// [`NodeCtx::initial_topology`] is available only during this call).
    fn on_start(&mut self, _ctx: &mut dyn NodeCtx) {}

    /// The terminal comes back from a crash (fault injection). All
    /// protocol state died with the node: implementations must reset to
    /// their cold-start state and re-arm their periodic timers — the
    /// harness has already cancelled every timer the old incarnation
    /// held, and [`NodeCtx::initial_topology`] serves no view (a rebooted
    /// terminal re-joins routing through the protocol's own discovery). The
    /// default restarts without clearing (correct only for stateless
    /// protocols); every real implementation overrides it.
    fn on_reboot(&mut self, ctx: &mut dyn NodeCtx) {
        self.on_start(ctx);
    }

    /// A control packet arrived on the common channel.
    ///
    /// The packet is borrowed: one broadcast reaches many receivers, and
    /// the harness hands every receiver the *same* buffer instead of a
    /// per-receiver clone. Implementations copy out what they keep.
    fn on_control(&mut self, ctx: &mut dyn NodeCtx, pkt: &ControlPacket, rx: RxInfo);

    /// A data packet needs handling: either locally generated (`rx ==
    /// None`) or received from the previous hop (`rx == Some(..)`; the
    /// harness has already recorded the hop on the packet).
    fn on_data(&mut self, ctx: &mut dyn NodeCtx, pkt: DataPacket, rx: Option<RxInfo>);

    /// A timer armed via [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut dyn NodeCtx, timer: Timer);

    /// The data plane exhausted retransmissions towards `neighbor`; the
    /// packets still queued on that link are handed back for salvage or
    /// drop. (The harness records the break itself.)
    fn on_link_failure(
        &mut self,
        ctx: &mut dyn NodeCtx,
        neighbor: NodeId,
        undelivered: Vec<DataPacket>,
    );

    /// Observability hook: this terminal's current next hop for data of the
    /// flow `(src, dst)`, if it has one. Best-effort and read-only — used
    /// by route tracing tools, never by the protocols themselves. The
    /// default implementation reports nothing.
    fn current_downstream(&self, _src: NodeId, _dst: NodeId) -> Option<NodeId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::BufferOverflow.to_string(), "buffer-overflow");
        assert_eq!(DropReason::BufferTimeout.to_string(), "buffer-timeout");
        assert_eq!(DropReason::NoRoute.to_string(), "no-route");
        assert_eq!(DropReason::LinkBreak.to_string(), "link-break");
        assert_eq!(DropReason::NodeCrashed.to_string(), "node-crash");
    }

    #[test]
    fn drop_reason_all_is_indexable() {
        for (i, reason) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i);
        }
    }

    #[test]
    fn timer_equality_carries_payload() {
        assert_eq!(Timer::RreqRetry { dst: NodeId(1) }, Timer::RreqRetry { dst: NodeId(1) });
        assert_ne!(Timer::RreqRetry { dst: NodeId(1) }, Timer::RreqRetry { dst: NodeId(2) });
        assert_ne!(Timer::Beacon, Timer::LinkMonitor);
    }
}
