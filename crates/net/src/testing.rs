//! Test double for [`NodeCtx`]: drive a protocol state machine from a unit
//! test and inspect every side effect it produced.
//!
//! ```
//! use rica_net::testing::ScriptedCtx;
//! use rica_net::{NodeCtx, NodeId};
//!
//! let mut ctx = ScriptedCtx::new(NodeId(3));
//! ctx.set_link_class(NodeId(4), Some(rica_channel::ChannelClass::B));
//! assert_eq!(ctx.link_class_to(NodeId(4)), Some(rica_channel::ChannelClass::B));
//! ```

use rica_channel::ChannelClass;
use rica_sim::{Rng, SimDuration, SimTime};

use crate::{
    ControlPacket, DataPacket, DropReason, KeyMap, NodeCtx, NodeId, ProtocolConfig, Timer,
    TimerToken, TopologySnapshot,
};

/// A recorded timer: when it should fire and what it is.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmedTimer {
    /// Handle returned to the protocol.
    pub token: TimerToken,
    /// Absolute fire time.
    pub at: SimTime,
    /// The timer payload.
    pub timer: Timer,
    /// Whether the protocol has since cancelled it.
    pub cancelled: bool,
}

/// A scripted [`NodeCtx`] that records every protocol action.
///
/// Tests set the clock and the link classes, feed packets/timers to the
/// protocol under test, then assert on [`ScriptedCtx::broadcasts`],
/// [`ScriptedCtx::unicasts`], [`ScriptedCtx::sent_data`], etc.
#[derive(Debug)]
pub struct ScriptedCtx {
    id: NodeId,
    now: SimTime,
    rng: Rng,
    config: ProtocolConfig,
    link_classes: KeyMap<NodeId, Option<ChannelClass>>,
    queue_lens: KeyMap<NodeId, usize>,
    initial_topology: Option<TopologySnapshot>,
    next_token: u64,
    /// Broadcast control packets, in emission order.
    pub broadcasts: Vec<ControlPacket>,
    /// Unicast control packets `(to, pkt)`, in emission order.
    pub unicasts: Vec<(NodeId, ControlPacket)>,
    /// Data packets handed to the data plane `(next_hop, pkt)`.
    pub sent_data: Vec<(NodeId, DataPacket)>,
    /// Packets delivered to the local application.
    pub delivered: Vec<DataPacket>,
    /// Dropped packets with reasons.
    pub dropped: Vec<(DataPacket, DropReason)>,
    /// Every timer ever armed (including cancelled ones).
    pub timers: Vec<ArmedTimer>,
    /// How many times the protocol asked for the initial topology view.
    pub topology_requests: usize,
}

impl ScriptedCtx {
    /// Creates a context for node `id` with default config, seed 0, t = 0.
    pub fn new(id: NodeId) -> Self {
        ScriptedCtx {
            id,
            now: SimTime::ZERO,
            rng: Rng::new(0),
            config: ProtocolConfig::default(),
            link_classes: KeyMap::new(),
            queue_lens: KeyMap::new(),
            initial_topology: None,
            next_token: 0,
            broadcasts: Vec::new(),
            unicasts: Vec::new(),
            sent_data: Vec::new(),
            delivered: Vec::new(),
            dropped: Vec::new(),
            timers: Vec::new(),
            topology_requests: 0,
        }
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: ProtocolConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the simulated clock (tests advance it between protocol calls).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Advances the simulated clock.
    pub fn advance(&mut self, by: SimDuration) {
        self.now += by;
    }

    /// Scripts the measured class of the link to `neighbor` (`None` = out
    /// of range).
    pub fn set_link_class(&mut self, neighbor: NodeId, class: Option<ChannelClass>) {
        self.link_classes.insert(neighbor, class);
    }

    /// Scripts the view [`NodeCtx::initial_topology`] serves (`None`, the
    /// default, models a terminal outside start-up).
    pub fn set_initial_topology(&mut self, snap: Option<TopologySnapshot>) {
        self.initial_topology = snap;
    }

    /// Scripts the data-queue occupancy towards `neighbor`.
    pub fn set_queue_len(&mut self, neighbor: NodeId, len: usize) {
        self.queue_lens.insert(neighbor, len);
    }

    /// Timers still armed (not cancelled), sorted by fire time.
    pub fn pending_timers(&self) -> Vec<&ArmedTimer> {
        let mut v: Vec<&ArmedTimer> = self.timers.iter().filter(|t| !t.cancelled).collect();
        v.sort_by_key(|t| t.at);
        v
    }

    /// Pops the earliest pending timer, advancing the clock to its fire
    /// time (never backwards); returns its payload. Panics if none pending.
    pub fn fire_next_timer(&mut self) -> Timer {
        let (idx, at, timer) = self
            .timers
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.cancelled)
            .map(|(i, t)| (i, t.at, t.timer))
            .min_by_key(|&(_, at, _)| at)
            .expect("no pending timers");
        self.timers[idx].cancelled = true; // consumed
        self.now = self.now.max(at);
        timer
    }

    /// Clears the recorded side effects (keeps clock, links, timers).
    pub fn clear_actions(&mut self) {
        self.broadcasts.clear();
        self.unicasts.clear();
        self.sent_data.clear();
        self.delivered.clear();
        self.dropped.clear();
    }
}

impl NodeCtx for ScriptedCtx {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    fn broadcast(&mut self, pkt: ControlPacket) {
        self.broadcasts.push(pkt);
    }

    fn unicast(&mut self, to: NodeId, pkt: ControlPacket) {
        self.unicasts.push((to, pkt));
    }

    fn send_data(&mut self, next_hop: NodeId, pkt: DataPacket) {
        self.sent_data.push((next_hop, pkt));
    }

    fn deliver_local(&mut self, pkt: DataPacket) {
        self.delivered.push(pkt);
    }

    fn drop_data(&mut self, pkt: DataPacket, reason: DropReason) {
        self.dropped.push((pkt, reason));
    }

    fn set_timer(&mut self, delay: SimDuration, timer: Timer) -> TimerToken {
        let token = TimerToken(self.next_token);
        self.next_token += 1;
        self.timers.push(ArmedTimer { token, at: self.now + delay, timer, cancelled: false });
        token
    }

    fn cancel_timer(&mut self, token: TimerToken) {
        if let Some(t) = self.timers.iter_mut().find(|t| t.token == token) {
            t.cancelled = true;
        }
    }

    fn link_class_to(&mut self, neighbor: NodeId) -> Option<ChannelClass> {
        self.link_classes.get(&neighbor).copied().flatten()
    }

    fn data_queue_len(&self, neighbor: NodeId) -> usize {
        self.queue_lens.get(&neighbor).copied().unwrap_or(0)
    }

    fn data_queue_total(&self) -> usize {
        self.queue_lens.iter().map(|(_, n)| n).sum()
    }

    fn initial_topology(&mut self) -> Option<&TopologySnapshot> {
        self.topology_requests += 1;
        self.initial_topology.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_actions() {
        let mut ctx = ScriptedCtx::new(NodeId(1));
        ctx.broadcast(ControlPacket::Beacon);
        ctx.unicast(NodeId(2), ControlPacket::Rupd { src: NodeId(1), dst: NodeId(3) });
        assert_eq!(ctx.broadcasts.len(), 1);
        assert_eq!(ctx.unicasts.len(), 1);
        assert_eq!(ctx.unicasts[0].0, NodeId(2));
    }

    #[test]
    fn timer_lifecycle() {
        let mut ctx = ScriptedCtx::new(NodeId(1));
        let t1 = ctx.set_timer(SimDuration::from_millis(20), Timer::Beacon);
        let _t2 = ctx.set_timer(SimDuration::from_millis(10), Timer::LinkMonitor);
        assert_eq!(ctx.pending_timers().len(), 2);
        // Earliest first.
        assert_eq!(ctx.fire_next_timer(), Timer::LinkMonitor);
        assert_eq!(ctx.now(), SimTime::ZERO + SimDuration::from_millis(10));
        ctx.cancel_timer(t1);
        assert!(ctx.pending_timers().is_empty());
    }

    #[test]
    fn scripted_links() {
        let mut ctx = ScriptedCtx::new(NodeId(0));
        assert_eq!(ctx.link_class_to(NodeId(9)), None, "unscripted = out of range");
        ctx.set_link_class(NodeId(9), Some(ChannelClass::C));
        assert_eq!(ctx.link_class_to(NodeId(9)), Some(ChannelClass::C));
        ctx.set_link_class(NodeId(9), None);
        assert_eq!(ctx.link_class_to(NodeId(9)), None);
        ctx.set_queue_len(NodeId(9), 4);
        assert_eq!(ctx.data_queue_len(NodeId(9)), 4);
    }
}
