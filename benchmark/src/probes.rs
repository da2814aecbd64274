//! Layer probes: the mobility, channel and MAC calls `mac_tx_end` makes,
//! timed in isolation on inputs taken from the workload's scenario (field,
//! node count, speed, seed), so their share of the handler can be
//! estimated from the traced run's own counts.

use std::hint::black_box;
use std::time::Instant;

use rica_channel::ChannelModel;
use rica_harness::Scenario;
use rica_mac::CommonMedium;
use rica_mobility::{kmh_to_ms, SpatialGrid, Vec2, Waypoint};
use rica_sim::{Rng, SimTime};

/// The harness's grid drift slack (metres): fan-out queries reach this far
/// twice beyond the MAC range.
const GRID_SLACK_M: f64 = 12.0;

/// Calls per timed loop; enough that one loop takes milliseconds.
const CALLS: usize = 200_000;

pub struct LayerCosts {
    pub position_ns: f64,
    pub grid_rebuild_us: f64,
    pub grid_query_ns: f64,
    /// Mean grid candidates per fan-out query.
    pub grid_candidates: f64,
    /// Candidates within radio range over candidates returned.
    pub grid_hit_frac: f64,
    /// Mean fan-out list length after the harness's disc trim.
    pub fanout_candidates: f64,
    /// Mean receivers within MAC range of a transmitter.
    pub in_range: f64,
    pub class_ns: f64,
    pub busy_check_ns: f64,
    pub delivered_check_ns: f64,
}

fn per_call_ns(calls: usize, t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Times every probe. `concurrency` is the mean number of transmissions
/// on the common medium at once, as the traced run measured it.
pub fn measure(scenario: &Scenario, seed: u64, concurrency: f64) -> LayerCosts {
    let n = scenario.nodes;
    let field = scenario.field;
    let master = Rng::new(seed);
    let speed = kmh_to_ms(scenario.mean_speed_kmh * 2.0);
    let walkers = || -> Vec<Waypoint> {
        (0..n)
            .map(|i| {
                Waypoint::new(field, speed, scenario.pause_secs, master.fork(1_000 + i as u64))
            })
            .collect()
    };

    // Mobility: trajectories evaluated at advancing instants, round robin.
    let horizon_ns = scenario.duration.as_secs_f64() * 1e9;
    let per_node = (CALLS / n).max(1);
    let mut timed = walkers();
    let t0 = Instant::now();
    for k in 0..per_node {
        let t = SimTime::from_nanos((horizon_ns * k as f64 / per_node as f64) as u64);
        for w in timed.iter_mut() {
            black_box(w.position_at(t));
        }
    }
    let position_ns = per_call_ns(per_node * n, t0);

    // Spatial grid at mid-trial positions.
    let mid = SimTime::from_secs_f64(scenario.duration.as_secs_f64() / 2.0);
    let positions: Vec<Vec2> = walkers().iter_mut().map(|w| w.position_at(mid)).collect();
    let range = scenario.mac.range_m;
    let mut grid = SpatialGrid::new(field, (range / 3.0).max(GRID_SLACK_M));
    let rebuilds = (CALLS / n).max(1);
    let t0 = Instant::now();
    for _ in 0..rebuilds {
        grid.rebuild(black_box(&positions));
    }
    let grid_rebuild_us = per_call_ns(rebuilds, t0) / 1e3;
    let radius = range + 2.0 * GRID_SLACK_M;
    let mut out = Vec::new();
    let queries = (CALLS / 10).max(n);
    let t0 = Instant::now();
    for q in 0..queries {
        grid.query_unordered_into(positions[q % n], radius, &mut out);
        black_box(out.len());
    }
    let grid_query_ns = per_call_ns(queries, t0);
    let (mut returned, mut hits, mut trimmed) = (0usize, 0usize, 0usize);
    let mut pairs = Vec::new();
    let keep_sq = (radius + 1.0) * (radius + 1.0);
    for (i, &p) in positions.iter().enumerate() {
        grid.query_unordered_into(p, radius, &mut out);
        returned += out.len();
        for &j in &out {
            let j = j as usize;
            let d_sq = positions[j].distance_sq(p);
            if j != i && d_sq <= keep_sq {
                trimmed += 1;
            }
            if j != i && d_sq <= range * range {
                hits += 1;
                pairs.push((i, j));
            }
        }
    }

    // Channel classification on in-range pairs, time advancing by about
    // one control-packet airtime per sweep over the pairs.
    let mut channel = ChannelModel::with_nodes(scenario.channel.clone(), master.fork(1), n as u32);
    let mut class_calls = 0;
    let t0 = Instant::now();
    let mut sweep = 0u64;
    while class_calls < CALLS && !pairs.is_empty() {
        let t = SimTime::from_nanos(sweep * 16_000_000);
        for &(a, b) in &pairs {
            black_box(channel.class_between(a as u32, b as u32, positions[a], positions[b], t));
        }
        class_calls += pairs.len();
        sweep += 1;
    }
    let class_ns = per_call_ns(class_calls.max(1), t0);

    // MAC medium with the measured number of overlapping transmissions.
    let mut medium = CommonMedium::new(&scenario.mac);
    let mut rng = master.fork(7);
    let active = (concurrency.round() as usize).clamp(1, n);
    let end = SimTime::from_secs_f64(1.0);
    let first = medium.begin_tx(0, positions[0], SimTime::ZERO, end);
    for _ in 1..active {
        let i = rng.usize_below(n);
        medium.begin_tx(i as u32, positions[i], SimTime::ZERO, end);
    }
    let now = SimTime::from_secs_f64(0.5);
    let t0 = Instant::now();
    for k in 0..CALLS {
        let i = k % n;
        black_box(medium.is_busy_near(i as u32, positions[i], now));
    }
    let busy_check_ns = per_call_ns(CALLS, t0);
    medium.begin_delivery(first);
    let t0 = Instant::now();
    for k in 0..CALLS {
        let i = k % n;
        black_box(medium.delivered_prepared(i as u32, positions[i]));
    }
    let delivered_check_ns = per_call_ns(CALLS, t0);

    LayerCosts {
        position_ns,
        grid_rebuild_us,
        grid_query_ns,
        grid_candidates: returned as f64 / n as f64,
        grid_hit_frac: hits as f64 / returned.max(1) as f64,
        fanout_candidates: trimmed as f64 / n as f64,
        in_range: hits as f64 / n as f64,
        class_ns,
        busy_check_ns,
        delivered_check_ns,
    }
}
