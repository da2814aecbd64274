//! # rica-channel — the 4-class time-varying wireless channel (ABICM)
//!
//! The paper models every pairwise wireless channel with the ABICM adaptive
//! channel coding and modulation scheme [Lau, VTC'2000]: the modem adjusts
//! error protection to the instantaneous channel state, so the *effective
//! throughput* of a link is one of four classes (§II.A):
//!
//! | class | throughput | CSI-based hop distance |
//! |-------|-----------:|-----------------------:|
//! | A     |   250 kbps |                   1.00 |
//! | B     |   150 kbps |                   1.67 |
//! | C     |    75 kbps |                   3.33 |
//! | D     |    50 kbps |                   5.00 |
//!
//! The CSI-based hop distance is the transmission-delay ratio relative to a
//! class-A link — the route metric RICA and BGCA minimise.
//!
//! ## The SNR process
//!
//! The class is obtained by thresholding a composite link SNR:
//!
//! ```text
//! snr_db(t) = ref_gain − 10·n·log10(d(t)/d_ref)   (log-distance path loss)
//!           + shadow(t)    (Ornstein–Uhlenbeck, σ ≈ 6 dB, τ ≈ 15 s)
//!           + fade(t)      (Ornstein–Uhlenbeck, σ ≈ 4 dB, τ ≈ 1.5 s)
//! ```
//!
//! capturing "the fast fading and long term shadowing effects" (§II.A). The
//! fading time constant is calibrated so a link's class dwells for ~1–2 s:
//! the paper's receiver broadcasts CSI checks every second *because* that is
//! the timescale on which the class changes ("this has to be decided by the
//! change speed of the link CSI", §II.C). Faster fading is absorbed by the
//! ABICM modem below the abstraction.
//!
//! Both processes are evaluated **lazily and exactly** (the OU process has a
//! closed-form conditional distribution), so sampling a link at arbitrary
//! event times costs O(1) and never depends on a global tick.
//!
//! ## Fidelity tiers
//!
//! [`ChannelFidelity`] selects how the stochastic processes are realised:
//! `Exact` (default) is bit-pinned against every golden in the workspace,
//! while `Approx` trades bit identity for throughput — ziggurat innovations
//! and [`quantise_dt`]-gridded decay lookups — gated on statistical
//! equivalence of the class process and trial aggregates.
//!
//! ```
//! use rica_channel::{ChannelClass, ChannelConfig, ChannelModel};
//! use rica_mobility::Vec2;
//! use rica_sim::{Rng, SimTime};
//!
//! let mut model = ChannelModel::new(ChannelConfig::default(), Rng::new(1));
//! let class = model.class_between(
//!     0, 1,
//!     Vec2::new(0.0, 0.0), Vec2::new(60.0, 0.0),
//!     SimTime::ZERO,
//! );
//! // 60 m apart: well inside the 250 m range, so some class is reported.
//! assert!(class.is_some());
//! assert!(model
//!     .class_between(0, 2, Vec2::new(0.0, 0.0), Vec2::new(400.0, 0.0), SimTime::ZERO)
//!     .is_none());
//! ```

#![warn(missing_docs)]

mod class;
mod config;
mod model;
mod ou;

pub use class::ChannelClass;
pub use config::{ChannelConfig, ChannelFidelity};
pub use model::ChannelModel;
pub use ou::{quantise_dt, DecayCache, OuProcess};
