//! Cycle-accurate, phit-level Dragonfly network simulator.
//!
//! This crate is the reproduction of the paper's "in-house developed single-cycle
//! simulator that models FIFO input-buffered routers with VCT or WH flow-control".
//! It simulates every phit of every packet:
//!
//! * routers are input-buffered with per-port virtual channels: every input VC
//!   of the network lives in the flat [`buffer::InputFabric`], the output side
//!   in [`router`],
//! * links are pipelined and carry one phit per cycle, with credit-based backpressure;
//!   every pipeline is a ring of slots indexed by cycle in the struct-of-arrays
//!   [`fabric::LinkFabric`], which also defines the shard-boundary records,
//! * flow control is Virtual Cut-Through or Wormhole ([`config::FlowControl`]),
//! * routing is pluggable through the [`routing_iface::RoutingAlgorithm`] trait and is
//!   re-evaluated every cycle (on-the-fly adaptivity),
//! * statistics follow the paper's methodology: warm-up, measurement window, latency
//!   of packets generated inside the window, accepted load at the ejection ports
//!   ([`stats_collect`]); the run protocols are written once in [`protocol`] and
//!   hosted by [`engine::Simulation`].
//!
//! # Example
//!
//! The engine is monomorphized over the routing mechanism it is built with
//! (the paper's seven live in `dragonfly_routing`); here minimal routing:
//!
//! ```
//! use dragonfly_rng::Rng;
//! use dragonfly_sim::{Packet, RouteChoice, RouteCtx, RouterView, RoutingAlgorithm};
//! use dragonfly_sim::{SimConfig, Simulation};
//! use dragonfly_traffic::Uniform;
//!
//! /// The minimal path `l – g – l`, one VC up per global hop taken.
//! struct Minimal;
//!
//! impl RoutingAlgorithm for Minimal {
//!     fn name(&self) -> &'static str { "Minimal" }
//!     fn required_local_vcs(&self) -> usize { 2 }
//!     fn required_global_vcs(&self) -> usize { 1 }
//!     fn route(&self, _: &RouteCtx<'_>, packet: &Packet, view: &RouterView<'_>, _: &mut Rng)
//!         -> Option<RouteChoice> {
//!         let port = view.params.minimal_port(view.router, packet.dst);
//!         let vc = if port.is_terminal() { 0 } else { packet.route.global_hops };
//!         Some(RouteChoice::plain(port, vc))
//!     }
//! }
//!
//! let traffic = Box::new(Uniform::new());
//! let mut sim = Simulation::with_routing(SimConfig::paper_vct(2), Minimal, traffic);
//! let report = sim.run_steady_state(0.1, 500, 1_000, 1_000);
//! assert!(report.accepted_load > 0.0);
//! ```

pub mod active_set;
pub mod buffer;
pub mod config;
pub mod engine;
pub mod fabric;
pub mod network;
pub mod packet;
pub mod protocol;
pub mod ring;
pub mod router;
pub mod routing_iface;
pub mod stats_collect;

pub use active_set::ActiveSet;
pub use buffer::InputVc;
pub use config::{FlowControl, SimConfig};
pub use engine::Simulation;
pub use fabric::{head_slots, Arrived, LinkEnd, LinkFabric, LinkSpec, PhitInFlight};
pub use network::{GlobalStatusBoard, Network, PoolBytes};
pub use packet::{DelayState, Leg, Packet, PacketArena, PacketId, RouteState, UNTAGGED};
pub use protocol::{sim_report, Control, Engine, EngineHost, SimRunIdentity, Status};
pub use ring::RingMeta;
pub use router::{OutputPort, OutputVc, Router};
pub use routing_iface::{RouteChoice, RouteCtx, RouteUpdate, RouterView, RoutingAlgorithm};
pub use stats_collect::ScopedCollector;
pub use stats_collect::StatsCollector;
