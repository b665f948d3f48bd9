//! The default shard count of the SMP front end.
//!
//! The engine itself stays a plain `&mut self` state machine — the BMC,
//! the corruption hooks, and every existing test keep driving it
//! directly. SMP serving lives in the monitor crate's
//! `ConcurrentMonitor`, which owns the engine lock and the shard clocks
//! and serves every tier from the live engine.

/// Default number of domain shards. Domains route to shards by id AND
/// the power-of-two shard mask; more shards than plausible worker
/// threads keeps false conflicts rare while bounding the clock table.
pub const SHARDS: usize = 16;
