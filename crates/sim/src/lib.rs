//! Deterministic simulation kernel for the iNPG reproduction.
//!
//! This crate holds the small, dependency-free foundation everything else
//! builds on:
//!
//! * strongly-typed identifiers ([`Cycle`], [`CoreId`], [`ThreadId`],
//!   [`Addr`], [`LockId`]) so that a cache-line address can never be
//!   confused with a core index;
//! * a deterministic, seedable random number generator ([`rng::SimRng`])
//!   so that a given seed always reproduces the same simulated execution
//!   cycle for cycle;
//! * a cycle-keyed event wheel ([`event::EventWheel`]) used by components
//!   that sleep for a known number of cycles (core compute phases, OS
//!   context switches, barrier TTLs);
//! * a per-tile bitset ([`TileSet`]) that the per-cycle sweeps walk to
//!   visit only tiles with pending work;
//! * shared configuration error types.
//!
//! # Example
//!
//! ```
//! use inpg_sim::{Cycle, event::EventWheel};
//!
//! let mut wheel: EventWheel<&'static str> = EventWheel::new();
//! wheel.schedule(Cycle::new(5), "wake thread 3");
//! wheel.schedule(Cycle::new(2), "barrier TTL expired");
//! assert_eq!(wheel.pop_due(Cycle::new(2)), Some("barrier TTL expired"));
//! assert_eq!(wheel.pop_due(Cycle::new(2)), None);
//! assert_eq!(wheel.pop_due(Cycle::new(7)), Some("wake thread 3"));
//! ```

pub mod abort;
pub mod coverage;
pub mod event;
pub mod ids;
pub mod rng;
pub mod tileset;
pub mod watchdog;

pub use abort::AbortHandle;
pub use event::EventWheel;
pub use ids::{Addr, CoreId, Cycle, LockId, ThreadId};
pub use rng::SimRng;
pub use tileset::TileSet;
pub use watchdog::Watchdog;

use std::error::Error;
use std::fmt;

/// Error returned when a simulation configuration is internally
/// inconsistent (e.g. a mesh dimension of zero, or more big routers than
/// routers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Creates a configuration error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }

    /// The human-readable reason the configuration was rejected.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_displays_message() {
        let err = ConfigError::new("mesh dimension must be nonzero");
        assert_eq!(err.to_string(), "mesh dimension must be nonzero");
        assert_eq!(err.message(), "mesh dimension must be nonzero");
    }

    #[test]
    fn config_error_is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<ConfigError>();
    }
}
