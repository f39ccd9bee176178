//! Service configuration and the `RAP_SERVE_*` environment knobs.

use rap_circuit::Machine;

/// Tuning knobs for a [`crate::Server`].
///
/// Budgets are expressed in *pages* of the certified per-composition
/// quantities (the bank ping-pong input window and the bank's worst-case
/// output-record occupancy, B003), never in ad-hoc byte counts: resizing
/// the modeled hardware rescales every threshold automatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker shards. Each shard owns one certified composition and one
    /// scan thread; registrations land on the least-loaded shard.
    pub shards: usize,
    /// Multiplier applied to the certified per-composition queue
    /// quantities to size the per-session intake and event budgets.
    pub queue_pages: u64,
    /// The machine every tenant's plan targets.
    pub machine: Machine,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            shards: 2,
            queue_pages: 8,
            machine: Machine::Rap,
        }
    }
}

impl ServeConfig {
    /// Reads `RAP_SERVE_SHARDS` and `RAP_SERVE_QUEUE_PAGES` over the
    /// defaults. Unset or unparsable values keep the default.
    pub fn from_env() -> ServeConfig {
        let defaults = ServeConfig::default();
        ServeConfig {
            shards: env_num("RAP_SERVE_SHARDS", defaults.shards as u64).max(1) as usize,
            queue_pages: env_num("RAP_SERVE_QUEUE_PAGES", defaults.queue_pages).max(1),
            machine: defaults.machine,
        }
    }
}

fn env_num(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
