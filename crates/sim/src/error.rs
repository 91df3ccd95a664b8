//! Simulation-level failures.

use crate::time::SimTime;
use std::fmt;

/// A simulated process that was blocked when the simulation wedged.
#[derive(Debug, Clone)]
pub struct BlockedProc {
    /// Process name given at spawn time.
    pub name: String,
    /// Virtual time at which the process blocked.
    pub blocked_at: SimTime,
}

/// Fatal simulation outcomes.
#[derive(Debug, Clone)]
pub enum SimError {
    /// No runnable process and no pending event, but at least one process is
    /// still blocked: the simulated program has deadlocked.
    Deadlock {
        /// Virtual time at which the deadlock was detected.
        at: SimTime,
        /// Every process that was blocked at detection time.
        blocked: Vec<BlockedProc>,
    },
    /// A simulated process panicked; the panic message is captured and the
    /// remaining processes were torn down.
    ProcPanic {
        /// Name of the panicking process.
        name: String,
        /// Stringified panic payload.
        message: String,
    },
    /// The world finished, but its end state broke a law it must obey
    /// (`viampi_core::invariants`).
    Invariant {
        /// One line per broken law, naming its rank, peer and stripe.
        violations: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, blocked } => {
                write!(f, "simulation deadlock at {at}: blocked = [")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} (since {})", b.name, b.blocked_at)?;
                }
                write!(f, "]")
            }
            SimError::ProcPanic { name, message } => {
                write!(f, "simulated process '{name}' panicked: {message}")
            }
            SimError::Invariant { violations } => {
                write!(f, "world-end invariants broken: {}", violations.join("; "))
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_deadlock_lists_processes() {
        let e = SimError::Deadlock {
            at: SimTime(1500),
            blocked: vec![
                BlockedProc {
                    name: "rank0".into(),
                    blocked_at: SimTime(1000),
                },
                BlockedProc {
                    name: "rank1".into(),
                    blocked_at: SimTime(1500),
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("rank0"));
        assert!(s.contains("rank1"));
    }

    #[test]
    fn display_panic_has_name_and_message() {
        let e = SimError::ProcPanic {
            name: "rank3".into(),
            message: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("rank3"));
        assert!(s.contains("index out of bounds"));
    }
}
