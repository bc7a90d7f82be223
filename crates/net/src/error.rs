//! Error type for the in-memory network.

use crate::transport::Party;
use std::error::Error;
use std::fmt;

/// Errors produced by the in-memory network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// The recipient never registered an endpoint.
    UnknownParty(Party),
    /// The counterpart hung up.
    Disconnected(Party),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownParty(p) => write!(f, "no endpoint registered for {p}"),
            NetError::Disconnected(p) => write!(f, "channel to {p} disconnected"),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_party() {
        assert!(NetError::UnknownParty(Party::Su(3))
            .to_string()
            .contains("SU3"));
        assert!(NetError::Disconnected(Party::Stp)
            .to_string()
            .contains("STP"));
    }
}
