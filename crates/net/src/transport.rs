//! Party addressing and the delivered-message envelope.

use std::fmt;

/// Address of a protocol party.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Party {
    /// The spectrum database controller.
    Sdc,
    /// The semi-trusted third party (key conversion service).
    Stp,
    /// A primary user (TV receiver) by index.
    Pu(u32),
    /// A secondary user by index.
    Su(u32),
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Party::Sdc => f.write_str("SDC"),
            Party::Stp => f.write_str("STP"),
            Party::Pu(i) => write!(f, "PU{i}"),
            Party::Su(i) => write!(f, "SU{i}"),
        }
    }
}

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender address.
    pub from: Party,
    /// Recipient address.
    pub to: Party,
    /// The message itself.
    pub payload: M,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_display() {
        assert_eq!(Party::Sdc.to_string(), "SDC");
        assert_eq!(Party::Pu(3).to_string(), "PU3");
        assert_eq!(Party::Su(0).to_string(), "SU0");
        assert_eq!(Party::Stp.to_string(), "STP");
    }
}
