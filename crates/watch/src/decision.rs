//! The SDC's grant/deny decision.

use std::fmt;

/// Outcome of a transmission request (§IV-A3).
///
/// In plaintext WATCH the SDC sees this directly; in PISA only the SU
/// learns it, by whether the license signature verifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Every interference-budget entry stays strictly positive.
    Granted,
    /// At least one budget is exhausted; lists the violated
    /// `(channel, block)` pairs.
    Denied {
        /// Budget entries driven to zero or below.
        violations: Vec<(usize, usize)>,
    },
}

impl Decision {
    /// `true` for [`Decision::Granted`].
    pub fn is_granted(&self) -> bool {
        matches!(self, Decision::Granted)
    }

    /// `true` for [`Decision::Denied`].
    pub fn is_denied(&self) -> bool {
        !self.is_granted()
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Granted => f.write_str("granted"),
            Decision::Denied { violations } => {
                write!(f, "denied ({} violated budgets)", violations.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(Decision::Granted.is_granted());
        assert!(!Decision::Granted.is_denied());
        let d = Decision::Denied {
            violations: vec![(0, 1)],
        };
        assert!(d.is_denied());
    }

    #[test]
    fn display() {
        assert_eq!(Decision::Granted.to_string(), "granted");
        let d = Decision::Denied {
            violations: vec![(0, 1), (2, 3)],
        };
        assert_eq!(d.to_string(), "denied (2 violated budgets)");
    }
}
