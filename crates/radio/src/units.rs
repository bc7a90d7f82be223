//! Power and gain units: dB, dBm and linear milliwatts.
//!
//! Newtypes keep logarithmic and linear quantities from being mixed up
//! (adding two dBm values is meaningless; adding dB to dBm is a gain).

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// A relative gain or loss in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Db(pub f64);

/// An absolute power level in dB-milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dbm(pub f64);

/// An absolute power in linear milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct MilliWatts(pub f64);

impl Db {
    /// The linear power ratio `10^(dB/10)`.
    ///
    /// ```
    /// use pisa_radio::Db;
    /// assert!((Db(3.0).as_ratio() - 1.995).abs() < 0.01);
    /// ```
    pub fn as_ratio(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Builds a dB gain from a linear power ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio <= 0`.
    pub fn from_ratio(ratio: f64) -> Self {
        assert!(ratio > 0.0, "power ratio must be positive, got {ratio}");
        Db(10.0 * ratio.log10())
    }
}

impl Dbm {
    /// Converts to linear milliwatts.
    ///
    /// ```
    /// use pisa_radio::Dbm;
    /// assert!((Dbm(0.0).to_milliwatts().0 - 1.0).abs() < 1e-12);
    /// assert!((Dbm(30.0).to_milliwatts().0 - 1000.0).abs() < 1e-9);
    /// ```
    pub fn to_milliwatts(self) -> MilliWatts {
        MilliWatts(10f64.powf(self.0 / 10.0))
    }
}

impl MilliWatts {
    /// Converts to dBm.
    ///
    /// # Panics
    ///
    /// Panics if the power is not positive.
    pub fn to_dbm(self) -> Dbm {
        assert!(self.0 > 0.0, "cannot express {} mW in dBm", self.0);
        Dbm(10.0 * self.0.log10())
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub<Dbm> for Dbm {
    type Output = Db;
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dB", self.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

impl fmt::Display for MilliWatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} mW", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbm_milliwatt_roundtrip() {
        for v in [-100.0f64, -30.0, 0.0, 10.0, 36.0] {
            let mw = Dbm(v).to_milliwatts();
            assert!((mw.to_dbm().0 - v).abs() < 1e-9, "{v} dBm");
        }
    }

    #[test]
    fn db_ratio_roundtrip() {
        for v in [-40.0f64, -3.0, 0.0, 3.0, 20.0] {
            assert!((Db::from_ratio(Db(v).as_ratio()).0 - v).abs() < 1e-9);
        }
    }

    #[test]
    fn gain_arithmetic() {
        let p = Dbm(20.0) + Db(10.0);
        assert_eq!(p, Dbm(30.0));
        assert_eq!(Dbm(20.0) - Dbm(17.0), Db(3.0));
        assert_eq!(Db(3.0) + Db(4.0), Db(7.0));
        assert_eq!(-Db(5.0), Db(-5.0));
    }

    #[test]
    #[should_panic(expected = "in dBm")]
    fn zero_milliwatts_has_no_dbm() {
        let _ = MilliWatts(0.0).to_dbm();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Db(3.0).to_string(), "3.00 dB");
        assert_eq!(Dbm(-82.5).to_string(), "-82.50 dBm");
    }
}
