//! Arithmetic on [`Ubig`]: addition, subtraction, multiplication, division
//! and shifts, wired up as operator overloads on both owned values and
//! references.

mod add;
mod bits;
mod div;
mod mul;
mod pow;
mod shift;

pub(crate) use add::{add_assign_slice, sub_assign_slice};
pub(crate) use mul::mul_limbs;

use crate::Ubig;
use std::ops::{Add, AddAssign, BitAnd, BitOr, BitXor, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $imp:path) => {
        impl $trait<&Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig {
                $imp(self, rhs)
            }
        }
        impl $trait<Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $imp(&self, &rhs)
            }
        }
        impl $trait<&Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig {
                $imp(&self, rhs)
            }
        }
        impl $trait<Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $imp(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, add::add);
forward_binop!(Sub, sub, add::sub);
forward_binop!(Mul, mul, mul::mul);
forward_binop!(Div, div, div::div);
forward_binop!(Rem, rem, div::rem);
forward_binop!(BitAnd, bitand, bits::and);
forward_binop!(BitOr, bitor, bits::or);
forward_binop!(BitXor, bitxor, bits::xor);

impl AddAssign<&Ubig> for Ubig {
    fn add_assign(&mut self, rhs: &Ubig) {
        if self.limbs.len() < rhs.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        let carry = add::add_assign_slice(&mut self.limbs, &rhs.limbs);
        if carry != 0 {
            self.limbs.push(carry);
        }
    }
}

impl SubAssign<&Ubig> for Ubig {
    /// In-place subtraction.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    fn sub_assign(&mut self, rhs: &Ubig) {
        assert!(&*self >= rhs, "Ubig subtraction underflow");
        let borrow = add::sub_assign_slice(&mut self.limbs, &rhs.limbs);
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }
}

impl std::ops::ShrAssign<usize> for Ubig {
    fn shr_assign(&mut self, rhs: usize) {
        shift::shr_in_place(self, rhs);
    }
}

impl Shl<usize> for &Ubig {
    type Output = Ubig;
    fn shl(self, rhs: usize) -> Ubig {
        shift::shl(self, rhs)
    }
}

impl Shl<usize> for Ubig {
    type Output = Ubig;
    fn shl(self, rhs: usize) -> Ubig {
        shift::shl(&self, rhs)
    }
}

impl Shr<usize> for &Ubig {
    type Output = Ubig;
    fn shr(self, rhs: usize) -> Ubig {
        shift::shr(self, rhs)
    }
}

impl Shr<usize> for Ubig {
    type Output = Ubig;
    fn shr(self, rhs: usize) -> Ubig {
        shift::shr(&self, rhs)
    }
}

impl Ubig {
    /// Computes quotient and remainder in one division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// ```
    /// use pisa_bigint::Ubig;
    /// let (q, r) = Ubig::from(17u64).div_rem(&Ubig::from(5u64));
    /// assert_eq!((q, r), (Ubig::from(3u64), Ubig::from(2u64)));
    /// ```
    pub fn div_rem(&self, divisor: &Ubig) -> (Ubig, Ubig) {
        div::div_rem(self, divisor)
    }

    /// `self * self`, slightly faster than general multiplication for
    /// large operands.
    pub fn square(&self) -> Ubig {
        mul::mul(self, self)
    }

    /// Checked subtraction: `None` if `rhs > self`.
    ///
    /// ```
    /// use pisa_bigint::Ubig;
    /// assert!(Ubig::from(1u64).checked_sub(&Ubig::from(2u64)).is_none());
    /// ```
    pub fn checked_sub(&self, rhs: &Ubig) -> Option<Ubig> {
        if self < rhs {
            None
        } else {
            Some(add::sub(self, rhs))
        }
    }
}
