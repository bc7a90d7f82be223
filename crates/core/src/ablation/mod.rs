//! Ablation baselines: the approaches PISA was designed to avoid.
//!
//! §IV-B argues that realizing the comparisons of eqs. (4) and (7) with
//! existing secure integer-comparison protocols (\[13\], \[12\], \[18\]) would
//! require bit-by-bit encryption and be "extremely complex and
//! time-consuming". This module implements that baseline so the claim
//! can be measured instead of taken on faith (the `table2` binary of
//! `pisa-bench` prices one comparison against PISA's sign test).

pub mod bitwise_cmp;

pub use bitwise_cmp::{BitwiseComparison, BitwiseCost};
