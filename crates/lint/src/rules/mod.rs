//! The rule families. 1–4 are the v1 item-level rules; 5–7 are the v2
//! interprocedural families built on [`crate::ir`] / [`crate::callgraph`]
//! / [`crate::dataflow`]; dead-allow (8) lives in [`crate::allow`];
//! dead-api (9) resolves every reference in the repository through the
//! call graph.

pub mod blocking;
pub mod branching;
pub mod conventions;
pub mod dead_api;
pub mod flow;
pub mod locks;
pub mod panics;
pub mod secret;
