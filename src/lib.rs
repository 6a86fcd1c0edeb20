//! Workspace root package for the Liberty LSS reproduction.
//!
//! This package exists to host workspace-level integration tests (`tests/`)
//! and runnable examples (`examples/`). The actual library lives in the
//! [`liberty`] umbrella crate and the `lss-*` crates it re-exports.

pub use liberty;
