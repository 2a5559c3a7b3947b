//! Workspace automation behind `cargo xtask` (see the `xtask` alias in
//! `.cargo/config.toml`): [`obscheck`] validates the observability
//! artifacts CI produces — Chrome traces, Prometheus scrapes, and the
//! obs-off binary's symbol table.
//!
//! The workspace invariants (r1-r5) are not checked here: they are
//! clippy configuration and types, in `clippy.toml`, the root
//! `Cargo.toml`'s `[workspace.lints]` and per-module attributes.
//! DESIGN.md § "Static analysis" has the rule table.

pub mod obscheck;
