//! Static analysis and concurrency checking for the Prosper workspace.
//!
//! Two engines live here, both runnable as binaries and exercised by
//! tests:
//!
//! * **`prosper-lint`** — a token-level Rust source walker (no syn, no
//!   network deps) that enforces workspace invariants the compiler
//!   cannot see: durable-write discipline, `CrashSite` exhaustiveness,
//!   telemetry-name hygiene, panic-free recovery paths, determinism of
//!   simulator code, and `forbid(unsafe_code)` coverage. See
//!   [`rules`] for the catalogue and [`source`] for the scanner.
//! * **`prosper-interleave`** — a miniature loom-style bounded
//!   interleaving explorer plus vector-clock race detector for the
//!   stage/seal/apply commit protocol. See [`interleave`].
//!
//! Both report machine-readable JSON (hand-rolled writer in [`diag`];
//! the workspace deliberately takes no serialization dependency here
//! so the linter can lint the shims without depending on them).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diag;
pub mod interleave;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, LintReport};
pub use source::SourceFile;
