//! Miniature loom-style concurrency checker for the commit protocol.
//!
//! The commit engine in `prosper-core`
//! (`PersistentProcess::commit_with`) runs a stage pass and an apply
//! pass over every stack around a serial seal, on its calling thread,
//! one sequence per call. Its correctness argument rests on a handful
//! of ordering invariants (see [`order`]): the seal is the single
//! commit point, stage and apply for one sequence number never
//! overlap, sequences never overlap each other, and the tracker
//! quiescence handshake orders bitmap clears against mutator writes.
//!
//! This module checks those invariants *exhaustively* on a model:
//!
//! * [`model`] builds a synchronization skeleton of the protocol —
//!   the coordinator, which runs the commit in program order, and the
//!   tracker thread it handshakes with — as explicit steps with
//!   acquire/release edges and shared-location accesses, plus
//!   deliberately seeded bugs ([`model::Bug`]) that each drop one
//!   handshake edge.
//! * [`explorer`] enumerates every schedule of that skeleton under a
//!   preemption bound (DFS over enabled threads), maintaining vector
//!   clocks ([`vclock`]) to flag happens-before races, and checks the
//!   event trace of each schedule with [`order::check_order`].
//! * The same [`order::check_order`] runs over `CommitProbeEvent`
//!   logs recorded from the *real* commit path, tying the model to
//!   the implementation (see `tests/real_commit_conformance.rs`).

pub mod explorer;
pub mod model;
pub mod order;
pub mod vclock;

pub use explorer::{explore, ExploreReport, ExplorerConfig, RaceReport};
pub use model::{commit_program, Bug, CommitConfig, Program};
pub use order::{check_order, OrderEvent, OrderViolation};
pub use vclock::VClock;
