//! Isolated execution chambers for untrusted analyst programs (§6).
//!
//! The paper isolates each block computation in an AppArmor-confined
//! process that can only talk to a trusted forwarding agent, and defends
//! against the three side-channel attacks of Haeberlen et al. (USENIX
//! Security 2011): *state attacks*, *privacy budget attacks* and *timing
//! attacks*. A kernel MAC policy cannot be reproduced portably, so this
//! crate enforces the same isolation contract **by construction**,
//! in-process (see `DESIGN.md` §2.4):
//!
//! - [`program::BlockProgram`] is the only shape an analyst computation
//!   can take. It receives a read-only [`view::BlockView`] of its data
//!   block and a private [`scratch::Scratch`]
//!   space — no ledger handle, no channel to other chambers, no output
//!   other than its return value. This is the type-level analogue of the
//!   MAC policy (and the defense against budget attacks: accounting lives
//!   entirely in the runtime).
//! - [`chamber::Chamber`] runs one block under a [`policy::ChamberPolicy`]:
//!   a wall-clock execution budget, kill-on-overrun with an in-range
//!   constant fallback, panic containment, and optional padding so every
//!   execution consumes the full budget — making the runtime
//!   data-independent (the timing-attack defense of §6.2).
//! - [`chamber::ChamberPool`] fans blocks out across workers sized by an
//!   [`exec::ExecutionPolicy`] that claim blocks from one shared cursor,
//!   one fresh chamber per block (the paper's cluster parallelism, §1);
//!   under a kill bound the calling thread watches the workers. Seeds
//!   are split per chamber before fan-out and the reduce is
//!   index-ordered, so answers are independent of thread interleaving.
//! - [`attacks`] packages the three adversarial programs used by the
//!   Table 1 comparison and the security test-suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod chamber;
pub mod exec;
pub mod policy;
pub mod program;
pub mod scratch;
pub mod view;

pub use chamber::{Chamber, ChamberOutcome, ChamberPool, ChamberReport, PoolTrace};
pub use exec::ExecutionPolicy;
pub use policy::ChamberPolicy;
pub use program::{BlockProgram, ClosureProgram, RowSliceProgram};
pub use scratch::Scratch;
pub use view::{BlockRows, BlockView, RowStore, CHUNK_ROWS};
