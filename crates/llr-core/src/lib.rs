//! Fast, wait-free, read/write **long-lived renaming** — a full
//! reproduction of Buhrman, Garay, Hoepman & Moir, "Long-Lived Renaming
//! Made Fast" (1995).
//!
//! `n` processes with unique ids from a large *source* name space
//! `{0..S-1}` repeatedly acquire and release names from a small
//! *destination* name space `{0..D-1}`; at most `k` processes hold or
//! request names concurrently. Everything here uses only atomic reads and
//! writes, and every operation is wait-free.
//!
//! # Protocols
//!
//! | Protocol | Destination size | GetName cost | Fast? |
//! |---|---|---|---|
//! | [`split::Split`] | `3^(k-1)` | `O(k)` | yes |
//! | [`filter::Filter`] | `2zd(k-1)` (≤ `72k²` for `S ≤ 2k⁴`) | `O(dk log S)` | yes (for `S` poly in `k`) |
//! | [`ma::MaGrid`] | `k(k+1)/2` | `O(kS)` | **no** (the baseline) |
//! | [`chain::Chain`] | `k(k+1)/2` | `O(k³)` | yes (Theorem 11; stages composed by [`chain::Then`]) |
//! | [`onetime::OneTimeGrid::new`] | `k(k+1)/2` | `O(k)` | yes, but one-shot |
//! | [`levelarray::LevelArray`] | `3k + ⌈log₂k⌉ + 1` | `O(k)` expected | yes (rival; uses swap) |
//! | [`onetime::OneTimeGrid::small_net`] | `k(k+1)/2` | `O(k)`, `k` fewer splitters | one-shot rival (renewable via [`smallnet::RenewableNet`]) |
//!
//! `Split`, `Filter`, `MaGrid`, `Chain` and `LevelArray` are one type: each
//! is a [`session::Renamer`] serving that protocol's core (`Split` is
//! `Renamer<SplitCore>`, `Chain<P>` is `Renamer<P>`), so they share one
//! [`traits::Renaming`] impl and one handle, [`session::Handle`].
//!
//! # Architecture
//!
//! Every protocol is implemented once, as an explicit *step machine* (one
//! shared-memory access per step — the paper's atomicity granularity) over
//! the [`llr_mem`] register substrate. The same machine:
//!
//! * runs on real threads over [`llr_mem::AtomicMemory`] through the
//!   [`traits::Renaming`] handle API, and
//! * is **exhaustively model-checked** with [`llr_mc`] (all interleavings
//!   of small configurations) — see the `spec` items in each module, and
//!   [`session::checker`], which checks any served core: a chain's
//!   stages compose into one core ([`chain::Then`]) that is both served
//!   and checked.
//!
//! The step hooks are generic over the memory, so each use gets its own
//! compiled copy of the one source, and every core owns its shape while
//! its machines hold only per-operation locals (see [`session`]).
//!
//! # Quickstart
//!
//! ```
//! use llr_core::split::Split;
//! use llr_core::traits::{Renaming, RenamingHandle};
//!
//! // k = 3 concurrent processes out of a huge source space.
//! let split = Split::new(3);
//! let mut h = split.handle(123_456_789);
//! let name = h.acquire();
//! assert!(name < split.dest_size()); // < 3^(k-1) = 9
//! h.release();
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod chain;
pub mod chaos;
pub mod filter;
pub mod harness;
pub mod levelarray;
pub mod ma;
pub mod onetime;
pub mod pf;
pub mod session;
pub mod smallnet;
pub mod split;
pub mod splitter;
pub mod tas;
pub mod tournament;
pub mod traits;
pub mod types;

pub use arena::{ArenaClient, NameArena};
pub use session::{
    crash_robust_uniqueness, Fault, Handle, ProtocolCore, Renamer, Session, SessionPhase,
};
pub use traits::{Renaming, RenamingHandle};
pub use types::{Direction, Name, Pid};
