//! Fast, wait-free, read/write **long-lived renaming** — a reproduction
//! of Buhrman, Garay, Hoepman & Moir, *Long-Lived Renaming Made Fast*
//! (PODC 1995).
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * the protocols — [`split`] (Figure 1), [`filter`] (Figure 4, over the
//!   [`splitter`] / [`pf`] / [`tournament`] substrates), [`ma`] (the
//!   Moir–Anderson baseline grid), [`onetime`] (the one-shot grid), and
//!   [`chain`] (Theorem 11 stage composition);
//! * the generic [`session`] layer — every protocol exposes exactly one
//!   acquire machine and one release machine (a
//!   [`ProtocolCore`]), and [`Session`] / [`Handle`] derive the
//!   model-checked loop and the threaded [`RenamingHandle`] from it, so
//!   the verified code and the executed code are identical by
//!   construction; [`Renamer`] serves a core as the renaming object
//!   itself (`split::Split`, `filter::Filter`, `ma::MaGrid` and
//!   `chain::Chain` are all `Renamer`s) and [`session::checker`] checks
//!   it — the Theorem 11 chain included, whose stages compose into one
//!   core ([`chain::Then`]);
//! * the exploration engines — [`mc`] ([`mc::ModelChecker`] with the
//!   sequential, parallel, and external-memory backends behind
//!   [`Engine`]), [`mem`] (the flat register file), and [`gf`] (the
//!   GF(z) name-set combinatorics).
//!
//! # Example
//!
//! Rename out of a 2⁶⁴-sized id space and exhaustively verify the same
//! machines under every interleaving:
//!
//! ```
//! use long_lived_renaming::chain::{Chain, Theorem11};
//! use long_lived_renaming::mem::Layout;
//! use long_lived_renaming::{session, Engine, Renaming, RenamingHandle};
//!
//! // Theorem 11: any 64-bit id renamed to one of k(k+1)/2 names.
//! let chain = Chain::theorem11(2).unwrap();
//! let mut h = chain.handle(0xDEAD_BEEF_DEAD_BEEF);
//! let name = h.acquire();
//! assert!(name < 3);
//! h.release();
//!
//! // The same core, model-checked through the session layer: two
//! // processes, one acquire/release cycle each, every interleaving.
//! let mut layout = Layout::new();
//! let core = Theorem11::build(2, &mut layout).unwrap();
//! let stats = session::checker(layout, &core, &[3, 9], 1)
//!     .check_with(&Engine::Sequential, session::unique_names_invariant)
//!     .unwrap();
//! assert!(stats.states > 100, "got {}", stats.states);
//! ```

pub use llr_core::session::{self, Engine, Handle, ProtocolCore, Renamer, Session, SessionPhase};
pub use llr_core::traits::{Renaming, RenamingHandle};
pub use llr_core::types::{Direction, Name, Pid};
pub use llr_core::{chain, filter, harness, ma, onetime, pf, split, splitter, tournament};

/// The whole protocol crate, for paths not re-exported above.
pub use llr_core as core_protocols;
/// GF(z) polynomial hashing and FILTER parameter selection.
pub use llr_gf as gf;
/// The model checker: [`mc::ModelChecker`], [`mc::StepMachine`], engines.
pub use llr_mc as mc;
/// The shared register file: [`mem::Layout`], [`mem::AtomicMemory`].
pub use llr_mem as mem;
