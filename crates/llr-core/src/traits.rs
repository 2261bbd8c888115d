//! The public long-lived renaming API.
//!
//! A solution to the long-lived renaming problem is a wait-free
//! implementation of the operation pair `(GetName, ReleaseName)` on a
//! shared renaming object: a process repeatedly alternates
//! [`acquire`](RenamingHandle::acquire) and
//! [`release`](RenamingHandle::release), and the implementation guarantees
//! that two processes never hold the same name concurrently, provided at
//! most `k` processes access the object concurrently.
//!
//! Each protocol object (e.g. [`crate::split::Split`]) is `Sync` and shared
//! across threads; each participating process creates its own
//! [`RenamingHandle`], which carries the protocol's per-process "static
//! local variables" (the paper's `advice`, `adv2`, tournament positions, …)
//! and an access counter.

use crate::types::{Name, Pid};

/// A shared long-lived renaming object.
pub trait Renaming: Sync {
    /// The per-process handle type.
    type Handle<'a>: RenamingHandle
    where
        Self: 'a;

    /// Creates a handle through which process `pid` acquires and releases
    /// names. `pid` must be below [`source_size`](Renaming::source_size)
    /// and unique among concurrently active processes.
    ///
    /// # Panics
    ///
    /// Implementations panic if `pid ≥ source_size()`.
    fn handle(&self, pid: Pid) -> Self::Handle<'_>;

    /// Size `S` of the source name space (valid pids are `0..S`).
    fn source_size(&self) -> u64;

    /// Size `D` of the destination name space (acquired names are `0..D`).
    fn dest_size(&self) -> u64;

    /// The concurrency bound `k`: at most this many processes may
    /// concurrently request or hold names.
    fn concurrency(&self) -> usize;
}

/// A process's private handle on a [`Renaming`] object.
///
/// The handle enforces the operation-pair discipline: `acquire` and
/// `release` must alternate, starting with `acquire`.
pub trait RenamingHandle {
    /// `GetName`: obtains a name, unique among concurrent holders, from
    /// `{0..D-1}`. Wait-free: completes in a bounded number of shared
    /// accesses regardless of the scheduling of other processes.
    ///
    /// # Panics
    ///
    /// Panics if a name is already held (the operation pair requires
    /// alternation).
    fn acquire(&mut self) -> Name;

    /// `ReleaseName`: releases the held name, making it available to other
    /// processes. The name is considered free from the *start* of this
    /// operation.
    ///
    /// # Panics
    ///
    /// Panics if no name is held.
    fn release(&mut self);

    /// The process id this handle belongs to.
    fn pid(&self) -> Pid;

    /// The currently held name, if any.
    fn held(&self) -> Option<Name>;

    /// Cumulative shared-memory accesses performed by this handle — the
    /// paper's time-complexity measure.
    fn accesses(&self) -> u64;
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared assertions used by every protocol's unit tests.

    use super::*;

    /// Runs a full sequential acquire/release cycle for each pid in
    /// `pids`, asserting names are in range and the pair discipline works,
    /// and returns (names, max accesses per full cycle).
    pub fn sequential_cycle<R: Renaming>(rn: &R, pids: &[Pid]) -> (Vec<Name>, u64) {
        let mut names = Vec::new();
        let mut max_acc = 0;
        for &pid in pids {
            let mut h = rn.handle(pid);
            assert_eq!(h.pid(), pid);
            assert_eq!(h.held(), None);
            let name = h.acquire();
            assert!(
                name < rn.dest_size(),
                "name {name} out of range (D = {})",
                rn.dest_size()
            );
            assert_eq!(h.held(), Some(name));
            let acc_get = h.accesses();
            h.release();
            assert_eq!(h.held(), None);
            max_acc = max_acc.max(h.accesses());
            assert!(h.accesses() >= acc_get);
            names.push(name);
        }
        (names, max_acc)
    }

    /// Asserts that a handle's acquire/release cycles leave a shape's
    /// reference count (`refs()`, an `Arc::strong_count`) where the
    /// handle's creation put it: before `acquire`, while holding, and
    /// after `release`. The machines borrow the shape from the core, so
    /// no cycle may clone it.
    pub fn assert_cycles_keep_refcount<R: Renaming, T: PartialEq + std::fmt::Debug>(
        rn: &R,
        pid: Pid,
        refs: impl Fn() -> T,
    ) {
        let mut h = rn.handle(pid);
        let before = refs();
        for _ in 0..3 {
            h.acquire();
            assert_eq!(refs(), before, "holding a name holds a shape clone");
            h.release();
            assert_eq!(refs(), before, "a finished cycle left a shape clone behind");
        }
    }

    /// Steps `session` solo to completion on a fresh [`llr_mem::SimMemory`]
    /// for `layout`, asserting after every step that `refs()` (a shape's
    /// `Arc::strong_count`) is unchanged — the session-level counterpart
    /// of [`assert_cycles_keep_refcount`] for cores without a handle.
    pub fn assert_session_keeps_refcount<P, T>(
        layout: &llr_mem::Layout,
        mut session: crate::session::Session<P>,
        refs: impl Fn() -> T,
    ) where
        P: crate::session::ProtocolCore,
        T: PartialEq + std::fmt::Debug,
    {
        use llr_mc::StepMachine;
        let mem = llr_mem::SimMemory::new(layout);
        let before = refs();
        for _ in 0..100_000 {
            let done = session.step(&mem).is_done();
            assert_eq!(refs(), before, "a step changed the shape's refcount");
            if done {
                return;
            }
        }
        panic!("solo session did not terminate");
    }
}
