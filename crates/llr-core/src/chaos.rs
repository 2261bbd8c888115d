//! Deterministic crash injection for real-thread churn tests.
//!
//! [`ChaosService`] wraps a served protocol ([`Renamer`]) and hands out
//! its [`Handle`]s, each of which can be [armed](Handle::arm_crash) with a
//! crash fuse. Arming `(pid, steps)` on the service makes that process's
//! next `acquire` panic after exactly `steps` machine steps, leaving its
//! partial protocol marks torn in shared memory: the threaded counterpart
//! of the model checker's crash transitions, at reproducible points.
//!
//! The intended composition is **under** a gated arena,
//!
//! ```text
//! NameArena::with_permits(ChaosService::new(Split::new(8)), 4)
//! ```
//!
//! so `tests/arena_churn.rs` and the E12 driver can kill admitted clients
//! mid-acquire and assert the gate recovers every permit while survivors
//! keep renaming correctly.
//!
//! Why fuses are armed by *pid* on the service, not on a handle the test
//! keeps: the dying thread owns its client, so the test thread cannot
//! reach its handle once spawned. Registering the fuse up front keeps the
//! whole schedule of deaths decided by the test's seed before any thread
//! runs.

use crate::session::{Composable, Handle, Renamer};
use crate::traits::Renaming;
use crate::types::Pid;
use std::collections::HashMap;
use std::sync::Mutex;

/// A served protocol that hands out crash-armed handles.
///
/// Fuses are registered per pid with [`arm`](Self::arm) *before* the
/// handle is created; [`Renaming::handle`] consumes the matching fuse,
/// so each registered death fires exactly once.
#[derive(Debug)]
pub struct ChaosService<P> {
    inner: Renamer<P>,
    fuses: Mutex<HashMap<Pid, u64>>,
}

impl<P: Composable> ChaosService<P> {
    /// Wraps `inner` with an (initially empty) fuse registry.
    pub fn new(inner: Renamer<P>) -> Self {
        Self {
            inner,
            fuses: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a crash fuse: the first handle created for `pid` after
    /// this call dies `steps` machine steps into its next `acquire`.
    pub fn arm(&self, pid: Pid, steps: u64) {
        self.fuses
            .lock()
            .expect("fuse registry poisoned")
            .insert(pid, steps);
    }
}

impl<P: Composable> Renaming for ChaosService<P> {
    type Handle<'a>
        = Handle<'a, P>
    where
        P: 'a;

    fn handle(&self, pid: Pid) -> Handle<'_, P> {
        let mut h = self.inner.handle(pid);
        let fuse = self
            .fuses
            .lock()
            .expect("fuse registry poisoned")
            .remove(&pid);
        if let Some(steps) = fuse {
            h.arm_crash(steps);
        }
        h
    }

    fn source_size(&self) -> u64 {
        self.inner.source_size()
    }

    fn dest_size(&self) -> u64 {
        self.inner.dest_size()
    }

    fn concurrency(&self) -> usize {
        self.inner.concurrency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::Split;
    use crate::traits::RenamingHandle;

    #[test]
    fn armed_handles_die_at_their_fuse_and_leave_torn_marks() {
        let svc = ChaosService::new(Split::new(3));
        svc.arm(7, 2);
        let mut doomed = svc.handle(7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.acquire()));
        assert!(r.is_err(), "the fuse must fire");
        assert_eq!(doomed.held(), None);
        // Unarmed handles — and the same pid's next handle — are normal.
        let mut fine = svc.handle(7);
        let n = fine.acquire();
        assert!(n < svc.dest_size());
        fine.release();
    }

    #[test]
    fn zero_step_fuse_dies_before_any_shared_access() {
        let svc = ChaosService::new(Split::new(2));
        svc.arm(1, 0);
        let mut h = svc.handle(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.acquire()));
        assert!(r.is_err());
        assert_eq!(h.accesses(), 0, "a 0-step fuse dies before touching memory");
    }
}
