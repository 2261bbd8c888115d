//! **Small splitter networks** — Aspnes' "slightly smaller splitter
//! networks" (arXiv:1011.3170), the second rival protocol behind the
//! session layer: a depth-parameterized one-shot renaming network that
//! beats the classic Moir–Anderson grid by deleting every splitter the
//! capacity argument proves redundant. The network is a shape of the
//! one-shot protocol in [`crate::onetime`]
//! ([`OneTimeShape::small_net`](crate::onetime::OneTimeShape::small_net),
//! served by [`OneTimeGrid::small_net`](crate::onetime::OneTimeGrid::small_net));
//! this module holds why that shape is sound and the generational
//! [`RenewableNet`] that serves it long-lived.
//!
//! # Reconstruction note
//!
//! Only the abstract of arXiv:1011.3170 is available offline (see
//! PAPERS.md): *"the classic renaming protocol of Moir and Anderson uses
//! a network of Θ(n²) splitters … we show how to reduce this bound"*. As
//! with the grid itself (`crate::ma`), the construction is rebuilt from
//! that statement plus first principles. The reconstruction keeps the
//! paper's headline — same name guarantee, strictly fewer splitters —
//! via the capacity observation the MA grid leaves on the table:
//!
//! In a triangular splitter network entered by `k` processes, **at most
//! `k − r − c` processes ever reach position `(r, c)`** (each Right move
//! strands a non-Right process behind it, each Down move a non-Down one).
//! So on the diagonal `r + c = k − 1`, at most **one** process arrives —
//! and a splitter whose entry bound is one is a waste of two registers
//! and four accesses: its sole entrant always stops. A depth-`ℓ` network
//! for `k = ℓ + 1` processes therefore places splitters only on diagonals
//! `0 .. ℓ−1` (that is `ℓ(ℓ+1)/2` of them, versus the grid's
//! `k(k+1)/2`) and makes the final diagonal **register-free**: a process
//! arriving there takes the position's name with zero further accesses.
//! Same destination space `D = k(k+1)/2`, `k` fewer splitters (`2k`
//! registers), and the deepest path saves its final four accesses.
//!
//! The network is built on the classic three-line splitter, not on
//! `crate::splitter` (the BGHM Figure-2 *long-lived* set-splitter),
//! because that primitive cannot be shared between network positions:
//! long-lived renaming needs a dedicated capacity chain `k → k−1 → … → 1`
//! per name, which forces the full SPLIT tree. A *smaller* network is
//! only possible one-shot, which is what Aspnes' title promises. Hence
//! the network is a one-shot shape (`RELEASES = false`), and the
//! long-lived benchmarks reach it through [`RenewableNet`].
//!
//! # Crash behaviour
//!
//! A crash mid-walk leaves torn `X`/`Y` marks; those only deflect later
//! processes (a set `Y` sends them Right, a foreign `X` sends them Down)
//! — they can never cause a second stop on a claimed cell, and the
//! capacity argument above is monotone in the number of entrants, so the
//! free diagonal stays single-entrant as long as **total entrants
//! (including restarted incarnations) stay ≤ k**. Size the network for
//! live processes plus spares, exactly as the E12 configurations do.

use crate::onetime::OneTimeGrid;
use crate::traits::{Renaming, RenamingHandle};
use crate::types::{Name, Pid};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A **generational** long-lived facade over the one-shot network, so the
/// small network can ride every [`Renaming`] consumer — the stress
/// harness, `bench_contended`, E11, and [`crate::arena::NameArena`].
///
/// One-shot names cannot be released, so the wrapper rotates whole
/// network *generations*: each generation is a fresh
/// [`OneTimeGrid::small_net`] that admits `k` entrants (entry slots are
/// handed out under a mutex and double as the pid the walk writes, so
/// they are distinct per generation by construction). When a
/// generation's entries are spent, the **next acquirer waits for every
/// outstanding name of the old generation to be released** and then
/// installs a fresh one. That barrier is what keeps
/// uniqueness *global*: concurrent holders always belong to a single
/// generation. Like the arena's admission gate, the rotation machinery is
/// infrastructure, not protocol — it may use mutexes and counters freely;
/// only the walk inside a generation is the measured protocol.
///
/// # Example
///
/// ```
/// use llr_core::smallnet::RenewableNet;
/// use llr_core::traits::{Renaming, RenamingHandle};
///
/// let net = RenewableNet::new(3); // ℓ = 3, k = 4
/// let mut h = net.handle(42);
/// for _ in 0..10 {
///     // 10 cycles > k: the wrapper has rotated generations under us.
///     let name = h.acquire();
///     assert!(name < net.dest_size());
///     h.release();
/// }
/// ```
#[derive(Debug)]
pub struct RenewableNet {
    ell: usize,
    cur: Mutex<GenState>,
}

/// One network generation: a fresh depth-`ℓ` network plus the count of
/// names handed out and not yet released.
#[derive(Debug)]
struct NetGen {
    net: OneTimeGrid,
    outstanding: AtomicU64,
}

impl NetGen {
    fn fresh(ell: usize) -> Arc<Self> {
        Arc::new(Self {
            net: OneTimeGrid::small_net(ell),
            outstanding: AtomicU64::new(0),
        })
    }
}

#[derive(Debug)]
struct GenState {
    gen: Arc<NetGen>,
    /// Entry slots handed out of the current generation (`0..=k`).
    entered: u64,
}

impl RenewableNet {
    /// A renewable network of depth `ell` (each generation admits
    /// `k = ell + 1` concurrent entrants).
    pub fn new(ell: usize) -> Self {
        Self {
            ell,
            cur: Mutex::new(GenState {
                gen: NetGen::fresh(ell),
                entered: 0,
            }),
        }
    }

    /// Takes an entry slot, rotating generations when the current one is
    /// spent; returns the generation and the per-generation entry id.
    fn enter(&self) -> (Arc<NetGen>, u64) {
        let k = self.ell as u64 + 1;
        // Poison recovered as in the arena gate: the mutex guards the
        // rotation only, and survivors must keep working if a client
        // died.
        let mut cur = self.cur.lock().unwrap_or_else(PoisonError::into_inner);
        if cur.entered == k {
            // Spent: wait for the old generation's names to come home
            // (releasers never take this mutex, so they make progress
            // under us), then install a fresh one.
            while cur.gen.outstanding.load(Ordering::SeqCst) != 0 {
                std::hint::spin_loop();
            }
            cur.gen = NetGen::fresh(self.ell);
            cur.entered = 0;
        }
        let entry = cur.entered;
        cur.entered += 1;
        cur.gen.outstanding.fetch_add(1, Ordering::SeqCst);
        (Arc::clone(&cur.gen), entry)
    }
}

impl Renaming for RenewableNet {
    type Handle<'a> = RenewableHandle<'a>;

    fn handle(&self, pid: Pid) -> RenewableHandle<'_> {
        RenewableHandle {
            net: self,
            pid,
            held: None,
            accesses: 0,
        }
    }

    fn source_size(&self) -> u64 {
        // The client pid is a label; the written pid is the per-generation
        // entry slot, so any 64-bit id may participate.
        u64::MAX
    }

    fn dest_size(&self) -> u64 {
        let k = self.ell as u64 + 1;
        k * (k + 1) / 2
    }

    fn concurrency(&self) -> usize {
        self.ell + 1
    }
}

/// Process handle on a [`RenewableNet`].
#[derive(Debug)]
pub struct RenewableHandle<'a> {
    net: &'a RenewableNet,
    pid: Pid,
    /// The generation the held name came from (kept alive until release,
    /// and its `outstanding` count decremented there).
    held: Option<(Arc<NetGen>, Name)>,
    accesses: u64,
}

impl RenamingHandle for RenewableHandle<'_> {
    fn acquire(&mut self) -> Name {
        assert!(self.held.is_none(), "acquire while holding a name");
        let (gen, entry) = self.net.enter();
        let (name, accesses) = gen.net.get_name(entry);
        self.accesses += accesses;
        self.held = Some((gen, name));
        name
    }

    fn release(&mut self) {
        let (gen, _) = self.held.take().expect("release without holding a name");
        gen.outstanding.fetch_sub(1, Ordering::SeqCst);
    }

    fn pid(&self) -> Pid {
        self.pid
    }

    fn held(&self) -> Option<Name> {
        self.held.as_ref().map(|(_, n)| *n)
    }

    fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renewable_net_cycles_past_k() {
        let net = RenewableNet::new(2);
        let mut h = net.handle(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let n = h.acquire();
            assert!(n < net.dest_size());
            seen.insert(n);
            h.release();
        }
        // Within a generation, earlier entries' marks deflect later ones
        // Right/Down (one-shot registers are never cleared), so a solo
        // client walks names 0, 1, 2 before the rotation resets to 0.
        assert_eq!(seen, (0..3).collect());
        assert!(h.accesses() >= 10 * 2);
    }

    #[test]
    fn renewable_net_threads_stay_unique() {
        let net = RenewableNet::new(3);
        let claimed: Vec<std::sync::atomic::AtomicBool> = (0..net.dest_size())
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let net = &net;
                let claimed = &claimed;
                s.spawn(move || {
                    let mut h = net.handle(t);
                    for _ in 0..50 {
                        let n = h.acquire();
                        let was = claimed[n as usize].swap(true, Ordering::SeqCst);
                        assert!(!was, "name {n} double-held");
                        claimed[n as usize].store(false, Ordering::SeqCst);
                        h.release();
                    }
                });
            }
        });
    }
}
