//! # tempest-par
//!
//! Thin data-parallel execution layer for the tempest workspace — the role
//! OpenMP plays in the paper's generated C code ("OpenMP shared-memory
//! parallelism with dynamic scheduling", §IV.A).
//!
//! Built on a self-contained persistent thread pool (std-only; no external
//! crates, so the workspace builds in hermetic environments), with an
//! explicit escape hatch to force sequential execution: temporal-blocking
//! measurements want a controlled thread count, and tiny problem sizes
//! (unit tests) should not pay fork/join overhead.
//!
//! Thread count control, in priority order:
//! 1. the `TEMPEST_THREADS` environment variable (read once, at pool
//!    creation — this is how the paper's per-thread-count sweeps are made
//!    reproducible across runs);
//! 2. [`std::thread::available_parallelism`].
//!
//! Within a process, [`Policy::Capped`] restricts one dispatch to a subset
//! of the pool (the thread-scaling benchmark sweeps this without
//! re-launching the process).
//!
//! The schedules in `tempest-tiling` hand this crate a dependency graph of
//! space-time tiles ([`run_dataflow`]) and the survey engine a list of
//! independent shots ([`for_each_index`]); this crate decides how to run
//! them. Both go through one job kind, for a flat batch is the edge-free
//! graph. Scheduling is dynamic: roots — for a batch, every item — are
//! claimed from a shared atomic cursor, so imbalanced items (clipped
//! boundary tiles vs. interior tiles) do not idle workers. In a graph with
//! edges each node carries an atomic counter of unfinished predecessors,
//! completing a node decrements its successors' counters, and counters
//! reaching zero push the node onto the finishing participant's deque.
//! Other participants steal from the opposite deque end when their own runs
//! dry, so the only global synchronisation is one join at the end of the
//! whole graph — no per-level barriers.
//!
//! Publications go on one shared board that keeps every live one: a worker
//! joins the newest that still has work and a free seat under its cap, so
//! a long nested dispatch is not hidden by a shorter one published after it.
//!
//! A panicking item does not end a dispatch early, as in
//! `std::thread::scope`: the items not yet started are skipped, the
//! publisher waits for the running ones, then resumes the first panic on
//! the calling thread. Pool workers survive it.
//!
//! This crate also owns the workspace's *floating-point environment*
//! (DESIGN.md §17): pool workers flush subnormals for good, and every entry
//! point holds a [`FlushGuard`] on the calling thread, so the items of one
//! dispatch compute the same bits whichever thread claims them.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use tempest_obs as obs;

/// Execution policy for a batch of independent work items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Run items one after another on the calling thread.
    Sequential,
    /// Run items on the shared pool (dynamic scheduling, all threads).
    Parallel,
    /// Run items on the shared pool, but on at most this many threads
    /// (including the calling thread). `Capped { threads: 1 }` is
    /// sequential execution.
    Capped {
        /// Maximum number of participating threads.
        threads: usize,
    },
    /// Parallel if at least this many items, else sequential.
    Auto {
        /// Minimum batch size that justifies fork/join overhead.
        min_items: usize,
    },
}

impl Default for Policy {
    fn default() -> Self {
        // One hardware thread ⇒ parallel dispatch is pure overhead.
        if available_threads() <= 1 {
            Policy::Sequential
        } else {
            Policy::Auto { min_items: 4 }
        }
    }
}

/// Number of threads the shared pool uses.
///
/// `TEMPEST_THREADS` (if set to a positive integer) wins over the hardware
/// count. Cached: the hot schedule paths call this once per dispatch, and
/// neither the env lookup nor the `available_parallelism` syscall belongs
/// there.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("TEMPEST_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

// ---------------------------------------------------------------------------
// The floating-point environment (DESIGN.md §17).
// ---------------------------------------------------------------------------

/// Per architecture: the bits of the floating-point control register that
/// make subnormal operands read as zero and subnormal results flush to zero,
/// and the one primitive that touches them.
///
/// `swap_flush_bits(bits)` replaces the flush bits of the calling thread's
/// control register with `bits` (a subset of `FLUSH`) and returns the ones
/// it held; rounding mode, exception masks and sticky flags are left as
/// found, and the register is not written when nothing changes. It is
/// `#[inline(never)]`: the mode switch is a call boundary, so the optimiser
/// cannot move a caller's floating-point instruction across it.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod fp_control {
    pub type Word = u32;
    /// `MXCSR.FTZ` (bit 15) and `MXCSR.DAZ` (bit 6).
    pub const FLUSH: Word = (1 << 15) | (1 << 6);

    #[inline(never)]
    pub fn swap_flush_bits(bits: Word) -> Word {
        let mut csr: Word = 0;
        // SAFETY: `stmxcsr`/`ldmxcsr` move four bytes between MXCSR and a
        // live, aligned `u32` on this stack frame (SSE is part of the
        // x86_64 baseline), and only the FTZ and DAZ bits of what was read
        // are changed, so no exception becomes unmasked. What the
        // instructions cannot promise is Rust's own assumption: the compiler
        // takes every floating-point operation to run in the *default*
        // environment, so where it evaluates one at compile time — constant
        // operands — it computes the gradual-underflow result whatever the
        // run-time mode. The step bodies and sparse operators that run in
        // flush mode are data-dependent loops over wavefields, coefficient
        // volumes and wavelets read from memory, none of it known at compile
        // time, so the hardware computes every value the mode can affect;
        // no value in them is NaN-boxed, compared for subnormality or
        // otherwise relies on gradual underflow; and every oracle compares
        // two runs made in the same mode. Code that needs gradual underflow
        // must not run inside a `FlushGuard` or on a pool worker.
        unsafe {
            std::arch::asm!(
                "stmxcsr [{p}]",
                p = in(reg) &mut csr,
                options(nostack, preserves_flags)
            );
            if csr & FLUSH != bits {
                let new = (csr & !FLUSH) | bits;
                std::arch::asm!("ldmxcsr [{p}]", p = in(reg) &new, options(nostack, readonly));
            }
        }
        csr & FLUSH
    }
}
#[cfg(all(target_arch = "aarch64", not(miri)))]
mod fp_control {
    pub type Word = u64;
    /// `FPCR.FZ` (bit 24): flushes single- and double-precision operands and
    /// results alike.
    pub const FLUSH: Word = 1 << 24;

    #[inline(never)]
    pub fn swap_flush_bits(bits: Word) -> Word {
        let fpcr: Word;
        // SAFETY: as for x86_64 — FPCR is readable and writable at EL0, only
        // its FZ bit is changed, and the same caveat about Rust's default
        // environment applies.
        unsafe {
            std::arch::asm!("mrs {r}, fpcr", r = out(reg) fpcr, options(nomem, nostack, preserves_flags));
            if fpcr & FLUSH != bits {
                let new = (fpcr & !FLUSH) | bits;
                std::arch::asm!("msr fpcr, {r}", r = in(reg) new, options(nomem, nostack, preserves_flags));
            }
        }
        fpcr & FLUSH
    }
}
#[cfg(not(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri))))]
mod fp_control {
    pub type Word = u32;
    /// No flush mode: subnormals stay gradual on this target (and under
    /// Miri, which does not model the control register).
    pub const FLUSH: Word = 0;

    pub fn swap_flush_bits(bits: Word) -> Word {
        bits
    }
}
use fp_control::{swap_flush_bits, Word, FLUSH};

/// Put the calling thread into flush mode for the rest of its life: for
/// threads this workspace spawns to step wavefields (the pool's workers, the
/// survey service's scheduler), which run nothing else.
pub fn flush_subnormals_on_this_thread() {
    swap_flush_bits(FLUSH);
}

/// The system's one floating-point environment, held for a scope: while a
/// `FlushGuard` lives, subnormal operands read as zero and subnormal results
/// flush to zero on the thread that entered it — the mode every pool worker
/// is in permanently. Dropping the guard restores the mode the thread was in
/// before, so guards nest and a library caller's own arithmetic keeps
/// gradual underflow once `run` returns.
///
/// Every entry point of this crate holds one on the calling thread, so the
/// items of a dispatch see one mode whichever thread claims them; the run
/// path of `tempest-core` holds one around what it runs between
/// dispatches.
#[must_use = "the mode ends when the guard is dropped"]
pub struct FlushGuard {
    prev: Word,
    /// The control register is per thread: the guard must drop where it was
    /// entered.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl FlushGuard {
    /// Enter flush mode on the calling thread until the guard drops.
    pub fn enter() -> Self {
        FlushGuard {
            prev: swap_flush_bits(FLUSH),
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for FlushGuard {
    fn drop(&mut self) {
        swap_flush_bits(self.prev);
    }
}

/// Is the calling thread in flush mode right now? Measured, not read off the
/// register: a subnormal product and a subnormal operand, both hidden from
/// the compiler's constant folder, so the hardware does the arithmetic.
/// Always `false` on a target without a flush mode. For tests and probes.
pub fn subnormals_flushed() -> bool {
    use std::hint::black_box;
    let result_flushed = black_box(f32::MIN_POSITIVE) * black_box(0.5f32) == 0.0;
    let operand_zeroed = black_box(f32::from_bits(1)) * black_box(1.0e30f32) == 0.0;
    result_flushed && operand_zeroed
}

// ---------------------------------------------------------------------------
// Nested-dispatch accounting and scoped thread budgets.
// ---------------------------------------------------------------------------

thread_local! {
    /// True while this thread is executing items of a published job (as the
    /// publishing caller or as a pool worker helping it).
    static IN_DISPATCH: Cell<bool> = const { Cell::new(false) };
    /// Scoped dispatch cap installed by [`with_thread_budget`];
    /// `usize::MAX` means "no budget set".
    static BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Restores a thread-local `Cell` on drop, so panics unwinding through a
/// dispatch (a failing shot solve, a poisoned test) cannot leave the thread
/// marked busy or budget-capped.
struct CellRestore {
    cell: &'static std::thread::LocalKey<Cell<usize>>,
    prev: usize,
}

impl Drop for CellRestore {
    fn drop(&mut self) {
        self.cell.with(|c| c.set(self.prev));
    }
}

struct DispatchMark {
    prev: bool,
}

impl DispatchMark {
    fn enter() -> Self {
        let prev = IN_DISPATCH.with(|c| c.replace(true));
        DispatchMark { prev }
    }
}

impl Drop for DispatchMark {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_DISPATCH.with(|c| c.set(prev));
    }
}

/// True while the calling thread is executing items of a published job.
fn in_dispatch() -> bool {
    IN_DISPATCH.with(Cell::get)
}

/// The calling thread's scoped dispatch budget: the maximum number of
/// threads (including the caller) any dispatch it makes may use.
/// `usize::MAX` when no [`with_thread_budget`] scope is active.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get)
}

/// Run `f` with every dispatch the calling thread makes capped to at most
/// `threads` participants (including the caller), composing with any
/// narrower `Policy::Capped` the dispatch itself carries. Budgets nest: an
/// inner scope can only narrow the outer one, never widen it.
///
/// A budget > 1 also re-enables board publication from inside a pool job
/// (nested dispatches without a budget run inline; see `nested_inline`): a
/// survey wraps each shot solve in `with_thread_budget(available_threads(),
/// …)`, so the solve's tile dispatches are published beside every other
/// live one and threads that run out of shots join it. A budget of 1 keeps
/// a solve entirely on the calling thread.
pub fn with_thread_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let threads = threads.max(1);
    let prev = BUDGET.with(|c| {
        let prev = c.get();
        c.set(prev.min(threads));
        prev
    });
    let _restore = CellRestore {
        cell: &BUDGET,
        prev,
    };
    f()
}

/// Apply the thread-local budget to a dispatch cap.
fn budgeted(cap: usize) -> usize {
    cap.min(thread_budget())
}

/// Should a dispatch with (budgeted) cap `cap` run inline on the calling
/// thread instead of publishing to the board?
///
/// Any dispatch made from inside a running job item runs inline unless a
/// [`with_thread_budget`] scope explicitly grants it more than one thread.
/// Before this rule, a nested `Policy::Parallel` dispatch re-published to
/// the single shared board with an unbounded cap: every parked worker piled
/// onto the innermost job while the outer job's stragglers convoyed behind
/// 1 ms timeout re-checks — oversubscription that grew with nesting depth.
/// Inline execution keeps nested work on the thread that already owns a
/// fleet slot.
fn nested_inline(cap: usize) -> bool {
    in_dispatch() && (thread_budget() == usize::MAX || cap <= 1)
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

/// One dispatch: `func` runs once on each of `n` nodes, none before its
/// predecessors returned. A flat batch is the edge-free graph: every node a
/// root, no counters and no deques.
///
/// Every participant loops: pop the newest entry of its own deque (LIFO —
/// a tile it just unblocked likely shares halo data still in cache), else
/// claim the next root from the shared cursor, else steal the oldest entry
/// of another participant's deque (FIFO — take the work its owner would
/// reach last). Completing a node decrements each successor's `pending`
/// counter with `AcqRel`; the Release half publishes the node's writes to
/// whichever thread later claims the successor, and the Acquire half makes
/// the zero-transitioning thread observe every *other* predecessor's writes
/// before it pushes the successor.
///
/// A node that panics poisons the job: its payload is kept (the first one,
/// if several panic), later claims count their node done without running
/// it and still release its successors, and the publisher re-raises the
/// payload once every node is done — as `std::thread::scope` does.
struct Job<'a> {
    /// What the job borrows from its publisher's frame.
    frame: &'a Frame<'a>,
    /// Node count.
    n: usize,
    /// Next unclaimed root.
    next: AtomicUsize,
    /// Dependency state; `None` for an edge-free graph. Boxed, so a flat
    /// batch's job keeps its size (see the assertion below).
    flow: Option<Box<Flow<'a>>>,
    /// Completed nodes, run or skipped; the job is finished at `n`.
    done: AtomicUsize,
    /// Set once a node panicked: later nodes are skipped. `Relaxed`: it
    /// publishes nothing (the payload has its own lock), and a node that
    /// misses it merely runs.
    poisoned: AtomicBool,
    /// Set when `done == n`; idle participants park on it.
    idle: Mutex<bool>,
    /// Paired with `idle`: signalled on a surplus ready push and at
    /// completion.
    idle_cv: Condvar,
}

// A flat batch's publication makes one allocation, its `Arc<Job>`: 72
// bytes at this size, as before batches and graphs shared a job type.
// glibc serves each size from its own bins, and which chunk a publication
// takes decides whether the heap is trimmed between a caller's large frees
// and allocations: at 104, 128 or 168 bytes `tti_so8_128`'s `setup_s` rose
// from about 0.05 s to 0.08 s (DESIGN.md §14).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Job<'static>>() == 56);

/// What a job borrows from its publisher's frame, which outlives every
/// read of it (see `dispatch`).
struct Frame<'a> {
    /// The node runner.
    func: &'a (dyn Fn(usize) + Sync),
    /// The first panicking node's payload, for the publisher to resume.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The dependency state of a graph with edges.
struct Flow<'a> {
    graph: &'a DepGraph,
    /// Root count, held here because the graph's own list may be read only
    /// for a root still unclaimed.
    roots: usize,
    /// Remaining-predecessor counters, one per node.
    pending: Vec<AtomicU32>,
    /// Per-participant ready deques.
    deques: Vec<Mutex<VecDeque<u32>>>,
    /// Hands out deque slots to joining participants.
    participants: AtomicUsize,
}

impl<'a> Job<'a> {
    /// A job over `graph` (`None`: `n` independent items) for up to
    /// `parts` participants.
    fn new(frame: &'a Frame<'a>, n: usize, graph: Option<&'a DepGraph>, parts: usize) -> Self {
        let graph = graph.filter(|g| !g.succ.is_empty());
        Job {
            frame,
            n,
            next: AtomicUsize::new(0),
            flow: graph.map(|graph| {
                Box::new(Flow {
                    graph,
                    roots: graph.roots.len(),
                    pending: graph
                        .pred_count
                        .iter()
                        .map(|&c| AtomicU32::new(c))
                        .collect(),
                    deques: (0..parts).map(|_| Mutex::new(VecDeque::new())).collect(),
                    participants: AtomicUsize::new(0),
                })
            }),
            done: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            idle: Mutex::new(false),
            idle_cv: Condvar::new(),
        }
    }

    /// A pool worker's participation: run nodes until none is left to
    /// claim, parking while a graph's remaining nodes wait on their
    /// predecessors. Its parks open no `BarrierWait` span: only the
    /// publisher's do (see `join`).
    fn help(&self) {
        let me = self.slot();
        loop {
            self.drain(me);
            if !self.claimable() {
                return;
            }
            self.idle_wait(false);
        }
    }

    /// Run whatever is claimable right now, never parking: for a thread with
    /// a join of its own to get back to. False when nothing was.
    fn help_ready(&self) -> bool {
        self.drain(self.slot()) > 0
    }

    /// The publisher's participation, the dispatch's one join: run nodes,
    /// and while none of its own is claimable help postings newer than
    /// `posted` (never an older one: that could be the job this dispatch is
    /// a node of), until every node is done; then re-raise a node's panic.
    /// `posted` is `None` for a job run alone, where a node left unfinished
    /// can only sit on a dependency cycle.
    fn join(&self, posted: Option<(&Board, u64)>) {
        let me = self.slot();
        loop {
            self.drain(me);
            if self.finished() {
                break;
            }
            let Some((board, seq)) = posted else {
                panic!(
                    "dataflow graph has a dependency cycle: only {} of {} nodes ran",
                    self.done.load(Ordering::Acquire),
                    self.n
                );
            };
            if !board.help_newer(seq) {
                self.idle_wait(true);
            }
        }
        if let Some(payload) = self.frame.payload.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
    }

    /// Take a deque slot as a new participant.
    fn slot(&self) -> usize {
        self.flow.as_ref().map_or(0, |f| {
            f.participants.fetch_add(1, Ordering::Relaxed) % f.deques.len()
        })
    }

    /// Can a thread joining now still find a node to run: a root not yet
    /// claimed or, in a graph with edges, a node not yet completed?
    fn claimable(&self) -> bool {
        match self.flow {
            None => self.next.load(Ordering::Relaxed) < self.n,
            Some(_) => !self.finished(),
        }
    }

    /// Root count: `n` for an edge-free graph.
    fn roots(&self) -> usize {
        self.flow.as_ref().map_or(self.n, |f| f.roots)
    }

    /// Has every node completed?
    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) == self.n
    }

    /// Run nodes as participant `me` until none is ready; how many it ran.
    fn drain(&self, me: usize) -> usize {
        let mut ran = 0;
        while let Some(i) = self.claim(me) {
            self.run_node(me, i);
            ran += 1;
        }
        ran
    }

    /// Pop from our own deque (newest first), else take the next root, else
    /// steal. The cursor is loaded before it is bumped, so claims that find
    /// it exhausted do not keep writing its cache line.
    fn claim(&self, me: usize) -> Option<usize> {
        let flow = self.flow.as_deref();
        if let Some(i) = flow.and_then(|f| f.deques[me].lock().unwrap().pop_back()) {
            return Some(i as usize);
        }
        let roots = self.roots();
        if self.next.load(Ordering::Relaxed) < roots {
            let r = self.next.fetch_add(1, Ordering::Relaxed);
            if r < roots {
                return Some(flow.map_or(r, |f| f.graph.roots[r] as usize));
            }
        }
        flow?.steal(me)
    }

    fn run_node(&self, me: usize, i: usize) {
        if !self.poisoned.load(Ordering::Relaxed) {
            match panic::catch_unwind(AssertUnwindSafe(|| (self.frame.func)(i))) {
                Ok(()) => {
                    obs::add(obs::Counter::ParTasks, 1);
                    obs::metrics::heartbeat(1);
                }
                Err(payload) => {
                    self.frame.payload.lock().unwrap().get_or_insert(payload);
                    self.poisoned.store(true, Ordering::Relaxed);
                }
            }
        }
        if let Some(flow) = &self.flow {
            flow.release(me, i, &self.idle_cv);
        }
        if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            *self.idle.lock().unwrap() = true;
            self.idle_cv.notify_all();
        }
    }

    /// Park until a ready push or the job's completion — or, for the
    /// publisher, for at most 1 ms, after which it looks at its own job and
    /// newer postings again (it opens a `BarrierWait` span; pool workers do
    /// not). A push can race past a participant between its failed `claim`
    /// and this wait; the timeout turns that lost wakeup into a bounded
    /// re-check, never a hang.
    ///
    /// A pool worker's timeout backs off exponentially (1 ms → 16 ms): the
    /// normal wake-up path is the `notify` on a ready push, so a longer
    /// guard interval costs nothing when work arrives — but it keeps surplus
    /// participants on an oversubscribed machine from waking on every
    /// timeslice to steal work the running participant would finish sooner
    /// itself.
    fn idle_wait(&self, publisher: bool) {
        let _wait = publisher.then(|| obs::span(obs::SpanKind::BarrierWait, obs::SpanArgs::none()));
        let mut timeout_ms = 1u64;
        let mut fin = self.idle.lock().unwrap();
        while !*fin && !self.any_ready() {
            let (guard, wait) = self
                .idle_cv
                .wait_timeout(fin, std::time::Duration::from_millis(timeout_ms))
                .unwrap();
            fin = guard;
            if wait.timed_out() {
                if publisher {
                    return;
                }
                timeout_ms = (timeout_ms * 2).min(16);
            }
        }
    }

    /// True when a root is unclaimed or a deque holds a ready node. Takes
    /// deque locks while holding `idle` — safe because pushers never take
    /// `idle` while holding a deque lock (completion takes `idle` alone).
    fn any_ready(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.roots()
            || self
                .flow
                .as_ref()
                .is_some_and(|f| f.deques.iter().any(|d| !d.lock().unwrap().is_empty()))
    }
}

impl Flow<'_> {
    /// Steal round-robin from the other participants' deques (oldest
    /// first).
    ///
    /// Stealing prefers victims holding **two or more** ready nodes —
    /// taking an owner's last node strands it at its very next claim, which
    /// on an oversubscribed machine means the victim (often the publishing
    /// caller) parks behind the thief's timeslice. Singletons are still
    /// taken as a second pass: two participants can share a slot, and a node
    /// must stay claimable by everyone else whatever its owner is doing.
    fn steal(&self, me: usize) -> Option<usize> {
        let k = self.deques.len();
        let victims = || (1..k).map(|off| &self.deques[(me + off) % k]);
        let i = victims()
            .find_map(|d| {
                let mut d = d.lock().unwrap();
                if d.len() >= 2 {
                    d.pop_front()
                } else {
                    None
                }
            })
            .or_else(|| victims().find_map(|d| d.lock().unwrap().pop_front()))?;
        obs::add(obs::Counter::DataflowSteals, 1);
        Some(i as usize)
    }

    /// Node `i` completed on participant `me`: decrement its successors and
    /// push the ones it made ready onto `me`'s deque.
    fn release(&self, me: usize, i: usize, idle_cv: &Condvar) {
        let mut pushed = 0u64;
        for &s in self.graph.succs(i) {
            if self.pending[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut d = self.deques[me].lock().unwrap();
                d.push_back(s);
                let surplus = d.len() > 1;
                drop(d);
                pushed += 1;
                // Wake a parked participant only when there is more here
                // than this participant will claim itself next (it pops its
                // own deque back first): waking a thief for a node the
                // pusher is about to run just creates contention — and on
                // an oversubscribed machine, a thief the caller must then
                // wait behind. Parked participants re-check on a bounded
                // timeout anyway, so a skipped wakeup never strands work.
                if surplus {
                    idle_cv.notify_one();
                }
            }
        }
        if pushed > 0 {
            obs::add(obs::Counter::DataflowReady, pushed);
        }
    }
}

/// One publication on the board: the job, its thread cap, and how many
/// threads are inside it (its publisher included).
struct Posting {
    job: Arc<Job<'static>>,
    cap: usize,
    /// Publication order: a waiting publisher helps only postings newer than
    /// its own.
    seq: u64,
    seats: usize,
}

/// The board's contents: every publication not yet pruned, oldest first.
struct Live {
    seq: u64,
    /// Held inline, so a publish allocates nothing beside its job (see
    /// [`Board`] on why allocation timing matters here).
    posts: Vec<Posting>,
}

/// Publication list shared between callers and workers.
///
/// It keeps *every* live publication, not just the newest: a nested dispatch
/// published from inside one job item must not hide another item's
/// still-running one, or the threads that finish early park beside it
/// instead of joining it. Finished postings are pruned lazily, at the next
/// publish, so a finished job is freed when the next one is published —
/// freeing it earlier, or allocating more per publish, moves glibc's heap
/// top between a caller's large frees and allocations, and with it whether
/// those pages are trimmed and faulted in again.
struct Board {
    live: Mutex<Live>,
    /// Signalled on publication and when a seat frees in a claimable posting.
    cv: Condvar,
}

impl Board {
    /// Publish `job` for up to `cap` threads, its publisher seated; returns
    /// the posting's sequence number.
    fn publish(&self, job: Arc<Job<'static>>, cap: usize) -> u64 {
        let mut live = self.live.lock().unwrap();
        live.seq += 1;
        let seq = live.seq;
        live.posts.retain(|p| !p.job.finished());
        live.posts.push(Posting {
            job,
            cap,
            seq,
            seats: 1,
        });
        self.cv.notify_all();
        seq
    }

    /// Seat the caller in the newest claimable posting newer than `after`
    /// whose cap has room: its job and sequence number.
    fn seat(live: &mut Live, after: u64) -> Option<(Arc<Job<'static>>, u64)> {
        let mut newer = live.posts.iter_mut().rev().take_while(|p| p.seq > after);
        let post = newer.find(|p| p.seats < p.cap && p.job.claimable())?;
        post.seats += 1;
        Some((Arc::clone(&post.job), post.seq))
    }

    /// Block until a posting seats the calling worker.
    fn wait_for_seat(&self) -> (Arc<Job<'static>>, u64) {
        let mut live = self.live.lock().unwrap();
        loop {
            if let Some(seated) = Self::seat(&mut live, 0) {
                return seated;
            }
            live = self.cv.wait(live).unwrap();
        }
    }

    /// Give up a seat in posting `seq`; wake the workers when it can still
    /// use one. A pruned posting has nothing left to seat anyone in.
    fn leave(&self, seq: u64) {
        let mut live = self.live.lock().unwrap();
        if let Some(post) = live.posts.iter_mut().find(|p| p.seq == seq) {
            post.seats -= 1;
            if post.job.claimable() {
                self.cv.notify_all();
            }
        }
    }

    /// Run what is claimable in the newest posting newer than `after` that
    /// seats the caller, without parking. False when no posting seated the
    /// caller, or when the one that did is a graph with no node ready (its
    /// remaining nodes all wait on predecessors): the caller then parks
    /// instead of seating itself there again at once. A seat in a flat batch
    /// counts even if another thread took its last item first — that batch
    /// can no longer seat anyone, so looking again at once cannot spin.
    fn help_newer(&self, after: u64) -> bool {
        let Some((job, seq)) = Self::seat(&mut self.live.lock().unwrap(), after) else {
            return false;
        };
        let ran = {
            // Run the nodes as a pool worker would (the caller's dispatch
            // mark is already up): without the caller's budget, which grants
            // nothing to someone else's nodes.
            let _budget = CellRestore {
                cell: &BUDGET,
                prev: BUDGET.with(|c| c.replace(usize::MAX)),
            };
            job.help_ready()
        };
        self.leave(seq);
        ran || job.flow.is_none()
    }
}

struct Pool {
    board: Arc<Board>,
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = available_threads().saturating_sub(1);
        let board = Arc::new(Board {
            live: Mutex::new(Live {
                seq: 0,
                posts: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        for id in 0..workers {
            let board = Arc::clone(&board);
            std::thread::Builder::new()
                .name(format!("tempest-par-{id}"))
                .spawn(move || worker_loop(board))
                .expect("spawn pool worker");
        }
        Pool { board, workers }
    })
}

/// A worker joins the newest claimable posting with a free seat, helps it
/// until nothing is left to claim, and looks again. A node's panic is
/// caught inside the job, so the worker outlives it.
fn worker_loop(board: Arc<Board>) {
    flush_subnormals_on_this_thread();
    loop {
        let (job, seq) = board.wait_for_seat();
        {
            let _mark = DispatchMark::enter();
            obs::metrics::gauge_add(obs::metrics::Gauge::ActiveWorkers, 1);
            job.help();
            obs::metrics::gauge_add(obs::metrics::Gauge::ActiveWorkers, -1);
        }
        board.leave(seq);
    }
}

/// The pool and the thread cap for a dispatch of `n` nodes under `policy`,
/// or `None` when it runs alone on the calling thread: a sequential policy,
/// one node, a cap of one, no pool worker, or a nested dispatch with no
/// budget (`nested_inline`).
fn fleet(policy: Policy, n: usize) -> Option<(&'static Pool, usize)> {
    let policy = effective(policy, n);
    if policy == Policy::Sequential {
        return None;
    }
    let cap = budgeted(cap_of(policy));
    let p = pool();
    // Absolute re-stamp on every dispatch: the pool may predate telemetry
    // being switched on, so the init-time stamp alone is not enough.
    obs::metrics::gauge_set(obs::metrics::Gauge::PoolWorkers, p.workers as i64);
    (n > 1 && cap > 1 && p.workers > 0 && !nested_inline(cap)).then_some((p, cap))
}

/// The one path under [`for_each_index`] and [`run_dataflow`]: run `f` on
/// every node of `graph` (`None`: `n` independent items) in flush mode,
/// with the caller participating, and return when every node is done —
/// re-raising the first node's panic, if one panicked.
fn dispatch(policy: Policy, n: usize, graph: Option<&DepGraph>, f: &(dyn Fn(usize) + Sync)) {
    let _fp = FlushGuard::enter();
    if n == 0 {
        return;
    }
    let frame = Frame {
        func: f,
        payload: Mutex::new(None),
    };
    let Some((p, cap)) = fleet(policy, n) else {
        return Job::new(&frame, n, graph, 1).join(None);
    };
    let job = Arc::new(Job::new(&frame, n, graph, cap.min(p.workers + 1)));
    // SAFETY: only the job's borrows (`frame`, `flow.graph`) carry the
    // lifetime, and besides the publisher, whose frame this is, only a
    // participant holding a claimed, unfinished node reads them: `claim`
    // maps a root index through the graph only after taking one below the
    // root count, a deque holds only nodes not yet run, and `run_node` reads
    // them before it counts its node done. `join` returns only once
    // `done == n`: a node's panic is caught in `run_node`, and `join`
    // re-raises it after that point, not before. The `Arc` outlives
    // the borrows — the board keeps the posting until the next publish
    // prunes it, a worker keeps its clone until it leaves — but nothing
    // reads a borrowed field once every node is done.
    let job = unsafe { std::mem::transmute::<Arc<Job<'_>>, Arc<Job<'static>>>(job) };
    let seq = p.board.publish(Arc::clone(&job), cap);
    obs::add(obs::Counter::ParPublications, 1);
    let _mark = DispatchMark::enter();
    job.join(Some((&p.board, seq)));
}

// ---------------------------------------------------------------------------
// The entry points.
// ---------------------------------------------------------------------------

/// A static dependency graph for [`run_dataflow`]: node `i` may start once
/// every node in its predecessor list has completed.
///
/// Stored in CSR form over *successors* (the direction the executor walks:
/// finishing a node visits its successors to decrement their counters).
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Per-node count of predecessors (the initial dependency counters).
    pred_count: Vec<u32>,
    /// CSR row offsets into `succ`, length `n + 1`.
    succ_off: Vec<u32>,
    /// Concatenated successor lists.
    succ: Vec<u32>,
    /// The nodes with no predecessor, ascending: the executor's root cursor
    /// walks them.
    roots: Vec<u32>,
}

impl DepGraph {
    /// Build from per-node predecessor lists: `preds[i]` holds the nodes
    /// that must complete before node `i` may start. Duplicate entries are
    /// honoured as-is (each decrements once), so callers should dedup.
    ///
    /// Panics when a predecessor index is out of range or a node lists
    /// itself.
    pub fn from_preds(preds: &[Vec<u32>]) -> Self {
        let n = preds.len();
        let mut pred_count = vec![0u32; n];
        let mut succ_len = vec![0u32; n];
        for (i, ps) in preds.iter().enumerate() {
            pred_count[i] = u32::try_from(ps.len()).expect("predecessor list too long");
            for &p in ps {
                assert!(
                    (p as usize) < n && p as usize != i,
                    "invalid predecessor {p} of node {i} (n = {n})"
                );
                succ_len[p as usize] += 1;
            }
        }
        let mut succ_off = vec![0u32; n + 1];
        for i in 0..n {
            succ_off[i + 1] = succ_off[i] + succ_len[i];
        }
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        let mut succ = vec![0u32; succ_off[n] as usize];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succ[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
        }
        let roots = (0..n as u32)
            .filter(|&i| pred_count[i as usize] == 0)
            .collect();
        DepGraph {
            pred_count,
            succ_off,
            succ,
            roots,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.pred_count.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.pred_count.is_empty()
    }

    /// Predecessor count of node `i`.
    pub fn pred_count(&self, i: usize) -> usize {
        self.pred_count[i] as usize
    }

    /// Successor list of node `i`.
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }
}

/// Run `f(node)` once for every node of `graph`, never starting a node
/// before all its predecessors returned, with up to `policy`'s thread
/// budget (the caller always participates). Returns only when every node
/// completed — the one join of the whole sweep. If a node panics, the nodes
/// not yet started are skipped and the panic resumes on the caller once the
/// running ones have returned.
///
/// The graph must be acyclic: nodes on a cycle never become ready, so a
/// dispatch the caller runs alone panics and a parallel one would spin on
/// its idle timeout forever. Validate with `legality::check_plan` (in
/// `tempest-tiling`) when in doubt.
///
/// Counts one `DataflowReady` per node, whatever the policy: the roots
/// here, every other node when its last predecessor completes. An
/// edge-free graph runs as a flat batch, as [`for_each_index`] would.
pub fn run_dataflow<F>(policy: Policy, graph: &DepGraph, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    assert!(
        graph.is_empty() || !graph.roots.is_empty(),
        "dataflow graph has no roots (dependency cycle)"
    );
    obs::add(obs::Counter::DataflowReady, graph.roots.len() as u64);
    dispatch(policy, graph.len(), Some(graph), &f);
}

/// Apply `f` to every index in `0..n`, under the given policy. If an item
/// panics, the items not yet started are skipped and the panic resumes on
/// the caller once the running ones have returned.
pub fn for_each_index<F>(policy: Policy, n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    dispatch(policy, n, None, &f);
}

/// Resolve a policy to Sequential / a thread cap for `n` items.
fn effective(policy: Policy, n: usize) -> Policy {
    match policy {
        Policy::Auto { min_items } => {
            if n >= min_items && available_threads() > 1 {
                Policy::Parallel
            } else {
                Policy::Sequential
            }
        }
        Policy::Capped { threads } if threads <= 1 => Policy::Sequential,
        p => p,
    }
}

fn cap_of(policy: Policy) -> usize {
    match policy {
        Policy::Capped { threads } => threads,
        _ => usize::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn for_each_index_covers_range() {
        for policy in [
            Policy::Sequential,
            Policy::Parallel,
            Policy::Capped { threads: 2 },
            Policy::default(),
        ] {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            for_each_index(policy, 100, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{policy:?}: an item ran other than once"
            );
        }
    }

    #[test]
    fn for_each_visits_all_items_once() {
        // A slice walked through its indices: each item is seen exactly
        // once, so the values sum to the closed form.
        let items: Vec<u64> = (0..100).collect();
        for policy in [
            Policy::Sequential,
            Policy::Parallel,
            Policy::Capped { threads: 2 },
            Policy::default(),
        ] {
            let sum = AtomicU64::new(0);
            for_each_index(policy, items.len(), |i| {
                sum.fetch_add(items[i], Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950, "{policy:?}");
        }
    }

    #[test]
    fn auto_policy_small_batch_is_sequential() {
        assert_eq!(
            effective(Policy::Auto { min_items: 10 }, 3),
            Policy::Sequential
        );
    }

    #[test]
    fn capped_one_is_sequential() {
        assert_eq!(
            effective(Policy::Capped { threads: 1 }, 100),
            Policy::Sequential
        );
    }

    #[test]
    fn repeated_dispatches_are_stable() {
        // Exercises job publication/retirement across many rounds — the
        // path the per-slab wavefront barriers hit.
        for round in 0..200 {
            let sum = AtomicUsize::new(0);
            for_each_index(Policy::Parallel, 37, |v| {
                sum.fetch_add(v + round, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 666 + 37 * round);
        }
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let total = AtomicUsize::new(0);
        for_each_index(Policy::Parallel, 8, |_| {
            for_each_index(Policy::Parallel, 8, |v| {
                total.fetch_add(v, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    #[test]
    fn concurrent_top_level_dispatches() {
        // Two threads race independent batches through the shared board;
        // each caller participates, so both complete even if no worker
        // helps either.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..50 {
                        let sum = AtomicUsize::new(0);
                        for_each_index(Policy::Parallel, 100, |v| {
                            sum.fetch_add(v, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 4950);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Layered synthetic DAG: node `i` depends on a few nodes from the
    /// previous layer. Deterministic, with fan-in, fan-out and multiple
    /// roots — shaped like a wavefront tile graph.
    fn layered_dag(layers: usize, width: usize) -> Vec<Vec<u32>> {
        let n = layers * width;
        let mut preds = vec![Vec::new(); n];
        for l in 1..layers {
            for w in 0..width {
                let i = l * width + w;
                for dw in [0usize, 1, width - 1] {
                    let p = ((l - 1) * width + (w + dw) % width) as u32;
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                    }
                }
            }
        }
        preds
    }

    /// Run the graph and assert every node ran exactly once, strictly after
    /// all of its predecessors.
    fn check_dataflow(policy: Policy, preds: &[Vec<u32>]) {
        let graph = DepGraph::from_preds(preds);
        let done: Vec<AtomicUsize> = (0..preds.len()).map(|_| AtomicUsize::new(0)).collect();
        run_dataflow(policy, &graph, |i| {
            for &p in &preds[i] {
                assert_eq!(
                    done[p as usize].load(Ordering::Acquire),
                    1,
                    "node {i} started before predecessor {p} finished"
                );
            }
            done[i].fetch_add(1, Ordering::Release);
        });
        assert!(done.iter().all(|d| d.load(Ordering::Acquire) == 1));
    }

    #[test]
    fn dep_graph_csr_is_consistent() {
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let g = DepGraph::from_preds(&preds);
        assert_eq!(g.len(), 4);
        assert_eq!(g.pred_count(0), 0);
        assert_eq!(g.pred_count(3), 2);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.succs(1), &[3]);
        assert_eq!(g.succs(2), &[3]);
        assert_eq!(g.succs(3), &[] as &[u32]);
    }

    #[test]
    fn dataflow_respects_dependencies_across_policies() {
        let preds = layered_dag(12, 16);
        for policy in [
            Policy::Sequential,
            Policy::Parallel,
            Policy::Capped { threads: 2 },
            Policy::Capped { threads: 4 },
            Policy::default(),
        ] {
            check_dataflow(policy, &preds);
        }
    }

    #[test]
    fn dataflow_chain_is_fully_serial() {
        // Worst case for stealing: exactly one node ready at any moment.
        let preds: Vec<Vec<u32>> = (0..64)
            .map(|i| if i == 0 { vec![] } else { vec![i as u32 - 1] })
            .collect();
        check_dataflow(Policy::Parallel, &preds);
    }

    #[test]
    fn dataflow_trivial_graphs() {
        check_dataflow(Policy::Parallel, &[]);
        check_dataflow(Policy::Parallel, &[vec![]]);
        // All-roots graph (no edges at all) degenerates to a flat batch.
        check_dataflow(Policy::Parallel, &vec![vec![]; 40]);
    }

    #[test]
    fn dataflow_repeated_dispatches_are_stable() {
        let preds = layered_dag(4, 8);
        for _ in 0..100 {
            check_dataflow(Policy::Parallel, &preds);
        }
    }

    #[test]
    fn dataflow_nested_batch_dispatch_does_not_deadlock() {
        let preds = layered_dag(3, 4);
        let graph = DepGraph::from_preds(&preds);
        let total = AtomicUsize::new(0);
        run_dataflow(Policy::Parallel, &graph, |_| {
            for_each_index(Policy::Parallel, 8, |v| {
                total.fetch_add(v, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 12 * 28);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn dataflow_cycle_is_rejected_sequentially() {
        let graph = DepGraph::from_preds(&[vec![1], vec![0], vec![]]);
        run_dataflow(Policy::Sequential, &graph, |_| {});
    }

    #[test]
    #[should_panic(expected = "invalid predecessor")]
    fn dep_graph_rejects_self_edge() {
        let _ = DepGraph::from_preds(&[vec![0]]);
    }

    /// Atomic high-water mark of concurrently running items.
    struct HighWater {
        live: AtomicUsize,
        max: AtomicUsize,
    }

    impl HighWater {
        fn new() -> Self {
            HighWater {
                live: AtomicUsize::new(0),
                max: AtomicUsize::new(0),
            }
        }

        fn enter(&self) {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(now, Ordering::SeqCst);
        }

        fn leave(&self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }

        fn peak(&self) -> usize {
            self.max.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn nested_oversubscribed_configuration_completes_under_bound() {
        // Regression: a fleet of shot-style workers each publishing inner
        // Parallel batches and dataflow graphs used to re-publish to the one
        // shared board with an unbounded cap, convoying the outer batch's
        // stragglers behind 1 ms timeout re-checks. Nested dispatch now runs
        // inline, so this completes promptly — and every item still runs
        // exactly once.
        let t0 = std::time::Instant::now();
        let counts: Vec<AtomicUsize> = (0..16 * 64).map(|_| AtomicUsize::new(0)).collect();
        for round in 0..8 {
            for_each_index(Policy::Parallel, 16, |o| {
                // Inner flat batch.
                for_each_index(Policy::Parallel, 64, |i| {
                    if round == 0 {
                        counts[o * 64 + i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                // Inner dataflow graph from the same worker.
                let preds = layered_dag(4, 8);
                let graph = DepGraph::from_preds(&preds);
                run_dataflow(Policy::Parallel, &graph, |_| {});
            });
        }
        assert!(
            counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "nested items must run exactly once"
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "nested dispatch took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn thread_budget_caps_dispatch_concurrency() {
        // A budget of 2 bounds every dispatch in the scope to two
        // participants, even when the dispatch itself asks for Parallel.
        let hw = HighWater::new();
        with_thread_budget(2, || {
            for_each_index(Policy::Parallel, 256, |_| {
                hw.enter();
                std::thread::sleep(std::time::Duration::from_micros(50));
                hw.leave();
            });
        });
        assert!(hw.peak() >= 1);
        assert!(hw.peak() <= 2, "budget 2 exceeded: peak {}", hw.peak());
        // Budgets compose downwards: an inner wider budget cannot widen.
        with_thread_budget(1, || {
            assert_eq!(thread_budget(), 1);
            with_thread_budget(8, || assert_eq!(thread_budget(), 1));
        });
        assert_eq!(thread_budget(), usize::MAX);
    }

    #[test]
    fn thread_budget_restores_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_thread_budget(3, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(thread_budget(), usize::MAX, "budget leaked across unwind");
    }

    #[test]
    fn budgeted_nested_dispatch_stays_within_grant() {
        // A worker granted an explicit budget may publish nested work; the
        // batch still covers every item exactly once.
        let counts: Vec<AtomicUsize> = (0..4 * 64).map(|_| AtomicUsize::new(0)).collect();
        for_each_index(Policy::Parallel, 4, |o| {
            with_thread_budget(2, || {
                for_each_index(Policy::Parallel, 64, |i| {
                    counts[o * 64 + i].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn ungranted_nested_dispatch_runs_inline() {
        // Without an explicit budget, a nested Parallel dispatch stays on
        // the thread that owns the outer item: per-outer-item concurrency
        // never exceeds one.
        let hws: Vec<HighWater> = (0..8).map(|_| HighWater::new()).collect();
        for_each_index(Policy::Parallel, 8, |o| {
            for_each_index(Policy::Parallel, 64, |_| {
                hws[o].enter();
                std::thread::sleep(std::time::Duration::from_micros(10));
                hws[o].leave();
            });
        });
        for hw in &hws {
            assert_eq!(hw.peak(), 1, "nested batch escaped its owning thread");
        }
    }

    #[test]
    fn idle_thread_joins_an_older_nested_job_still_running() {
        // Two pool items each publish a nested batch under a budget of 2:
        // item 0 a long one (A), item 1 a short one (B) a little later. When
        // B is done, its thread has nothing left but A — it must join A,
        // even though B was published after it.
        if available_threads() < 2 {
            return; // no second thread to join anything
        }
        let mut conclusive = 0;
        for _ in 0..20 {
            let owners = Mutex::new(Vec::new());
            let b_done = OnceLock::new();
            let late_helpers = AtomicUsize::new(0);
            let t0 = std::time::Instant::now();
            for_each_index(Policy::Capped { threads: 2 }, 2, |o| {
                // Hold both items until each has a thread of its own (bounded:
                // a concurrent test may keep the worker busy).
                owners.lock().unwrap().push(std::thread::current().id());
                while owners.lock().unwrap().len() < 2 && t0.elapsed().as_millis() < 500 {
                    std::thread::yield_now();
                }
                let owner = std::thread::current().id();
                with_thread_budget(2, || {
                    if o == 0 {
                        for_each_index(Policy::Parallel, 40, |_| {
                            let joined_late =
                                std::thread::current().id() != owner && b_done.get().is_some();
                            late_helpers.fetch_add(joined_late as usize, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        });
                    } else {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        for_each_index(Policy::Parallel, 4, |_| {
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        });
                        b_done.set(()).unwrap();
                    }
                });
            });
            let owners = owners.into_inner().unwrap();
            if owners.len() == 2 && owners[0] != owners[1] {
                conclusive += 1;
                if late_helpers.load(Ordering::Relaxed) > 0 {
                    return;
                }
            }
        }
        assert!(conclusive > 0, "the two items never ran on two threads");
        panic!(
            "in {conclusive} rounds, no thread joined the long job after the short one finished"
        );
    }

    #[test]
    fn help_newer_reports_a_seat_with_nothing_ready_as_no_help() {
        // A waiting publisher parks when `help_newer` says false. A newer
        // graph whose only unfinished nodes wait on a running predecessor
        // seats the caller but has nothing to run: saying true there would
        // send the publisher straight back to the board, spinning.
        fn nop(_: usize) {}
        let frame: &'static Frame = Box::leak(Box::new(Frame {
            func: &nop,
            payload: Mutex::new(None),
        }));
        let graph: &'static DepGraph =
            Box::leak(Box::new(DepGraph::from_preds(&[vec![], vec![0]])));
        let job = Arc::new(Job::new(frame, 2, Some(graph), 2));
        let board = Board {
            live: Mutex::new(Live {
                seq: 0,
                posts: Vec::new(),
            }),
            cv: Condvar::new(),
        };
        board.publish(Arc::clone(&job), 4);
        assert_eq!(job.claim(0), Some(0), "the root is claimable");
        assert!(
            !board.help_newer(0),
            "node 1 waits on node 0, yet help was reported"
        );
        job.run_node(0, 0);
        assert!(
            board.help_newer(0),
            "node 1 is ready, yet no help was reported"
        );
        assert!(job.finished());
    }

    /// What the items of one dispatch saw: which threads ran them, and
    /// how many ran outside flush mode.
    struct RollCall {
        want: usize,
        seen: Mutex<HashSet<ThreadId>>,
        gradual: AtomicUsize,
    }

    impl RollCall {
        fn new(want: usize) -> Self {
            RollCall {
                want,
                seen: Mutex::new(HashSet::new()),
                gradual: AtomicUsize::new(0),
            }
        }

        /// One item: report, then hold the item until `want` threads have
        /// reported, so that each of them has to claim one. The wait is
        /// bounded: a concurrent test's dispatch can take the board before a
        /// worker wakes, and then the caller runs it all.
        fn item(&self) {
            if !subnormals_flushed() {
                self.gradual.fetch_add(1, Ordering::Relaxed);
            }
            self.seen
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            let deadline = Instant::now() + Duration::from_millis(20);
            while self.seen.lock().unwrap().len() < self.want && Instant::now() < deadline {
                std::thread::yield_now();
            }
        }
    }

    /// Run `scenario` on a thread of its own and return what it returns (or
    /// re-raise its panic), failing instead of hanging the suite when it
    /// does not finish in time — the one case that leaves the thread
    /// unjoined.
    fn within<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = tx.send(panic::catch_unwind(AssertUnwindSafe(scenario)));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the dispatch did not return within 30 s");
        thread.join().expect("the scenario's panic was caught");
        outcome.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// What a dispatch with one panicking node did.
    #[derive(Debug)]
    enum Round {
        /// No node ran on the thread meant to panic.
        NoPanic,
        /// A node panicked, and the dispatch returned normally.
        Swallowed,
        /// The dispatch raised `payload`; `late` nodes started after it did.
        Raised { payload: String, late: usize },
    }

    /// Dispatch 200 nodes under `Policy::Parallel` — a flat batch, or two
    /// chains of 100 — whose first node to run on the caller (`on_caller`)
    /// or on a pool worker panics; the others sleep 1 ms. On a thread of
    /// its own (`within`), so a lost join fails the test.
    fn panic_round(chains: bool, on_caller: bool) -> Round {
        within(move || {
            const LEN: usize = 100;
            let caller = std::thread::current().id();
            let returned = AtomicBool::new(false);
            let late = AtomicUsize::new(0);
            let panicked = AtomicBool::new(false);
            let node = |_: usize| {
                if returned.load(Ordering::SeqCst) {
                    late.fetch_add(1, Ordering::SeqCst);
                }
                let here = std::thread::current().id() == caller;
                if here == on_caller && !panicked.swap(true, Ordering::SeqCst) {
                    panic!("node panicked");
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                if chains {
                    let preds: Vec<Vec<u32>> = (0..2 * LEN)
                        .map(|i| {
                            if i % LEN == 0 {
                                vec![]
                            } else {
                                vec![i as u32 - 1]
                            }
                        })
                        .collect();
                    run_dataflow(Policy::Parallel, &DepGraph::from_preds(&preds), node);
                } else {
                    for_each_index(Policy::Parallel, 2 * LEN, node);
                }
            }));
            returned.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(50));
            match result {
                Err(payload) => Round::Raised {
                    payload: payload
                        .downcast_ref::<&str>()
                        .copied()
                        .unwrap_or("?")
                        .into(),
                    late: late.load(Ordering::SeqCst),
                },
                Ok(()) if panicked.load(Ordering::SeqCst) => Round::Swallowed,
                Ok(()) => Round::NoPanic,
            }
        })
    }

    /// The first round in which the panicking node ran (a busy pool, shared
    /// with concurrent tests, can leave a dispatch to its caller); check
    /// that its panic reached the caller after every node had stopped.
    fn check_panic_rounds(chains: bool, on_caller: bool) {
        let shape = if chains { "two chains" } else { "flat batch" };
        match (0..20)
            .map(|_| panic_round(chains, on_caller))
            .find(|r| !matches!(r, Round::NoPanic))
        {
            Some(Round::Raised { payload, late }) => {
                assert_eq!(
                    payload, "node panicked",
                    "{shape}: the caller got another payload"
                );
                assert_eq!(
                    late, 0,
                    "{shape}: {late} nodes started after the dispatch returned"
                );
            }
            Some(round) => panic!("{shape}: the node's panic was swallowed ({round:?})"),
            None => panic!("{shape}: in 20 rounds the panicking node never ran"),
        }
    }

    #[test]
    fn a_panic_on_the_caller_propagates_and_no_node_runs_after_the_dispatch() {
        for chains in [false, true] {
            check_panic_rounds(chains, true);
        }
    }

    #[test]
    fn a_panic_on_a_pool_worker_reaches_the_caller_and_the_pool_survives() {
        if pool().workers == 0 {
            return; // no pool worker to panic on
        }
        for chains in [false, true] {
            check_panic_rounds(chains, false);
            // Every worker outlived the panic: a dispatch still seats them all.
            let want = pool().workers + 1;
            let everyone = (0..200).any(|_| {
                let roll = RollCall::new(want);
                for_each_index(Policy::Parallel, 2 * want, |_| roll.item());
                roll.seen.into_inner().unwrap().len() == want
            });
            assert!(everyone, "a pool worker is gone after the panic");
        }
    }

    /// The floating-point environment: only where the target has one.
    #[cfg(all(any(target_arch = "x86_64", target_arch = "aarch64"), not(miri)))]
    mod flush_mode {
        use super::*;

        #[test]
        fn guards_nest_and_restore_the_callers_mode() {
            assert!(
                !subnormals_flushed(),
                "a test thread starts in the default mode"
            );
            {
                let _outer = FlushGuard::enter();
                assert!(subnormals_flushed());
                {
                    let _inner = FlushGuard::enter();
                    assert!(subnormals_flushed());
                }
                assert!(
                    subnormals_flushed(),
                    "the inner guard must restore the outer guard's mode, not the default"
                );
            }
            assert!(
                !subnormals_flushed(),
                "mode leaked past the outermost guard"
            );

            let caught = std::panic::catch_unwind(|| {
                let _fp = FlushGuard::enter();
                panic!("boom");
            });
            assert!(caught.is_err());
            assert!(!subnormals_flushed(), "mode leaked across an unwind");

            // A guard on a permanently flushed thread (a pool worker making a
            // nested dispatch) must not switch the mode off when it drops.
            std::thread::spawn(|| {
                flush_subnormals_on_this_thread();
                drop(FlushGuard::enter());
                assert!(subnormals_flushed());
            })
            .join()
            .unwrap();
        }

        type Entry<'a> = (&'a str, &'a dyn Fn(Policy, usize, &(dyn Fn() + Sync)));

        #[test]
        fn every_participant_of_every_entry_point_is_in_flush_mode() {
            let entries: [Entry; 2] = [
                ("for_each_index", &|p, n, item| {
                    for_each_index(p, n, |_| item())
                }),
                ("run_dataflow", &|p, n, item| {
                    run_dataflow(p, &DepGraph::from_preds(&vec![vec![]; n]), |_| item())
                }),
            ];
            let policies = [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 1 },
                Policy::Capped { threads: 2 },
                Policy::Capped { threads: 4 },
            ];
            for (name, dispatch) in entries {
                for policy in policies {
                    // The caller plus the workers `policy` lets join it.
                    let want = match effective(policy, usize::MAX) {
                        Policy::Sequential => 1,
                        p => cap_of(p).min(pool().workers + 1),
                    };
                    // Repeat until every one of them has been seen at once.
                    let mut most = 0;
                    for _ in 0..200 {
                        let roll = RollCall::new(want);
                        dispatch(policy, 2 * want, &|| roll.item());
                        assert_eq!(
                            roll.gradual.load(Ordering::Relaxed),
                            0,
                            "{name} {policy:?}: items ran outside flush mode"
                        );
                        assert!(
                            !subnormals_flushed(),
                            "{name} {policy:?}: the caller was left in flush mode"
                        );
                        most = most.max(roll.seen.into_inner().unwrap().len());
                        if most == want {
                            break;
                        }
                    }
                    assert_eq!(most, want, "{name} {policy:?}: participants seen");
                }
            }
        }

        #[test]
        fn nested_dispatch_keeps_the_outer_items_mode() {
            for_each_index(Policy::Parallel, 8, |_| {
                for_each_index(Policy::Parallel, 4, |_| assert!(subnormals_flushed()));
                assert!(
                    subnormals_flushed(),
                    "the nested dispatch's guard cleared the mode"
                );
            });
            assert!(!subnormals_flushed());
        }
    }

    #[test]
    fn available_threads_positive_and_cached() {
        assert!(available_threads() >= 1);
        assert_eq!(available_threads(), available_threads());
    }
}
