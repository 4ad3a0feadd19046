//! Cooperative resource budgets for the whole analysis stack.
//!
//! The paper's driver (Fig. 2) is a *give-up-gracefully* algorithm: when the
//! search space is exhausted it answers "unknown" rather than diverging. This
//! module extends that discipline to machine resources. A [`Budget`] carries
//! optional caps on wall-clock time, LP solve calls, abstract-interpreter
//! fixpoint passes, and driver refinement steps. The driver *installs* a
//! budget for the duration of one analysis ([`Budget::install`]); the deep
//! layers (simplex, Fourier–Motzkin projection, the worklist engine, the
//! bound analysis) then *consume* against it through cheap thread-local
//! calls — no signatures change across crate boundaries.
//!
//! Exhaustion is sticky and cooperative: once a cap trips, every subsequent
//! [`check`]/`consume_*` call reports [`Exhausted`] and each layer falls back
//! to a *sound over-approximation* (an LP solve is answered "unbounded", a
//! fixpoint is widened to top, a derived constraint is dropped). The driver
//! eventually surfaces the situation as an `Unknown` verdict carrying the
//! exhausted [`Resource`].
//!
//! # Shared mode (parallel analysis)
//!
//! Installing a budget registers it in a thread-local slot, but the state
//! behind that slot is an [`Arc`]-held block of atomic counters plus a fixed
//! deadline [`Instant`]. Worker threads spawned by the driver obtain a
//! [`BudgetHandle`] to the *same* state ([`handle`]) and install it as their
//! own thread-local handle ([`BudgetHandle::install`]). Every cap is thereby
//! enforced **globally, counted exactly once** across all workers: an
//! LP-call cap of `n` means `n` successful LP calls total, never `n` per
//! thread, and the first worker to trip a cap makes every other worker's
//! next `consume_*`/[`check`] call report the same sticky [`Exhausted`].
//! The one genuinely thread-local quantity is the overflow-event counter
//! ([`local_overflow_events`]): the driver diffs it around one bound
//! computation to decide whether *that* computation overflowed, which must
//! not be polluted by a sibling worker's overflows.
//!
//! # Fault injection
//!
//! For robustness tests, a [`FaultSpec`] carried on the [`Budget`]
//! deterministically provokes failures: `lp_call:<n>` caps LP calls at `n`,
//! `overflow:<n>` makes every checked rational operation after the first
//! `n` report overflow, `deadline:<ms>` imposes a deadline, and `panic:<n>`
//! panics at the `n`-th LP call — once per process — to exercise
//! `catch_unwind` isolation in the benchmark harnesses. This module never
//! reads the environment: program entry points that honor a fault
//! variable parse it with [`FaultSpec::parse`] into the budget they pass in.
//!
//! # Work counters
//!
//! Besides the capped resources, the ledger counts work that no cap
//! governs — the antichain automata engine's macro-states and prunes
//! ([`note_macro_states`], [`note_antichain_prunes`]) and the driver's
//! seeded and from-⊥ trail evaluations ([`note_trail`]) — so one analysis
//! keeps one ledger, installed once per thread.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The resource classes a [`Budget`] can cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Wall-clock deadline.
    WallClock,
    /// Number of LP (simplex) solve calls.
    LpCalls,
    /// Number of abstract-interpreter fixpoint passes.
    FixpointPasses,
    /// Number of driver refinement steps.
    RefinementSteps,
}

impl Resource {
    /// Encoding for the shared atomic exhaustion cell: 0 is "not exhausted".
    fn code(self) -> u8 {
        match self {
            Resource::WallClock => 1,
            Resource::LpCalls => 2,
            Resource::FixpointPasses => 3,
            Resource::RefinementSteps => 4,
        }
    }

    fn from_code(code: u8) -> Option<Resource> {
        match code {
            1 => Some(Resource::WallClock),
            2 => Some(Resource::LpCalls),
            3 => Some(Resource::FixpointPasses),
            4 => Some(Resource::RefinementSteps),
            _ => None,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::WallClock => "wall-clock deadline",
            Resource::LpCalls => "LP-call budget",
            Resource::FixpointPasses => "fixpoint-pass budget",
            Resource::RefinementSteps => "refinement-step budget",
        })
    }
}

/// The error returned by [`check`] and the `consume_*` functions once a
/// resource cap has tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exhausted {
    /// Which resource ran out first.
    pub resource: Resource,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analysis budget exhausted: {}", self.resource)
    }
}

impl std::error::Error for Exhausted {}

/// Deterministic fault-injection configuration (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cap LP solve calls at this count.
    pub lp_call: Option<u64>,
    /// Make every checked rational operation after the first `n` overflow.
    pub overflow: Option<u64>,
    /// Impose this wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Panic at the `n`-th LP call (fires at most once per process).
    pub panic_at_lp: Option<u64>,
}

impl FaultSpec {
    /// Parses the fault syntax: a `|`-separated list of `lp_call:<n>`,
    /// `overflow:<n>`, `deadline:<ms>`, `panic:<n>` clauses. Malformed
    /// clauses are ignored (fault injection is best-effort test tooling,
    /// not user API).
    pub fn parse(spec: &str) -> Self {
        let mut out = FaultSpec::default();
        for clause in spec.split('|') {
            let Some((key, val)) = clause.split_once(':') else { continue };
            let Ok(n) = val.trim().parse::<u64>() else { continue };
            match key.trim() {
                "lp_call" => out.lp_call = Some(n),
                "overflow" => out.overflow = Some(n),
                "deadline" => out.deadline = Some(Duration::from_millis(n)),
                "panic" => out.panic_at_lp = Some(n),
                _ => {}
            }
        }
        out
    }

    /// True when no fault is configured.
    pub fn is_empty(&self) -> bool {
        *self == FaultSpec::default()
    }
}

/// Resource caps for one analysis run. `None` everywhere (the
/// [`Budget::default`]) means unlimited.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline for the whole analysis.
    pub deadline: Option<Duration>,
    /// Cap on LP (simplex) solve calls.
    pub max_lp_calls: Option<u64>,
    /// Cap on abstract-interpreter fixpoint passes.
    pub max_fixpoint_passes: Option<u64>,
    /// Cap on driver refinement steps.
    pub max_refinement_steps: Option<u64>,
    /// Deterministic fault injection (tests only).
    pub fault: Option<FaultSpec>,
}

impl Budget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the LP-call cap.
    pub fn with_max_lp_calls(mut self, n: u64) -> Self {
        self.max_lp_calls = Some(n);
        self
    }

    /// Sets the fixpoint-pass cap.
    pub fn with_max_fixpoint_passes(mut self, n: u64) -> Self {
        self.max_fixpoint_passes = Some(n);
        self
    }

    /// Sets the refinement-step cap.
    pub fn with_max_refinement_steps(mut self, n: u64) -> Self {
        self.max_refinement_steps = Some(n);
        self
    }

    /// Sets the fault-injection spec (tests only).
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Activates this budget on the current thread until the returned guard
    /// is dropped. Nested installs stack: the inner budget applies while its
    /// guard lives, then the outer one resumes.
    ///
    /// The installed state is shared-capable: [`handle`] hands worker
    /// threads a [`BudgetHandle`] to this same state, so every cap stays a
    /// single global ledger across threads.
    pub fn install(&self) -> BudgetGuard {
        let fault = self.fault.clone().unwrap_or_default();
        let deadline =
            [self.deadline, fault.deadline].into_iter().flatten().min().map(|d| Instant::now() + d);
        let max_lp_calls =
            [self.max_lp_calls, fault.lp_call].into_iter().flatten().min().unwrap_or(u64::MAX);
        let shared = Arc::new(Shared {
            start: Instant::now(),
            deadline,
            max_lp_calls: AtomicU64::new(max_lp_calls),
            max_fixpoint_passes: self.max_fixpoint_passes,
            max_refinement_steps: self.max_refinement_steps,
            lp_calls: AtomicU64::new(0),
            fixpoint_passes: AtomicU64::new(0),
            refinement_steps: AtomicU64::new(0),
            overflow_events: AtomicU64::new(0),
            macro_states: AtomicU64::new(0),
            antichain_prunes: AtomicU64::new(0),
            trails_seeded: AtomicU64::new(0),
            trails_unseeded: AtomicU64::new(0),
            seeded_passes: AtomicU64::new(0),
            unseeded_passes: AtomicU64::new(0),
            exhausted: AtomicU8::new(0),
            degradations: Mutex::new(Vec::new()),
            fault_overflow_after: fault.overflow,
            fault_overflow_ops: AtomicU64::new(0),
            fault_panic_at_lp: fault.panic_at_lp,
            rescue_grants: AtomicU32::new(0),
        });
        let previous = ACTIVE.with(|a| a.borrow_mut().replace(shared));
        BudgetGuard { previous }
    }
}

/// What one analysis actually consumed, for `AnalysisOutcome` metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetReport {
    /// LP solve calls consumed (globally, across all worker threads).
    pub lp_calls: u64,
    /// Fixpoint passes consumed.
    pub fixpoint_passes: u64,
    /// Refinement steps consumed.
    pub refinement_steps: u64,
    /// Rational-overflow events absorbed as precision loss.
    pub overflow_events: u64,
    /// Macro-states the antichain automata engine expanded.
    pub macro_states_explored: u64,
    /// Macro-states the antichain engine discarded (or killed) by
    /// ⊆-domination.
    pub antichain_prunes: u64,
    /// Evaluated trails whose top-level fixpoint started from a parent
    /// seed.
    pub trails_seeded: u64,
    /// Evaluated trails whose top-level fixpoint started from ⊥.
    pub trails_unseeded: u64,
    /// Top-level fixpoint passes of the seeded trail evaluations.
    pub seeded_passes: u64,
    /// Top-level fixpoint passes of the from-⊥ trail evaluations.
    pub unseeded_passes: u64,
    /// Wall-clock time elapsed since the budget was installed.
    pub elapsed: Duration,
    /// The first resource that ran out, if any.
    pub exhausted: Option<Resource>,
    /// Human-readable log of every sound degradation taken.
    pub degradations: Vec<String>,
}

/// The shared, thread-safe budget state. Caps are fixed at install time
/// (except the LP cap, which rescue grants extend atomically); counters are
/// atomics so any number of worker threads consume against one ledger.
#[derive(Debug)]
struct Shared {
    start: Instant,
    deadline: Option<Instant>,
    /// `u64::MAX` encodes "unlimited"; mutated only by LP rescue grants.
    max_lp_calls: AtomicU64,
    max_fixpoint_passes: Option<u64>,
    max_refinement_steps: Option<u64>,
    lp_calls: AtomicU64,
    fixpoint_passes: AtomicU64,
    refinement_steps: AtomicU64,
    overflow_events: AtomicU64,
    macro_states: AtomicU64,
    antichain_prunes: AtomicU64,
    trails_seeded: AtomicU64,
    trails_unseeded: AtomicU64,
    seeded_passes: AtomicU64,
    unseeded_passes: AtomicU64,
    /// 0 = not exhausted, otherwise [`Resource::code`] of the first trip.
    exhausted: AtomicU8,
    degradations: Mutex<Vec<String>>,
    fault_overflow_after: Option<u64>,
    fault_overflow_ops: AtomicU64,
    fault_panic_at_lp: Option<u64>,
    rescue_grants: AtomicU32,
}

impl Shared {
    /// The first exhausted resource, if any.
    fn exhausted_resource(&self) -> Option<Resource> {
        Resource::from_code(self.exhausted.load(Ordering::SeqCst))
    }

    /// Records `r` as the exhausted resource unless another trip won the
    /// race; returns the effective first-exhausted resource.
    fn trip(&self, r: Resource) -> Resource {
        match self.exhausted.compare_exchange(0, r.code(), Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => r,
            Err(prev) => Resource::from_code(prev).unwrap_or(r),
        }
    }

    /// Polls the deadline, tripping `WallClock` when it has passed.
    fn deadline_ok(&self) -> bool {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(Resource::WallClock);
                return false;
            }
        }
        true
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// Overflow events noted *by this thread* (monotonic across installs;
    /// callers diff it around a region of interest).
    static LOCAL_OVERFLOWS: Cell<u64> = const { Cell::new(0) };
}

/// `panic:<n>` fault fires at most once per process, so a harness that
/// isolates the panic with `catch_unwind` does not crash on every subsequent
/// benchmark too.
static PANIC_FAULT_FIRED: AtomicBool = AtomicBool::new(false);

/// RAII guard returned by [`Budget::install`] and [`BudgetHandle::install`];
/// restores the previously installed budget (if any) on drop.
pub struct BudgetGuard {
    previous: Option<Arc<Shared>>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = self.previous.take());
    }
}

impl fmt::Debug for BudgetGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BudgetGuard")
    }
}

/// A cloneable handle to the budget currently installed on some thread.
/// Worker threads install it ([`BudgetHandle::install`]) so their
/// consumption lands on the *same* global ledger as the spawning thread's.
#[derive(Clone, Debug)]
pub struct BudgetHandle {
    shared: Arc<Shared>,
}

impl BudgetHandle {
    /// Activates the shared budget on the current thread until the returned
    /// guard is dropped (stacking like [`Budget::install`]).
    pub fn install(&self) -> BudgetGuard {
        let previous = ACTIVE.with(|a| a.borrow_mut().replace(Arc::clone(&self.shared)));
        BudgetGuard { previous }
    }
}

/// A handle to the budget installed on the current thread, for handing to
/// worker threads. `None` when no budget is installed.
pub fn handle() -> Option<BudgetHandle> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|s| BudgetHandle { shared: Arc::clone(s) }))
}

fn with_active<R>(f: impl FnOnce(&Shared) -> R) -> Option<R> {
    ACTIVE.with(|a| a.borrow().as_deref().map(f))
}

/// How often (in LP calls) the deadline clock is polled; individual solves
/// are cheap enough that this keeps the overhead negligible while bounding
/// deadline overshoot tightly.
const DEADLINE_POLL_PERIOD: u64 = 16;

/// Checks the sticky exhaustion state and the deadline without consuming
/// anything. Cheap; safe to call in inner loops.
pub fn check() -> Result<(), Exhausted> {
    with_active(|active| {
        if let Some(resource) = active.exhausted_resource() {
            return Err(Exhausted { resource });
        }
        if !active.deadline_ok() {
            return Err(Exhausted { resource: Resource::WallClock });
        }
        Ok(())
    })
    .unwrap_or(Ok(()))
}

/// Consumes one LP solve call. Also the trigger point for the `panic:<n>`
/// fault and the densest deadline poll in the stack.
pub fn consume_lp_call() -> Result<(), Exhausted> {
    let panic_now = with_active(|active| {
        if let Some(resource) = active.exhausted_resource() {
            return Err(Exhausted { resource });
        }
        let calls = active.lp_calls.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(n) = active.fault_panic_at_lp {
            if calls >= n && !PANIC_FAULT_FIRED.swap(true, Ordering::SeqCst) {
                return Ok(true);
            }
        }
        if calls > active.max_lp_calls.load(Ordering::SeqCst) {
            active.trip(Resource::LpCalls);
            return Err(Exhausted { resource: Resource::LpCalls });
        }
        if calls % DEADLINE_POLL_PERIOD == 1 && !active.deadline_ok() {
            return Err(Exhausted { resource: Resource::WallClock });
        }
        Ok(false)
    })
    .unwrap_or(Ok(false))?;
    if panic_now {
        panic!("injected fault: panic at LP call (BLAZER_FAULT)");
    }
    Ok(())
}

/// Consumes one abstract-interpreter fixpoint pass.
pub fn consume_fixpoint_pass() -> Result<(), Exhausted> {
    with_active(|active| {
        if let Some(resource) = active.exhausted_resource() {
            return Err(Exhausted { resource });
        }
        let passes = active.fixpoint_passes.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(cap) = active.max_fixpoint_passes {
            if passes > cap {
                active.trip(Resource::FixpointPasses);
                return Err(Exhausted { resource: Resource::FixpointPasses });
            }
        }
        if !active.deadline_ok() {
            return Err(Exhausted { resource: Resource::WallClock });
        }
        Ok(())
    })
    .unwrap_or(Ok(()))
}

/// Consumes one driver refinement step.
pub fn consume_refinement_step() -> Result<(), Exhausted> {
    with_active(|active| {
        if let Some(resource) = active.exhausted_resource() {
            return Err(Exhausted { resource });
        }
        let steps = active.refinement_steps.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(cap) = active.max_refinement_steps {
            if steps > cap {
                active.trip(Resource::RefinementSteps);
                return Err(Exhausted { resource: Resource::RefinementSteps });
            }
        }
        if !active.deadline_ok() {
            return Err(Exhausted { resource: Resource::WallClock });
        }
        Ok(())
    })
    .unwrap_or(Ok(()))
}

/// The first exhausted resource, if any (sticky).
pub fn exhausted() -> Option<Resource> {
    with_active(|active| active.exhausted_resource()).flatten()
}

/// Polls the wall-clock deadline directly, bypassing the sticky-exhaustion
/// short-circuit of [`check`]: when a softer resource (say the LP-call cap)
/// tripped first, long-running loops still need to notice that the deadline
/// has since passed. One `Instant::now` per call; safe in inner loops.
pub fn deadline_exceeded() -> bool {
    with_active(|active| !active.deadline_ok()).unwrap_or(false)
}

/// Records a sound degradation for the final [`BudgetReport`]. Duplicate
/// messages are collapsed: a starved run can deny thousands of identical
/// LP calls, and one note per distinct event is what a reader wants.
pub fn note_degradation(msg: impl Into<String>) {
    let msg = msg.into();
    with_active(|active| {
        let mut degradations = active.degradations.lock().unwrap_or_else(|e| e.into_inner());
        if degradations.len() < 256 && !degradations.contains(&msg) {
            degradations.push(msg);
        }
    });
}

/// Records one absorbed rational-overflow event (on the global ledger and
/// on this thread's local counter).
pub fn note_overflow() {
    with_active(|active| {
        active.overflow_events.fetch_add(1, Ordering::SeqCst);
        LOCAL_OVERFLOWS.with(|c| c.set(c.get() + 1));
    });
}

/// Counts `n` macro-states expanded by the antichain automata engine.
pub fn note_macro_states(n: u64) {
    with_active(|active| active.macro_states.fetch_add(n, Ordering::Relaxed));
}

/// Counts `n` antichain prunes (candidates or live macro-states discarded
/// by ⊆-domination).
pub fn note_antichain_prunes(n: u64) {
    with_active(|active| active.antichain_prunes.fetch_add(n, Ordering::Relaxed));
}

/// Counts one evaluated trail: whether its top-level fixpoint started from
/// a parent seed, and the passes that fixpoint took.
pub fn note_trail(seeded: bool, top_passes: u64) {
    with_active(|active| {
        let (trails, passes) = if seeded {
            (&active.trails_seeded, &active.seeded_passes)
        } else {
            (&active.trails_unseeded, &active.unseeded_passes)
        };
        trails.fetch_add(1, Ordering::Relaxed);
        passes.fetch_add(top_passes, Ordering::Relaxed);
    });
}

/// Number of overflow events absorbed so far across all threads sharing the
/// installed budget.
pub fn overflow_events() -> u64 {
    with_active(|active| active.overflow_events.load(Ordering::SeqCst)).unwrap_or(0)
}

/// Number of overflow events noted *by the current thread* (monotonic; the
/// driver diffs this around one trail's bound computation to decide whether
/// to degrade to a coarser domain — a sibling worker's overflow must not
/// trigger a degradation here).
pub fn local_overflow_events() -> u64 {
    LOCAL_OVERFLOWS.with(|c| c.get())
}

/// Fault hook for checked rational arithmetic: returns `true` when the
/// `overflow:<n>` fault says this operation should report overflow.
pub fn inject_overflow() -> bool {
    with_active(|active| {
        let Some(after) = active.fault_overflow_after else { return false };
        active.fault_overflow_ops.fetch_add(1, Ordering::SeqCst) + 1 > after
    })
    .unwrap_or(false)
}

/// Grants extra LP calls so the driver can retry a budget-starved trail with
/// a coarser (cheaper) domain. Clears a sticky `LpCalls` exhaustion; refuses
/// when the deadline (which cannot be extended) has passed, after too many
/// grants, or when a harder resource tripped first. Returns whether the
/// rescue was granted.
pub fn grant_lp_rescue(extra: u64) -> bool {
    with_active(|active| {
        if active.rescue_grants.load(Ordering::SeqCst) >= 8 || !active.deadline_ok() {
            return false;
        }
        let current = active.exhausted.load(Ordering::SeqCst);
        if current != 0 && current != Resource::LpCalls.code() {
            return false;
        }
        // Clear the sticky LpCalls trip (or keep a clean slate). Losing the
        // race to a concurrent harder trip refuses the rescue.
        if active
            .exhausted
            .compare_exchange(current, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        active.rescue_grants.fetch_add(1, Ordering::SeqCst);
        if active.max_lp_calls.load(Ordering::SeqCst) != u64::MAX {
            active.max_lp_calls.store(
                active.lp_calls.load(Ordering::SeqCst).saturating_add(extra),
                Ordering::SeqCst,
            );
        }
        true
    })
    .unwrap_or(false)
}

/// Snapshot of consumption so far (empty/default when no budget is
/// installed).
pub fn report() -> BudgetReport {
    with_active(|active| BudgetReport {
        lp_calls: active.lp_calls.load(Ordering::SeqCst),
        fixpoint_passes: active.fixpoint_passes.load(Ordering::SeqCst),
        refinement_steps: active.refinement_steps.load(Ordering::SeqCst),
        overflow_events: active.overflow_events.load(Ordering::SeqCst),
        macro_states_explored: active.macro_states.load(Ordering::Relaxed),
        antichain_prunes: active.antichain_prunes.load(Ordering::Relaxed),
        trails_seeded: active.trails_seeded.load(Ordering::Relaxed),
        trails_unseeded: active.trails_unseeded.load(Ordering::Relaxed),
        seeded_passes: active.seeded_passes.load(Ordering::Relaxed),
        unseeded_passes: active.unseeded_passes.load(Ordering::Relaxed),
        elapsed: active.start.elapsed(),
        exhausted: active.exhausted_resource(),
        degradations: active.degradations.lock().unwrap_or_else(|e| e.into_inner()).clone(),
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_installed_is_unlimited() {
        assert!(check().is_ok());
        for _ in 0..1000 {
            assert!(consume_lp_call().is_ok());
            assert!(consume_fixpoint_pass().is_ok());
            assert!(consume_refinement_step().is_ok());
        }
        assert_eq!(exhausted(), None);
        assert_eq!(report(), BudgetReport::default());
    }

    #[test]
    fn lp_cap_trips_and_sticks() {
        let _guard = Budget::unlimited().with_max_lp_calls(3).install();
        assert!(consume_lp_call().is_ok());
        assert!(consume_lp_call().is_ok());
        assert!(consume_lp_call().is_ok());
        let err = consume_lp_call().unwrap_err();
        assert_eq!(err.resource, Resource::LpCalls);
        // Sticky: everything reports exhaustion now.
        assert!(check().is_err());
        assert!(consume_fixpoint_pass().is_err());
        assert_eq!(exhausted(), Some(Resource::LpCalls));
        let report = report();
        assert_eq!(report.exhausted, Some(Resource::LpCalls));
        assert_eq!(report.lp_calls, 4);
    }

    #[test]
    fn deadline_trips() {
        let _guard = Budget::unlimited().with_deadline(Duration::ZERO).install();
        let err = check().unwrap_err();
        assert_eq!(err.resource, Resource::WallClock);
        assert_eq!(exhausted(), Some(Resource::WallClock));
    }

    #[test]
    fn guard_restores_previous_budget() {
        let _outer = Budget::unlimited().with_max_lp_calls(100).install();
        consume_lp_call().unwrap();
        {
            let _inner = Budget::unlimited().with_max_lp_calls(1).install();
            consume_lp_call().unwrap();
            assert!(consume_lp_call().is_err());
        }
        // Outer budget resumed, with its own counter.
        assert!(check().is_ok());
        assert_eq!(report().lp_calls, 1);
    }

    #[test]
    fn fault_spec_parses_clauses() {
        let f = FaultSpec::parse("lp_call:10|overflow:3|deadline:250|panic:7");
        assert_eq!(f.lp_call, Some(10));
        assert_eq!(f.overflow, Some(3));
        assert_eq!(f.deadline, Some(Duration::from_millis(250)));
        assert_eq!(f.panic_at_lp, Some(7));
        // Malformed clauses are ignored.
        let g = FaultSpec::parse("bogus|lp_call:xyz|overflow:2");
        assert_eq!(g, FaultSpec { overflow: Some(2), ..FaultSpec::default() });
    }

    #[test]
    fn injected_overflow_fires_after_n_ops() {
        let fault = FaultSpec { overflow: Some(2), ..FaultSpec::default() };
        let _guard = Budget::unlimited().with_fault(fault).install();
        assert!(!inject_overflow());
        assert!(!inject_overflow());
        assert!(inject_overflow());
        assert!(inject_overflow());
    }

    #[test]
    fn lp_rescue_extends_the_cap() {
        let _guard = Budget::unlimited().with_max_lp_calls(1).install();
        consume_lp_call().unwrap();
        assert!(consume_lp_call().is_err());
        assert!(grant_lp_rescue(5));
        assert_eq!(exhausted(), None);
        for _ in 0..5 {
            consume_lp_call().unwrap();
        }
        assert!(consume_lp_call().is_err());
    }

    #[test]
    fn degradations_are_logged_and_bounded() {
        let _guard = Budget::unlimited().install();
        for i in 0..300 {
            note_degradation(format!("event {i}"));
        }
        let r = report();
        assert_eq!(r.degradations.len(), 256);
        assert_eq!(r.degradations[0], "event 0");
    }

    #[test]
    fn shared_lp_cap_counts_exactly_once_across_threads() {
        // 8 workers hammer one shared LP-call budget of 100: exactly 100
        // calls succeed globally — never 100 per thread — and once the cap
        // trips every worker's next call reports the same sticky exhaustion.
        const CAP: u64 = 100;
        const THREADS: usize = 8;
        let _guard = Budget::unlimited().with_max_lp_calls(CAP).install();
        let h = handle().expect("budget installed");
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let _g = h.install();
                    for _ in 0..1000 {
                        match consume_lp_call() {
                            Ok(()) => {
                                successes.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(e) => assert_eq!(e.resource, Resource::LpCalls),
                        }
                    }
                });
            }
        });
        assert_eq!(successes.load(Ordering::SeqCst), CAP);
        let r = report();
        assert_eq!(r.exhausted, Some(Resource::LpCalls));
        // The counter may overshoot the cap by at most one in-flight
        // increment per worker (each increments before seeing the trip).
        assert!(r.lp_calls >= CAP && r.lp_calls <= CAP + THREADS as u64, "{}", r.lp_calls);
    }

    #[test]
    fn handle_shares_counters_and_restores_on_drop() {
        let _guard = Budget::unlimited().with_max_fixpoint_passes(10).install();
        let h = handle().expect("budget installed");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = h.install();
                consume_fixpoint_pass().unwrap();
                consume_lp_call().unwrap();
                // Guard drops here: the worker thread's slot empties again.
            });
        });
        // The worker's consumption landed on this thread's ledger.
        let r = report();
        assert_eq!(r.fixpoint_passes, 1);
        assert_eq!(r.lp_calls, 1);
    }

    #[test]
    fn local_overflow_counter_is_per_thread() {
        let _guard = Budget::unlimited().install();
        let h = handle().expect("budget installed");
        let before = local_overflow_events();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _g = h.install();
                note_overflow();
                note_overflow();
            });
        });
        // Global ledger saw both; this thread's local counter saw neither.
        assert_eq!(overflow_events(), 2);
        assert_eq!(local_overflow_events(), before);
    }
}
