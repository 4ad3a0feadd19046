//! The overall algorithm (Fig. 2): alternate refinement with `CheckSafe`,
//! then with `CheckAttack`.

use crate::attack::AttackSpec;
use crate::leakage::{self, Leakage};
use crate::mgt::most_general_trail;
use crate::refine::{block_split, refine_partition, RefineMode};
use crate::trail::BranchSyms;
use crate::tree::{NodeStatus, SplitKind, TrailTree};
use blazer_absint::transfer::entry_state;
use blazer_absint::{DimMap, EdgeAlphabet, ProductGraph, SeedMap};
use blazer_automata::{AntichainStats, Dfa, Regex};
use blazer_bounds::{graph_bounds_seeded, BoundResult, Observer, SeededBounds};
use blazer_domains::{AbstractDomain, IntervalVec, Octagon, Polyhedron, Zone};
use blazer_interp::Value;
use blazer_ir::budget::{self, Budget, BudgetHandle, BudgetReport, Resource};
use blazer_ir::cost::CostModel;
use blazer_ir::fanout;
use blazer_ir::{CallCost, Cfg, Function, Inst, NodeId, Program, Terminator};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which numeric abstract domain the analysis runs in (the domain-ablation
/// axis of the evaluation). Polyhedra match the original tool's PPL
/// backend; the weaker domains are faster but may fail to verify programs
/// whose safety needs relational or non-unit-coefficient invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DomainKind {
    /// Per-variable intervals.
    Interval,
    /// Difference-bound matrices.
    Zone,
    /// Octagons.
    Octagon,
    /// Convex polyhedra (default; matches the paper).
    #[default]
    Polyhedra,
}

impl DomainKind {
    /// The next-coarser domain on the degradation ladder, or `None` for the
    /// coarsest (intervals).
    pub fn coarser(self) -> Option<DomainKind> {
        match self {
            DomainKind::Polyhedra => Some(DomainKind::Octagon),
            DomainKind::Octagon => Some(DomainKind::Zone),
            DomainKind::Zone => Some(DomainKind::Interval),
            DomainKind::Interval => None,
        }
    }
}

impl fmt::Display for DomainKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DomainKind::Interval => "interval",
            DomainKind::Zone => "zone",
            DomainKind::Octagon => "octagon",
            DomainKind::Polyhedra => "polyhedra",
        })
    }
}

/// How many times a loop may be unrolled by star splits along one
/// refinement path, and the largest regex size a single trail may reach:
/// the paper's "parameters around the size and form of the partitions"
/// (Sec. 4.4), fixed at the values every configuration uses.
const MAX_STAR_UNROLLINGS: usize = 2;
/// See [`MAX_STAR_UNROLLINGS`].
const MAX_TRAIL_SIZE: usize = 20_000;

/// Analysis configuration. An analysis reads nothing else: program entry
/// points resolve their flags and environment into this value.
#[derive(Debug, Clone)]
pub struct Config {
    /// The attacker's observational model (narrowness criterion).
    pub observer: Observer,
    /// Maximum number of trail-tree nodes before giving up.
    pub max_trails: usize,
    /// The machine cost model.
    pub cost_model: CostModel,
    /// Whether to search for an attack specification after safety fails.
    pub synthesize_attack: bool,
    /// The numeric abstract domain to analyze with.
    pub domain: DomainKind,
    /// Resource caps for one analysis (unlimited by default). On
    /// exhaustion the driver degrades gracefully and answers
    /// [`Verdict::Unknown`] with [`UnknownReason::BudgetExhausted`].
    pub budget: Budget,
    /// Number of worker threads for per-round trail evaluation. `None`
    /// means the machine's available parallelism; `Some(1)` evaluates
    /// strictly sequentially on the calling thread (no workers are spawned).
    /// Verdicts, tree shapes, and degradation lists are identical at every
    /// width — threads change wall-clock time only.
    pub threads: Option<usize>,
    /// Whether child trails' fixpoints are seeded from their parent's
    /// converged post-states (incremental fixpoint seeding). Defaults to
    /// `true`. Seeding changes pass counts, never verdicts or tree shape
    /// (a node's bounds may narrow to a different sound value): the
    /// `seeding_equivalence` tests compare both settings node by node.
    pub seed_fixpoints: bool,
}

impl Config {
    /// The MicroBench configuration: degree-equivalence observer.
    pub fn microbench() -> Self {
        Config {
            observer: Observer::degree(),
            max_trails: 48,
            cost_model: CostModel::unit(),
            synthesize_attack: true,
            domain: DomainKind::Polyhedra,
            budget: Budget::unlimited(),
            threads: None,
            seed_fixpoints: true,
        }
    }

    /// The STAC / literature configuration: concrete 25k-instruction
    /// threshold at 4096-magnitude inputs (Sec. 6.1).
    pub fn stac() -> Self {
        Config { observer: Observer::stac(), ..Config::microbench() }
    }

    /// Builder-style observer override.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Builder-style numeric-domain override (the ablation axis).
    pub fn with_domain(mut self, domain: DomainKind) -> Self {
        self.domain = domain;
        self
    }

    /// Builder-style observer cost-model override. The decomposition
    /// driver, the self-composition baseline, and the concrete interpreter
    /// used for witness concretization all derive their pricing from this
    /// one field, so every layer prices a program identically.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Builder-style refinement budget override.
    pub fn with_max_trails(mut self, max_trails: usize) -> Self {
        self.max_trails = max_trails;
        self
    }

    /// Builder-style resource-budget override.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.budget = self.budget.clone().with_deadline(timeout);
        self
    }

    /// Builder-style LP-call cap.
    pub fn with_max_lp_calls(mut self, n: u64) -> Self {
        self.budget = self.budget.clone().with_max_lp_calls(n);
        self
    }

    /// Builder-style worker-thread width (`1` = strictly sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builder-style incremental-seeding override (`false` = every trail's
    /// fixpoint starts from ⊥, the pre-seeding behavior).
    pub fn with_seeding(mut self, seed_fixpoints: bool) -> Self {
        self.seed_fixpoints = seed_fixpoints;
        self
    }

    /// The evaluation width actually used: an explicit [`Config::threads`],
    /// else the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::microbench()
    }
}

/// Why an analysis answered [`Verdict::Unknown`] — machine-readable so
/// harnesses can distinguish "the search space ran out" from "the machine
/// budget ran out".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownReason {
    /// Neither the safety nor the attack search could make progress with
    /// the remaining refinement options (the paper's give-up case).
    SearchExhausted,
    /// Safety verification failed and attack synthesis was disabled.
    AttackSynthesisDisabled,
    /// A resource cap tripped; the result is inconclusive, not wrong.
    BudgetExhausted(Resource),
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownReason::SearchExhausted => {
                f.write_str("refinement search exhausted without a conclusive partition")
            }
            UnknownReason::AttackSynthesisDisabled => {
                f.write_str("safety not proved and attack synthesis is disabled")
            }
            UnknownReason::BudgetExhausted(r) => write!(f, "analysis budget exhausted: {r}"),
        }
    }
}

/// The verdict of one analysis (the three outputs of Fig. 2).
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The program is verifiably free of timing channels.
    Safe,
    /// An attack specification was synthesized.
    Attack(AttackSpec),
    /// The tool gives up ("failed to produce a meaningful summary"),
    /// carrying the reason.
    Unknown(UnknownReason),
}

impl Verdict {
    /// Whether this is [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe)
    }

    /// Whether this is an attack.
    pub fn is_attack(&self) -> bool {
        matches!(self, Verdict::Attack(_))
    }

    /// Short machine-readable verdict class: `"safe"`, `"attack"`, or
    /// `"unknown"` (the JSON wire vocabulary of reports and the service).
    pub fn code(&self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Attack(_) => "attack",
            Verdict::Unknown(_) => "unknown",
        }
    }

    /// The unknown-reason, for [`Verdict::Unknown`].
    pub fn unknown_reason(&self) -> Option<UnknownReason> {
        match self {
            Verdict::Unknown(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Safe => f.write_str("safe"),
            Verdict::Attack(_) => f.write_str("attack specification found"),
            Verdict::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// One graceful domain fallback taken while analyzing a trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The trail-tree node whose bounds were being computed.
    pub node: usize,
    /// The domain that failed.
    pub from: DomainKind,
    /// The coarser domain retried.
    pub to: DomainKind,
    /// Why the fallback happened.
    pub reason: DegradeReason,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trail {}: {} -> {} ({})", self.node, self.from, self.to, self.reason)
    }
}

/// Why the driver degraded a trail to a coarser domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// Rational arithmetic overflowed and was absorbed as precision loss.
    Overflow,
    /// The LP-call budget ran out; a rescue grant funded the retry.
    LpBudget,
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradeReason::Overflow => "rational overflow absorbed",
            DegradeReason::LpBudget => "LP-call budget exhausted",
        })
    }
}

/// What incremental fixpoint seeding did during one analysis: how many
/// evaluated trails started from a parent's post-states vs. from ⊥, and
/// the top-level fixpoint passes each kind took (read off the budget
/// ledger, where [`budget::note_trail`] counts every trail evaluation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedStats {
    /// Trails whose top-level fixpoint started from a parent seed.
    pub trails_seeded: u64,
    /// Trails evaluated from ⊥ (the root, cache-missing parents, degraded
    /// ladders, or seeding disabled).
    pub trails_unseeded: u64,
    /// Fixpoint passes of seeded top-level runs (their nested loop
    /// summaries excluded).
    pub seeded_passes: u64,
    /// Fixpoint passes of from-⊥ top-level runs.
    pub unseeded_passes: u64,
}

/// The complete result of analyzing one function.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// The analyzed function's name.
    pub function: String,
    /// The verdict.
    pub verdict: Verdict,
    /// The tree of trails (Fig. 1).
    pub tree: TrailTree,
    /// Wall-clock time of the safety-verification phase.
    pub safety_time: Duration,
    /// Wall-clock time of the attack-synthesis phase, when it ran.
    pub attack_time: Option<Duration>,
    /// CFG size in basic blocks (the `Size` column of Table 1).
    pub n_blocks: usize,
    /// Domain fallbacks taken while computing trail bounds (empty on an
    /// undisturbed run).
    pub degradations: Vec<Degradation>,
    /// What the analysis consumed against its [`Budget`].
    pub budget_report: BudgetReport,
    /// What incremental fixpoint seeding did (all zeros on the fast path;
    /// every trail counts as unseeded when seeding is disabled).
    pub seed_stats: SeedStats,
    /// What the antichain automata engine did: macro-states explored and
    /// ⊆-dominated macro-states pruned (read off the budget ledger).
    pub antichain_stats: AntichainStats,
    /// The observer cost model this analysis priced costs under. Witness
    /// concretization must measure with the same model, and responses
    /// surface it so cached verdicts are attributable.
    pub cost_model: CostModel,
    /// Quantified leakage of the final partition under the configured
    /// observer (see [`crate::leakage`]): 0 bits when `Safe`, at least 1
    /// bit when `Attack`.
    pub leakage: Leakage,
}

impl AnalysisOutcome {
    /// Renders the trail tree with variable names (Fig. 1 style).
    pub fn render_tree(&self, program: &Program) -> String {
        let Some(f) = program.function(&self.function) else {
            return String::new();
        };
        let dims = DimMap::new(f);
        let name_of = move |d: usize| dims.describe(f, d);
        self.tree.render(&|lo, hi| {
            let lo_s = lo.display_with(&name_of);
            match hi {
                Some(h) => format!("[{lo_s}, {}]", h.display_with(&name_of)),
                None => format!("[{lo_s}, ∞)"),
            }
        })
    }
}

/// Errors from [`Blazer::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The named function is not in the program.
    NoSuchFunction(String),
    /// The program fails validation.
    InvalidProgram(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoSuchFunction(n) => write!(f, "no function named `{n}`"),
            CoreError::InvalidProgram(m) => write!(f, "invalid program: {m}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Cache key for one trail's bound result: the canonical (printed) trail
/// regex, the starting domain of the degradation ladder, and the function
/// under analysis. The attack phase's re-splits and sibling-preserving
/// refinements frequently reproduce trails the safety phase already
/// analyzed; the key makes that reuse exact.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BoundKey {
    function: String,
    domain: DomainKind,
    trail: String,
}

/// A memoized bound computation: the result plus the domain fallbacks taken
/// while computing it (re-emitted, re-keyed to the requesting node, on every
/// cache hit so per-node degradation reporting stays meaningful) and — when
/// the run stayed on the configured domain with a clean budget — the
/// converged per-location post-states, ready to seed this trail's children.
#[derive(Debug, Clone)]
struct CachedBounds {
    result: BoundResult,
    degradations: Vec<(DomainKind, DomainKind, DegradeReason)>,
    post: Option<Arc<SeedMap>>,
}

/// Per-analysis memoization: bound results keyed by [`BoundKey`], and
/// minimized-DFA/restricted-product graphs keyed by the canonical trail
/// regex (shared behind a mutex so parallel workers build each graph at
/// most once per round and reuse it across degradation-ladder rungs and
/// refinement rounds).
#[derive(Debug, Default)]
struct BoundCache {
    bounds: HashMap<BoundKey, CachedBounds>,
    graphs: Mutex<HashMap<String, Arc<ProductGraph>>>,
}

/// The read-only per-analysis inputs shared by every bound evaluation
/// (and by every worker thread).
#[derive(Clone, Copy)]
struct EvalCtx<'a> {
    program: &'a Program,
    f: &'a Function,
    cfg: &'a Cfg,
    alphabet: &'a EdgeAlphabet,
    dims: &'a DimMap,
}

/// One node's evaluation outcome before it is merged back into the tree.
#[derive(Debug)]
struct EvalOut {
    result: BoundResult,
    degradations: Vec<Degradation>,
    /// Post-states to retain for seeding this trail's children (absent on
    /// degraded ladders, overflow, budget exhaustion, or disabled seeding).
    post: Option<SeedMap>,
}

/// One evaluation job: the tree node plus the parent post-states to seed
/// its fixpoint from (shared, not cloned, across worker threads).
type EvalJob = (usize, Option<Arc<SeedMap>>);

/// The analyzer.
#[derive(Debug, Clone, Default)]
pub struct Blazer {
    config: Config,
}

impl Blazer {
    /// An analyzer with the given configuration.
    pub fn new(config: Config) -> Self {
        Blazer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Analyzes `func` within `program` per Fig. 2: prove safety, else
    /// synthesize an attack specification, else give up. The outcome's
    /// [`Leakage`] is measured once, on the final partition, under
    /// [`Config::observer`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the program is malformed or the function
    /// missing.
    pub fn analyze(&self, program: &Program, func: &str) -> Result<AnalysisOutcome, CoreError> {
        program.validate().map_err(CoreError::InvalidProgram)?;
        let f =
            program.function(func).ok_or_else(|| CoreError::NoSuchFunction(func.to_string()))?;
        // The budget governs everything downstream of this point, and its
        // ledger is the analysis' one set of work counters; the guard
        // restores any previously installed budget on every return path.
        let _budget_guard = self.config.budget.install();
        let dims = DimMap::new(f);
        let high_seeds = high_seeds(f, &dims);
        let mut outcome = self.decide(program, f, &dims, &high_seeds);
        outcome.leakage = leakage::measure(&outcome, &self.config.observer, &high_seeds);
        Ok(outcome)
    }

    /// The Fig. 2 decision procedure behind [`Blazer::analyze`], run under
    /// the analysis' installed budget. The returned outcome's `leakage` is
    /// left at zero for the caller to measure.
    fn decide(
        &self,
        program: &Program,
        f: &Function,
        dims: &DimMap,
        high_seeds: &BTreeSet<usize>,
    ) -> AnalysisOutcome {
        let start = Instant::now();
        let mut degradations: Vec<Degradation> = Vec::new();

        let cfg = Cfg::new(f);
        let alphabet = EdgeAlphabet::new(&cfg);
        let taint = blazer_taint::analyze_function(program, f);
        let finish = |verdict, tree, safety_time, attack_time, degradations| {
            let budget_report = budget::report();
            AnalysisOutcome {
                function: f.name().to_string(),
                verdict,
                tree,
                safety_time,
                attack_time,
                n_blocks: f.blocks().len(),
                degradations,
                antichain_stats: AntichainStats {
                    macro_states_explored: budget_report.macro_states_explored,
                    antichain_prunes: budget_report.antichain_prunes,
                },
                seed_stats: SeedStats {
                    trails_seeded: budget_report.trails_seeded,
                    trails_unseeded: budget_report.trails_unseeded,
                    seeded_passes: budget_report.seeded_passes,
                    unseeded_passes: budget_report.unseeded_passes,
                },
                budget_report,
                cost_model: self.config.cost_model.clone(),
                leakage: Leakage::none(),
            }
        };

        // Fast path: with no secret influence on control flow or call
        // costs, there is nothing to leak (nosecret_safe).
        if !has_secret_influence(f, &taint) {
            let mut tree = TrailTree::new(most_general_trail(&cfg, &alphabet));
            tree.node_mut(0).status = NodeStatus::Narrow;
            return finish(Verdict::Safe, tree, start.elapsed(), None, degradations);
        }

        let branches = branch_syms(f, &alphabet, &taint);

        let mut tree = TrailTree::new(most_general_trail(&cfg, &alphabet));
        let mut star_depth: Vec<usize> = vec![0];
        let ctx = EvalCtx { program, f, cfg: &cfg, alphabet: &alphabet, dims };
        let mut cache = BoundCache::default();
        let width = self.config.effective_threads();

        // ---- Safety loop: RefinePartition(safe) + CheckSafe --------------
        let mut budget_stop: Option<Resource> = None;
        let safe = loop {
            if let Err(e) = budget::consume_refinement_step() {
                budget_stop = Some(e.resource);
                break false;
            }
            // Evaluate all pending leaves of this round as one batch:
            // cache-resolved first, then the misses fanned out across the
            // worker pool, with results merged back in leaf order so the
            // outcome is bit-identical at every width.
            let leaves = tree.leaves();
            let pending: Vec<usize> = leaves
                .iter()
                .copied()
                .filter(|&l| tree.node(l).status == NodeStatus::Pending)
                .collect();
            for (leaf, b) in
                self.eval_pending(&ctx, &tree, &pending, &mut cache, &mut degradations, width)
            {
                tree.node_mut(leaf).status = judge(&b, &self.config.observer, high_seeds);
                tree.node_mut(leaf).bounds = Some(b);
            }
            if leaves
                .iter()
                .all(|&l| matches!(tree.node(l).status, NodeStatus::Narrow | NodeStatus::Empty))
            {
                break true;
            }
            // Refine wide leaves at low-only constructors.
            let mut split_any = false;
            for leaf in leaves {
                if tree.node(leaf).status != NodeStatus::Wide {
                    continue;
                }
                if tree.len() + 2 > self.config.max_trails {
                    continue;
                }
                let allow_star = star_depth[leaf] < MAX_STAR_UNROLLINGS;
                let split = refine_partition(
                    &tree.node(leaf).trail,
                    &branches,
                    RefineMode::Safe,
                    allow_star,
                )
                .or_else(|| {
                    branches.iter().find_map(|br| {
                        block_split(
                            &tree.node(leaf).trail,
                            br,
                            alphabet.len() as u32,
                            RefineMode::Safe,
                            MAX_TRAIL_SIZE,
                        )
                    })
                });
                let Some(split) = split else { continue };
                if split.parts.iter().any(|p| p.size() > MAX_TRAIL_SIZE) {
                    continue;
                }
                let child_depth = star_depth[leaf] + usize::from(split.is_star);
                for part in split.parts {
                    tree.add_child(leaf, part, SplitKind::Taint);
                    star_depth.push(child_depth);
                }
                split_any = true;
            }
            if !split_any {
                break false;
            }
        };
        let safety_time = start.elapsed();
        if safe {
            return finish(Verdict::Safe, tree, safety_time, None, degradations);
        }
        if let Some(resource) = budget_stop {
            // A Wide leaf under an exhausted budget proves nothing: the
            // degraded bounds are over-approximations. Surface the budget,
            // not a (possibly wrong) attack.
            return finish(
                Verdict::Unknown(UnknownReason::BudgetExhausted(resource)),
                tree,
                safety_time,
                None,
                degradations,
            );
        }
        if !self.config.synthesize_attack {
            return finish(
                Verdict::Unknown(UnknownReason::AttackSynthesisDisabled),
                tree,
                safety_time,
                None,
                degradations,
            );
        }

        // ---- Attack loop: RefinePartition(vulnerable) + CheckAttack ------
        let attack_start = Instant::now();
        let mut verdict = Verdict::Unknown(UnknownReason::SearchExhausted);
        // All nodes produced by secret splits; CHECKATTACK compares any two
        // of them whose *separation* is a secret split (their lowest common
        // ancestor's children on the two paths were produced by a `sec`
        // split — the paper's "T₁ ⊎ T₂ is not a ψ_SC-quotient partition").
        let mut candidates: Vec<usize> = Vec::new();
        'attack: loop {
            if let Err(e) = budget::consume_refinement_step() {
                // Degraded bounds over-approximate, so a pair that looks
                // observably different under exhaustion could be spurious:
                // stop and report the budget instead.
                verdict = Verdict::Unknown(UnknownReason::BudgetExhausted(e.resource));
                break;
            }
            // Split phase: perform every secret split of this round first
            // (sequential and deterministic — split decisions depend only on
            // the pre-round tree), collecting the new children per split.
            let mut split_any = false;
            let mut round_splits: Vec<Vec<usize>> = Vec::new();
            for leaf in tree.leaves() {
                if tree.node(leaf).status != NodeStatus::Wide {
                    continue;
                }
                if tree.len() + 2 > self.config.max_trails {
                    break;
                }
                let allow_star = star_depth[leaf] < MAX_STAR_UNROLLINGS;
                let split = refine_partition(
                    &tree.node(leaf).trail,
                    &branches,
                    RefineMode::Vulnerable,
                    allow_star,
                )
                .or_else(|| {
                    branches.iter().find_map(|br| {
                        block_split(
                            &tree.node(leaf).trail,
                            br,
                            alphabet.len() as u32,
                            RefineMode::Vulnerable,
                            MAX_TRAIL_SIZE,
                        )
                    })
                });
                let Some(split) = split else { continue };
                if split.parts.iter().any(|p| p.size() > MAX_TRAIL_SIZE) {
                    continue;
                }
                split_any = true;
                let child_depth = star_depth[leaf] + usize::from(split.is_star);
                let mut children = Vec::new();
                for part in split.parts {
                    let id = tree.add_child(leaf, part, SplitKind::Secret);
                    star_depth.push(child_depth);
                    children.push(id);
                }
                round_splits.push(children);
            }
            // Evaluation phase: all of the round's new children as one
            // (cached, parallel) batch.
            let new_nodes: Vec<usize> = round_splits.iter().flatten().copied().collect();
            for (id, b) in
                self.eval_pending(&ctx, &tree, &new_nodes, &mut cache, &mut degradations, width)
            {
                tree.node_mut(id).status = judge(&b, &self.config.observer, high_seeds);
                tree.node_mut(id).bounds = Some(b);
            }
            // CHECKATTACK phase: identical pair order to a strictly
            // sequential evaluation, so the reported specification (the
            // first observably-different sec-separated pair) is the same at
            // every thread count.
            for children in &round_splits {
                for &c in children {
                    for &d in &candidates {
                        if !sec_separated(&tree, c, d) {
                            continue;
                        }
                        if let Some(spec) = check_attack_pair(&self.config.observer, &tree, c, d) {
                            tree.node_mut(c).status = NodeStatus::Attack;
                            tree.node_mut(d).status = NodeStatus::Attack;
                            verdict = Verdict::Attack(spec);
                            break 'attack;
                        }
                    }
                    candidates.push(c);
                }
                // Siblings of one split are always sec-separated.
                for (ai, &a) in children.iter().enumerate() {
                    for &b in &children[ai + 1..] {
                        if let Some(spec) = check_attack_pair(&self.config.observer, &tree, a, b) {
                            tree.node_mut(a).status = NodeStatus::Attack;
                            tree.node_mut(b).status = NodeStatus::Attack;
                            verdict = Verdict::Attack(spec);
                            break 'attack;
                        }
                    }
                }
            }
            if !split_any || tree.len() >= self.config.max_trails {
                break;
            }
        }
        finish(verdict, tree, safety_time, Some(attack_start.elapsed()), degradations)
    }

    /// Evaluates a batch of tree nodes (one refinement round's pending
    /// leaves) and returns `(node, bounds)` pairs in `nodes` order.
    ///
    /// The batch is resolved in three deterministic stages, identical at
    /// every thread width:
    ///
    /// 1. **Cache lookup** in `nodes` order: hits reuse the memoized
    ///    [`BoundResult`] (re-emitting its degradations keyed to the
    ///    requesting node), and duplicate trails within the batch collapse
    ///    onto one job, so the set of *evaluated* trails does not depend on
    ///    scheduling.
    /// 2. **Evaluation** of the remaining jobs over
    ///    [`blazer_ir::fanout::scoped_map`]: sequential on the calling
    ///    thread at width 1, otherwise fanned out over scoped workers. Every
    ///    job installs this analysis' shared budget handle, so every
    ///    resource cap and work counter stays one global ledger.
    /// 3. **Merge** in `nodes` order: degradations, cache insertions, and
    ///    results are committed in leaf order regardless of which worker
    ///    finished first. A worker panic (e.g. an injected fault) is
    ///    re-raised here with its original payload, after all workers have
    ///    finished.
    fn eval_pending(
        &self,
        ctx: &EvalCtx<'_>,
        tree: &TrailTree,
        nodes: &[usize],
        cache: &mut BoundCache,
        degradations: &mut Vec<Degradation>,
        width: usize,
    ) -> Vec<(usize, BoundResult)> {
        enum Source {
            /// Served from the cross-round bound cache.
            Hit(CachedBounds),
            /// Evaluated by job index this round.
            Job(usize),
            /// Duplicate of another node's trail in this same batch.
            Dup(usize),
        }
        let seeding = self.config.seed_fixpoints;
        let BoundCache { bounds: cached_bounds, graphs } = cache;
        let mut plan: Vec<(usize, Source)> = Vec::with_capacity(nodes.len());
        let mut jobs: Vec<EvalJob> = Vec::new();
        let mut job_keys: Vec<BoundKey> = Vec::new();
        let mut job_by_key: HashMap<BoundKey, usize> = HashMap::new();
        for &node in nodes {
            let key = BoundKey {
                function: ctx.f.name().to_string(),
                domain: self.config.domain,
                trail: tree.node(node).trail.to_string(),
            };
            if let Some(hit) = cached_bounds.get(&key) {
                plan.push((node, Source::Hit(hit.clone())));
            } else if let Some(&j) = job_by_key.get(&key) {
                plan.push((node, Source::Dup(j)));
            } else {
                // Seed lookup: the parent trail was evaluated in an earlier
                // round (children only ever sprout from judged leaves), so
                // its cache entry — when the ladder stayed clean — carries
                // the post-states this child starts from.
                let seed = if seeding {
                    tree.node(node).parent.and_then(|p| {
                        let parent_key = BoundKey {
                            function: ctx.f.name().to_string(),
                            domain: self.config.domain,
                            trail: tree.node(p).trail.to_string(),
                        };
                        cached_bounds.get(&parent_key).and_then(|hit| hit.post.clone())
                    })
                } else {
                    None
                };
                let j = jobs.len();
                jobs.push((node, seed));
                job_keys.push(key.clone());
                job_by_key.insert(key, j);
                plan.push((node, Source::Job(j)));
            }
        }

        let handle = budget::handle();
        let outs: Vec<EvalOut> = fanout::scoped_map(&jobs, width, |_, (node, seed)| {
            // All caps, fault injection and work counters stay global: the
            // job consumes against the ledger the driver thread installed.
            let _budget = handle.as_ref().map(BudgetHandle::install);
            self.bounds_for(ctx, graphs, &tree.node(*node).trail, *node, seed.as_deref())
        });

        let mut merged = Vec::with_capacity(nodes.len());
        for (node, source) in plan {
            match source {
                Source::Hit(hit) => {
                    degradations.extend(
                        hit.degradations.iter().map(|&(from, to, reason)| Degradation {
                            node,
                            from,
                            to,
                            reason,
                        }),
                    );
                    merged.push((node, hit.result.clone()));
                }
                Source::Job(j) => {
                    let out = &outs[j];
                    degradations.extend(out.degradations.iter().cloned());
                    cached_bounds.insert(
                        job_keys[j].clone(),
                        CachedBounds {
                            result: out.result.clone(),
                            degradations: out
                                .degradations
                                .iter()
                                .map(|d| (d.from, d.to, d.reason))
                                .collect(),
                            post: out.post.clone().map(Arc::new),
                        },
                    );
                    merged.push((node, out.result.clone()));
                }
                Source::Dup(j) => {
                    let out = &outs[j];
                    degradations
                        .extend(out.degradations.iter().map(|d| Degradation { node, ..d.clone() }));
                    merged.push((node, out.result.clone()));
                }
            }
        }
        merged
    }

    /// BOUNDANALYSIS for one trail: restrict the product to the trail's
    /// minimized DFA and compute symbolic bounds in the configured domain.
    ///
    /// When the run absorbs a rational overflow, or exhausts the LP-call
    /// budget and a rescue grant is available, the trail is retried down the
    /// degradation ladder (polyhedra → octagon → zone → interval); each
    /// fallback is recorded in the returned [`EvalOut`]. A dead wall-clock
    /// deadline is never retried. The evaluation is counted on the budget
    /// ledger ([`budget::note_trail`]) as seeded or from ⊥, with the
    /// first rung's top-level fixpoint passes.
    ///
    /// The optional `seed` (the parent trail's converged post-states) is
    /// applied only on the ladder's first rung — coarser retries restart
    /// from ⊥ exactly as before — and the trail's own post-states are
    /// retained for its future children only when that first rung completes
    /// cleanly (no overflow, no budget exhaustion).
    fn bounds_for(
        &self,
        ctx: &EvalCtx<'_>,
        graphs: &Mutex<HashMap<String, Arc<ProductGraph>>>,
        trail: &Regex,
        node: usize,
        seed: Option<&SeedMap>,
    ) -> EvalOut {
        let EvalCtx { program, f, cfg, alphabet, dims } = *ctx;
        let graph_key = trail.to_string();
        let cached = graphs.lock().unwrap_or_else(|e| e.into_inner()).get(&graph_key).cloned();
        let graph: Arc<ProductGraph> = match cached {
            Some(g) => g,
            None => {
                // The product graph is built from the *minimized* DFA: a
                // product over unminimized subset states duplicates loop
                // heads inside one SCC, which weakens the widening-based
                // upper bounds to ∞.
                let built = Dfa::try_from_regex(trail, alphabet.len() as u32)
                    .map(|dfa| ProductGraph::restricted(f, cfg, &dfa.minimize(), alphabet));
                let g = match built {
                    Ok(g) => Arc::new(g),
                    Err(e) => {
                        // Graph construction exhausted the budget: this
                        // trail's bounds degrade to [0, ∞), the same shape
                        // an overflow under exhaustion produces below.
                        budget::note_degradation(format!(
                            "driver: trail {node}: product construction exhausted \
                             ({:?}); widening bounds to [0, ∞)",
                            e.resource
                        ));
                        budget::note_trail(false, 0);
                        return EvalOut {
                            result: BoundResult {
                                lower: Some(blazer_bounds::CostExpr::zero()),
                                upper: None,
                            },
                            degradations: Vec::new(),
                            post: None,
                        };
                    }
                };
                // Two workers may race to build the same graph; both arrive
                // at identical results, so last-writer-wins is benign.
                graphs
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .entry(graph_key)
                    .or_insert(g)
                    .clone()
            }
        };
        fn run<D: AbstractDomain>(
            program: &Program,
            f: &Function,
            dims: &DimMap,
            graph: &ProductGraph,
            cost_model: &CostModel,
            seed: Option<&SeedMap>,
            collect_post: bool,
        ) -> SeededBounds {
            let init: D = entry_state(f, dims);
            let seeds: BTreeSet<usize> = dims.seeds().collect();
            graph_bounds_seeded(
                program,
                f,
                dims,
                graph,
                &init,
                cost_model,
                &seeds,
                seed,
                collect_post,
            )
        }
        /// Extra LP calls granted per coarser-domain retry.
        const LP_RESCUE: u64 = 256;
        let cm = &self.config.cost_model;
        let collect = self.config.seed_fixpoints;
        let run_domain = |d: DomainKind, use_seed: Option<&SeedMap>, want_post: bool| match d {
            DomainKind::Interval => {
                run::<IntervalVec>(program, f, dims, &graph, cm, use_seed, want_post)
            }
            DomainKind::Zone => run::<Zone>(program, f, dims, &graph, cm, use_seed, want_post),
            DomainKind::Octagon => {
                run::<Octagon>(program, f, dims, &graph, cm, use_seed, want_post)
            }
            DomainKind::Polyhedra => {
                run::<Polyhedron>(program, f, dims, &graph, cm, use_seed, want_post)
            }
        };
        let mut domain = self.config.domain;
        let mut degradations: Vec<Degradation> = Vec::new();
        let mut seeded = false;
        let mut top_passes: u64 = 0;
        let mut post: Option<SeedMap> = None;
        // Run each rung with a clean thread-local overflow flag: saturation
        // outside the absorption points (e.g. in cost-expression arithmetic)
        // only raises the flag, and bounds computed with saturated rationals
        // may be wrong, not just imprecise.
        let outer_overflow = blazer_domains::rational::take_overflow();
        let result = loop {
            // Seeding only applies on the ladder's first rung: the parent's
            // post-states were converged in `self.config.domain`, and a
            // degraded retry must behave exactly as it did before seeding.
            let first_rung = domain == self.config.domain;
            let use_seed = if first_rung { seed } else { None };
            let want_post = collect && first_rung;
            let overflow_before = budget::local_overflow_events();
            let mut out = run_domain(domain, use_seed, want_post);
            if first_rung {
                seeded = out.seeded;
                top_passes = out.top_passes;
            }
            // Per-thread diff: only overflows absorbed while computing
            // *this* trail's bounds (on this worker) justify a retry.
            let overflowed = budget::local_overflow_events() > overflow_before
                || blazer_domains::rational::take_overflow();
            if let Some(coarser) = domain.coarser() {
                let reason = match budget::exhausted() {
                    // The deadline cannot be extended; other caps (fixpoint
                    // passes, refinement steps) are global pacing knobs that
                    // a coarser domain would exhaust just the same.
                    Some(Resource::LpCalls) if budget::grant_lp_rescue(LP_RESCUE) => {
                        Some(DegradeReason::LpBudget)
                    }
                    Some(_) => None,
                    None if overflowed => Some(DegradeReason::Overflow),
                    None => None,
                };
                if let Some(reason) = reason {
                    budget::note_degradation(format!(
                        "driver: trail {node}: retrying {domain} -> {coarser} ({})",
                        Degradation { node, from: domain, to: coarser, reason }.reason
                    ));
                    degradations.push(Degradation { node, from: domain, to: coarser, reason });
                    domain = coarser;
                    continue;
                }
            }
            if overflowed {
                // No retry available: either no coarser domain is left to
                // absorb the overflow, or the budget is exhausted beyond
                // rescue. Either way the computed bounds cannot be trusted
                // (saturation can even collapse them to a narrow point).
                budget::note_overflow();
                let why = if domain.coarser().is_none() {
                    "overflow in the coarsest domain"
                } else {
                    "overflow under an exhausted budget"
                };
                budget::note_degradation(format!(
                    "driver: trail {node}: {why}; widening bounds to [0, ∞)"
                ));
                break BoundResult { lower: Some(blazer_bounds::CostExpr::zero()), upper: None };
            }
            // Clean completion of this rung. Post-states are only retained
            // when the budget never ran dry: an exhausted engine widens
            // states toward ⊤, and a ⊤-ish seed would poison every child.
            if want_post && budget::exhausted().is_none() {
                post = out.post.take();
            }
            break out.result;
        };
        if outer_overflow {
            blazer_domains::rational::set_overflow();
        }
        budget::note_trail(seeded, top_passes);
        EvalOut { result, degradations, post }
    }
}

/// Whether the tree separation between `a` and `b` is a secret split: the
/// children of their lowest common ancestor along the two paths carry
/// [`SplitKind::Secret`]. Pairs separated only by taint splits have
/// different low inputs, so differing bounds prove nothing.
fn sec_separated(tree: &TrailTree, a: usize, b: usize) -> bool {
    let path_to_root = |mut n: usize| {
        let mut path = vec![n];
        while let Some(p) = tree.node(n).parent {
            path.push(p);
            n = p;
        }
        path
    };
    let pa = path_to_root(a);
    let pb = path_to_root(b);
    // Find the LCA: deepest node common to both paths.
    let set_b: std::collections::BTreeSet<usize> = pb.iter().copied().collect();
    let Some(lca_pos) = pa.iter().position(|n| set_b.contains(n)) else {
        return false;
    };
    if lca_pos == 0 {
        return false; // one is an ancestor of the other: not a separation
    }
    // The child of the LCA on a's path records the split kind.
    let child_on_a = pa[lca_pos - 1];
    tree.node(child_on_a).split_kind == Some(SplitKind::Secret)
}

/// CHECKATTACK on one pair: observably different bound ranges.
fn check_attack_pair(
    observer: &Observer,
    tree: &TrailTree,
    a: usize,
    b: usize,
) -> Option<AttackSpec> {
    let ba = tree.node(a).bounds.clone()?;
    let bb = tree.node(b).bounds.clone()?;
    let (lo_a, lo_b) = (ba.lower.clone()?, bb.lower.clone()?);
    if observer.observably_different((&lo_a, ba.upper.as_ref()), (&lo_b, bb.upper.as_ref())) {
        Some(AttackSpec {
            node_a: a,
            node_b: b,
            trail_a: tree.node(a).trail.clone(),
            trail_b: tree.node(b).trail.clone(),
            bounds_a: (lo_a, ba.upper),
            bounds_b: (lo_b, bb.upper),
        })
    } else {
        None
    }
}

/// The trail-space dimensions of `f`'s secret (`#high`) parameters: the
/// seeds a narrow bound may not depend on.
fn high_seeds(f: &Function, dims: &DimMap) -> BTreeSet<usize> {
    f.params()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.label.is_high())
        .map(|(i, _)| dims.seed(i))
        .collect()
}

/// CHECKSAFE's per-component judgment.
fn judge(b: &BoundResult, observer: &Observer, high_seeds: &BTreeSet<usize>) -> NodeStatus {
    match (&b.lower, &b.upper) {
        (None, _) => NodeStatus::Empty,
        (Some(lo), Some(hi)) if observer.is_narrow(lo, hi, high_seeds) => NodeStatus::Narrow,
        _ => NodeStatus::Wide,
    }
}

/// Whether secret data can influence running time at all: a high-tainted
/// branch, or a value-dependent call cost fed by high data.
fn has_secret_influence(f: &Function, taint: &blazer_taint::TaintReport) -> bool {
    if taint.any_high_branch() {
        return true;
    }
    for (bid, block) in f.iter_blocks() {
        for inst in &block.insts {
            if let Inst::Call { args, cost: CallCost::Linear { arg, .. }, .. } = inst {
                if let Some(op) = args.get(*arg) {
                    if let Some(v) = op.as_var() {
                        if taint.var_taint_at_exit(bid, v).any().is_high() {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// The tainted-branch symbol table feeding trail annotation.
fn branch_syms(
    f: &Function,
    alphabet: &EdgeAlphabet,
    taint: &blazer_taint::TaintReport,
) -> Vec<BranchSyms> {
    let mut out = Vec::new();
    for (bid, block) in f.iter_blocks() {
        let Terminator::Branch { then_bb, else_bb, .. } = &block.term else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let Some(taint_val) = taint.branch_taint(bid) else { continue };
        let from = NodeId::block(bid);
        out.push(BranchSyms {
            then_sym: alphabet.sym(blazer_ir::Edge::new(from, NodeId::block(*then_bb))),
            else_sym: alphabet.sym(blazer_ir::Edge::new(from, NodeId::block(*else_bb))),
            taint: taint_val,
        });
    }
    out
}

/// Convenience: search for a concrete witness pair for an outcome's attack
/// specification (None for non-attack verdicts or when the search fails).
/// Witness costs are measured under the outcome's own cost model, so the
/// concrete stopwatch agrees with the symbolic bounds that claimed the
/// attack.
pub fn concretize_outcome(
    program: &Program,
    outcome: &AnalysisOutcome,
    attempts: u32,
) -> Option<(Vec<Value>, Vec<Value>)> {
    let Verdict::Attack(spec) = &outcome.verdict else { return None };
    crate::attack::concretize(
        program,
        &outcome.function,
        Some(spec),
        &outcome.cost_model,
        0,
        attempts,
        0xB1A2,
    )
    .map(|w| (w.inputs_a, w.inputs_b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazer_lang::compile;

    fn analyze(src: &str, func: &str, config: Config) -> AnalysisOutcome {
        let p = compile(src).unwrap();
        Blazer::new(config).analyze(&p, func).unwrap()
    }

    #[test]
    fn outcome_records_the_configured_cost_model() {
        // Every consumer (attack concretization, reports, the serve layer)
        // reads the model from the outcome, so the driver must thread the
        // one Config source through rather than re-defaulting to unit.
        let src = "fn f(h: int #high) { if (h > 0) { tick(2); } else { tick(2); } }";
        let weighted = blazer_ir::cost::CostModel::weighted();
        let out = analyze(src, "f", Config::microbench().with_cost_model(weighted.clone()));
        assert_eq!(out.cost_model, weighted);
        let out = analyze(src, "f", Config::microbench());
        assert_eq!(out.cost_model, blazer_ir::cost::CostModel::unit());
    }

    #[test]
    fn example1_safe_with_single_component() {
        // Sec. 2 Example 1: balanced high branch, one partition suffices.
        let src = "fn foo(high: int #high, low: int) { \
            if (high == 0) { \
                let i: int = 0; \
                while (i < low) { i = i + 1; } \
            } else { \
                let i: int = low; \
                while (i > 0) { i = i - 1; } \
            } \
        }";
        let out = analyze(src, "foo", Config::microbench());
        assert!(out.verdict.is_safe(), "{}", out.render_tree(&compile(src).unwrap()));
    }

    #[test]
    fn example2_needs_low_split() {
        // Sec. 2 Example 2: split at low > 0.
        let src = "fn bar(high: int #high, low: int) { \
            if (low > 0) { \
                let i: int = 0; \
                while (i < low) { i = i + 1; } \
                while (i > 0) { i = i - 1; } \
            } else { \
                if (high == 0) { let i: int = 5; i = i; } else { let i: int = 0; i = i + 1; } \
            } \
        }";
        let out = analyze(src, "bar", Config::microbench());
        assert!(out.verdict.is_safe());
        assert!(out.tree.len() >= 3, "a taint split must have happened");
    }

    #[test]
    fn nosecret_fast_path() {
        let src = "fn f(low: int) { let i: int = 0; while (i < low) { i = i + 1; } }";
        let out = analyze(src, "f", Config::microbench());
        assert!(out.verdict.is_safe());
        assert_eq!(out.tree.len(), 1);
        assert!(out.attack_time.is_none());
    }

    #[test]
    fn unbalanced_high_branch_yields_attack() {
        let src = "fn f(high: int #high, low: int) { \
            if (high == 0) { tick(1); } else { \
                let i: int = 0; \
                while (i < low) { i = i + 1; } \
            } \
        }";
        let out = analyze(src, "f", Config::microbench());
        assert!(out.verdict.is_attack(), "verdict: {}", out.verdict);
        assert!(out.attack_time.is_some());
        // The attack spec names two distinct sibling trails.
        let Verdict::Attack(spec) = &out.verdict else { unreachable!() };
        assert_ne!(spec.node_a, spec.node_b);
    }

    #[test]
    fn attack_concretizes_to_witness_inputs() {
        let src = "fn f(high: int #high, low: int) { \
            if (high == 0) { tick(1); } else { \
                let i: int = 0; \
                while (i < 30) { i = i + 1; } \
            } \
        }";
        let p = compile(src).unwrap();
        let out = Blazer::new(Config::microbench()).analyze(&p, "f").unwrap();
        assert!(out.verdict.is_attack());
        let (a, b) = concretize_outcome(&p, &out, 300).expect("witness exists");
        assert_eq!(a[1], b[1], "low inputs agree");
    }

    #[test]
    fn secret_dependent_loop_bound_is_safe_when_tight() {
        // loopAndBranch-style: running time is an exact function of high,
        // so lower == upper and the width is secret-independent.
        let src = "fn f(high: int #high, low: int) { \
            if (low < 0) { \
                let i: int = high; \
                while (i > 0) { i = i - 1; } \
            } else { \
                let j: int = high; \
                while (j > 0) { j = j - 1; } \
            } \
        }";
        let out = analyze(src, "f", Config::microbench());
        assert!(
            out.verdict.is_safe(),
            "tight secret-dependent bounds are narrow:\n{}",
            analyze(src, "f", Config::microbench())
                .tree
                .render(&|lo, hi| format!("[{lo}, {:?}]", hi.map(|h| h.to_string())))
        );
    }

    #[test]
    fn sec7_ex2_compensating_branches_safe() {
        // Related-work ex2: both branches on high cost the same.
        let src = "fn f(h: int #high, x: int) { \
            if (h > x) { tick(1); } else { tick(1); } \
            if (h <= x) { tick(1); } else { tick(1); } \
        }";
        let out = analyze(src, "f", Config::microbench());
        assert!(out.verdict.is_safe());
    }

    #[test]
    fn sec7_ex1_dead_high_loop_safe() {
        // Related-work ex1: `if false { while (h < x) h++ }`.
        let src = "fn f(x: int, h: int #high) { \
            let c: int = 0; \
            if (c == 1) { \
                while (h < x) { h = h + 1; } \
            } \
        }";
        let out = analyze(src, "f", Config::microbench());
        assert!(out.verdict.is_safe());
    }

    #[test]
    fn unknown_function_errors() {
        let p = compile("fn f() { }").unwrap();
        let e = Blazer::new(Config::microbench()).analyze(&p, "g").unwrap_err();
        assert_eq!(e, CoreError::NoSuchFunction("g".into()));
    }

    #[test]
    fn disabled_attack_synthesis_returns_unknown() {
        let src = "fn f(high: int #high) { \
            if (high == 0) { tick(1); } else { tick(100); } \
        }";
        let mut config = Config::microbench();
        config.synthesize_attack = false;
        let out = analyze(src, "f", config);
        assert!(matches!(out.verdict, Verdict::Unknown(UnknownReason::AttackSynthesisDisabled)));
    }

    #[test]
    fn config_builders() {
        let c = Config::microbench()
            .with_domain(DomainKind::Zone)
            .with_max_trails(7)
            .with_observer(blazer_bounds::Observer::stac());
        assert_eq!(c.domain, DomainKind::Zone);
        assert_eq!(c.max_trails, 7);
        assert!(matches!(c.observer, blazer_bounds::Observer::ConcreteThreshold { .. }));
    }

    #[test]
    fn zone_domain_verdicts_on_simple_cases() {
        // The weaker zone domain still verifies difference-shaped cases.
        let src = "fn f(high: int #high, low: int) {             if (high == 0) {                 let i: int = 0;                 while (i < low) { i = i + 1; }             } else {                 let i: int = low;                 while (i > 0) { i = i - 1; }             }         }";
        let p = blazer_lang::compile(src).unwrap();
        let out = Blazer::new(Config::microbench().with_domain(DomainKind::Zone))
            .analyze(&p, "f")
            .unwrap();
        assert!(out.verdict.is_safe(), "{}", out.verdict);
    }

    #[test]
    fn outcome_rendering_names_variables() {
        let src = "fn f(guess: array, high: int #high) { \
            let i: int = 0; \
            while (i < len(guess)) { i = i + 1; } \
            if (high > 0) { tick(1); } else { tick(1); } \
        }";
        let p = compile(src).unwrap();
        let out = Blazer::new(Config::microbench()).analyze(&p, "f").unwrap();
        assert!(out.verdict.is_safe());
        let rendering = out.render_tree(&p);
        assert!(rendering.contains("guess.len"), "{rendering}");
    }
}
