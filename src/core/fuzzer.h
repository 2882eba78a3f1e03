// The FuzzyFlow pipeline (Fig. 1): change isolation -> cutout extraction ->
// input minimization -> constraint derivation -> differential fuzzing.
//
// Execution model (see docs/ARCHITECTURE.md): audit() prepares every
// transformation instance, then drains one global queue of (instance, trial)
// units with a fixed pool of workers.  Each worker slot owns one execution
// context (one interpreter + scratch), built on its first claim and rebound
// when the worker moves to another instance; each prepared instance owns the
// plan cache its contexts bind to, and instances with equal cutouts share
// one memo of the original side.  Trial inputs are a pure function of
// (seed, trial index) and per-instance results are merged in canonical trial
// order, so reports are byte-identical at any worker count.
#pragma once

/// \file
/// Differential fuzzer (core::Fuzzer): instance preparation and the
/// audit-wide (instance, trial) scheduler.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cutout.h"
#include "core/diff_test.h"
#include "feedback/corpus.h"
#include "core/mincut.h"
#include "core/sampler.h"
#include "transforms/transformation.h"

namespace ff::core {

struct TrialRecord;  // report.h

/// Configuration of one fuzzing run (a single instance or a whole audit).
struct FuzzConfig {
    int max_trials = 100;  ///< "we test each instance ... over 100 trials" (Sec. 6.4)
    /// Workers of the audit-wide trial pool (and of the audit prepare
    /// phase, which fans cutout extraction / min-cut / constraint
    /// derivation of independent instances over the same count).  One pool
    /// serves the whole audit: workers drain a global queue of (instance,
    /// trial) units, so trials of independent instances overlap and there
    /// is no join barrier between instances.  0 = hardware concurrency.
    /// Any value produces
    /// byte-identical FuzzReports: trial inputs are a pure function of
    /// (seed, trial index) and per-instance results are merged in canonical
    /// instance x trial order, so the reported verdict is always the
    /// lowest-indexed failing trial of each instance.
    int num_threads = 1;
    SamplerConfig sampler;  ///< Input-configuration sampling (Sec. 5.1).
    DiffConfig diff;        ///< Comparison threshold + interpreter settings.
    CutoutOptions cutout;   ///< Cutout extraction options (Sec. 3).
    /// Run the minimum input-flow cut (Sec. 4) after extraction.
    bool use_mincut = true;
    /// Baseline mode: skip extraction and test on the whole program
    /// ("traditional approach" in the paper's comparisons).
    bool whole_program = false;
    /// Instrument original-side def-use coverage (src/feedback): reports
    /// gain pairs_total/pairs_hit and records carry coverage words.  Charged
    /// identically by every execution tier, so reports stay byte-identical.
    bool coverage = false;
    /// Coverage-guided trial generation (implies `coverage`): generation N
    /// deterministically mutates the corpus derived from generations < N
    /// (see core/guided.h).  Reports and corpora remain pure functions of
    /// the prepared job — byte-identical at any thread/shard count
    /// (docs/ARCHITECTURE.md clause 10).
    bool feedback = false;
    /// Trials per feedback generation (values < 1 clamp to 1).
    int generation_size = 25;
    /// When non-empty, failing trials dump a reproducer JSON here.
    std::string artifact_dir;
};

/// Result of fuzzing one transformation instance.
struct FuzzReport {
    std::string transformation;     ///< Transformation name.
    std::string match_description;  ///< Which match was tested.
    Verdict verdict = Verdict::Pass;  ///< Lowest-indexed failing trial's verdict.
    int trials = 0;            ///< differential trials executed
    int uninteresting = 0;     ///< resampled trials (original rejected input)
    int threads = 1;           ///< workers of the pool that ran the trials
    /// Wall-clock seconds: instance setup plus the span from the instance's
    /// first claimed trial to its last completed one.  Under the audit-wide
    /// scheduler instances overlap, so per-instance seconds sum to more than
    /// the audit's wall time.
    double seconds = 0.0;
    /// End-to-end executed-trial throughput of this instance — resampled
    /// (uninteresting) trials included, since each runs the original
    /// program; the metric the compiled tasklet engine exists to maximize.
    /// Wall-clock based: under concurrency this is aggregate throughput of
    /// the whole pool, never a sum of per-thread rates.
    double trials_per_second = 0.0;
    std::string detail;         ///< Failure detail of the reported verdict.
    /// Per-side execution cost summed over the counted trials (canonical
    /// merge order, stopping at the first failure like `trials`).  A pure
    /// function of the prepared job, so shard/thread counts never change it
    /// — the first concrete surface of performance-differential verdicts.
    std::int64_t original_points = 0;
    std::int64_t original_instructions = 0;
    std::int64_t transformed_points = 0;
    std::int64_t transformed_instructions = 0;
    /// Def-use coverage of this instance (zero unless the job enabled
    /// coverage): total pairs in the cutout's atlas, distinct pairs hit by
    /// the counted trials (union over the canonical merge, stopping at the
    /// lowest failure like `trials`), and corpus entries derived for the
    /// instance.  All three are pure functions of the prepared job —
    /// byte-identical at any thread/shard/worker count (docs/ARCHITECTURE.md
    /// clause 10).
    std::int64_t pairs_total = 0;
    std::int64_t pairs_hit = 0;
    std::int64_t corpus_size = 0;
    std::string artifact_path;  ///< Saved reproducer (failing instances only).
    /// Why writing the reproducer artifact failed (empty on success or when
    /// no artifact was due).  A failing instance with a configured
    /// `artifact_dir` but an empty `artifact_path` always carries the I/O
    /// error here; the audit table sums these per transformation.
    std::string artifact_error;

    // Cutout metrics.
    std::size_t cutout_nodes = 0;   ///< Dataflow nodes in the cutout.
    std::size_t program_nodes = 0;  ///< Dataflow nodes in the full program.
    std::int64_t input_volume = 0;                ///< elements, after minimization
    std::int64_t input_volume_before_mincut = 0;  ///< elements
    bool mincut_improved = false;        ///< Whether the min cut shrank inputs.
    bool whole_program_cutout = false;   ///< Extraction fell back to whole program.

    /// Whether this instance found a bug (any verdict besides Pass /
    /// Uninteresting).
    bool failed() const {
        return verdict != Verdict::Pass && verdict != Verdict::Uninteresting;
    }
};

/// Counters of the audit-wide scheduler, reset by every audit() /
/// test_instance() call.  `workers` is deterministic; every other field can
/// depend on thread timing (e.g. `units` varies with how many in-flight
/// trials past a failure still ran) — they exist for benchmarks, tuning
/// (docs/TUNING.md) and the context tests.  They only become run-to-run
/// stable at one worker or on failure-free audits, and the launch counters
/// of `spec` and the `memo` counters only at one worker: two workers whose
/// instances share a cutout class can both miss the memo on one trial, and
/// both then run its original side (DifferentialTester::run_trial looks up,
/// runs, then publishes).
struct SchedulerStats {
    int workers = 0;             ///< Pool size after clamping to the unit count.
    std::int64_t units = 0;      ///< (instance, trial) units executed.
    std::int64_t claims = 0;     ///< Scheduler claims (one unit each).
    /// Execution contexts a worker slot constructed on its first claim.
    int contexts_built = 0;
    /// First claims of a range whose slot context was already bound to the
    /// claimed instance (a range that starts where an earlier one ended).
    int context_hits = 0;
    int context_rebinds = 0;     ///< Slot contexts rebound to another instance.
    /// Wall clock of the prepare phase (match discovery, then cutout,
    /// min-cut, transformation application and constraint derivation of
    /// every instance prepared since the stats started; fanned over the
    /// worker pool).  Deterministic in outcome, not value.
    double prepare_seconds = 0.0;
    /// Specialization counters summed over every prepared instance's plan
    /// cache since preparation or the last reset: how many scopes/tasklets
    /// classified into flat-stride kernels / the F64 signature and how the
    /// kernel launches went (see interp::SpecStats and docs/TUNING.md).
    /// Plans are built once per instance, so a range revisiting an instance
    /// plans nothing.  Launch counters scale with executed trials and
    /// include the feedback derivation's re-executions.
    interp::SpecStats spec;
    /// Original-side memo counters since preparation or the last reset:
    /// trials of instances that share their cutout with another instance
    /// (see OriginalMemo).  Trials of the other instances count nowhere.
    MemoStats memo;
};

/// Progress hook of PreparedAudit::run_range: called with `[from, to)` each
/// time the range's completed prefix passes a boundary of its settle grid.
/// Return false to stop the range early.
using SettleFn = std::function<bool(std::int64_t from, std::int64_t to)>;

/// A prepared audit whose trial units can be executed in arbitrary
/// sub-ranges of the global unit space — the entry point cross-process
/// sharding (src/shard) builds on.
///
/// Preparation is a pure function of `(program, passes, config)`: match
/// discovery fixes the canonical instance indexing and the flat unit space
/// `unit = instance * max_trials + trial`, so two processes that prepare
/// the same job agree on both.  The per-instance pipelines (cutout, min-cut,
/// apply, constraints, validation) run only for instances that intersect a
/// requested unit range, each at most once (prepare_range); a full prepare
/// is the range [0, unit_count()).  A shard then executes any contiguous
/// prepared unit range with run_range(); a merger injects records produced
/// elsewhere with set_record(); finalize() performs the canonical-order
/// merge and artifact saving either way.  `Fuzzer::audit` itself is
/// prepare + run_range(0, unit_count()) + finalize().
///
/// run_range() may be called repeatedly; execution contexts, the
/// instances' plan caches and the cutout classes' original-side memos
/// persist across calls, and reset_trials() starts a new run over the same
/// prepared instances (a coordinator worker's next lease of the job).
/// Determinism contract (docs/ARCHITECTURE.md): for a fixed prepared job,
/// the records of every executed unit are byte-identical regardless of how
/// the unit space is cut into ranges, processes, or worker threads.
class PreparedAudit {
public:
    PreparedAudit();   ///< Empty audit (0 instances) — assign over it.
    ~PreparedAudit();  ///< Releases jobs, caches and contexts.
    PreparedAudit(PreparedAudit&&) noexcept;             ///< Movable,
    PreparedAudit& operator=(PreparedAudit&&) noexcept;  ///< not copyable.

    /// Prepared instances, in canonical (match-discovery) order.
    std::size_t instance_count() const;
    /// Trials per instance (= FuzzConfig::max_trials at prepare time).
    int max_trials() const;
    /// Size of the flat unit space: instance_count() * max_trials().
    std::int64_t unit_count() const;

    /// Whether instance `i` has trial units to run (false when the
    /// transformation failed to apply — its report is already final and its
    /// units are skipped by every scheduler — or when it is not prepared).
    bool instance_runnable(std::size_t instance) const;

    /// Runs the per-instance pipelines of every instance that intersects
    /// [unit_begin, unit_end) and is not prepared yet, fanned over the
    /// configured worker pool.  `p` and `passes` must be the program and
    /// pass set match discovery ran on (Fuzzer::prepare); a pass count that
    /// disagrees throws common::Error.
    void prepare_range(const ir::SDFG& p, const std::vector<xform::TransformationPtr>& passes,
                       std::int64_t unit_begin, std::int64_t unit_end);

    /// Executes every unit in [unit_begin, unit_end) with one pool of the
    /// configured workers, recording outcomes into the per-instance trial
    /// slots.  Every instance the range touches must be prepared (else
    /// common::Error).  Failures early-stop later trials of the same
    /// instance (including across subsequent run_range calls); every slot
    /// above an instance's lowest failure ends NotRun.
    ///
    /// With `on_settle`, the range streams: claims are monotonic, so the
    /// completed prefix is the minimum of the claim cursor and the start of
    /// every in-flight claim, and each time that prefix passes a boundary of
    /// the grid `unit_begin + k * settle_interval` (and `unit_end`) the
    /// sub-range's slots are made final — the NotRun rule applied — and
    /// handed to `on_settle`, in order, one call at a time, from whichever
    /// pool thread observed the boundary.  Trials past the boundary keep
    /// running meanwhile.  When `on_settle` returns false the pool stops and
    /// run_range returns; an exception it throws stops the pool and
    /// propagates out of run_range.
    void run_range(std::int64_t unit_begin, std::int64_t unit_end,
                   std::int64_t settle_interval = 0, const SettleFn& on_settle = {});

    /// Forgets every executed trial — slots back to NotRun, lowest-failure
    /// watermarks cleared, trial clocks and scheduler counters restarted —
    /// while keeping the prepared instances, plan caches, execution contexts,
    /// original-side memos and feedback state (pure-function caches of the
    /// original side and of the canonical corpus scan).  A run after the
    /// reset records exactly what a freshly prepared audit would.
    void reset_trials();

    /// Trial slots of instance `i` (empty for non-runnable instances).
    const std::vector<TrialRecord>& records(std::size_t instance) const;

    /// Injects a record produced elsewhere (a shard merger) at flat unit
    /// index `unit`.  Ignored for units of non-runnable instances, whose
    /// reports are final from preparation; the instance must be prepared.
    void set_record(std::int64_t unit, TrialRecord record);

    /// Canonical-order merge of every instance's slots into its FuzzReport
    /// (core::merge_trial_records), saving reproducer artifacts when the
    /// prepare-time config set `artifact_dir`.  Call once, after all
    /// execution/injection, on a fully prepared audit.
    std::vector<FuzzReport> finalize();

    /// Scheduler counters accumulated since preparation (or the last
    /// reset_trials()).
    const SchedulerStats& stats() const;

    /// The audit's merged corpus: every instance's feedback corpus entries
    /// concatenated in canonical (instance, trial) order.  Empty unless the
    /// prepare-time config enabled `feedback`; call after finalize() (which
    /// completes each instance's corpus derivation).  A pure function of the
    /// prepared job — byte-identical across shard/thread counts.
    std::vector<feedback::CorpusEntry> corpus() const;

private:
    friend class Fuzzer;
    struct Impl;
    std::unique_ptr<Impl> impl_;  ///< Prepared jobs + persistent caches.
};

/// Differential fuzzer: tests transformation instances (Sec. 5) and audits
/// whole pass pipelines (Sec. 6.3) over the audit-wide scheduler.
class Fuzzer {
public:
    /// Fuzzer with the given configuration.
    explicit Fuzzer(FuzzConfig config = {}) : config_(config) {}

    /// Current configuration (read-only).
    const FuzzConfig& config() const { return config_; }
    /// Current configuration (mutable; applies to subsequent calls).
    FuzzConfig& config() { return config_; }

    /// Tests one transformation instance on program `p` (p is not mutated;
    /// the transformation is applied to the extracted cutout).  Runs the
    /// same scheduler as audit(), over a single instance's trials.
    FuzzReport test_instance(const ir::SDFG& p, const xform::Transformation& transformation,
                             const xform::Match& match);

    /// Tests every instance of every pass; the Sec. 6.3 audit loop.  All
    /// instances are prepared first (cutout, min-cut, transformation,
    /// constraints — sequential, deterministic order), then one worker pool
    /// drains every (instance, trial) unit.  Reports come back in instance
    /// order and are byte-identical at any num_threads.
    std::vector<FuzzReport> audit(const ir::SDFG& p,
                                  const std::vector<xform::TransformationPtr>& passes);

    /// Runs the prepare phase of audit() and hands back the prepared
    /// instances for ranged unit execution (see PreparedAudit) — the
    /// cross-process sharding entry point.  Match discovery always covers
    /// the whole audit; the per-instance pipelines run for the instances
    /// that intersect [unit_begin, unit_end) (by default all of them).  The
    /// returned audit captures the current config; later config changes do
    /// not affect it.
    PreparedAudit prepare(const ir::SDFG& p, const std::vector<xform::TransformationPtr>& passes,
                          std::int64_t unit_begin = 0,
                          std::int64_t unit_end = std::numeric_limits<std::int64_t>::max());

    /// Scheduler counters of the last audit()/test_instance() call.
    const SchedulerStats& last_stats() const { return stats_; }

private:
    FuzzConfig config_;    ///< Active configuration.
    SchedulerStats stats_;  ///< Counters of the last run.
};

}  // namespace ff::core
