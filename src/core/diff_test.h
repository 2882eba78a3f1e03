// Differential testing of a cutout against its transformed version (Sec. 5).
//
// A trial runs the same input configuration through both programs and
// compares the system state.  Instances whose cutouts are equal share an
// OriginalMemo, so the original side of a trial runs once per cutout class.
// Verdict taxonomy mirrors the paper:
//  * SemanticsChanged — system state differs beyond the threshold (or
//    bitwise when threshold <= 0);
//  * TransformedCrash / TransformedHang — "the transformed program crashes
//    or hangs while the original does not";
//  * InvalidCode — the transformation raised while being applied, or
//    produced a graph that fails validation (Table 2's third class);
//  * Uninteresting — the *original* cutout rejected the input (both-crash
//    trials are resampled, not reported).
#pragma once

/// \file
/// Differential execution contexts: verdicts, the original-side memo of a
/// cutout class, and the reusable instance-switchable DifferentialTester.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/digest.h"
#include "feedback/coverage.h"
#include "interp/interpreter.h"
#include "ir/sdfg.h"

namespace ff::core {

/// Classification of one trial (or one whole instance), mirroring the
/// paper's failure taxonomy (Table 2).
enum class Verdict {
    Pass,              ///< System state matched within the threshold.
    SemanticsChanged,  ///< System state differs beyond the threshold.
    TransformedCrash,  ///< Transformed side crashed; original did not.
    TransformedHang,   ///< Transformed side exceeded the transition budget.
    InvalidCode,       ///< apply() raised, or the result fails validation.
    Uninteresting,     ///< The *original* rejected the input; resampled.
    /// Transformed side exhausted a deterministic resource budget
    /// (interp::ExecConfig::max_points / max_alloc_bytes) that the original
    /// stayed within.  A failing verdict: like a hang, it is a pure function
    /// of (program, inputs, budget), so reports stay byte-identical at any
    /// parallelism — budgets are part of the job key.
    ResourceExhausted,
};

/// Number of Verdict enum values — lets tests iterate the enum exhaustively
/// (the name<->value round-trip must cover every verdict).  Keep in sync
/// with the last enumerator above.
inline constexpr int kVerdictCount = static_cast<int>(Verdict::ResourceExhausted) + 1;

/// Stable lower-case name of `v` (used in reports and artifacts).
const char* verdict_name(Verdict v);

/// Inverse of verdict_name (test-case and shard-record deserialization);
/// throws common::Error for unknown names.
Verdict verdict_from_name(const std::string& name);

/// Result of one differential trial.
struct TrialOutcome {
    Verdict verdict = Verdict::Pass;  ///< Classification of the trial.
    std::string detail;               ///< Human-readable mismatch/crash info.
    /// Per-side execution cost (interp::ExecResult's counters), captured
    /// only for a side that completed Ok — error-path counts can differ
    /// between execution tiers and must never enter the record stream.
    /// These seed the performance-differential verdict class (ROADMAP).
    std::int64_t original_points = 0;
    std::int64_t original_instructions = 0;
    std::int64_t transformed_points = 0;
    std::int64_t transformed_instructions = 0;
    /// Original-side def-use coverage of the trial (trimmed words, see
    /// feedback/coverage.h), captured only when the tester's
    /// ExecConfig::coverage is set and the original completed Ok — like the
    /// cost counters, error-path coverage never enters the record stream.
    /// Tier-invariant, so it rides records without breaking byte-identical
    /// merges (docs/ARCHITECTURE.md clause 10).
    std::vector<std::uint64_t> coverage;
};

/// Comparison and execution parameters of the differential tester.
struct DiffConfig {
    /// Relative/absolute comparison threshold; <= 0 means bitwise (Sec. 5.1,
    /// default 1e-5 as in the paper).
    double threshold = 1e-5;
    interp::ExecConfig exec;  ///< Interpreter settings for both sides.
};

/// Outcome of validating a transformed graph, computable once and shared
/// across every execution context that fuzzes the same instance.
struct ValidationResult {
    bool valid = true;  ///< Whether the transformed graph validated.
    std::string error;  ///< Validation failure message when !valid.

    /// Validates `transformed`, capturing the exception message on failure.
    static ValidationResult of(const ir::SDFG& transformed);
};

/// Counters of the original-side memos (see OriginalMemo).  A memoized trial
/// is a hit or a miss; a fallback is a hit that re-ran the original side.
struct MemoStats {
    /// Trials whose original side the memo answered: an entry with the
    /// trial's input digest was there.
    std::int64_t hits = 0;
    /// Trials of a memoized instance that found no entry with their input
    /// digest and ran the original side (the first one publishes it).
    std::int64_t misses = 0;
    /// Hits whose transformed system state did not match the entry's
    /// digests, so the original side re-ran for the exact comparison.
    std::int64_t fallbacks = 0;

    MemoStats& operator+=(const MemoStats& o) {
        hits += o.hits;
        misses += o.misses;
        fallbacks += o.fallbacks;
        return *this;
    }
    MemoStats& operator-=(const MemoStats& o) {
        hits -= o.hits;
        misses -= o.misses;
        fallbacks -= o.fallbacks;
        return *this;
    }
};

/// The original side's results per trial, shared by the instances of one
/// cutout class.  Instances whose cutouts are equal (program, input
/// configuration and system state) run the same original side on the same
/// trial inputs, so the first tester to run a trial publishes what that side
/// produced and every other member's tester reuses it.  An entry holds
/// digests, not buffers: the trial's input digest, the ExecResult, the
/// coverage words and, per system-state container, its presence and content
/// digest.  A pure-function cache, so it outlives run ranges and
/// reset_trials().  Thread-safe: an entry is immutable once published and
/// lives as long as the memo, and the first writer of a trial wins.
class OriginalMemo {
public:
    /// What the original side did on one trial's inputs.
    struct Entry {
        common::Digest128 inputs;  ///< Digest of the input configuration.
        interp::ExecStatus status = interp::ExecStatus::Ok;
        std::string message;            ///< ExecResult::message.
        std::int64_t points = 0;        ///< ExecResult::points.
        std::int64_t instructions = 0;  ///< ExecResult::instructions.
        std::vector<std::uint64_t> coverage;  ///< Trimmed words (instrumented runs).
        /// Per system-state container, in set order: its content digest, or
        /// nullopt when the original side did not produce it.
        std::vector<std::optional<common::Digest128>> state;
    };

    /// A memo for trials [0, trials).
    explicit OriginalMemo(int trials);

    /// The entry of `trial` when one was published for inputs with digest
    /// `inputs` (a hit), else nullptr (a miss).
    const Entry* lookup(int trial, const common::Digest128& inputs);
    /// Publishes `entry` as trial `trial`'s unless one is there already.
    void publish(int trial, Entry entry);
    /// Counts a hit that had to re-run the original side.
    void note_fallback();
    /// Counters since construction.
    MemoStats stats() const;

private:
    mutable std::mutex mutex_;  ///< Guards entries_ and stats_.
    std::vector<std::unique_ptr<const Entry>> entries_;  ///< Per trial.
    MemoStats stats_;
};

/// A reusable differential-execution context: one interpreter, with its
/// scratch arena, that runs both sides of every trial.
///
/// A tester is *bound* to one transformation instance — an (original,
/// transformed, system-state, plan-cache) tuple — and runs any number of
/// trials against it.  Binding is switchable: each worker slot of the
/// audit-wide pool owns one tester and rebinds it when its worker moves to a
/// different instance, so interpreter scratch allocations are reused across
/// the whole audit instead of being rebuilt per instance (see core::Fuzzer).
class DifferentialTester {
public:
    /// Unbound tester: interpreter and scratch only.  bind() must be called
    /// before run_trial().
    explicit DifferentialTester(DiffConfig config = {});

    /// Bound tester over `original` vs `transformed` (kept by reference —
    /// both must outlive the tester or its next bind()).  Validates
    /// `transformed` once up front (pass `prevalidated` to reuse a
    /// ValidationResult computed elsewhere instead of re-walking the graph).
    /// `plan_cache` may be shared with other testers over the same SDFG
    /// pair — the parallel fuzzer binds every worker's tester of one
    /// instance to one cache, so state plans and compiled tasklet programs
    /// are built once, not per thread (nullptr creates a private cache).
    DifferentialTester(const ir::SDFG& original, const ir::SDFG& transformed,
                       std::set<std::string> system_state, DiffConfig config = {},
                       interp::PlanCachePtr plan_cache = nullptr,
                       const ValidationResult* prevalidated = nullptr);

    /// Not copyable/movable: a bound tester may point into its own
    /// owned_system_state_, which a generated copy would leave dangling.
    /// The scheduler holds its per-worker testers via unique_ptr.
    DifferentialTester(const DifferentialTester&) = delete;
    DifferentialTester& operator=(const DifferentialTester&) = delete;

    /// Rebinds this tester to a different instance.  The interpreter keeps
    /// its scratch arena but swaps plan caches, so steady state is as fast
    /// as a freshly constructed tester's.  `original`, `transformed` and
    /// `system_state` are captured by reference and must outlive the
    /// binding; `prevalidated` (when given) is copied.  `memo`
    /// (when given) is the original-side memo of the instance's cutout class
    /// and must outlive the binding too.
    void bind(const ir::SDFG& original, const ir::SDFG& transformed,
              const std::set<std::string>& system_state, interp::PlanCachePtr plan_cache,
              const ValidationResult* prevalidated = nullptr, OriginalMemo* memo = nullptr);

    /// Whether the bound transformed graph passed validation.
    bool transformed_valid() const { return validation_.valid; }

    /// Runs one trial on a sampled input configuration.  Requires a bound
    /// instance (common::Error otherwise).  With a bound memo, `trial` (the
    /// trial's index) selects its entry: a hit skips the original side, and
    /// a transformed system state that does not match the entry's digests
    /// re-runs it for the exact comparison, so the outcome is always the one
    /// a tester without a memo returns.  -1 bypasses the memo.
    TrialOutcome run_trial(const interp::Context& inputs, int trial = -1);

private:
    const ir::SDFG* original_ = nullptr;     ///< Bound original side.
    const ir::SDFG* transformed_ = nullptr;  ///< Bound transformed side.
    /// Bound system-state container set (points at owned_system_state_ when
    /// constructed with an owning set).
    const std::set<std::string>* system_state_ = nullptr;
    std::set<std::string> owned_system_state_;  ///< Backing for the owning ctor.
    DiffConfig config_;                         ///< Comparison + exec settings.
    ValidationResult validation_;               ///< Of the bound transformed graph.
    OriginalMemo* memo_ = nullptr;              ///< The bound cutout class's memo.
    interp::Interpreter interp_;                ///< Runs both sides.
    /// Coverage instrumentation of the bound original side (only populated
    /// when config_.exec.coverage): the shared atlas keys the per-trial
    /// bitmap the interpreter marks into while the original side runs.
    std::shared_ptr<const feedback::CovAtlas> atlas_;
    feedback::CoverageMap cov_map_;  ///< Reset per trial, read after Ok runs.
};

}  // namespace ff::core
