// Coverage-guided, generation-scheduled trial generation (ROADMAP
// "Feedback-guided trial generation").
//
// The flat trial space of one instance is partitioned into generations of
// `generation_size` consecutive trials.  Generation 0 draws exactly today's
// pure (seed, trial) samples; generation N draws by deterministically
// mutating parents from the *corpus through generation N-1* — the trials
// whose original-side coverage added new def-use pairs when scanned in
// canonical ascending order (see feedback/corpus.h).  Every draw is a pure
// function of (sampler seed, trial index, corpus digest through the
// previous generation), and the corpus itself is a pure function of the
// job, so guided scheduling preserves byte-identical reports and corpora at
// any thread, shard or worker count (docs/ARCHITECTURE.md clause 10).
//
// The generation barrier is *derivational*, not an execution barrier: a
// worker (or shard) that needs generation N inputs before earlier trials
// ran locally derives the missing coverage itself, by re-executing the
// original side of those trials under a private coverage-instrumented
// interpreter — the same bitmaps any other process records (tier
// invariance), so shards never need to communicate mid-run.  Coverage
// donated by trials executed in-process (note_trial) makes that re-execution
// the cold path.
#pragma once

/// \file
/// InstanceFeedback: per-instance corpus derivation, deterministic
/// generation-scheduled sampling, and the coverage counters reports carry.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "core/constraints.h"
#include "core/sampler.h"
#include "feedback/corpus.h"
#include "feedback/coverage.h"
#include "interp/interpreter.h"

namespace ff::core {

/// Per-instance feedback state: the canonical corpus scan, the parent pool
/// mutations draw from, and the private interpreter that fills coverage
/// gaps.  Thread-safe; every operation serializes on one instance-local
/// mutex (operations are per-trial, not per-point).
class InstanceFeedback {
public:
    /// `original`, `input_config`, `constraints` and `sampler` are captured
    /// by reference and must outlive this object (they live in the prepared
    /// instance job).  `exec` configures the private derivation interpreter
    /// and must match the audit's trial interpreters (with coverage on) so
    /// derived bitmaps equal recorded ones.  It runs over `plans`, the
    /// instance's plan cache the trial testers share (nullptr creates a
    /// private cache).
    InstanceFeedback(const ir::SDFG& original, const std::set<std::string>& input_config,
                     const Constraints& constraints, const InputSampler& sampler,
                     interp::ExecConfig exec, int generation_size, std::int64_t instance,
                     interp::PlanCachePtr plans = nullptr);

    /// The guided input configuration of `trial`: generation 0 (or an empty
    /// parent pool) falls back to the sampler's pure (seed, trial) draw;
    /// otherwise a deterministic mutation of a corpus parent.  Derives the
    /// corpus through the previous generation first (see class comment).
    /// Throws what InputSampler::sample throws (unresolvable shapes); the
    /// caller records the trial as uninteresting.
    interp::Context sample_trial(std::int64_t trial);

    /// Donates an executed trial's original-side coverage (empty when the
    /// original rejected the input) so the corpus scan can skip re-deriving
    /// it.  Idempotent; donations for already-scanned trials are ignored.
    void note_trial(std::int64_t trial, const std::vector<std::uint64_t>& coverage);

    /// Advances the corpus scan through the first `trial_limit` trials
    /// (re-executing any trial without a donation).  finalize calls this
    /// with the instance's full trial count before reading the corpus.
    void derive_through(std::int64_t trial_limit);

    /// Corpus entries derived so far (canonical ascending-trial order).
    std::vector<feedback::CorpusEntry> entries() const;

private:
    /// Records generation-boundary snapshots the scan has reached.  Caller
    /// holds mutex_.
    void sync_boundaries();
    /// One step of the canonical corpus scan (trial == scanned_).  Caller
    /// holds mutex_.
    void scan_one();
    /// The guided draw of `trial`; requires the boundary snapshot of its
    /// generation.  Caller holds mutex_.
    interp::Context draw(std::int64_t trial) const;
    /// Original-side coverage of `trial` with inputs `ctx`: the donation if
    /// one exists, else a re-execution under the private interpreter.
    /// Caller holds mutex_.
    std::vector<std::uint64_t> coverage_of(std::int64_t trial, const interp::Context& ctx);

    const ir::SDFG& original_;
    const std::set<std::string>& input_config_;
    const Constraints& constraints_;
    const InputSampler& sampler_;
    const int generation_size_;
    const std::int64_t instance_;

    mutable std::mutex mutex_;
    interp::Interpreter interp_;  ///< Private derivation interpreter.
    std::shared_ptr<const feedback::CovAtlas> atlas_;
    feedback::CoverageMap run_map_;  ///< Scratch bitmap for re-executions.
    feedback::CoverageMap cum_map_;  ///< Cumulative map of the corpus scan.
    std::int64_t scanned_ = 0;       ///< Trials folded into the scan so far.
    std::uint32_t digest_ = 0;       ///< Rolling digest over entries_.
    /// Snapshot per generation g: (digest, entry count) of the corpus
    /// through generation g-1 — what generation g's draws are parameterized
    /// by.  boundary_[0] == (0, 0).
    std::vector<std::pair<std::uint32_t, std::size_t>> boundary_;
    std::vector<feedback::CorpusEntry> entries_;  ///< Canonical corpus so far.
    std::vector<interp::Context> parents_;        ///< entries_[i]'s exact inputs.
    /// Donated coverage by trial index (empty vector = ran, no coverage).
    std::map<std::int64_t, std::vector<std::uint64_t>> donated_;
};

}  // namespace ff::core
