// Shared, thread-safe cache for compiled execution artifacts.
//
// The parallel trial engine runs one interpreter per worker thread over a
// *shared, immutable* SDFG pair.  Everything derived from the graphs —
// parsed/compiled tasklet programs, per-state StatePlans, and the interned
// symbol table their expressions are lowered against — is input-independent
// and therefore shared through this cache:
//
//  * Plans are built once under a lock (builds are serialized; the build is
//    cheap and happens once per state per mutation epoch).
//  * There is no per-interpreter memo: an interpreter asks the cache once
//    per state execution, taking its lock for one map lookup, and holds the
//    returned shared_ptr while the state runs.
//  * Cache keys carry the SDFG's plan uid and mutation epoch, so applying a
//    transformation (which bumps the epoch via Transformation::apply)
//    naturally invalidates without any cross-thread coordination, and
//    address reuse across destroyed graphs can never alias.  Direct IR
//    mutation bypassing Transformation::apply must bump the epoch manually
//    (see ir::SDFG::mutation_epoch) or warm interpreters serve stale plans.
//
// A default-constructed Interpreter creates a private cache; callers that
// fan trials out across threads construct one PlanCache and hand it to every
// interpreter.  The audit-wide scheduler (core::Fuzzer::audit) gives each
// prepared transformation instance one cache, shared by every worker bound
// to the instance and by its feedback derivation, and kept as long as the
// prepared audit.
#pragma once

/// \file
/// Shared, thread-safe cache for compiled execution artifacts (PlanCache).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>

#include "interp/tasklet_lang.h"
#include "symbolic/interned.h"

namespace ff::feedback {
class CovAtlas;
}

namespace ff::ir {
class SDFG;
class State;
}

namespace ff::interp {

struct StatePlan;

/// Identity of one state's plan: (SDFG uid, mutation epoch, state address).
using PlanKey = std::tuple<std::uint64_t, std::uint64_t, const ir::State*>;

/// Specialization counters of one plan cache (see docs/TUNING.md).
///
/// The plan-time fields count classification outcomes — how many map scopes
/// launch a flat-stride band (and of those, how many are segment-eligible)
/// and how many tasklets took the F64 signature (and of those, how many
/// read a window lowered to taps) — once per built StatePlan.  The runtime
/// fields count kernel launches, one per band launch: a *fallback* is a
/// launch whose per-execution validation (rank,
/// footprint, or a nest's budget and nested extents) handed it back to the
/// generic odometer; a *segment launch* is a committed launch that ran the
/// batched vertical VM instead of the per-point kernel loop.  Counter
/// values never influence results; they exist for benchmarks and tuning.
struct SpecStats {
    std::int64_t scopes_planned = 0;      ///< Map scopes classified.
    std::int64_t scopes_specialized = 0;  ///< ... that carry a flat-stride kernel.
    std::int64_t scopes_segmented = 0;    ///< ... whose kernel is segment-eligible.
    std::int64_t tasklets_planned = 0;    ///< Tasklet plans built.
    std::int64_t tasklets_f64 = 0;        ///< ... selecting the F64 signature.
    std::int64_t tasklets_window = 0;     ///< ... of which read a window through taps.
    std::int64_t kernel_launches = 0;     ///< Flat-stride executions committed.
    std::int64_t kernel_fallbacks = 0;    ///< Launches revalidated onto the generic path.
    std::int64_t segment_launches = 0;    ///< Committed launches that ran batched segments.
    std::int64_t kernel_points = 0;       ///< Band points of committed launches.
    std::int64_t segment_points = 0;      ///< ... of which ran batched.
    std::int64_t nest_launches = 0;       ///< Committed launches spanning a nested scope.
    std::int64_t prefix_launches = 0;     ///< Committed launches below generic prefix levels.
    /// Batched launches that ran the levels below the batch level in order
    /// inside each lane (reductions batched along their output axis).
    std::int64_t band_segment_launches = 0;
    /// Committed nest launches whose nested scope walked its own prefix
    /// levels into runs (tiled reductions).
    std::int64_t run_launches = 0;

    /// Field-wise accumulation (totals over many caches).
    SpecStats& operator+=(const SpecStats& o) {
        scopes_planned += o.scopes_planned;
        scopes_specialized += o.scopes_specialized;
        scopes_segmented += o.scopes_segmented;
        tasklets_planned += o.tasklets_planned;
        tasklets_f64 += o.tasklets_f64;
        tasklets_window += o.tasklets_window;
        kernel_launches += o.kernel_launches;
        kernel_fallbacks += o.kernel_fallbacks;
        segment_launches += o.segment_launches;
        kernel_points += o.kernel_points;
        segment_points += o.segment_points;
        nest_launches += o.nest_launches;
        prefix_launches += o.prefix_launches;
        band_segment_launches += o.band_segment_launches;
        run_launches += o.run_launches;
        return *this;
    }

    /// Field-wise difference (growth since an earlier snapshot).
    SpecStats& operator-=(const SpecStats& o) {
        scopes_planned -= o.scopes_planned;
        scopes_specialized -= o.scopes_specialized;
        scopes_segmented -= o.scopes_segmented;
        tasklets_planned -= o.tasklets_planned;
        tasklets_f64 -= o.tasklets_f64;
        tasklets_window -= o.tasklets_window;
        kernel_launches -= o.kernel_launches;
        kernel_fallbacks -= o.kernel_fallbacks;
        segment_launches -= o.segment_launches;
        kernel_points -= o.kernel_points;
        segment_points -= o.segment_points;
        nest_launches -= o.nest_launches;
        prefix_launches -= o.prefix_launches;
        band_segment_launches -= o.band_segment_launches;
        run_launches -= o.run_launches;
        return *this;
    }
};

/// Thread-safe cache of the compiled artifacts derived from one (or more)
/// immutable SDFGs: per-state StatePlans, content-keyed tasklet programs,
/// and the interned symbol table every plan is lowered against.  Shared by
/// all interpreters that execute the same program pair concurrently.
class PlanCache {
public:
    /// Interned symbol table every plan in this cache is lowered against.
    /// Thread-safe (see sym::SymbolTable).
    sym::SymbolTable& symbols() { return symbols_; }

    /// Plan for `key`, building it via `build` under the cache lock when
    /// missing.  The returned plan is immutable and shared; the handle keeps
    /// it alive after an eviction.  A miss first evicts plans of the same
    /// SDFG from older mutation epochs — they can never be requested again
    /// (epochs only grow) and hold pointers into the pre-mutation graph, so
    /// a long-lived cache reused across many transformations stays bounded.
    template <typename BuildFn>
    std::shared_ptr<const StatePlan> get_or_build(const PlanKey& key, BuildFn&& build) {
        std::lock_guard<std::mutex> lock(plans_mutex_);
        auto it = plans_.find(key);
        if (it == plans_.end()) {
            evict_stale_epochs(key);
            it = plans_.emplace(key, std::make_shared<const StatePlan>(build())).first;
        }
        return it->second;
    }

    /// Parsed+compiled tasklet program for `code`, cached by content.
    TaskletProgramPtr program_for(const std::string& code);

    /// Def-use pair atlas of `sdfg` (see feedback/coverage.h), built once
    /// per (plan uid, mutation epoch) under a lock and shared — the atlas is
    /// a pure function of the graph, so every interpreter and every thread
    /// sees the same dense pair ids.  Stale-epoch atlases are evicted on the
    /// next miss, mirroring plan eviction.
    std::shared_ptr<const feedback::CovAtlas> atlas_for(const ir::SDFG& sdfg);

    /// Accumulates plan-time classification counts (once per built plan;
    /// called from inside the build callback, so effectively serialized).
    void note_classification(std::int64_t scopes, std::int64_t specialized,
                             std::int64_t segmented, std::int64_t tasklets,
                             std::int64_t f64, std::int64_t window) {
        scopes_planned_.fetch_add(scopes, std::memory_order_relaxed);
        scopes_specialized_.fetch_add(specialized, std::memory_order_relaxed);
        scopes_segmented_.fetch_add(segmented, std::memory_order_relaxed);
        tasklets_planned_.fetch_add(tasklets, std::memory_order_relaxed);
        tasklets_f64_.fetch_add(f64, std::memory_order_relaxed);
        tasklets_window_.fetch_add(window, std::memory_order_relaxed);
    }

    /// Counts one launch that per-execution validation handed back to the
    /// generic odometer.  Called once per band launch (not per point), so
    /// the relaxed atomics are off the per-point hot path.
    void note_kernel_fallback() { kernel_fallbacks_.fetch_add(1, std::memory_order_relaxed); }

    /// What one committed band launch ran.
    struct Launch {
        std::int64_t points = 0;  ///< Band points.
        bool nest = false;        ///< The band spans a nested scope.
        bool prefix = false;      ///< Launched below generic prefix levels.
        bool runs = false;        ///< The nest walked a nested prefix into runs.
        bool batched = false;     ///< Ran the batched vertical VM ...
        bool sequential = false;  ///< ... with levels below the batch level.
    };
    /// Counts one committed band launch.
    void note_kernel_launch(const Launch& l) {
        constexpr auto relaxed = std::memory_order_relaxed;
        kernel_launches_.fetch_add(1, relaxed);
        kernel_points_.fetch_add(l.points, relaxed);
        if (l.nest) nest_launches_.fetch_add(1, relaxed);
        if (l.prefix) prefix_launches_.fetch_add(1, relaxed);
        if (l.runs) run_launches_.fetch_add(1, relaxed);
        if (!l.batched) return;
        segment_launches_.fetch_add(1, relaxed);
        segment_points_.fetch_add(l.points, relaxed);
        if (l.sequential) band_segment_launches_.fetch_add(1, relaxed);
    }

    /// Snapshot of the counters.
    SpecStats spec_stats() const {
        SpecStats s;
        s.scopes_planned = scopes_planned_.load(std::memory_order_relaxed);
        s.scopes_specialized = scopes_specialized_.load(std::memory_order_relaxed);
        s.scopes_segmented = scopes_segmented_.load(std::memory_order_relaxed);
        s.tasklets_planned = tasklets_planned_.load(std::memory_order_relaxed);
        s.tasklets_f64 = tasklets_f64_.load(std::memory_order_relaxed);
        s.tasklets_window = tasklets_window_.load(std::memory_order_relaxed);
        s.kernel_launches = kernel_launches_.load(std::memory_order_relaxed);
        s.kernel_fallbacks = kernel_fallbacks_.load(std::memory_order_relaxed);
        s.segment_launches = segment_launches_.load(std::memory_order_relaxed);
        s.kernel_points = kernel_points_.load(std::memory_order_relaxed);
        s.segment_points = segment_points_.load(std::memory_order_relaxed);
        s.nest_launches = nest_launches_.load(std::memory_order_relaxed);
        s.prefix_launches = prefix_launches_.load(std::memory_order_relaxed);
        s.band_segment_launches = band_segment_launches_.load(std::memory_order_relaxed);
        s.run_launches = run_launches_.load(std::memory_order_relaxed);
        return s;
    }

private:
    /// Drops entries with `key`'s SDFG uid and a mutation epoch older than
    /// `key`'s.  Caller holds plans_mutex_.
    void evict_stale_epochs(const PlanKey& key);

    std::mutex plans_mutex_;                                  ///< Guards plans_.
    std::map<PlanKey, std::shared_ptr<const StatePlan>> plans_;  ///< Keyed plans.
    std::mutex atlas_mutex_;  ///< Guards atlases_.
    /// Coverage atlases keyed by (SDFG plan uid, mutation epoch).
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::shared_ptr<const feedback::CovAtlas>>
        atlases_;
    std::mutex programs_mutex_;                               ///< Guards programs_.
    std::unordered_map<std::string, TaskletProgramPtr> programs_;  ///< By content.
    sym::SymbolTable symbols_;  ///< Interned symbols shared by all plans.

    // Specialization counters (see SpecStats).
    std::atomic<std::int64_t> scopes_planned_{0};
    std::atomic<std::int64_t> scopes_specialized_{0};
    std::atomic<std::int64_t> scopes_segmented_{0};
    std::atomic<std::int64_t> tasklets_planned_{0};
    std::atomic<std::int64_t> tasklets_f64_{0};
    std::atomic<std::int64_t> tasklets_window_{0};
    std::atomic<std::int64_t> kernel_launches_{0};
    std::atomic<std::int64_t> kernel_fallbacks_{0};
    std::atomic<std::int64_t> segment_launches_{0};
    std::atomic<std::int64_t> kernel_points_{0};
    std::atomic<std::int64_t> segment_points_{0};
    std::atomic<std::int64_t> nest_launches_{0};
    std::atomic<std::int64_t> prefix_launches_{0};
    std::atomic<std::int64_t> band_segment_launches_{0};
    std::atomic<std::int64_t> run_launches_{0};
};

/// Shared handle to a PlanCache; interpreters hold these, so a cache lives
/// as long as its longest user.
using PlanCachePtr = std::shared_ptr<PlanCache>;

}  // namespace ff::interp
