// Shard manifests: the self-contained description of one slice of a
// distributed audit.
//
// A *job* fixes everything the determinism contract keys results on — the
// program (a named workload or a serialized SDFG), the pass set, the
// sampler seed and the trial budget — so any process that loads the same
// JobSpec prepares byte-identical instances and agrees on the flat unit
// space `unit = instance * max_trials + trial`.  The planner partitions
// that space into contiguous ranges; one ShardManifest per range is all a
// worker machine needs (`ffaudit run-shard`).  Execution-only knobs
// (threads, specialization) are deliberately NOT part of the manifest: the
// contract guarantees they cannot change results.
#pragma once

/// \file
/// JobSpec / ShardManifest wire structures and the deterministic shard
/// planner.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/fuzzer.h"
#include "ir/sdfg.h"
#include "transforms/transformation.h"

namespace ff::shard {

/// Version of the manifest and record wire format.  Readers reject files
/// from a different major version instead of mis-parsing them.  Version 2
/// added the per-line "crc" checksum field and the record-stream trailer
/// (see shard/records.h).
constexpr int kFormatVersion = 2;

/// Everything that identifies one audit job across processes.  Two
/// processes with equal JobSpecs prepare identical instances and sample
/// identical trial inputs (docs/ARCHITECTURE.md "Sharded execution").
struct JobSpec {
    /// Named workload (an npbench kernel, see workloads::npbench_kernel_names).
    /// Mutually exclusive with `sdfg_path`.
    std::string workload;
    /// Path to an `ir::to_json` SDFG file.  Mutually exclusive with `workload`.
    std::string sdfg_path;
    /// Named pass set: "table2" (builtin passes with the Table 2 bug
    /// inventory), "correct" (builtin passes, bugs off), "tiling" (a single
    /// correct MapTiling pass — the cheap smoke/test set).
    std::string passes = "table2";
    std::uint64_t seed = 0x5eed;  ///< Sampler seed (SamplerConfig::seed).
    int max_trials = 100;         ///< Trials per instance.
    std::int64_t size_max = 16;   ///< Sampler size bound (SamplerConfig::size_max).
    double threshold = 1e-5;      ///< Differential comparison threshold.
    /// Interpreter transition budget; 0 keeps the interpreter default.
    std::int64_t max_state_transitions = 0;
    /// Map-point fuel per execution (interp::ExecConfig::max_points);
    /// 0 = unlimited.  Budgets are part of the job key: exhaustion is a
    /// deterministic verdict, so two runs only agree byte-for-byte when
    /// they agree on the budgets.
    std::int64_t max_points = 0;
    /// Allocation budget per execution in bytes
    /// (interp::ExecConfig::max_alloc_bytes); 0 = unlimited.
    std::int64_t max_alloc_bytes = 0;
    bool use_mincut = true;  ///< Run the minimum input-flow cut.
    /// Def-use coverage instrumentation (FuzzConfig::coverage).  Part of the
    /// job key: coverage-on records carry a "cov" field and reports carry
    /// pair counters, so two runs only agree byte-for-byte when they agree
    /// on it.  Emitted conditionally so coverage-off manifests keep their
    /// exact historical bytes.
    bool coverage = false;
    /// Coverage-guided generation scheduling (FuzzConfig::feedback; implies
    /// `coverage`).  Also part of the job key — it changes trial inputs.
    bool feedback = false;
    /// Trials per feedback generation (FuzzConfig::generation_size); only
    /// meaningful (and only serialized) when `feedback` is set.
    int generation_size = 25;
    /// Default symbol bindings for cutout volume accounting
    /// (CutoutOptions::defaults); the planner seeds npbench defaults for
    /// workload jobs so manifests are self-contained.
    std::map<std::string, std::int64_t> defaults;

    common::Json to_json() const;                    ///< Wire form.
    static JobSpec from_json(const common::Json& j); ///< Inverse of to_json.

    /// Canonical identity string (compact JSON dump) — two specs describe
    /// the same job iff their keys are equal; the merger refuses to mix
    /// record files with different keys.
    std::string key() const { return to_json().dump(); }
};

/// Loads / rebuilds the job's program; throws common::Error for unknown
/// workloads, unreadable SDFG files or an SDFG symbol the job's defaults
/// leave unbound, common::ValidationError for an SDFG file that fails
/// ir::SDFG::validate().
ir::SDFG load_job_program(const JobSpec& job);

/// Instantiates the job's named pass set; throws common::Error for unknown
/// names.
std::vector<xform::TransformationPtr> job_passes(const JobSpec& job);

/// The FuzzConfig a JobSpec pins down (execution-only knobs left at their
/// defaults for the caller to override).
core::FuzzConfig job_fuzz_config(const JobSpec& job);

/// One shard of a planned audit: the job plus this shard's contiguous slice
/// [unit_begin, unit_end) of the flat unit space.
struct ShardManifest {
    int format_version = kFormatVersion;  ///< Wire format version.
    JobSpec job;                          ///< The audit being sharded.
    int shard_index = 0;                  ///< This shard's position.
    int shard_count = 1;                  ///< Shards in the plan.
    std::int64_t unit_begin = 0;          ///< First unit of the slice.
    std::int64_t unit_end = 0;            ///< One past the last unit.
    /// Instances of the whole audit (from the planner's match discovery) —
    /// runners cross-check their own prepare against it, catching
    /// program/pass-set drift between planner and worker machines.
    std::int64_t instance_count = 0;
    /// Units between checkpoints of the record stream (docs/TUNING.md).
    int checkpoint_interval = 64;

    common::Json to_json() const;  ///< Wire form.
    /// Inverse of to_json; rejects foreign format versions.
    static ShardManifest from_json(const common::Json& j);
};

/// Loads a manifest JSON file; malformed content throws
/// common::FileParseError naming the file, the line (for syntax errors) and
/// the expected shape (for field errors).
ShardManifest load_manifest_file(const std::string& path);

/// Deterministically partitions the job's unit space into `shard_count`
/// contiguous slices, balanced to within one unit (the first
/// `units % shard_count` shards take the extra unit).  Runs the job's match
/// discovery to size the space; `program` must be the job's program (pass
/// the result of load_job_program).  Shards with no units are still
/// emitted (empty range) so plan output always has `shard_count` files.
std::vector<ShardManifest> plan_shards(const JobSpec& job, const ir::SDFG& program,
                                       int shard_count, int checkpoint_interval = 64);

}  // namespace ff::shard
