// Shard execution: runs one manifest's unit range and streams the records.
//
// The runner prepares the job range-locally — match discovery over the
// whole job (a pure function of the JobSpec, so every shard agrees on
// instance indexing), then the per-instance pipelines of only the instances
// the shard's range touches — cross-checks the prepared shape against the
// manifest, then executes the shard's range with one worker pool.  Each
// time the range's completed prefix passes a checkpoint-interval boundary,
// that sub-range's records are appended in unit order and made durable by a
// checkpoint; trials past the boundary keep running meanwhile.  If the
// process is killed, re-invoking it on the same record file picks up from
// the last checkpoint — checkpointed units are never re-executed.
//
// A JobCache keeps the prepared job across run_shard calls of the same job
// (a coordinator worker's successive leases): later ranges prepare only the
// instances not prepared yet, and plan caches and execution contexts stay
// warm.  Every call starts from reset trial slots, so a stream written
// through the cache is byte-identical to one written by a fresh process.
#pragma once

/// \file
/// run_shard: streamed, checkpointed execution of one shard manifest, and
/// the JobCache that carries a prepared job across shards.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/fuzzer.h"
#include "shard/manifest.h"

namespace ff::shard {

/// Execution-only knobs of one run_shard invocation (none of these can
/// affect the recorded results — the determinism contract).
struct RunShardOptions {
    int num_threads = 1;  ///< Workers of the in-process pool (0 = hardware).
    /// Test/ops hook: deterministically interrupt the run at the first
    /// checkpoint boundary past this many units of THIS invocation — half
    /// of that checkpoint's records and a torn final line are written, but
    /// no checkpoint, exactly like a kill -9 mid-write.  < 0 runs to
    /// completion.
    std::int64_t interrupt_after_units = -1;
    /// Called after each durable checkpoint with the units completed by
    /// this invocation so far, from whichever pool thread wrote the
    /// checkpoint (calls never overlap).  The coordinator's workers send a
    /// progress-triggered lease heartbeat from here (coord/worker.cpp);
    /// results cannot depend on it.  An exception stops the pool and
    /// propagates out of run_shard after the checkpoint it follows, so
    /// everything already reported durable stays durable.
    std::function<void(std::int64_t units_done)> on_progress;
};

/// What one run_shard invocation did.
struct RunShardResult {
    std::int64_t resumed_from = 0;  ///< First unit executed (== unit_begin when fresh).
    std::int64_t units_run = 0;     ///< Units checkpointed (or torn) by this invocation.
    bool completed = false;         ///< Reached manifest.unit_end (file is mergeable).
    core::SchedulerStats stats;     ///< Scheduler counters of this invocation.
};

/// A prepared job kept across run_shard calls.  Holds the job's program,
/// pass set and prepared audit; a call for another job (or another thread
/// count) replaces them.
class JobCache {
public:
    /// The prepared audit for `manifest`'s job with every instance that
    /// intersects the manifest's range prepared and every trial slot reset.
    core::PreparedAudit& prepare(const ShardManifest& manifest, const RunShardOptions& options);

private:
    std::string key_;  ///< Job key + thread count of the cached audit ("" = none).
    ir::SDFG program_;
    std::vector<xform::TransformationPtr> passes_;
    core::PreparedAudit audit_;
};

/// Executes `manifest`'s unit range, streaming records to `records_path`,
/// on the prepared job `cache` holds (preparing it first when needed).
/// Throws common::Error when the prepared audit disagrees with the manifest
/// (instance count / trial budget drift) or on I/O failure.
RunShardResult run_shard(JobCache& cache, const ShardManifest& manifest,
                         const std::string& records_path, const RunShardOptions& options = {});

/// run_shard on a fresh JobCache — one process, one shard.
RunShardResult run_shard(const ShardManifest& manifest, const std::string& records_path,
                         const RunShardOptions& options = {});

}  // namespace ff::shard
