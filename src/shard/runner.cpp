#include "shard/runner.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/error.h"
#include "core/report.h"
#include "shard/records.h"

namespace ff::shard {

namespace {

/// The record slot of flat unit `unit` (a static NotRun record for units of
/// instances whose setup failed — their reports are final from prepare and
/// no trial slots exist, but the stream still carries one line per unit so
/// coverage validation stays a plain count).
const core::TrialRecord& unit_record(const core::PreparedAudit& audit, std::int64_t unit,
                                     const core::TrialRecord& not_run) {
    const int mt = audit.max_trials();
    const std::size_t instance = static_cast<std::size_t>(unit / mt);
    const std::size_t trial = static_cast<std::size_t>(unit % mt);
    if (!audit.instance_runnable(instance)) return not_run;
    return audit.records(instance)[trial];
}

}  // namespace

core::PreparedAudit& JobCache::prepare(const ShardManifest& manifest,
                                       const RunShardOptions& options) {
    // The thread count is captured in the prepared audit's config, so it is
    // part of what makes a cached audit reusable.
    const std::string key =
        manifest.job.key() + "|threads=" + std::to_string(options.num_threads);
    if (key == key_) {
        audit_.reset_trials();
    } else {
        key_.clear();  // stays empty if preparing throws
        core::FuzzConfig config = job_fuzz_config(manifest.job);
        config.num_threads = options.num_threads;
        program_ = load_job_program(manifest.job);
        passes_ = job_passes(manifest.job);
        // Match discovery only; the range below prepares what it touches.
        audit_ = core::Fuzzer(config).prepare(program_, passes_, 0, 0);
        key_ = key;
    }
    audit_.prepare_range(program_, passes_, manifest.unit_begin, manifest.unit_end);
    return audit_;
}

RunShardResult run_shard(const ShardManifest& manifest, const std::string& records_path,
                         const RunShardOptions& options) {
    JobCache cache;
    return run_shard(cache, manifest, records_path, options);
}

RunShardResult run_shard(JobCache& cache, const ShardManifest& manifest,
                         const std::string& records_path, const RunShardOptions& options) {
    core::PreparedAudit& audit = cache.prepare(manifest, options);

    // Cross-check the prepared shape against the planner's: a mismatch
    // means the worker machine sees a different program or pass set than
    // the plan was made from, and its records would merge into the wrong
    // slots.
    if (static_cast<std::int64_t>(audit.instance_count()) != manifest.instance_count)
        throw common::Error("prepared " + std::to_string(audit.instance_count()) +
                            " instances but the manifest says " +
                            std::to_string(manifest.instance_count) +
                            " — planner and runner disagree about the job");
    if (manifest.unit_begin < 0 || manifest.unit_begin > manifest.unit_end ||
        manifest.unit_end > audit.unit_count())
        throw common::Error("manifest unit range [" + std::to_string(manifest.unit_begin) + ", " +
                            std::to_string(manifest.unit_end) + ") outside the audit's " +
                            std::to_string(audit.unit_count()) + " units");

    // Open the stream: fresh, or resumed from the last intact checkpoint.
    std::int64_t start = manifest.unit_begin;
    std::optional<RecordWriter> writer;
    bool fresh = true;
    bool needs_trailer = false;
    std::error_code ec;
    const bool existing_nonempty = std::filesystem::exists(records_path, ec) &&
                                   std::filesystem::file_size(records_path, ec) > 0 && !ec;
    if (existing_nonempty) {
        // A file the reader cannot make sense of at all (e.g. the previous
        // run died inside the header write) holds nothing resumable; every
        // record is a pure function of the job, so starting fresh loses no
        // information.  A *parseable* file from a different shard or job,
        // however, means the caller pointed at the wrong directory —
        // refuse rather than overwrite it.
        std::optional<ShardRecordFile> existing;
        try {
            existing.emplace(read_record_file(records_path));
        } catch (const common::Error&) {
            existing.reset();
        }
        if (existing) {
            if (existing->manifest.to_json().dump() != manifest.to_json().dump())
                throw common::Error(records_path +
                                    " belongs to a different shard or job; refusing to resume");
            start = existing->checkpoint;
            fresh = false;
            // A stream whose final checkpoint is durable but whose trailer
            // was torn off by a crash only needs the trailer re-emitted
            // (a pure function of the retained bytes, so byte-identity
            // with an uninterrupted run is preserved).
            needs_trailer = start == manifest.unit_end && !existing->has_trailer;
            // Completed records re-enter the audit so early-stop watermarks
            // (a failure recorded before the interruption) keep suppressing
            // later trials of the same instance.
            for (auto& [unit, record] : existing->records)
                audit.set_record(unit, std::move(record));
            writer.emplace(RecordWriter::resume(records_path, existing->resume_offset,
                                                manifest.unit_end,
                                                existing->checkpoint - manifest.unit_begin));
        } else {
            writer.emplace(RecordWriter::create(records_path, manifest));
        }
    } else {
        writer.emplace(RecordWriter::create(records_path, manifest));
    }

    RunShardResult result;
    result.resumed_from = start;
    const core::TrialRecord not_run;
    // An empty shard runs no units, so no checkpoint would ever publish
    // the stream; emit its one (empty) checkpoint explicitly.  Only for a
    // fresh stream: a resumed empty shard is already complete and another
    // checkpoint line would break re-run byte-identity.
    if (start == manifest.unit_end && fresh) writer->checkpoint(manifest.unit_end);
    if (needs_trailer) writer->finish();
    // One pool runs the whole remaining range; each settled sub-range of
    // the checkpoint grid (records final, NotRun rule applied) is written
    // and checkpointed here — records before the checkpoint line.
    bool interrupted = false;
    audit.run_range(start, manifest.unit_end, std::max(manifest.checkpoint_interval, 1),
                    [&](std::int64_t from, std::int64_t to) {
                        result.units_run = to - start;
                        if (options.interrupt_after_units >= 0 &&
                            to - start > options.interrupt_after_units) {
                            // Deterministic stand-in for a kill -9 mid-write:
                            // half the sub-range's records, then a torn line,
                            // never the checkpoint.
                            const std::int64_t torn_at =
                                from + std::max<std::int64_t>(1, (to - from) / 2);
                            for (std::int64_t unit = from; unit < torn_at; ++unit)
                                writer->write_record(unit, unit_record(audit, unit, not_run));
                            writer->append_raw("{\"type\":\"record\",\"unit\":");
                            interrupted = true;
                            return false;
                        }
                        for (std::int64_t unit = from; unit < to; ++unit)
                            writer->write_record(unit, unit_record(audit, unit, not_run));
                        writer->checkpoint(to);
                        if (options.on_progress) options.on_progress(result.units_run);
                        return true;
                    });
    result.completed = !interrupted;
    result.stats = audit.stats();
    return result;
}

}  // namespace ff::shard
