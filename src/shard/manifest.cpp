#include "shard/manifest.h"

#include <cmath>
#include <limits>
#include <memory>

#include "common/error.h"
#include "ir/serialize.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/npbench.h"

namespace ff::shard {

using common::Json;

namespace {

/// Integer member `key` of `j`, checked against [lo, hi] before any caller
/// narrows it; a value outside is a ParseError naming the member.
std::int64_t int_field(const Json& j, const std::string& key, std::int64_t lo,
                       std::int64_t hi = std::numeric_limits<int>::max()) {
    const std::int64_t v = common::json_int(j, key);
    if (v < lo || v > hi)
        throw common::ParseError("key '" + key + "': expected an integer in [" +
                                 std::to_string(lo) + ", " + std::to_string(hi) + "], got " +
                                 std::to_string(v));
    return v;
}

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

}  // namespace

Json JobSpec::to_json() const {
    Json j = Json::object();
    j["workload"] = workload;
    j["sdfg_path"] = sdfg_path;
    j["passes"] = passes;
    j["seed"] = static_cast<std::int64_t>(seed);
    j["max_trials"] = max_trials;
    j["size_max"] = size_max;
    j["threshold"] = threshold;
    j["max_state_transitions"] = max_state_transitions;
    j["max_points"] = max_points;
    j["max_alloc_bytes"] = max_alloc_bytes;
    j["use_mincut"] = use_mincut;
    // Conditional keys: feedback-off job specs (and their key() identity
    // strings) keep their exact historical bytes.
    if (coverage || feedback) j["coverage"] = true;
    if (feedback) {
        j["feedback"] = true;
        j["generation_size"] = generation_size;
    }
    Json defs = Json::object();
    for (const auto& [name, value] : defaults) defs[name] = value;
    j["defaults"] = std::move(defs);
    return j;
}

JobSpec JobSpec::from_json(const Json& j) {
    JobSpec spec;
    spec.workload = common::json_string(j, "workload");
    spec.sdfg_path = common::json_string(j, "sdfg_path");
    spec.passes = common::json_string(j, "passes");
    spec.seed = static_cast<std::uint64_t>(common::json_int(j, "seed"));
    spec.max_trials = static_cast<int>(int_field(j, "max_trials", 1));
    spec.size_max = int_field(j, "size_max", 1, kInt64Max);
    spec.threshold = common::json_double(j, "threshold");
    if (!std::isfinite(spec.threshold))
        throw common::ParseError("key 'threshold': expected a finite number");
    spec.max_state_transitions = int_field(j, "max_state_transitions", 0, kInt64Max);
    spec.max_points = int_field(j, "max_points", 0, kInt64Max);
    spec.max_alloc_bytes = int_field(j, "max_alloc_bytes", 0, kInt64Max);
    spec.use_mincut = common::json_bool(j, "use_mincut");
    spec.coverage = j.contains("coverage") && common::json_bool(j, "coverage");
    spec.feedback = j.contains("feedback") && common::json_bool(j, "feedback");
    if (spec.feedback) spec.coverage = true;
    if (j.contains("generation_size"))
        spec.generation_size = static_cast<int>(
            int_field(j, "generation_size", std::numeric_limits<int>::min()));
    for (const auto& [name, value] : common::json_object_field(j, "defaults")) {
        if (!value.is_number())
            throw common::ParseError("defaults entry '" + name + "': expected an integer, got " +
                                     common::json_type_name(value));
        spec.defaults[name] = value.as_int();
    }
    return spec;
}

ir::SDFG load_job_program(const JobSpec& job) {
    if (!job.workload.empty() && !job.sdfg_path.empty())
        throw common::Error("job specifies both a workload name and an SDFG path");
    if (!job.workload.empty()) return workloads::build_npbench_kernel(job.workload);
    if (job.sdfg_path.empty()) throw common::Error("job specifies neither workload nor SDFG path");
    // Passes, cutouts and the interpreter assume a well-formed program.
    ir::SDFG program = ir::sdfg_from_json(Json::parse_file(job.sdfg_path));
    program.validate();
    // Prepare would stop at the first symbol without a binding; name them
    // all up front.  (The npbench defaults bind every workload's symbols.)
    std::string unbound;
    for (const std::string& symbol : program.symbols())
        if (!job.defaults.count(symbol)) unbound += (unbound.empty() ? "" : ", ") + symbol;
    if (!unbound.empty())
        throw common::Error(job.sdfg_path + " declares symbols without a default binding "
                            "(--default <sym>=<val>): " + unbound);
    return program;
}

std::vector<xform::TransformationPtr> job_passes(const JobSpec& job) {
    if (job.passes == "table2") return xform::builtin_transformations({.table2_bugs = true});
    if (job.passes == "correct") return xform::builtin_transformations({.table2_bugs = false});
    if (job.passes == "tiling") {
        std::vector<xform::TransformationPtr> passes;
        passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));
        return passes;
    }
    throw common::Error("unknown pass set: " + job.passes +
                        " (expected table2, correct, or tiling)");
}

core::FuzzConfig job_fuzz_config(const JobSpec& job) {
    core::FuzzConfig config;
    config.max_trials = job.max_trials;
    config.sampler.seed = job.seed;
    config.sampler.size_max = job.size_max;
    config.diff.threshold = job.threshold;
    if (job.max_state_transitions > 0)
        config.diff.exec.max_state_transitions = job.max_state_transitions;
    if (job.max_points > 0) config.diff.exec.max_points = job.max_points;
    if (job.max_alloc_bytes > 0) config.diff.exec.max_alloc_bytes = job.max_alloc_bytes;
    config.use_mincut = job.use_mincut;
    config.coverage = job.coverage;
    config.feedback = job.feedback;
    config.generation_size = job.generation_size;
    config.cutout.defaults = job.defaults;
    return config;
}

Json ShardManifest::to_json() const {
    Json j = Json::object();
    j["format_version"] = format_version;
    j["job"] = job.to_json();
    j["shard_index"] = shard_index;
    j["shard_count"] = shard_count;
    j["unit_begin"] = unit_begin;
    j["unit_end"] = unit_end;
    j["instance_count"] = instance_count;
    j["checkpoint_interval"] = checkpoint_interval;
    return j;
}

ShardManifest ShardManifest::from_json(const Json& j) {
    ShardManifest m;
    const std::int64_t version = common::json_int(j, "format_version");
    if (version != kFormatVersion)
        throw common::Error("unsupported shard format version " + std::to_string(version) +
                            " (this build speaks " + std::to_string(kFormatVersion) + ")");
    try {
        m.job = JobSpec::from_json(j.at("job"));
    } catch (const common::ParseError& e) {
        throw common::ParseError("job: " + common::error_detail(e));
    }
    m.shard_count = static_cast<int>(int_field(j, "shard_count", 1));
    m.shard_index = static_cast<int>(int_field(j, "shard_index", 0, m.shard_count - 1));
    m.unit_end = int_field(j, "unit_end", 0, kInt64Max);
    m.unit_begin = int_field(j, "unit_begin", 0, m.unit_end);
    m.instance_count = common::json_int(j, "instance_count");
    m.checkpoint_interval = static_cast<int>(int_field(j, "checkpoint_interval", 1));
    return m;
}

ShardManifest load_manifest_file(const std::string& path) {
    // parse_file already yields file+line for JSON syntax errors; field and
    // shape errors from from_json gain the file name here.
    try {
        return ShardManifest::from_json(Json::parse_file(path));
    } catch (const common::FileParseError&) {
        throw;
    } catch (const common::ParseError& e) {
        throw common::FileParseError(path, 0, common::error_detail(e));
    }
}

std::vector<ShardManifest> plan_shards(const JobSpec& job, const ir::SDFG& program,
                                       int shard_count, int checkpoint_interval) {
    if (shard_count < 1) throw common::Error("shard count must be >= 1");
    // Match discovery alone fixes the instance count (and its order fixes
    // the canonical instance indexing) — the expensive per-instance cutout
    // pipelines are left to the shard runners.
    std::int64_t instances = 0;
    for (const auto& pass : job_passes(job)) instances += pass->find_matches(program).size();
    const std::int64_t units = instances * std::max(job.max_trials, 0);

    std::vector<ShardManifest> shards;
    shards.reserve(static_cast<std::size_t>(shard_count));
    const std::int64_t base = units / shard_count;
    const std::int64_t extra = units % shard_count;
    std::int64_t next = 0;
    for (int i = 0; i < shard_count; ++i) {
        ShardManifest m;
        m.job = job;
        m.shard_index = i;
        m.shard_count = shard_count;
        m.unit_begin = next;
        next += base + (i < extra ? 1 : 0);
        m.unit_end = next;
        m.instance_count = instances;
        m.checkpoint_interval = std::max(checkpoint_interval, 1);
        shards.push_back(std::move(m));
    }
    return shards;
}

}  // namespace ff::shard
