// ffaudit — plan, run, distribute and merge FuzzyFlow audits.
//
// The distribution workflow (docs/ARCHITECTURE.md "Sharded execution"):
//
//   ffaudit plan  --workload gemm --shards 4 --out-dir plan/
//       partitions the audit's (instance, trial) unit space into 4
//       contiguous shards and writes one manifest JSON per shard;
//   ffaudit run-shard --manifest plan/shard-2.json --records-dir records/
//       executes one shard (any machine that can rebuild the job), streaming
//       checkpointed records; killed runs resume from the last checkpoint;
//   ffaudit merge --records-dir records/ --out report.json
//       validates coverage and reconstructs the exact single-process report
//       — byte-identical to `ffaudit run` at any shard/worker count;
//   ffaudit run   --workload gemm --out report.json
//       the single-process reference (same canonical report document);
//   ffaudit replay testcase.json
//       re-runs a reproducer artifact through the differential tester.
//
// The fault-tolerant workflow (docs/ARCHITECTURE.md "Coordinator"):
//
//   ffaudit serve --workload gemm --records-dir records/ --spawn-workers 4
//       plans the shards, leases them to workers over a unix socket (or TCP
//       with --listen host:port), re-issues crashed/expired leases, hedges
//       stragglers, and folds completions into the same canonical report as
//       `ffaudit run`;
//   ffaudit worker --socket records/coord.sock      (or --connect host:port)
//       one worker: lease, execute, report, repeat until the audit is done;
//   ffaudit fsck --records-dir records/
//       verifies record streams and corpus files (per-line CRCs, digest
//       trailer) and, with --repair, truncates corrupt record streams to
//       their last verifiable prefix so run-shard/serve can resume them.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/sealed_log.h"
#include "coord/coordinator.h"
#include "coord/fault.h"
#include "coord/worker.h"
#include "core/report.h"
#include "core/testcase_io.h"
#include "feedback/corpus.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "shard/records.h"
#include "shard/runner.h"
#include "workloads/npbench.h"

using namespace ff;

namespace {

// Exit codes: scripts (scripts/coord_chaos.py, CI) branch on these, so
// each failure class gets a stable, distinct value (see usage()).
constexpr int kExitOk = 0;           ///< Success.
constexpr int kExitInternal = 1;     ///< Unexpected error (bug or environment).
constexpr int kExitUsage = 2;        ///< Bad command line.
constexpr int kExitInterrupted = 3;  ///< run-shard stopped early; resumable.
constexpr int kExitJob = 4;          ///< Job construction failed (bad workload/passes/SDFG).
constexpr int kExitExecution = 5;    ///< The audit/shard itself failed to execute.
constexpr int kExitMerge = 6;        ///< Merge/coverage validation failed.
constexpr int kExitParse = 7;        ///< Malformed input file (manifest/records/testcase).
constexpr int kExitCoordinator = 8;  ///< Coordinator/worker gave up.
/// Audit completed, but only by quarantining poison units (serve).
constexpr int kExitQuarantined = 9;

int usage(const char* detail = nullptr) {
    if (detail) std::fprintf(stderr, "ffaudit: %s\n\n", detail);
    std::fprintf(stderr,
                 "usage: ffaudit <command> [options]\n"
                 "\n"
                 "commands:\n"
                 "  plan       partition an audit into shard manifests\n"
                 "  run-shard  execute one shard manifest (checkpointed, resumable)\n"
                 "  merge      merge complete shard record files into the canonical report\n"
                 "  run        single-process audit emitting the same canonical report\n"
                 "  serve      coordinate a fault-tolerant audit (unix socket or TCP)\n"
                 "  worker     execute leases from a `ffaudit serve` coordinator\n"
                 "  fsck       verify record-stream and corpus integrity; --repair salvages\n"
                 "             a record stream's verified prefix\n"
                 "  replay     re-run a reproducer test case JSON\n"
                 "\n"
                 "job options (plan, run, serve):\n"
                 "  --workload <name>        npbench kernel (see --list-workloads)\n"
                 "  --sdfg <file>            serialized SDFG instead of a named workload\n"
                 "  --passes <set>           table2 | correct | tiling   [table2]\n"
                 "  --seed <n>               sampler seed               [0x5eed]\n"
                 "  --trials <n>             trials per instance        [100]\n"
                 "  --size-max <n>           sampler size bound         [16]\n"
                 "  --threshold <x>          comparison threshold       [1e-5]\n"
                 "  --max-transitions <n>    interpreter budget         [default]\n"
                 "  --max-points <n>         map-point fuel per trial   [unlimited]\n"
                 "  --max-alloc-bytes <n>    allocation budget per trial [unlimited]\n"
                 "  --no-mincut              skip the minimum input-flow cut\n"
                 "  --coverage               instrument def-use coverage (report counters)\n"
                 "  --feedback               coverage-guided trial generation (implies\n"
                 "                           --coverage; part of the job key)\n"
                 "  --generation-size <n>    trials per feedback generation [25]\n"
                 "  --default <sym>=<val>    default symbol binding (repeatable; an --sdfg\n"
                 "                           job must bind every symbol it declares)\n"
                 "\n"
                 "plan:      --shards <n> --out-dir <dir> [--checkpoint-interval <n>]\n"
                 "run-shard: --manifest <file> --records-dir <dir> [--records <file>]\n"
                 "           [--threads <n>] [--interrupt-after-units <n>]\n"
                 "merge:     --records-dir <dir> | --records <file>... \n"
                 "           [--artifact-dir <dir>] [--out <file>] [--threads <n>]\n"
                 "           [--corpus-out <file>]\n"
                 "run:       [--threads <n>] [--artifact-dir <dir>] [--out <file>]\n"
                 "           [--corpus-out <file>]\n"
                 "serve:     --records-dir <dir> [--socket <path> | --listen <host:port>]\n"
                 "           [--threads <n>] [--spawn-workers <n>] [--worker-threads <n>]\n"
                 "           [--out <file>]\n"
                 "           [--shards <n>] [--artifact-dir <dir>] [--checkpoint-interval <n>]\n"
                 "           [--lease-ms <x>] [--max-failures <n>] [--linger-ms <x>]\n"
                 "           [--worker-fault <k>=<spec>] [--quiet]\n"
                 "           [--worker-watchdog-ms <x>] [--worker-rlimit-as <bytes>]\n"
                 "           --lease-ms is the fleet's one clock: workers beat, and wait\n"
                 "           for any reply, a quarter lease; a lost shard is re-issued\n"
                 "           after 200 ms doubling up to a lease; a shard is hedged at\n"
                 "           three leases; a partition under 3/4 lease is absorbed\n"
                 "worker:    --socket <path> | --connect <host:port> [--id <name>]\n"
                 "           [--threads <n>] [--fault <spec>]\n"
                 "           [--watchdog-ms <x>] [--rlimit-as <bytes>]\n"
                 "           [--connect-attempts <n>] [--quiet]\n"
                 "           fault <spec>: kill-after-units=N | abandon-after-units=N |\n"
                 "                         spin-after-units=N | hog-memory-after-units=N |\n"
                 "                         disconnect-after-units=N[,heal-ms=N] |\n"
                 "                         delay-lease-ms=N | drop-heartbeats |\n"
                 "                         wire faults on the worker's Nth frames:\n"
                 "                         drop-frame-every-n=N | delay-frame-ms=N |\n"
                 "                         duplicate-frame=N | corrupt-frame-byte=N\n"
                 "                         (comma-joined; serve --worker-fault takes the same)\n"
                 "fsck:      --records <file>... | --records-dir <dir> [--repair]\n"
                 "replay:    <testcase.json>\n"
                 "\n"
                 "exit codes:\n"
                 "  0  success (replay: reproduced)\n"
                 "  1  internal/unexpected error (replay: did not reproduce)\n"
                 "  2  usage error\n"
                 "  3  shard interrupted before completion (rerun to resume)\n"
                 "  4  job construction failed (unknown workload/pass set, bad SDFG)\n"
                 "  5  audit execution failed\n"
                 "  6  merge, coverage or record-integrity validation failed\n"
                 "     (also: fsck found corruption)\n"
                 "  7  malformed input file (manifest, record stream, test case,\n"
                 "     incl. a test case whose original program fails validation)\n"
                 "  8  coordinator gave up (shard permanently failed, determinism\n"
                 "     violation) or worker lost the coordinator\n"
                 "  9  audit completed but poison units were quarantined (serve)\n");
    return kExitUsage;
}

/// A flag value that fails validation; main() exits kExitUsage on it.
struct UsageError : common::Error {
    using common::Error::Error;
};

/// Value of a --flag; advances `i`.  Throws UsageError when missing.
std::string flag_value(const std::vector<std::string>& args, std::size_t& i) {
    if (i + 1 >= args.size()) throw UsageError(args[i] + " needs a value");
    return args[++i];
}

/// `text`, the value of `flag`, as a T (an integer type or double).
/// Throws UsageError naming the flag unless all of `text` parses (integers
/// also take 0x hex and leading-0 octal) and fits in T.
template <typename T = std::int64_t>
T parse_number(const std::string& flag, const std::string& text) {
    char* end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        const double v = std::strtod(text.c_str(), &end);
        if (!text.empty() && *end == '\0' && errno == 0) return v;
    } else {
        const long long v = std::strtoll(text.c_str(), &end, 0);
        if (!text.empty() && *end == '\0' && errno == 0 && v >= std::numeric_limits<T>::min() &&
            v <= std::numeric_limits<T>::max())
            return static_cast<T>(v);
    }
    throw UsageError(flag + " needs " + (std::is_floating_point_v<T> ? "a number" : "an integer") +
                     " in range, got '" + text + "'");
}

/// Value of a numeric flag (see parse_number); advances `i`.
template <typename T = std::int64_t>
T number_value(const std::vector<std::string>& args, std::size_t& i) {
    const std::string flag = args[i];
    return parse_number<T>(flag, flag_value(args, i));
}

/// Value of a job flag within its shard::kJobBounds row; advances `i`.  A
/// value outside the field's type, [-hi - 1, hi], is worded as parse_number
/// words it.
std::int64_t bounded_job_value(const std::vector<std::string>& args, std::size_t& i) {
    const std::string flag = args[i];
    const shard::JobBound& bound = shard::job_bound(flag);
    const std::int64_t v = number_value(args, i);
    if (v > bound.hi || v < -bound.hi - 1)
        throw UsageError(flag + " needs an integer in range, got '" + args[i] + "'");
    if (v < bound.lo)
        throw UsageError(flag + " needs an integer >= " + std::to_string(bound.lo) + ", got '" +
                         args[i] + "'");
    return v;
}

/// Value of a millisecond timing flag; advances `i`.  Throws UsageError
/// unless it is a finite number > 0 (>= 0 when `zero_ok`); strtod alone
/// would take "nan", "inf" and negatives.
double bounded_value(const std::vector<std::string>& args, std::size_t& i, bool zero_ok) {
    const std::string flag = args[i];
    const double v = number_value<double>(args, i);
    if (!std::isfinite(v) || v < 0.0 || (v == 0.0 && !zero_ok)) {
        throw UsageError(flag + " needs a finite number " + (zero_ok ? ">= 0" : "> 0") +
                         ", got '" + args[i] + "'");
    }
    return v;
}

/// Parses one job option; returns false when `args[i]` is not a job flag.
/// --list-workloads prints the npbench kernel names and exits 0.
bool parse_job_flag(shard::JobSpec& job, const std::vector<std::string>& args, std::size_t& i) {
    const std::string& a = args[i];
    if (a == "--workload") job.workload = flag_value(args, i);
    else if (a == "--sdfg") job.sdfg_path = flag_value(args, i);
    else if (a == "--passes") job.passes = flag_value(args, i);
    else if (a == "--seed") job.seed = static_cast<std::uint64_t>(number_value(args, i));
    else if (a == "--trials") job.max_trials = static_cast<int>(bounded_job_value(args, i));
    else if (a == "--size-max") job.size_max = bounded_job_value(args, i);
    else if (a == "--threshold") {
        // A threshold <= 0 compares bitwise; NaN would flag every output and
        // infinity none.
        job.threshold = number_value<double>(args, i);
        if (!std::isfinite(job.threshold))
            throw UsageError("--threshold needs a finite number, got '" + args[i] + "'");
    } else if (a == "--max-transitions") job.max_state_transitions = bounded_job_value(args, i);
    else if (a == "--max-points") job.max_points = bounded_job_value(args, i);
    else if (a == "--max-alloc-bytes") job.max_alloc_bytes = bounded_job_value(args, i);
    else if (a == "--no-mincut") job.use_mincut = false;
    else if (a == "--coverage") job.coverage = true;
    else if (a == "--feedback") job.feedback = job.coverage = true;
    else if (a == "--generation-size")
        job.generation_size = static_cast<int>(bounded_job_value(args, i));
    else if (a == "--default") {
        const std::string kv = flag_value(args, i);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            throw UsageError("--default needs <sym>=<val>, got '" + kv + "'");
        job.defaults[kv.substr(0, eq)] = parse_number("--default", kv.substr(eq + 1));
    } else if (a == "--list-workloads") {
        for (const auto& name : workloads::npbench_kernel_names())
            std::printf("%s\n", name.c_str());
        std::exit(kExitOk);
    } else {
        return false;
    }
    return true;
}

/// Fills workload-derived defaults a self-contained manifest needs.
void finalize_job(shard::JobSpec& job) {
    if (job.workload.empty() && job.sdfg_path.empty())
        throw common::Error("a job needs --workload or --sdfg");
    if (!job.workload.empty() && job.defaults.empty()) job.defaults = workloads::npbench_defaults();
}

void write_text_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw common::Error("cannot write " + path);
    out << text;
    out.close();
    if (out.fail()) throw common::Error("short write to " + path);
}

/// Emits the canonical report document to `out_path` ("" = stdout) and the
/// audit table to stdout.
void emit_report(std::vector<core::FuzzReport> reports, const std::string& out_path) {
    const common::Json doc = shard::canonical_report_document(std::move(reports));
    const std::string text = doc.dump(2) + "\n";
    if (out_path.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        write_text_file(out_path, text);
        std::printf("report: %s\n", out_path.c_str());
    }
    std::printf("%s", doc.at("table").as_string().c_str());
}

std::string records_path_for(const std::string& dir, int shard_index) {
    return dir + "/records-" + std::to_string(shard_index) + ".jsonl";
}

int cmd_plan(const std::vector<std::string>& args) {
    shard::JobSpec job;
    int shards = 0;
    int checkpoint_interval = 64;
    std::string out_dir;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (parse_job_flag(job, args, i)) continue;
        if (args[i] == "--shards") shards = number_value<int>(args, i);
        else if (args[i] == "--checkpoint-interval")
            checkpoint_interval = number_value<int>(args, i);
        else if (args[i] == "--out-dir") out_dir = flag_value(args, i);
        else return usage(("unknown plan option " + args[i]).c_str());
    }
    if (shards < 1) return usage("plan needs --shards >= 1");
    if (out_dir.empty()) return usage("plan needs --out-dir");
    finalize_job(job);

    const ir::SDFG program = shard::load_job_program(job);
    const auto manifests = shard::plan_shards(job, program, shards, checkpoint_interval);
    std::filesystem::create_directories(out_dir);
    for (const auto& m : manifests)
        write_text_file(out_dir + "/shard-" + std::to_string(m.shard_index) + ".json",
                        m.to_json().dump(2) + "\n");
    std::printf("planned %zu shard(s) over %lld units (%lld instances x %d trials) in %s\n",
                manifests.size(), static_cast<long long>(manifests.back().unit_end),
                static_cast<long long>(manifests.front().instance_count), job.max_trials,
                out_dir.c_str());
    return 0;
}

int cmd_run_shard(const std::vector<std::string>& args) {
    std::string manifest_path, records_path, records_dir;
    shard::RunShardOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--manifest") manifest_path = flag_value(args, i);
        else if (args[i] == "--records") records_path = flag_value(args, i);
        else if (args[i] == "--records-dir") records_dir = flag_value(args, i);
        else if (args[i] == "--threads") options.num_threads = number_value<int>(args, i);
        else if (args[i] == "--interrupt-after-units")
            options.interrupt_after_units = number_value(args, i);
        else return usage(("unknown run-shard option " + args[i]).c_str());
    }
    if (manifest_path.empty()) return usage("run-shard needs --manifest");
    if (records_path.empty() && records_dir.empty())
        return usage("run-shard needs --records or --records-dir");

    const shard::ShardManifest manifest = shard::load_manifest_file(manifest_path);
    if (records_path.empty()) {
        std::filesystem::create_directories(records_dir);
        records_path = records_path_for(records_dir, manifest.shard_index);
    }

    const shard::RunShardResult result = shard::run_shard(manifest, records_path, options);
    std::printf("shard %d/%d: %s %lld unit(s) of [%lld, %lld) -> %s%s\n", manifest.shard_index,
                manifest.shard_count, result.resumed_from > manifest.unit_begin ? "resumed," : "ran",
                static_cast<long long>(result.units_run),
                static_cast<long long>(manifest.unit_begin),
                static_cast<long long>(manifest.unit_end), records_path.c_str(),
                result.completed ? "" : " (INTERRUPTED — rerun to resume)");
    return result.completed ? kExitOk : kExitInterrupted;
}

int cmd_merge(const std::vector<std::string>& args) {
    std::vector<std::string> record_paths;
    std::string records_dir, out_path, corpus_path;
    shard::MergeOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--records") record_paths.push_back(flag_value(args, i));
        else if (args[i] == "--records-dir") records_dir = flag_value(args, i);
        else if (args[i] == "--artifact-dir") options.artifact_dir = flag_value(args, i);
        else if (args[i] == "--out") out_path = flag_value(args, i);
        else if (args[i] == "--corpus-out") corpus_path = flag_value(args, i);
        else if (args[i] == "--threads") options.num_threads = number_value<int>(args, i);
        else return usage(("unknown merge option " + args[i]).c_str());
    }
    if (!records_dir.empty()) {
        for (const auto& entry : std::filesystem::directory_iterator(records_dir)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("records-", 0) == 0 && name.size() > 6 &&
                name.substr(name.size() - 6) == ".jsonl")
                record_paths.push_back(entry.path().string());
        }
    }
    if (record_paths.empty()) return usage("merge needs --records or a non-empty --records-dir");
    if (!options.artifact_dir.empty()) std::filesystem::create_directories(options.artifact_dir);

    shard::MergeResult merged = shard::merge_shards(record_paths, options);
    std::printf("merged %zu shard file(s), %lld record(s), %zu instance(s)\n", merged.shard_files,
                static_cast<long long>(merged.records), merged.reports.size());
    if (!corpus_path.empty()) {
        if (!merged.job.feedback)
            return usage("--corpus-out needs a job planned with --feedback");
        feedback::write_corpus_file(corpus_path, merged.job.to_json(), merged.corpus);
        std::printf("corpus: %s (%zu entr%s)\n", corpus_path.c_str(), merged.corpus.size(),
                    merged.corpus.size() == 1 ? "y" : "ies");
    }
    emit_report(std::move(merged.reports), out_path);
    return 0;
}

int cmd_run(const std::vector<std::string>& args) {
    shard::JobSpec job;
    std::string out_path, corpus_path;
    int threads = 0;
    std::string artifact_dir;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (parse_job_flag(job, args, i)) continue;
        if (args[i] == "--threads") threads = number_value<int>(args, i);
        else if (args[i] == "--artifact-dir") artifact_dir = flag_value(args, i);
        else if (args[i] == "--out") out_path = flag_value(args, i);
        else if (args[i] == "--corpus-out") corpus_path = flag_value(args, i);
        else return usage(("unknown run option " + args[i]).c_str());
    }
    finalize_job(job);
    if (!corpus_path.empty() && !job.feedback)
        return usage("--corpus-out needs --feedback");
    if (!artifact_dir.empty()) std::filesystem::create_directories(artifact_dir);

    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = threads;
    config.artifact_dir = artifact_dir;
    const ir::SDFG program = shard::load_job_program(job);
    auto passes = shard::job_passes(job);
    core::Fuzzer fuzzer(config);
    std::vector<core::FuzzReport> reports;
    std::vector<feedback::CorpusEntry> corpus;
    try {
        // The prepare/run_range/finalize split (rather than audit()) keeps
        // the PreparedAudit alive so the derived corpus can be read out.
        core::PreparedAudit audit = fuzzer.prepare(program, passes);
        audit.run_range(0, audit.unit_count());
        reports = audit.finalize();
        if (job.feedback) corpus = audit.corpus();
    } catch (const common::Error& e) {
        std::fprintf(stderr, "ffaudit run: %s\n", e.what());
        return kExitExecution;
    }
    std::printf("audited %zu instance(s)\n", reports.size());
    if (!corpus_path.empty()) {
        feedback::write_corpus_file(corpus_path, job.to_json(), corpus);
        std::printf("corpus: %s (%zu entr%s)\n", corpus_path.c_str(), corpus.size(),
                    corpus.size() == 1 ? "y" : "ies");
    }
    emit_report(std::move(reports), out_path);
    return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
    coord::CoordConfig config;
    config.verbose = true;
    std::string out_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (parse_job_flag(config.job, args, i)) continue;
        if (args[i] == "--shards") config.shard_count = number_value<int>(args, i);
        else if (args[i] == "--checkpoint-interval")
            config.checkpoint_interval = number_value<int>(args, i);
        else if (args[i] == "--socket") config.socket_path = flag_value(args, i);
        else if (args[i] == "--records-dir") config.records_dir = flag_value(args, i);
        else if (args[i] == "--artifact-dir") config.artifact_dir = flag_value(args, i);
        else if (args[i] == "--out") out_path = flag_value(args, i);
        else if (args[i] == "--threads") config.prepare_threads = number_value<int>(args, i);
        else if (args[i] == "--spawn-workers") config.spawn_workers = number_value<int>(args, i);
        else if (args[i] == "--worker-threads") config.worker_threads = number_value<int>(args, i);
        else if (args[i] == "--lease-ms") config.lease.lease_ms = bounded_value(args, i, false);
        else if (args[i] == "--max-failures")
            config.lease.max_failures = number_value<int>(args, i);
        else if (args[i] == "--linger-ms") config.linger_ms = bounded_value(args, i, true);
        else if (args[i] == "--worker-watchdog-ms")
            config.worker_watchdog_ms = bounded_value(args, i, true);
        else if (args[i] == "--worker-rlimit-as")
            config.worker_rlimit_as = number_value(args, i);
        else if (args[i] == "--listen") config.listen_address = flag_value(args, i);
        else if (args[i] == "--quiet") config.verbose = false;
        else if (args[i] == "--worker-fault") {
            const std::string kv = flag_value(args, i);
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                return usage(("--worker-fault expects <k>=<spec>: " + kv).c_str());
            const int index = parse_number<int>("--worker-fault", kv.substr(0, eq));
            try {
                coord::FaultPlan::parse(kv.substr(eq + 1));  // validate up front
            } catch (const common::Error& e) {
                return usage(e.what());
            }
            config.worker_faults[index] = kv.substr(eq + 1);
        } else return usage(("unknown serve option " + args[i]).c_str());
    }
    if (config.records_dir.empty()) return usage("serve needs --records-dir");
    if (config.socket_path.empty()) config.socket_path = config.records_dir + "/coord.sock";
    try {
        finalize_job(config.job);
        shard::load_job_program(config.job);  // fail early with the job exit code
        shard::job_passes(config.job);
    } catch (const common::Error& e) {
        std::fprintf(stderr, "ffaudit serve: %s\n", e.what());
        return kExitJob;
    }
    if (!config.artifact_dir.empty()) std::filesystem::create_directories(config.artifact_dir);

    coord::ServeResult result = coord::serve(config);
    const coord::CoordStats& s = result.stats;
    std::printf("served %d shard(s): %lld lease(s), %lld expiration(s), %lld requeue(s), "
                "%lld hedge(s), %lld duplicate completion(s) (%d byte-verified), "
                "%d worker(s) seen, %d lost, %d spawned, %zu quarantined unit(s), "
                "%d split shard(s), %d session(s) resumed\n",
                s.shards_merged, static_cast<long long>(s.queue.granted),
                static_cast<long long>(s.queue.expirations),
                static_cast<long long>(s.queue.requeues),
                static_cast<long long>(s.queue.hedges),
                static_cast<long long>(s.queue.duplicate_completions),
                s.duplicate_files_verified, s.workers_seen, s.workers_lost, s.workers_spawned,
                s.quarantined_units.size(), s.shards_split, s.sessions_resumed);
    if (!s.quarantined_units.empty()) {
        std::string units;
        for (std::int64_t unit : s.quarantined_units) {
            if (!units.empty()) units += ", ";
            units += std::to_string(unit);
        }
        std::printf("quarantined units: %s\n", units.c_str());
    }
    emit_report(std::move(result.reports), out_path);
    return s.quarantined_units.empty() ? kExitOk : kExitQuarantined;
}

int cmd_worker(const std::vector<std::string>& args) {
    coord::WorkerConfig config;
    config.verbose = true;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--socket") config.socket_path = flag_value(args, i);
        else if (args[i] == "--connect") config.connect_address = flag_value(args, i);
        else if (args[i] == "--id") config.worker_id = flag_value(args, i);
        else if (args[i] == "--threads") config.num_threads = number_value<int>(args, i);
        else if (args[i] == "--fault") {
            try {
                config.fault = coord::FaultPlan::parse(flag_value(args, i));
            } catch (const common::Error& e) {
                return usage(e.what());
            }
        }
        else if (args[i] == "--connect-attempts")
            config.max_connect_attempts = number_value<int>(args, i);
        else if (args[i] == "--watchdog-ms") config.watchdog_ms = bounded_value(args, i, true);
        else if (args[i] == "--rlimit-as") config.rlimit_as_bytes = number_value(args, i);
        else if (args[i] == "--quiet") config.verbose = false;
        else return usage(("unknown worker option " + args[i]).c_str());
    }
    if (config.socket_path.empty() && config.connect_address.empty())
        return usage("worker needs --socket or --connect");

    coord::WorkerStats stats = coord::run_worker(config);
    std::printf("worker done: %d shard(s) completed, %d failed, %d salvage(s), "
                "%lld unit(s), %lld frame(s) dropped, %lld duplicated, %lld corrupted%s%s\n",
                stats.shards_completed, stats.shards_failed, stats.salvages,
                static_cast<long long>(stats.units_run),
                static_cast<long long>(stats.frames_dropped),
                static_cast<long long>(stats.frames_duplicated),
                static_cast<long long>(stats.frames_corrupted),
                stats.disconnected ? " (disconnected by fault plan)" : "",
                stats.abandoned ? " (abandoned by fault plan)" : "");
    return kExitOk;
}

/// `ffaudit fsck`: verify record streams and corpus files (the reader is
/// picked by the header line's type), report corruption with file and
/// line, optionally truncate a record stream back to its last verifiable
/// prefix.  Exit 0 when every file is healthy (complete or cleanly in
/// progress); exit 6 when any corruption — bit flip, torn tail, dropped
/// line, missing header — was found, whether or not --repair salvaged it.
int cmd_fsck(const std::vector<std::string>& args) {
    std::vector<std::string> paths;
    std::string records_dir;
    bool repair = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--records") paths.push_back(flag_value(args, i));
        else if (args[i] == "--records-dir") records_dir = flag_value(args, i);
        else if (args[i] == "--repair") repair = true;
        else return usage(("unknown fsck option " + args[i]).c_str());
    }
    if (!records_dir.empty()) {
        for (const auto& entry : std::filesystem::directory_iterator(records_dir)) {
            if (entry.path().extension() == ".jsonl") paths.push_back(entry.path().string());
        }
    }
    if (paths.empty()) return usage("fsck needs --records or a non-empty --records-dir");
    std::sort(paths.begin(), paths.end());  // deterministic report order

    int corrupt_files = 0;
    for (const std::string& path : paths) {
        if (common::sealed_header_type(path) == feedback::kCorpusHeaderType) {
            // A corpus is written whole, so it has no resumable prefix:
            // --repair leaves it alone; --corpus-out regenerates it.
            try {
                const feedback::CorpusFile corpus = feedback::read_corpus_file(path);
                std::printf("fsck: %s: ok — corpus of %zu entries\n", path.c_str(),
                            corpus.entries.size());
                continue;
            } catch (const common::IntegrityError& e) {
                std::printf("fsck: %s: CORRUPT (integrity), line %d: %s\n", path.c_str(),
                            e.line(), e.detail().c_str());
            } catch (const common::FileParseError& e) {
                std::printf("fsck: %s: CORRUPT (structure), line %d: %s\n", path.c_str(),
                            e.line(), e.detail().c_str());
            }
            ++corrupt_files;
            if (repair)
                std::printf("fsck: %s: not repaired — a corpus is written whole; regenerate "
                            "it with --corpus-out\n",
                            path.c_str());
            continue;
        }
        shard::RecordScan scan;
        try {
            scan = shard::scan_record_file(path);
        } catch (const common::Error& e) {
            std::printf("fsck: %s: UNREADABLE: %s\n", path.c_str(), e.what());
            ++corrupt_files;
            continue;
        }
        if (scan.clean()) {
            if (scan.file.complete()) {
                std::printf("fsck: %s: ok — %zu record(s), sealed by trailer\n", path.c_str(),
                            scan.file.records.size());
            } else {
                std::printf("fsck: %s: ok — in progress (checkpoint %lld of %lld)\n",
                            path.c_str(), static_cast<long long>(scan.file.checkpoint),
                            static_cast<long long>(scan.file.manifest.unit_end));
            }
            continue;
        }
        ++corrupt_files;
        if (scan.error_kind == shard::ScanErrorKind::Integrity) {
            std::printf("fsck: %s: CORRUPT (integrity), line %d: %s\n", path.c_str(),
                        scan.error_line, scan.error.c_str());
        } else if (scan.error_kind == shard::ScanErrorKind::Parse) {
            std::printf("fsck: %s: CORRUPT (structure), line %d: %s\n", path.c_str(),
                        scan.error_line, scan.error.c_str());
        } else if (!scan.have_header) {
            std::printf("fsck: %s: CORRUPT, line 1: no parseable header line\n", path.c_str());
        } else {
            std::printf("fsck: %s: torn tail, line %d (mid-write kill; durable prefix ends at "
                        "offset %lld)\n",
                        path.c_str(), scan.torn_line,
                        static_cast<long long>(scan.file.resume_offset));
        }
        if (repair) {
            const std::int64_t removed = shard::repair_record_file(path, scan);
            std::printf("fsck: %s: repaired — truncated %lld byte(s); resumable at checkpoint "
                        "%lld\n",
                        path.c_str(), static_cast<long long>(removed),
                        static_cast<long long>(scan.have_header ? scan.file.checkpoint : 0));
        }
    }
    std::printf("fsck: %zu file(s), %d corrupt\n", paths.size(), corrupt_files);
    return corrupt_files > 0 ? kExitMerge : kExitOk;
}

int cmd_replay(const std::vector<std::string>& args) {
    if (args.size() != 1 || args[0].rfind("--", 0) == 0)
        return usage("replay expects exactly one <testcase.json>");
    core::LoadedTestCase tc;
    try {
        tc = core::load_testcase_file(args[0]);
    } catch (const common::ValidationError& e) {
        // An original program that fails validation is a malformed file.
        std::fprintf(stderr, "ffaudit replay: %s: %s\n", args[0].c_str(), e.what());
        return kExitParse;
    }
    std::printf("transformation: %s\n", tc.transformation.c_str());
    std::printf("recorded verdict: %s (%s)\n", tc.verdict.c_str(), tc.detail.c_str());
    const core::ReplayResult replay = core::replay_testcase(tc);
    std::printf("replayed verdict: %s\n", core::verdict_name(replay.outcome.verdict));
    if (!replay.outcome.detail.empty()) std::printf("  %s\n", replay.outcome.detail.c_str());
    std::printf("%s\n", replay.reproduced ? "REPRODUCED" : "DID NOT REPRODUCE");
    return replay.reproduced ? 0 : 1;
}

}  // namespace

namespace {

/// The exit code an uncaught common::Error maps to, per command: the
/// dominant failure class of each command's main phase.  Malformed input
/// files override to kExitParse via the exception type, and commands remap
/// their secondary phases inline (e.g. `run` returns kExitExecution for an
/// audit failure but kExitJob for a bad job).
int default_error_code(const std::string& command) {
    if (command == "plan" || command == "run") return kExitJob;
    if (command == "run-shard") return kExitExecution;
    if (command == "merge" || command == "fsck") return kExitMerge;
    if (command == "serve" || command == "worker") return kExitCoordinator;
    return kExitInternal;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "plan") return cmd_plan(args);
        if (command == "run-shard") return cmd_run_shard(args);
        if (command == "merge") return cmd_merge(args);
        if (command == "run") return cmd_run(args);
        if (command == "serve") return cmd_serve(args);
        if (command == "worker") return cmd_worker(args);
        if (command == "fsck") return cmd_fsck(args);
        if (command == "replay") return cmd_replay(args);
        if (command == "--help" || command == "-h" || command == "help") {
            usage();  // asked for, so not an error
            return kExitOk;
        }
        return usage(("unknown command " + command).c_str());
    } catch (const UsageError& e) {
        return usage(e.what());
    } catch (const common::ParseError& e) {
        std::fprintf(stderr, "ffaudit %s: %s\n", command.c_str(), e.what());
        return kExitParse;
    } catch (const common::Error& e) {
        std::fprintf(stderr, "ffaudit %s: %s\n", command.c_str(), e.what());
        return default_error_code(command);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ffaudit %s: %s\n", command.c_str(), e.what());
        return kExitInternal;
    }
}
