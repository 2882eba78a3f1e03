// The ffaudit command-line contract: exit codes are part of the interface
// (orchestration scripts and the CI chaos job branch on them), so each
// class is pinned by driving the real binary as a subprocess.  The binary's
// path arrives via the FFAUDIT_PATH compile definition (CMakeLists.txt).
//
//   0  success (including a replay that reproduces)
//   2  usage errors (bad flags, bad fault specs, out-of-range timings)
//   3  an interrupted, resumable shard
//   4  job construction failures
//   5  shard execution failures
//   6  merge/validation failures, incl. record-integrity violations and
//      `fsck` having found corruption (clean fsck = 0)
//   7  malformed input files (parse errors)
//   8  coordinator/worker gave up
//   9  audit completed but poison units were quarantined (serve)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <utility>

#include <sys/wait.h>

#include "common/json.h"
#include "core/testcase_io.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

namespace fs = std::filesystem;
using ff::testing::scratch_dir;

struct CliResult {
    int code = -1;     ///< Exit code, or -1 when the process died on a signal.
    std::string out;   ///< Combined stdout + stderr.
};

/// Runs `ffaudit <args>` and captures its exit code and output.
CliResult run_cli(const std::string& args) {
    static int counter = 0;
    const std::string capture =
        ff::testing::scratch_root() + "/capture_" + std::to_string(counter++) + ".txt";
    const std::string cmd = std::string(FFAUDIT_PATH) + " " + args + " > " + capture + " 2>&1";
    const int status = std::system(cmd.c_str());
    CliResult result;
    if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
    std::ifstream in(capture, std::ios::binary);
    result.out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    fs::remove(capture);
    return result;
}

/// The job flags every test reuses — small enough to run in milliseconds.
const char kJob[] = "--workload gemm --passes table2 --trials 4 --size-max 5 "
                    "--max-transitions 2000";

TEST(CliUsage, BadInvocationsExitTwo) {
    EXPECT_EQ(run_cli("").code, 2);
    EXPECT_EQ(run_cli("frobnicate").code, 2);
    EXPECT_EQ(run_cli("plan --workload gemm").code, 2);  // missing --shards/--out-dir
    EXPECT_EQ(run_cli("run-shard").code, 2);             // missing --manifest
    EXPECT_EQ(run_cli("worker").code, 2);                // missing --socket
    EXPECT_EQ(run_cli("worker --socket /tmp/x.sock --fault explode").code, 2);
    EXPECT_EQ(run_cli("serve --records-dir /tmp/r --worker-fault 0=bogus").code, 2);
    // Malformed or out-of-range numbers are refused at parse time, naming
    // the flag, never as an internal error.  So are a flag without its value
    // and a --default without '=', whatever the command's own failure code,
    // and job values under which an audit tests or compares nothing: no
    // trials, no sizes, a NaN or infinite threshold.
    const std::pair<std::string, const char*> malformed[] = {
        {"run --trials abc", "--trials"},
        {"plan --shards x --out-dir /tmp/p", "--shards"},
        {"run --threshold zz", "--threshold"},
        {"run --trials 99999999999", "--trials"},
        {"run --seed 12abc", "--seed"},
        {"run --default N=ten", "--default"},
        {"serve --records-dir /tmp/r --worker-fault x=kill-after-units=1", "--worker-fault"},
        {"run --trials", "--trials"},
        {"plan --workload gemm --shards", "--shards"},
        {"merge --records", "--records"},
        {"serve --records-dir /tmp/r --lease-ms", "--lease-ms"},
        {"worker --socket", "--socket"},
        {"run --workload gemm --passes tiling --trials 2 --default N", "--default"},
        {"run --workload gemm --passes tiling --trials -5", "--trials"},
        {"run --workload gemm --passes tiling --trials 0", "--trials"},
        {"plan --workload gemm --trials 0 --shards 2 --out-dir " + scratch_dir("zero_trials"),
         "--trials"},
        {"run --workload gemm --passes tiling --trials 2 --threshold nan", "--threshold"},
        {"run --workload gemm --passes tiling --trials 2 --threshold inf", "--threshold"},
        {"run --workload gemm --passes tiling --trials 2 --size-max 0", "--size-max"},
        // A negative budget once ran as no budget at all.
        {"run --workload gemm --passes tiling --trials 2 --max-transitions -5",
         "--max-transitions"},
        {"run --workload gemm --passes tiling --trials 2 --max-points -1", "--max-points"},
        {"run --workload gemm --passes tiling --trials 2 --max-alloc-bytes -1",
         "--max-alloc-bytes"},
        // Generation sizes below 1 once ran clamped to 1 under a job key
        // that kept the given value.
        {"run --workload gemm --passes correct --trials 4 --feedback --generation-size -3",
         "--generation-size"},
        {"run --workload gemm --passes correct --trials 4 --feedback --generation-size 0",
         "--generation-size"}};
    for (const auto& [bad, flag] : malformed) {
        const CliResult r = run_cli(bad);
        EXPECT_EQ(r.code, 2) << bad << "\n" << r.out;
        EXPECT_NE(r.out.find(std::string("ffaudit: ") + flag + " needs"), std::string::npos)
            << bad << "\n" << r.out;
    }

    // A threshold <= 0 still selects the bitwise comparison.
    for (const char* bitwise : {"--threshold 0", "--threshold -1"}) {
        const CliResult r =
            run_cli(std::string("run --workload gemm --passes tiling --trials 1 ") + bitwise);
        EXPECT_EQ(r.code, 0) << bitwise << "\n" << r.out;
    }

    const CliResult help = run_cli("--help");
    EXPECT_EQ(help.code, 0);
    EXPECT_NE(help.out.find("exit codes:"), std::string::npos)
        << "--help must document the exit-code contract";
}

TEST(CliUsage, ServeRejectsBadTimingFlagsAtParseTime) {
    // An unknown workload fails job construction (exit 4) only after every
    // flag has parsed, so exit 2 here means the flag itself was refused: a
    // NaN or zero lease never reaches a running serve.
    const std::string serve =
        "serve --workload no_such_kernel --records-dir " + scratch_dir("timing") + " ";
    for (const char* bad : {"--lease-ms 0", "--lease-ms nan", "--lease-ms soon", "--lease-ms inf",
                            "--linger-ms -1", "--linger-ms nan", "--worker-watchdog-ms -1",
                            "--threads two"}) {
        const CliResult r = run_cli(serve + bad);
        EXPECT_EQ(r.code, 2) << bad << "\n" << r.out;
    }
    // No linger and no watchdog are valid settings.
    const CliResult zero = run_cli(serve + "--linger-ms 0 --lease-ms 1e4 --worker-watchdog-ms 0");
    EXPECT_EQ(zero.code, 4) << zero.out;

    // The worker refuses the same class of values before it dials anyone.
    for (const char* bad : {"--watchdog-ms nan", "--watchdog-ms -2"}) {
        const CliResult r = run_cli(std::string("worker --socket /tmp/x.sock ") + bad);
        EXPECT_EQ(r.code, 2) << bad << "\n" << r.out;
    }

    // Every other timing derives from the lease: the knobs that once set
    // them apart are unknown options.
    for (const char* gone : {"--heartbeat-ms 300", "--backoff-base-ms 50", "--backoff-max-ms 200",
                             "--straggler-factor 1", "--worker-reply-timeout-ms 2000"}) {
        const CliResult r = run_cli(serve + gone);
        EXPECT_EQ(r.code, 2) << gone << "\n" << r.out;
        EXPECT_NE(r.out.find("unknown serve option"), std::string::npos) << gone << "\n" << r.out;
    }
    const CliResult gone = run_cli("worker --socket /tmp/x.sock --reply-timeout-ms 1500");
    EXPECT_EQ(gone.code, 2) << gone.out;
    EXPECT_NE(gone.out.find("unknown worker option"), std::string::npos) << gone.out;
}

TEST(CliUsage, ListWorkloadsWorksWhereHelpSaysItDoes) {
    // --help documents --list-workloads among the job options of plan, run
    // and serve: each prints the kernel names and exits 0.
    for (const char* command : {"plan", "run", "serve"}) {
        const CliResult r = run_cli(std::string(command) + " --list-workloads");
        EXPECT_EQ(r.code, 0) << command << "\n" << r.out;
        EXPECT_NE(r.out.find("gemm\n"), std::string::npos) << command << "\n" << r.out;
    }
    // serve's --threads (its own prepare workers) is in the usage text.
    const std::string help = run_cli("--help").out;
    const std::size_t serve = help.find("\nserve:");
    const std::size_t worker = help.find("\nworker:");
    ASSERT_NE(serve, std::string::npos) << help;
    ASSERT_NE(worker, std::string::npos) << help;
    EXPECT_LT(help.find("--threads", serve), worker) << help;
}

TEST(CliJobErrors, UnknownWorkloadExitsFour) {
    const CliResult r = run_cli("run --workload no_such_kernel");
    EXPECT_EQ(r.code, 4);
    EXPECT_NE(r.out.find("no_such_kernel"), std::string::npos) << r.out;
}

TEST(CliJobErrors, InvalidSdfgExitsFourNamingTheFault) {
    // gemm with a third param on its two-range zero_T map.  The passes and
    // the interpreter read one range per param, so an audit of the program
    // as loaded reads past the ranges; validated at load, it is refused.
    common::Json sdfg = ir::to_json(workloads::build_npbench_kernel("gemm"));
    int mutated = 0;
    for (common::Json& state : sdfg["states"].as_array()) {
        for (common::Json& node : state["nodes"].as_array()) {
            if (common::json_string(node, "kind") == "map_entry" &&
                common::json_string(node, "label") == "zero_T") {
                node["params"].as_array().emplace_back(std::string("zk"));
                ++mutated;
            }
        }
    }
    ASSERT_EQ(mutated, 1);
    const std::string path = scratch_dir("bad_sdfg") + "/mut.json";
    std::ofstream(path) << sdfg.dump();
    const CliResult r = run_cli("run --sdfg " + path + " --passes table2 --trials 3 --size-max 4");
    EXPECT_EQ(r.code, 4) << r.out;
    EXPECT_NE(r.out.find("map 'zero_T' has mismatched params/ranges"), std::string::npos)
        << r.out;
}

TEST(CliJobErrors, SdfgWithoutDefaultsExitsFourNamingTheSymbols) {
    // Prepare used to stop at the first unbound symbol (exit 5 from run,
    // while plan exited 0); the job is refused before any of it.
    const std::string dir = scratch_dir("unbound_sdfg");
    const std::string path = dir + "/gemm.json";
    std::ofstream(path) << ir::to_json(workloads::build_npbench_kernel("gemm")).dump();
    const std::string sdfg = "--sdfg " + path + " --passes table2 --trials 2 ";
    for (const std::string& command :
         {"plan " + sdfg + "--shards 1 --out-dir " + dir + "/plan", "run " + sdfg,
          "serve " + sdfg + "--records-dir " + dir + "/records"}) {
        const CliResult r = run_cli(command);
        EXPECT_EQ(r.code, 4) << command << "\n" << r.out;
        EXPECT_NE(r.out.find("without a default binding (--default <sym>=<val>): K, M, N"),
                  std::string::npos)
            << command << "\n" << r.out;
    }
    const CliResult bound = run_cli("plan " + sdfg + "--default K=4 --default M=4 --default N=4 " +
                                    "--shards 1 --out-dir " + dir + "/plan");
    EXPECT_EQ(bound.code, 0) << bound.out;
}

TEST(CliParseErrors, ReproducerWithAnInvalidOriginalExitsSeven) {
    // A Table 2 gemm reproducer whose map `mm` keeps one of its two ranges.
    // Replaying it used to walk past the map's ranges (a segfault);
    // validated at load, it is a malformed file.
    const std::string dir = scratch_dir("invalid_original");
    ASSERT_EQ(run_cli(std::string("run ") + kJob + " --artifact-dir " + dir + "/art").code, 0);
    std::string path;
    for (const auto& entry : fs::directory_iterator(dir + "/art")) {
        common::Json tc = common::Json::parse_file(entry.path().string());
        if (common::json_string(tc, "transformation") != "Vectorization") continue;
        int cut = 0;
        for (common::Json& node : tc["original"]["states"].as_array()[0]["nodes"].as_array()) {
            if (common::json_string(node, "label") != "mm" || !node.contains("ranges")) continue;
            node["ranges"].as_array().resize(1);
            ++cut;
        }
        if (cut == 0) continue;
        path = dir + "/testcase.json";
        std::ofstream(path) << tc.dump();
        break;
    }
    ASSERT_FALSE(path.empty()) << "no Vectorization reproducer of map mm";
    const CliResult r = run_cli("replay " + path);
    EXPECT_EQ(r.code, 7) << r.out;
    EXPECT_NE(r.out.find("map 'mm' has mismatched params/ranges"), std::string::npos) << r.out;
}

TEST(CliParseErrors, WrongTypedSdfgFieldExitsSeven) {
    // A container dtype that is a number, not a name: malformed input.
    common::Json sdfg = ir::to_json(workloads::build_npbench_kernel("gemm"));
    sdfg["containers"].as_array().at(0)["dtype"] = 5;
    const std::string path = scratch_dir("wrong_typed_sdfg") + "/mut.json";
    std::ofstream(path) << sdfg.dump();
    const CliResult r = run_cli("run --sdfg " + path + " --passes table2 --trials 3 --size-max 4");
    EXPECT_EQ(r.code, 7) << r.out;
    EXPECT_NE(r.out.find("not a string (got an integer)"), std::string::npos) << r.out;
}

TEST(CliParseErrors, WrongTypedReproducerFieldExitsSeven) {
    // A reproducer whose transformation name is a number: malformed input.
    const common::Json program = ir::to_json(workloads::build_npbench_kernel("gemm"));
    common::Json testcase = common::Json::object();
    testcase["transformation"] = 5;
    testcase["verdict"] = "pass";
    testcase["detail"] = "";
    testcase["original"] = program;
    testcase["transformed"] = program;
    testcase["system_state"] = common::Json::array();
    testcase["inputs"] = core::context_to_json(interp::Context{});
    const std::string path = scratch_dir("wrong_typed_testcase") + "/testcase.json";
    std::ofstream(path) << testcase.dump();
    const CliResult r = run_cli("replay " + path);
    EXPECT_EQ(r.code, 7) << r.out;
    EXPECT_NE(r.out.find("not a string (got an integer)"), std::string::npos) << r.out;
}

TEST(CliReplay, BudgetedReproducerReplaysUnderItsBudget) {
    // Under 400 points per execution, MapExpansion's transformed side runs
    // out of fuel where the original does not.  The reproducer records the
    // point budget, so its replay exhausts it again.
    const std::string dir = scratch_dir("budgeted_replay");
    ASSERT_EQ(run_cli("run --workload gemm --passes correct --trials 20 --max-points 400 "
                      "--artifact-dir " + dir + "/art").code,
              0);
    std::string path;
    for (const auto& entry : fs::directory_iterator(dir + "/art")) {
        const common::Json tc = common::Json::parse_file(entry.path().string());
        if (common::json_string(tc, "verdict") != "resource-exhausted") continue;
        EXPECT_EQ(common::json_int(tc, "max_points"), 400);
        EXPECT_FALSE(tc.contains("max_state_transitions")) << "the job left it at the default";
        EXPECT_FALSE(tc.contains("max_alloc_bytes"));
        path = entry.path().string();
    }
    ASSERT_FALSE(path.empty()) << "no resource-exhausted reproducer";
    const CliResult r = run_cli("replay " + path);
    EXPECT_EQ(r.code, 0) << r.out;
    EXPECT_NE(r.out.find("REPRODUCED"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("exceeded 400 points"), std::string::npos) << r.out;

    // A job without budgets records none.
    ASSERT_EQ(run_cli("run --workload gemm --passes table2 --trials 4 --size-max 5 "
                      "--artifact-dir " + dir + "/plain").code,
              0);
    int artifacts = 0;
    for (const auto& entry : fs::directory_iterator(dir + "/plain")) {
        const common::Json tc = common::Json::parse_file(entry.path().string());
        EXPECT_FALSE(tc.contains("max_state_transitions") || tc.contains("max_points") ||
                     tc.contains("max_alloc_bytes"))
            << entry.path();
        ++artifacts;
    }
    EXPECT_GT(artifacts, 0);
}

TEST(CliParseErrors, MalformedManifestExitsSeven) {
    const std::string dir = scratch_dir("bad_manifest");
    std::ofstream(dir + "/shard-0.json") << "{\"job\": nope}";
    const CliResult r = run_cli("run-shard --manifest " + dir + "/shard-0.json --records-dir " +
                                dir);
    EXPECT_EQ(r.code, 7);
    EXPECT_NE(r.out.find("shard-0.json"), std::string::npos) << r.out;
}

TEST(CliParseErrors, OutOfRangeManifestFieldsExitSevenNamingTheField) {
    // Each edit of a planned gemm manifest once ran: shard_index -1 wrote
    // records--1.jsonl, size_max 4.9 ran as 4, max_state_transitions -5 ran
    // unbudgeted, and size_max 1e308 (undefined behaviour to convert) failed
    // the audit with exit 5.  generation_size 0 ran clamped to 1, and
    // instance_count -1 failed the runner's cross-check with exit 5.
    const std::string dir = scratch_dir("range_manifest");
    ASSERT_EQ(run_cli("plan --workload gemm --passes correct --trials 4 --shards 2 --out-dir " +
                      dir + "/plan")
                  .code,
              0);
    const common::Json planned = common::Json::parse_file(dir + "/plan/shard-0.json");
    const std::pair<const char*, common::Json> edits[] = {
        {"shard_index", common::Json(-1)},
        {"size_max", common::Json(4.9)},
        {"size_max", common::Json(1e308)},
        {"max_state_transitions", common::Json(-5)},
        {"generation_size", common::Json(0)},
        {"instance_count", common::Json(-1)}};
    int k = 0;
    for (const auto& [field, value] : edits) {
        common::Json manifest = planned;
        if (manifest.contains(field)) manifest[field] = value;
        else manifest["job"][field] = value;
        const std::string path = dir + "/edit-" + std::to_string(k++) + ".json";
        std::ofstream(path) << manifest.dump(2);
        const CliResult r =
            run_cli("run-shard --manifest " + path + " --records-dir " + dir + "/records");
        EXPECT_EQ(r.code, 7) << field << "\n" << r.out;
        EXPECT_NE(r.out.find(std::string("'") + field + "'"), std::string::npos)
            << field << "\n" << r.out;
    }
    EXPECT_FALSE(fs::exists(dir + "/records/records--1.jsonl"));
}

TEST(CliShardLifecycle, PlanInterruptResumeMergeExitCodes) {
    const std::string dir = scratch_dir("lifecycle");
    const std::string plan_dir = dir + "/plan";
    const std::string records_dir = dir + "/records";

    EXPECT_EQ(run_cli(std::string("plan ") + kJob + " --shards 2 --out-dir " + plan_dir +
                      " --checkpoint-interval 2")
                  .code,
              0);
    ASSERT_TRUE(fs::exists(plan_dir + "/shard-0.json"));

    // An interrupted shard is a distinct, resumable condition: exit 3.
    const std::string run_shard =
        "run-shard --manifest " + plan_dir + "/shard-0.json --records-dir " + records_dir;
    EXPECT_EQ(run_cli(run_shard + " --interrupt-after-units 2").code, 3);

    // Merging while a shard is incomplete is a validation failure: exit 6.
    EXPECT_EQ(run_cli("merge --records-dir " + records_dir).code, 6);

    // A garbage record stream is a parse failure: exit 7.
    std::ofstream(records_dir + "/records-9.jsonl") << "{\"type\":\"record\",\"unit\":0}\n";
    EXPECT_EQ(run_cli("merge --records " + records_dir + "/records-9.jsonl").code, 7);

    // Resuming to completion clears the way: both shards, then the merge.
    fs::remove(records_dir + "/records-9.jsonl");
    EXPECT_EQ(run_cli(run_shard).code, 0);
    EXPECT_EQ(run_cli("run-shard --manifest " + plan_dir + "/shard-1.json --records-dir " +
                      records_dir)
                  .code,
              0);
    EXPECT_EQ(run_cli("merge --records-dir " + records_dir + " --out " + dir + "/report.json")
                  .code,
              0);
    EXPECT_TRUE(fs::exists(dir + "/report.json"));
}

TEST(CliFsck, CleanExitsZeroAndCorruptionExitsSix) {
    const std::string dir = scratch_dir("fsck");
    const std::string plan_dir = dir + "/plan";
    const std::string records_dir = dir + "/records";
    ASSERT_EQ(run_cli(std::string("plan ") + kJob + " --shards 1 --out-dir " + plan_dir +
                      " --checkpoint-interval 2")
                  .code,
              0);
    ASSERT_EQ(run_cli("run-shard --manifest " + plan_dir + "/shard-0.json --records-dir " +
                      records_dir)
                  .code,
              0);
    const std::string victim = records_dir + "/records-0.jsonl";

    // A healthy record set: exit 0.
    EXPECT_EQ(run_cli("fsck --records-dir " + records_dir).code, 0);
    EXPECT_EQ(run_cli("fsck --records " + victim).code, 0);

    // One flipped byte: corruption found = exit 6, naming file and line.
    std::string bytes;
    {
        std::ifstream in(victim, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::size_t at = bytes.size() / 2;
    while (bytes[at] == '\n') ++at;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x04);
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << bytes;

    const CliResult corrupt = run_cli("fsck --records-dir " + records_dir);
    EXPECT_EQ(corrupt.code, 6) << corrupt.out;
    EXPECT_NE(corrupt.out.find("records-0.jsonl"), std::string::npos) << corrupt.out;
    EXPECT_NE(corrupt.out.find("line"), std::string::npos) << corrupt.out;

    // --repair still reports the corruption it found (6)...
    EXPECT_EQ(run_cli("fsck --records " + victim + " --repair").code, 6);
    // ...but the surviving prefix verifies clean afterwards.
    EXPECT_EQ(run_cli("fsck --records " + victim).code, 0);

    // No inputs at all is a usage error, not a vacuous pass.
    EXPECT_EQ(run_cli("fsck").code, 2);
}

TEST(CliFsck, CorpusVerifiesAndRepairNeverTruncatesIt) {
    const std::string dir = scratch_dir("fsck_corpus");
    const std::string corpus = dir + "/corpus.jsonl";
    ASSERT_EQ(run_cli(std::string("run ") + kJob + " --feedback --corpus-out " + corpus +
                      " --out " + dir + "/report.json")
                  .code,
              0);

    // A healthy corpus verifies through the corpus reader: exit 0.
    const CliResult clean = run_cli("fsck --records " + corpus);
    EXPECT_EQ(clean.code, 0) << clean.out;
    EXPECT_NE(clean.out.find("ok — corpus of"), std::string::npos) << clean.out;
    EXPECT_EQ(run_cli("fsck --records-dir " + dir).code, 0);

    // One flipped byte: exit 6, naming file and line.
    std::string bytes;
    {
        std::ifstream in(corpus, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    std::size_t at = bytes.size() / 2;
    while (bytes[at] == '\n') ++at;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x04);
    std::ofstream(corpus, std::ios::binary | std::ios::trunc) << bytes;
    const CliResult corrupt = run_cli("fsck --records " + corpus);
    EXPECT_EQ(corrupt.code, 6) << corrupt.out;
    EXPECT_NE(corrupt.out.find("corpus.jsonl: CORRUPT"), std::string::npos) << corrupt.out;
    EXPECT_NE(corrupt.out.find("line"), std::string::npos) << corrupt.out;

    // A corpus is written whole, so --repair reports it but keeps its bytes.
    EXPECT_EQ(run_cli("fsck --records " + corpus + " --repair").code, 6);
    std::ifstream in(corpus, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()),
              bytes);
}

TEST(CliCoordinator, QuarantinedPoisonUnitsExitNine) {
    // A spawned worker that spins forever after its first durable checkpoint
    // (heartbeats keep flowing — only the wall-clock watchdog catches it) is
    // killed with exit 113; at --max-failures 1 its shard is quarantined:
    // the audit still completes and writes a report, but serve exits 9 so
    // orchestration can tell a clean audit from one with poisoned units.
    const std::string dir = scratch_dir("quarantine");
    const CliResult r = run_cli(std::string("serve ") + kJob +
                                " --shards 2 --checkpoint-interval 2 --socket " + dir +
                                "/coord.sock --records-dir " + dir + "/records" +
                                " --spawn-workers 1 --worker-fault 0=spin-after-units=1" +
                                " --worker-watchdog-ms 300 --max-failures 1" +
                                " --lease-ms 4000 --out " + dir +
                                "/report.json --quiet");
    EXPECT_EQ(r.code, 9) << r.out;
    EXPECT_NE(r.out.find("quarantined units:"), std::string::npos) << r.out;
    EXPECT_TRUE(fs::exists(dir + "/report.json")) << r.out;
}

TEST(CliCoordinator, ReapedWorkersLeaseIsRequeuedAtOnce) {
    // A SIGKILLed worker never comes back for its lease: the reaper requeues
    // it when it reaps the process, whether or not serve has read the
    // socket's EOF yet, so the audit ends far inside the 60 s lease, with
    // no expiration.
    const std::string dir = scratch_dir("reaper");
    const auto start = std::chrono::steady_clock::now();
    const CliResult r = run_cli(std::string("serve ") + kJob +
                                " --shards 2 --checkpoint-interval 2 --socket " + dir +
                                "/coord.sock --records-dir " + dir + "/records" +
                                " --spawn-workers 1 --lease-ms 60000" +
                                " --worker-fault 0=kill-after-units=3 --quiet");
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_EQ(r.code, 0) << r.out;
    std::smatch m;
    const std::regex counts(R"((\d+) expiration\(s\), (\d+) requeue)");
    ASSERT_TRUE(std::regex_search(r.out, m, counts)) << r.out;
    EXPECT_EQ(std::stoi(m[1]), 0) << r.out;
    EXPECT_GE(std::stoi(m[2]), 1) << r.out;
    EXPECT_LT(seconds, 30.0) << r.out;
}

TEST(CliCoordinator, UnreachableCoordinatorExitsEight) {
    const std::string dir = scratch_dir("unreachable");
    const CliResult r = run_cli("worker --socket " + dir + "/nobody.sock --connect-attempts 2 "
                                "--quiet");
    EXPECT_EQ(r.code, 8);
    EXPECT_NE(r.out.find("unreachable"), std::string::npos) << r.out;
}

}  // namespace
}  // namespace ff
