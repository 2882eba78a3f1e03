#include "core/testcase_io.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "core/report.h"
#include "feedback/coverage.h"
#include "ir/serialize.h"

namespace ff::core {

using common::Json;

namespace {

const char* trial_kind_name(TrialRecord::Kind kind) {
    switch (kind) {
        case TrialRecord::Kind::NotRun: return "not-run";
        case TrialRecord::Kind::Uninteresting: return "uninteresting";
        case TrialRecord::Kind::Pass: return "pass";
        case TrialRecord::Kind::Failed: return "failed";
    }
    return "not-run";
}

TrialRecord::Kind trial_kind_from_name(const std::string& name) {
    if (name == "not-run") return TrialRecord::Kind::NotRun;
    if (name == "uninteresting") return TrialRecord::Kind::Uninteresting;
    if (name == "pass") return TrialRecord::Kind::Pass;
    if (name == "failed") return TrialRecord::Kind::Failed;
    throw common::Error("unknown trial record kind: " + name);
}

}  // namespace

Json buffer_to_json(const interp::Buffer& buffer) {
    Json j = Json::object();
    j["dtype"] = ir::dtype_name(buffer.dtype());
    Json shape = Json::array();
    for (std::int64_t d : buffer.shape()) shape.push_back(Json(d));
    j["shape"] = std::move(shape);
    Json data = Json::array();
    const bool is_float = ir::dtype_is_float(buffer.dtype());
    for (std::int64_t i = 0; i < buffer.size(); ++i) {
        const interp::Value v = buffer.load(i);
        if (is_float) data.push_back(Json(v.as_double()));
        else data.push_back(Json(v.as_int()));
    }
    j["data"] = std::move(data);
    return j;
}

interp::Buffer buffer_from_json(const Json& j, const std::string& name) {
    const ir::DType dtype = ir::dtype_from_name(j.at("dtype").as_string());
    const auto& data = j.at("data").as_array();
    // The shape must describe exactly the data at hand before it sizes an
    // allocation: no negative extent, and no product of the non-zero
    // extents (which bounds every stride) past int64.
    std::vector<std::int64_t> shape;
    std::int64_t nonzero = 1;
    bool empty = false;
    for (const auto& d : j.at("shape").as_array()) {
        const std::int64_t extent = d.as_int();
        if (extent < 0 || (extent > 0 && __builtin_mul_overflow(nonzero, extent, &nonzero)))
            throw common::ParseError(name + ": shape extent " + std::to_string(extent) +
                                     " is negative or overflows the element count");
        empty |= extent == 0;
        shape.push_back(extent);
    }
    const std::int64_t elements = empty ? 0 : nonzero;
    if (elements != static_cast<std::int64_t>(data.size()))
        throw common::ParseError(name + ": shape holds " + std::to_string(elements) +
                                 " elements but data has " + std::to_string(data.size()));
    interp::Buffer buf(dtype, std::move(shape));
    const bool is_float = ir::dtype_is_float(dtype);
    for (std::int64_t i = 0; i < buf.size(); ++i) {
        const auto& v = data[static_cast<std::size_t>(i)];
        buf.store(i, is_float ? interp::Value::from_double(v.as_double())
                              : interp::Value::from_int(v.as_int()));
    }
    return buf;
}

Json context_to_json(const interp::Context& ctx) {
    Json j = Json::object();
    Json symbols = Json::object();
    for (const auto& [name, value] : ctx.symbols) symbols[name] = Json(value);
    j["symbols"] = std::move(symbols);
    Json buffers = Json::object();
    for (const auto& [name, buffer] : ctx.buffers) buffers[name] = buffer_to_json(buffer);
    j["buffers"] = std::move(buffers);
    return j;
}

interp::Context context_from_json(const Json& j) {
    interp::Context ctx;
    for (const auto& [name, value] : j.at("symbols").as_object())
        ctx.symbols[name] = value.as_int();
    for (const auto& [name, buffer] : j.at("buffers").as_object())
        ctx.buffers.emplace(name, buffer_from_json(buffer, "buffer '" + name + "'"));
    return ctx;
}

Json trial_record_to_json(const TrialRecord& record) {
    Json j = Json::object();
    j["kind"] = trial_kind_name(record.kind);
    if (record.kind != TrialRecord::Kind::NotRun) {
        // Per-side cost counters [original points, original instructions,
        // transformed points, transformed instructions] — deterministic per
        // unit, so they participate in the byte-identity contract.
        Json cost = Json::array();
        cost.push_back(Json(record.original_points));
        cost.push_back(Json(record.original_instructions));
        cost.push_back(Json(record.transformed_points));
        cost.push_back(Json(record.transformed_instructions));
        j["cost"] = std::move(cost);
        // Conditional field: coverage-off records keep their exact
        // historical bytes (like "cost" vs pre-cost records).
        if (!record.coverage.empty())
            j["cov"] = feedback::cov_words_to_hex(record.coverage);
    }
    if (record.kind == TrialRecord::Kind::Failed) {
        j["verdict"] = verdict_name(record.verdict);
        j["detail"] = record.detail;
        if (record.inputs) j["inputs"] = context_to_json(*record.inputs);
    }
    return j;
}

TrialRecord trial_record_from_json(const Json& j) {
    TrialRecord record;
    record.kind = trial_kind_from_name(j.at("kind").as_string());
    if (record.kind != TrialRecord::Kind::NotRun) {
        const auto& cost = j.at("cost").as_array();
        if (cost.size() != 4)
            throw common::Error("trial record cost must have 4 entries, got " +
                                std::to_string(cost.size()));
        record.original_points = cost[0].as_int();
        record.original_instructions = cost[1].as_int();
        record.transformed_points = cost[2].as_int();
        record.transformed_instructions = cost[3].as_int();
        if (j.contains("cov"))
            record.coverage = feedback::cov_words_from_hex(j.at("cov").as_string());
    }
    if (record.kind == TrialRecord::Kind::Failed) {
        record.verdict = verdict_from_name(j.at("verdict").as_string());
        record.detail = j.at("detail").as_string();
        // Failing records must carry their inputs: the merge-time artifact
        // save dereferences them, so a record without them is malformed
        // wire data, rejected here rather than crashing the merger.
        record.inputs = std::make_unique<interp::Context>(context_from_json(j.at("inputs")));
    }
    return record;
}

Json fuzz_report_to_json(const FuzzReport& report) {
    Json j = Json::object();
    j["transformation"] = report.transformation;
    j["match_description"] = report.match_description;
    j["verdict"] = verdict_name(report.verdict);
    j["trials"] = report.trials;
    j["uninteresting"] = report.uninteresting;
    j["original_points"] = report.original_points;
    j["original_instructions"] = report.original_instructions;
    j["transformed_points"] = report.transformed_points;
    j["transformed_instructions"] = report.transformed_instructions;
    j["threads"] = report.threads;
    j["seconds"] = report.seconds;
    j["trials_per_second"] = report.trials_per_second;
    j["detail"] = report.detail;
    j["artifact_path"] = report.artifact_path;
    j["artifact_error"] = report.artifact_error;
    j["cutout_nodes"] = report.cutout_nodes;
    j["program_nodes"] = report.program_nodes;
    j["input_volume"] = report.input_volume;
    j["input_volume_before_mincut"] = report.input_volume_before_mincut;
    j["mincut_improved"] = report.mincut_improved;
    j["whole_program_cutout"] = report.whole_program_cutout;
    // Conditional coverage counters (docs/ARCHITECTURE.md clause 10):
    // coverage-off reports keep their exact historical bytes.
    if (report.pairs_total != 0 || report.pairs_hit != 0 || report.corpus_size != 0) {
        j["pairs_total"] = report.pairs_total;
        j["pairs_hit"] = report.pairs_hit;
        j["corpus_size"] = report.corpus_size;
    }
    return j;
}

FuzzReport fuzz_report_from_json(const Json& j) {
    FuzzReport report;
    report.transformation = j.at("transformation").as_string();
    report.match_description = j.at("match_description").as_string();
    report.verdict = verdict_from_name(j.at("verdict").as_string());
    report.trials = static_cast<int>(j.at("trials").as_int());
    report.uninteresting = static_cast<int>(j.at("uninteresting").as_int());
    report.original_points = j.at("original_points").as_int();
    report.original_instructions = j.at("original_instructions").as_int();
    report.transformed_points = j.at("transformed_points").as_int();
    report.transformed_instructions = j.at("transformed_instructions").as_int();
    report.threads = static_cast<int>(j.at("threads").as_int());
    report.seconds = j.at("seconds").as_double();
    report.trials_per_second = j.at("trials_per_second").as_double();
    report.detail = j.at("detail").as_string();
    report.artifact_path = j.at("artifact_path").as_string();
    report.artifact_error = j.at("artifact_error").as_string();
    report.cutout_nodes = static_cast<std::size_t>(j.at("cutout_nodes").as_int());
    report.program_nodes = static_cast<std::size_t>(j.at("program_nodes").as_int());
    report.input_volume = j.at("input_volume").as_int();
    report.input_volume_before_mincut = j.at("input_volume_before_mincut").as_int();
    report.mincut_improved = j.at("mincut_improved").as_bool();
    report.whole_program_cutout = j.at("whole_program_cutout").as_bool();
    if (j.contains("pairs_total")) {
        report.pairs_total = j.at("pairs_total").as_int();
        report.pairs_hit = j.at("pairs_hit").as_int();
        report.corpus_size = j.at("corpus_size").as_int();
    }
    return report;
}

Json testcase_to_json(const Cutout& cutout, const ir::SDFG& transformed,
                      const interp::Context& inputs, const std::string& transformation,
                      const std::string& verdict, const std::string& detail) {
    Json j = Json::object();
    j["transformation"] = transformation;
    j["verdict"] = verdict;
    j["detail"] = detail;
    j["original"] = ir::to_json(cutout.program);
    j["transformed"] = ir::to_json(transformed);
    Json system_state = Json::array();
    for (const auto& name : cutout.system_state) system_state.push_back(Json(name));
    j["system_state"] = std::move(system_state);
    j["inputs"] = context_to_json(inputs);
    return j;
}

LoadedTestCase testcase_from_json(const Json& j) {
    LoadedTestCase tc;
    tc.original = ir::sdfg_from_json(j.at("original"));
    // The original side runs unguarded; the transformed side's validity is
    // the verdict under test (invalid-code), so only the original is
    // checked here.
    tc.original.validate();
    tc.transformed = ir::sdfg_from_json(j.at("transformed"));
    tc.inputs = context_from_json(j.at("inputs"));
    for (const auto& name : j.at("system_state").as_array())
        tc.system_state.insert(name.as_string());
    tc.transformation = j.at("transformation").as_string();
    tc.verdict = j.at("verdict").as_string();
    tc.detail = j.at("detail").as_string();
    return tc;
}

LoadedTestCase load_testcase_file(const std::string& path) {
    return testcase_from_json(Json::parse_file(path));
}

ReplayResult replay_testcase(const LoadedTestCase& tc, DiffConfig config) {
    DifferentialTester tester(tc.original, tc.transformed, tc.system_state, std::move(config));
    ReplayResult result;
    result.outcome = tester.run_trial(tc.inputs);
    result.reproduced = verdict_name(result.outcome.verdict) == tc.verdict;
    return result;
}

std::string save_testcase_artifact(const std::string& dir, const Cutout& cutout,
                                   const ir::SDFG& transformed, const interp::Context& inputs,
                                   const FuzzReport& report, std::string* error) {
    const Json j = testcase_to_json(cutout, transformed, inputs, report.transformation,
                                    verdict_name(report.verdict), report.detail);
    const std::string text = j.dump(2);
    // Content-derived name keeps repeated runs deterministic.
    std::uint64_t h = 0x4242;
    for (char c : text) h = common::splitmix64(h ^ static_cast<std::uint64_t>(c));
    char name[64];
    std::snprintf(name, sizeof(name), "testcase_%016llx.json",
                  static_cast<unsigned long long>(h));
    const std::string path = dir + "/" + name;
    // Publish atomically: write under a per-process temp name, then rename.
    // The artifact name is content-derived, so two processes saving the same
    // finding write identical bytes — a racing reader must only ever see a
    // complete file, never a torn in-progress write.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::ofstream out(tmp);
    if (!out) {
        if (error) *error = "cannot open " + tmp + ": " + std::strerror(errno);
        return "";
    }
    out << text;
    out.close();
    if (out.fail()) {
        if (error) *error = "short write to " + tmp + ": " + std::strerror(errno);
        std::remove(tmp.c_str());  // never leave a truncated reproducer behind
        return "";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error) *error = "cannot publish " + path + ": " + std::strerror(errno);
        std::remove(tmp.c_str());
        return "";
    }
    return path;
}

}  // namespace ff::core
