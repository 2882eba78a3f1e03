// Hostile external inputs: seeded structured mutations of a Table 2 gemm
// reproducer.  Every mutant of its original SDFG is parsed, validated and
// audited with the Table 2 passes; every mutant of the whole test case is
// loaded and replayed.  Each must end with a verdict or a typed refusal
// (common::ParseError for a malformed document, common::ValidationError for
// a malformed program), never another exception, a hang or a crash — the
// property `ffaudit` relies on to exit 7 (or 4) instead of 1 or a signal.
// The defects such mutants once hit are pinned below as named cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/fuzzer.h"
#include "core/testcase_io.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "shard/manifest.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

namespace fs = std::filesystem;
using common::Json;
using ff::testing::scratch_dir;

/// Mutants per property test.
constexpr int kMutants = 300;

/// The Table 2 gemm job the reproducer comes from (`ffaudit run --workload
/// gemm --passes table2 --trials 4 --size-max 5 --max-transitions 2000`).
shard::JobSpec gemm_table2_job() {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "table2";
    job.max_trials = 4;
    job.size_max = 5;
    job.max_state_transitions = 2000;
    job.defaults = workloads::npbench_defaults();
    return job;
}

bool has_map(const Json& sdfg, const std::string& label) {
    for (const Json& state : sdfg.at("states").as_array())
        for (const Json& node : state.at("nodes").as_array())
            if (common::json_string(node, "kind") == "map_entry" &&
                common::json_string(node, "label") == label)
                return true;
    return false;
}

/// The reproducer every mutant derives from: the job's Vectorization
/// finding on the whole gemm program (maps zero_T, mm, mm_k, scale_add), a
/// transformed-crash that replays both sides.
const Json& reproducer() {
    static const Json tc = [] {
        const shard::JobSpec job = gemm_table2_job();
        core::FuzzConfig config = shard::job_fuzz_config(job);
        config.artifact_dir = scratch_dir("mutation_seed");
        core::Fuzzer(config).audit(shard::load_job_program(job), shard::job_passes(job));
        std::vector<fs::path> paths;
        for (const auto& entry : fs::directory_iterator(config.artifact_dir))
            paths.push_back(entry.path());
        std::sort(paths.begin(), paths.end());
        for (const fs::path& path : paths) {
            Json doc = Json::parse_file(path.string());
            if (common::json_string(doc, "transformation") == "Vectorization" &&
                has_map(doc.at("original"), "mm"))
                return doc;
        }
        throw common::Error("the gemm Table 2 audit wrote no Vectorization reproducer of mm");
    }();
    return tc;
}

/// Structured edits of a JSON document: a value replaced by a nearby, a
/// hostile or another-typed one, or a string by another the document holds
/// under the same key (so names, expressions and connectors cross-reference
/// the wrong thing); an array element dropped or duplicated; an object
/// member deleted.
class Mutator {
public:
    Mutator(const Json& doc, std::uint64_t seed) : rng_(seed) { collect_strings(doc, ""); }

    /// Applies 1-3 edits to `doc`.
    void mutate(Json& doc) {
        const int edits = static_cast<int>(rng_.uniform_int(1, 3));
        for (int e = 0; e < edits; ++e) edit(doc);
    }

private:
    /// A value of the document, the container holding it, and the member
    /// name it sits under (an array element inherits its array's).
    struct Slot {
        Json* parent = nullptr;
        std::string key;
        std::size_t index = 0;  ///< Element index when the parent is an array.
    };

    void collect_strings(const Json& v, const std::string& key) {
        if (v.is_string()) {
            strings_[key].push_back(v.as_string());
        } else if (v.is_array()) {
            for (const Json& e : v.as_array()) collect_strings(e, key);
        } else if (v.is_object()) {
            for (const auto& [k, e] : v.as_object()) collect_strings(e, k);
        }
    }

    static void collect_slots(Json& v, const std::string& key, std::vector<Slot>& out) {
        if (v.is_array()) {
            common::JsonArray& arr = v.as_array();
            for (std::size_t i = 0; i < arr.size(); ++i) {
                out.push_back({&v, key, i});
                collect_slots(arr[i], key, out);
            }
        } else if (v.is_object()) {
            for (auto& [k, e] : v.as_object()) {
                out.push_back({&v, k, 0});
                collect_slots(e, k, out);
            }
        }
    }

    static Json& at(const Slot& s) {
        return s.parent->is_array() ? s.parent->as_array()[s.index]
                                    : s.parent->as_object().at(s.key);
    }

    Json pick_int(std::int64_t v) {
        // Unsigned arithmetic: an edit of an earlier edit's extreme wraps.
        const auto u = static_cast<std::uint64_t>(v);
        const std::uint64_t picks[] = {u + 1, u - 1, 0, ~std::uint64_t{0}, 0 - u, u * 7 + 3,
                                       std::uint64_t{1} << 40, ~std::uint64_t{0} >> 1};
        return Json(static_cast<std::int64_t>(picks[rng_.uniform_int(0, 7)]));
    }

    Json pick_string(const std::string& s, const std::string& key) {
        const std::vector<std::string>& same_key = strings_[key];
        switch (rng_.uniform_int(0, 7)) {
            case 0: return Json(std::string());
            case 1: return Json(s + "1");
            default:
                if (same_key.empty()) return Json(s + "1");
                return Json(same_key[static_cast<std::size_t>(
                    rng_.uniform_int(0, static_cast<std::int64_t>(same_key.size()) - 1))]);
        }
    }

    /// A value of another type than `v`.
    Json retype(const Json& v) {
        const Json options[] = {Json(), Json(true), Json(std::int64_t{2}), Json(0.5),
                                Json("x"), Json::array(), Json::object()};
        while (true) {
            const Json& pick = options[rng_.uniform_int(0, 6)];
            if (json_type_name(pick) != std::string(json_type_name(v))) return pick;
        }
    }

    const Slot& pick(const std::vector<Slot>& slots) {
        return slots[static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1))];
    }

    void edit(Json& doc) {
        std::vector<Slot> slots, leaves;
        collect_slots(doc, "", slots);
        for (const Slot& slot : slots)
            if (!at(slot).is_array() && !at(slot).is_object()) leaves.push_back(slot);
        if (slots.empty()) return;
        // Mostly leaf edits, which keep the document parseable more often
        // and so reach validation and the audit.
        const int op = static_cast<int>(rng_.uniform_int(0, 19));
        if (op == 0 || leaves.empty()) {
            Json& value = at(pick(slots));
            value = retype(value);
        } else if (op <= 2) {
            // Structural: drop a value from its container.
            const Slot& slot = pick(slots);
            if (slot.parent->is_array()) {
                auto& arr = slot.parent->as_array();
                arr.erase(arr.begin() + static_cast<std::ptrdiff_t>(slot.index));
            } else {
                slot.parent->as_object().erase(slot.key);
            }
        } else if (op == 3) {
            // Structural: duplicate an array element (a node, an edge, a
            // range, a symbol ...) in place.
            const Slot& slot = pick(slots);
            if (!slot.parent->is_array()) return;
            auto& arr = slot.parent->as_array();
            arr.insert(arr.begin() + static_cast<std::ptrdiff_t>(slot.index),
                       Json(arr[slot.index]));
        } else {
            const Slot& slot = pick(leaves);
            Json& value = at(slot);
            if (value.is_int()) {
                value = pick_int(value.as_int());
            } else if (value.is_double()) {
                const double picks[] = {0.0, -value.as_double(), 1e300,
                                        std::numeric_limits<double>::quiet_NaN()};
                value = Json(picks[rng_.uniform_int(0, 3)]);
            } else if (value.is_string()) {
                value = pick_string(value.as_string(), slot.key);
            } else if (value.is_bool()) {
                value = Json(!value.as_bool());
            } else {
                value = retype(value);
            }
        }
    }

    common::Rng rng_;
    /// Every string of the source document, by the member name it sits under.
    std::map<std::string, std::vector<std::string>> strings_;
};

/// How a mutant ended.
enum class End { Verdict, ParseError, ValidationError };

/// Interpreter budgets of every mutant run: hostile extents must exhaust
/// a budget, not the host.
interp::ExecConfig bounded_exec() {
    interp::ExecConfig exec;
    exec.max_state_transitions = 2000;
    exec.max_points = 1'000'000;
    exec.max_alloc_bytes = 64ll << 20;
    return exec;
}

/// Parses, validates and audits `sdfg` with the Table 2 passes: 2 trials,
/// size_max 4, 2000 transitions.
End audit_sdfg(const Json& sdfg) {
    try {
        ir::SDFG program = ir::sdfg_from_json(sdfg);
        program.validate();
        core::FuzzConfig config;
        config.max_trials = 2;
        config.sampler.size_max = 4;
        config.diff.exec = bounded_exec();
        config.cutout.defaults = workloads::npbench_defaults();
        core::Fuzzer(config).audit(program, shard::job_passes(gemm_table2_job()));
        return End::Verdict;
    } catch (const common::ParseError&) {
        return End::ParseError;
    } catch (const common::ValidationError&) {
        return End::ValidationError;
    }
}

/// Loads and replays the test case `doc`.
End replay(const Json& doc) {
    try {
        const core::LoadedTestCase tc = core::testcase_from_json(doc);
        core::DiffConfig config;
        config.exec = bounded_exec();
        core::replay_testcase(tc, config);
        return End::Verdict;
    } catch (const common::ParseError&) {
        return End::ParseError;
    } catch (const common::ValidationError&) {
        return End::ValidationError;
    }
}

/// Runs `kMutants` mutants of `source` through `run`; returns how many
/// ended in each way.  Any other exception fails the test naming its seed.
std::array<int, 3> run_mutants(const Json& source, std::uint64_t base_seed,
                               const std::function<Json(Json, Mutator&)>& mutant,
                               const std::function<End(const Json&)>& run) {
    std::array<int, 3> ends{};
    for (int k = 0; k < kMutants; ++k) {
        const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(k);
        Mutator mutator(source, seed);
        const Json doc = mutant(source, mutator);
        try {
            ++ends[static_cast<std::size_t>(run(doc))];
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << seed << ": " << e.what();
        }
    }
    return ends;
}

TEST(MutationProperty, SdfgMutantsEndInAVerdictOrATypedRefusal) {
    const Json& original = reproducer().at("original");
    ASSERT_EQ(audit_sdfg(original), End::Verdict);
    const std::array<int, 3> ends = run_mutants(
        original, 1000,
        [](Json doc, Mutator& m) {
            m.mutate(doc);
            return doc;
        },
        audit_sdfg);
    // The generator reaches every outcome, so none of the three is vacuous.
    EXPECT_GT(ends[0], 0);
    EXPECT_GT(ends[1], 0);
    EXPECT_GT(ends[2], 0);
}

TEST(MutationProperty, ScopeTreeMatchesReferenceOnEveryParsedSdfgMutant) {
    // The scope tree is built on any graph, whatever its scope structure:
    // cycles, dangling or duplicated map ends, improper nesting.
    const Json& original = reproducer().at("original");
    int parsed = 0;
    for (int k = 0; k < kMutants; ++k) {
        const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(k);
        Json doc = original;
        Mutator(original, seed).mutate(doc);
        ir::SDFG program;
        try {
            program = ir::sdfg_from_json(doc);
        } catch (const common::ParseError&) {
            continue;
        } catch (const common::ValidationError&) {
            continue;  // refused while loading, e.g. a duplicated container
        }
        ++parsed;
        for (ir::StateId sid : program.states())
            EXPECT_EQ(ff::testing::scope_tree_mismatch(program.state(sid)), "")
                << "mutant " << seed;
    }
    EXPECT_GT(parsed, 0);
}

TEST(MutationProperty, TestCaseMutantsEndInAVerdictOrATypedRefusal) {
    const Json& tc = reproducer();
    ASSERT_EQ(replay(tc), End::Verdict);
    // Each mutant edits the inputs, one side's program or the whole
    // document, in turn, so the small inputs object gets its share.
    int turn = 0;
    const std::array<int, 3> ends = run_mutants(
        tc, 5000,
        [&turn](Json doc, Mutator& m) {
            const char* regions[] = {"inputs", "original", "transformed", nullptr};
            const char* region = regions[turn++ % 4];
            if (region) m.mutate(doc[region]);
            else m.mutate(doc);
            return doc;
        },
        replay);
    EXPECT_GT(ends[0], 0);
    EXPECT_GT(ends[1], 0);
    EXPECT_GT(ends[2], 0);
}

// --- Named cases: what the generator once found -------------------------------

/// The reproducer's original with map `label` keeping only its first range.
Json drop_second_range(Json sdfg, const std::string& label) {
    for (Json& state : sdfg["states"].as_array())
        for (Json& node : state["nodes"].as_array())
            if (common::json_string(node, "label") == label && node.contains("ranges"))
                node["ranges"].as_array().resize(1);
    return sdfg;
}

TEST(MutationCases, MapMissingARangeIsRefusedAtLoadNotRun) {
    // Replaying it walked past the map's one range in build_plan.
    Json tc = reproducer();
    tc["original"] = drop_second_range(tc["original"], "mm");
    EXPECT_THROW(core::testcase_from_json(tc), common::ValidationError);
    EXPECT_EQ(audit_sdfg(tc["original"]), End::ValidationError);
    // The transformed side is not validated at load: its invalidity is the
    // recorded invalid-code verdict.
    Json invalid_transformed = reproducer();
    invalid_transformed["transformed"] = drop_second_range(invalid_transformed["transformed"], "mm");
    const core::ReplayResult r =
        core::replay_testcase(core::testcase_from_json(invalid_transformed));
    EXPECT_EQ(r.outcome.verdict, core::Verdict::InvalidCode);
}

/// Id of the node of `kind` labelled `label` in the SDFG's first state.
std::int64_t node_id(const Json& sdfg, const std::string& kind, const std::string& label) {
    for (const Json& node : sdfg.at("states").as_array()[0].at("nodes").as_array())
        if (common::json_string(node, "kind") == kind && common::json_string(node, "label") == label)
            return common::json_int(node, "id");
    throw common::Error("no " + kind + " '" + label + "'");
}

TEST(MutationCases, ImproperlyNestedScopeIsRefusedNotWalkedForever) {
    // The edge leaving mm_k's exit for mm's exit leaves mm_k's entry
    // instead: mm holds mm_k's entry but not its exit.  Cutout extraction
    // then grew its closure forever, reaching mm_k's tasklet through the
    // entry but never holding it inside mm.
    Json sdfg = reproducer().at("original");
    const std::int64_t from = node_id(sdfg, "map_exit", "mm_k");
    const std::int64_t to = node_id(sdfg, "map_exit", "mm");
    int moved = 0;
    for (Json& edge : sdfg["states"].as_array()[0]["edges"].as_array()) {
        if (common::json_int(edge, "src") != from || common::json_int(edge, "dst") != to) continue;
        edge["src"] = node_id(sdfg, "map_entry", "mm_k");
        ++moved;
    }
    ASSERT_EQ(moved, 1);
    try {
        ir::sdfg_from_json(sdfg).validate();
        ADD_FAILURE() << "validated";
    } catch (const common::ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("map 'mm_k' is not nested inside map 'mm'"),
                  std::string::npos)
            << e.what();
    }

    // Two entries of one scope: a duplicated node element.
    Json twice = reproducer().at("original");
    auto& nodes = twice["states"].as_array()[0]["nodes"].as_array();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (common::json_string(nodes[i], "label") != "mm_k") continue;
        Json copy = nodes[i];
        nodes.insert(nodes.begin() + static_cast<std::ptrdiff_t>(i), std::move(copy));
        break;
    }
    EXPECT_THROW(ir::sdfg_from_json(twice).validate(), common::ValidationError);
}

TEST(MutationCases, DanglingIdsInAnSdfgAreParseErrorsNamingThem) {
    const Json& original = reproducer().at("original");
    auto expect_parse_error = [](const Json& doc, const std::string& names) {
        try {
            ir::sdfg_from_json(doc);
            ADD_FAILURE() << "parsed; wanted a ParseError naming " << names;
        } catch (const common::ParseError& e) {
            EXPECT_NE(std::string(e.what()).find(names), std::string::npos) << e.what();
        }
    };
    Json edge_src = original;
    edge_src["states"].as_array()[0]["edges"].as_array()[3]["src"] = 9999;
    expect_parse_error(edge_src, "edge 3");
    Json edge_dst = original;
    edge_dst["states"].as_array()[0]["edges"].as_array()[0]["dst"] = -1;
    expect_parse_error(edge_dst, "edge 0");
    Json start = original;
    start["start_state"] = 7;
    expect_parse_error(start, "start_state");

    // An interstate edge needs states at both ends and [symbol, expr] pairs.
    Json two_states = original;
    Json second = two_states["states"].as_array()[0];
    second["id"] = 1;
    two_states["states"].push_back(second);
    Json isedge = Json::object();
    isedge["src"] = 0;
    isedge["dst"] = 1;
    isedge["assignments"] = Json::array();
    two_states["interstate_edges"].push_back(isedge);
    ASSERT_NO_THROW(ir::sdfg_from_json(two_states));
    Json isedge_dst = two_states;
    isedge_dst["interstate_edges"].as_array()[0]["dst"] = 5;
    expect_parse_error(isedge_dst, "interstate edge 0");
    Json short_pair = two_states;
    Json pair = Json::array();
    pair.push_back(Json("K"));
    short_pair["interstate_edges"].as_array()[0]["assignments"].push_back(pair);
    expect_parse_error(short_pair, "interstate edge 0");

    // A scope id past the int32 range would wrap the state's scope counter.
    Json scope = original;
    for (Json& node : scope["states"].as_array()[0]["nodes"].as_array())
        if (node.contains("scope_id")) node["scope_id"] = std::int64_t{1} << 40;
    expect_parse_error(scope, "scope_id");
}

/// Replays `doc` and returns the wall seconds it took.
double timed_replay(const Json& doc) {
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(replay(doc), End::Verdict);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(MutationCases, EmptyInnerRangeEndsTheOuterWalk) {
    // The generic odometer walked every value of an outer level whose inner
    // range is empty, and map-point fuel is charged only at leaf points, so
    // no budget stopped it: M = 10^10 with N = 0 replayed for minutes.  The
    // walk now stops after the first outer value, since every later one
    // iterates the same empty sub-nest.  (The bound is generous for
    // sanitizer builds; the replay takes milliseconds.)
    Json tc = reproducer();
    tc["inputs"]["symbols"]["M"] = std::int64_t{10'000'000'000};
    tc["inputs"]["symbols"]["N"] = 0;
    EXPECT_LT(timed_replay(tc), 5.0);

    // Test-case mutant 400140 of the generator above, an inputs edit: M =
    // 2^40, N = -1.
    Json mutant = reproducer();
    Mutator(mutant, 400140).mutate(mutant["inputs"]);
    ASSERT_EQ(common::json_int(mutant.at("inputs").at("symbols"), "M"), std::int64_t{1} << 40);
    ASSERT_EQ(common::json_int(mutant.at("inputs").at("symbols"), "N"), -1);
    EXPECT_LT(timed_replay(mutant), 5.0);
}

TEST(MutationCases, BufferDataMustMatchItsShape) {
    // A short data array was read past its end (vector::at threw
    // std::out_of_range), and an unchecked shape sized the allocation.
    auto buffer = [](Json shape, std::int64_t elements) {
        Json b = Json::object();
        b["dtype"] = "float64";
        b["shape"] = std::move(shape);
        Json data = Json::array();
        for (std::int64_t i = 0; i < elements; ++i) data.push_back(Json(0.5));
        b["data"] = std::move(data);
        return b;
    };
    auto shape = [](std::vector<std::int64_t> extents) {
        Json s = Json::array();
        for (std::int64_t e : extents) s.push_back(Json(e));
        return s;
    };
    EXPECT_EQ(core::buffer_from_json(buffer(shape({2, 3}), 6)).size(), 6);
    EXPECT_EQ(core::buffer_from_json(buffer(shape({4, 0}), 0)).size(), 0);
    EXPECT_THROW(core::buffer_from_json(buffer(shape({2, 3}), 5)), common::ParseError);
    EXPECT_THROW(core::buffer_from_json(buffer(shape({2, 3}), 7)), common::ParseError);
    EXPECT_THROW(core::buffer_from_json(buffer(shape({-2, -3}), 6)), common::ParseError);
    const std::int64_t huge = std::int64_t{1} << 40;
    EXPECT_THROW(core::buffer_from_json(buffer(shape({huge, huge, 0}), 0)), common::ParseError);
    EXPECT_THROW(core::buffer_from_json(buffer(shape({0, huge, huge}), 0)), common::ParseError);

    // Through a replay, the error names the buffer.
    Json tc = reproducer();
    Json& a = tc["inputs"]["buffers"]["A"];
    a["data"].as_array().pop_back();
    try {
        core::testcase_from_json(tc);
        ADD_FAILURE() << "loaded a buffer shorter than its shape";
    } catch (const common::ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("'A'"), std::string::npos) << e.what();
    }
}

}  // namespace
}  // namespace ff
