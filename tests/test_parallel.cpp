// Parallel trial engine + interned symbol layer.
//
// The contract under test: any thread count produces byte-identical fuzzing
// results (verdicts, trial counts, failure details, reproducer artifacts),
// because trial inputs are a pure function of (seed, trial index) and
// aggregation replays canonical trial order; and the shared plan cache +
// interned symbol table are safe to use from concurrent interpreters (this
// file doubles as the TSan target — see the FF_SANITIZE=thread CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "helpers.h"
#include "interp/plan_cache.h"
#include "symbolic/interned.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"

namespace ff {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_scale_sdfg;
using ff::testing::to_vector;

// --- Interned symbol layer ---------------------------------------------------

TEST(SymbolTable, InternAssignsDenseStableIds) {
    sym::SymbolTable tab;
    const sym::SymId n = tab.intern("N");
    const sym::SymId i = tab.intern("i");
    EXPECT_NE(n, i);
    EXPECT_EQ(tab.intern("N"), n);  // idempotent
    EXPECT_EQ(tab.find("i"), i);
    EXPECT_EQ(tab.find("missing"), sym::kNoSym);
    EXPECT_EQ(tab.name(n), "N");
    EXPECT_EQ(tab.size(), 2u);
}

TEST(CompiledExpr, MatchesTreeEvaluation) {
    using sym::cst;
    using sym::symb;
    const sym::ExprPtr n = symb("N"), i = symb("i"), j = symb("j");
    const std::vector<sym::ExprPtr> exprs = {
        cst(7),
        i,
        n * i + j,
        (i + 1) * cst(3) - n,
        sym::floordiv(i - 5, cst(3)),
        sym::mod(i - 5, cst(3)),
        sym::min(n, i + j),
        sym::max(n - 1, sym::floordiv(n, i + 1)),
    };
    const sym::Bindings bindings{{"N", 12}, {"i", -4}, {"j", 9}};

    sym::SymbolTable tab;
    sym::FlatBindings flat;
    sym::EvalStack stack;
    for (const auto& e : exprs) {
        std::vector<sym::SymId> used;
        const sym::CompiledExpr ce = sym::CompiledExpr::lower(e, tab, &used);
        flat.reset(tab.size());
        for (const auto& [name, value] : bindings) {
            const sym::SymId id = tab.find(name);
            if (id != sym::kNoSym) flat.bind(id, value);
        }
        EXPECT_EQ(ce.eval(flat, stack), e->evaluate(bindings)) << e->to_string();
    }
}

TEST(CompiledExpr, UnboundSymbolRaisesWithName) {
    sym::SymbolTable tab;
    const sym::CompiledExpr ce = sym::CompiledExpr::lower(sym::symb("Q") + 1, tab);
    sym::FlatBindings flat;
    flat.reset(tab.size());
    sym::EvalStack stack;
    try {
        ce.eval(flat, stack);
        FAIL() << "expected UnboundSymbolError";
    } catch (const common::UnboundSymbolError& e) {
        EXPECT_EQ(e.symbol(), "Q");
    }
}

TEST(TrialSeed, PureFunctionOfSeedAndIndex) {
    EXPECT_EQ(common::trial_seed(42, 7), common::trial_seed(42, 7));
    EXPECT_NE(common::trial_seed(42, 7), common::trial_seed(42, 8));
    EXPECT_NE(common::trial_seed(42, 7), common::trial_seed(43, 7));
}

// --- Plan cache: epoch invalidation and cross-thread sharing -----------------

TEST(PlanCache, WarmInterpreterSurvivesTransformation) {
    ir::SDFG p = make_scale_sdfg();
    interp::Interpreter interp;

    interp::Context before;
    before.symbols["N"] = 4;
    before.buffers.emplace("x", make_buffer({1, 2, 3, 4}));
    ASSERT_TRUE(interp.run(p, before).ok());
    EXPECT_EQ(to_vector(before.buffers.at("y")), (std::vector<double>{2, 4, 6, 8}));

    // Mutate the graph in place; Transformation::apply bumps the mutation
    // epoch, so the same warm interpreter rebuilds plans instead of
    // executing stale ones.
    xform::MapTiling tiling(2, xform::MapTiling::Variant::Correct);
    const auto matches = tiling.find_matches(p);
    ASSERT_FALSE(matches.empty());
    const std::uint64_t epoch_before = p.mutation_epoch();
    tiling.apply(p, matches[0]);
    EXPECT_GT(p.mutation_epoch(), epoch_before);

    interp::Context after;
    after.symbols["N"] = 4;
    after.buffers.emplace("x", make_buffer({1, 2, 3, 4}));
    ASSERT_TRUE(interp.run(p, after).ok());
    EXPECT_EQ(to_vector(after.buffers.at("y")), (std::vector<double>{2, 4, 6, 8}));
}

TEST(PlanCache, CopiedSdfgGetsFreshPlanIdentity) {
    const ir::SDFG p = make_scale_sdfg();
    const ir::SDFG q = p;
    EXPECT_NE(p.plan_uid(), q.plan_uid());
    EXPECT_EQ(p.mutation_epoch(), q.mutation_epoch());
}

TEST(PlanCache, SharedAcrossConcurrentInterpreters) {
    const ir::SDFG p = make_scale_sdfg();
    auto cache = std::make_shared<interp::PlanCache>();
    constexpr int kThreads = 8;

    std::vector<std::vector<double>> results(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            // Per-thread interpreter + context; shared immutable SDFG and
            // plan cache.  The race check for plan building and symbol
            // interning (run under -fsanitize=thread in CI).
            interp::Interpreter interp(interp::ExecConfig{}, cache);
            interp::Context ctx;
            ctx.symbols["N"] = 3;
            const double base = static_cast<double>(t + 1);
            ctx.buffers.emplace("x", make_buffer({base, base + 1, base + 2}));
            if (interp.run(p, ctx).ok()) results[static_cast<std::size_t>(t)] =
                to_vector(ctx.buffers.at("y"));
        });
    }
    for (auto& th : pool) th.join();
    for (int t = 0; t < kThreads; ++t) {
        const double base = static_cast<double>(t + 1);
        EXPECT_EQ(results[static_cast<std::size_t>(t)],
                  (std::vector<double>{2 * base, 2 * (base + 1), 2 * (base + 2)}))
            << "thread " << t;
    }
}

TEST(PlanCache, AllocationInsideInternedScopeSeesShadowingParam) {
    // A transient whose shape references a symbol that a map parameter
    // shadows: allocation happens lazily inside the (pure, interned) scope,
    // and must resolve the shape with the parameter's current value — like
    // the legacy engine, which wrote parameters into ctx.symbols — not with
    // the stale outer binding.
    ir::SDFG p("shadow");
    p.add_symbol("N");
    p.add_symbol("i");  // free symbol with the same name as the map param
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("x", ir::DType::F64, {n});
    p.add_array("T", ir::DType::F64, {sym::symb("i") + 3}, /*transient=*/true);
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::span(sym::cst(0), n - 1)});
    const ir::NodeId t = st.add_tasklet("m", "o = v * 2.0");
    const ir::NodeId tacc = st.add_access("T");
    const ir::Subset point({ir::Range::index(sym::symb("i"))});
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({n})));
    st.add_edge(entry, "", t, "v", ir::Memlet("x", point));
    st.add_edge(t, "o", exit, "", ir::Memlet("T", point));
    st.add_edge(exit, "", tacc, "", ir::Memlet("T", ir::Subset({ir::Range::span(sym::cst(0), n - 1)})));
    p.validate();

    for (const interp::Tier tier : {interp::Tier::Batched, interp::Tier::Reference}) {
        interp::ExecConfig cfg;
        cfg.tier = tier;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.symbols = {{"N", 3}, {"i", 5}};  // outer 'i' must be shadowed
        ctx.buffers.emplace("x", make_buffer({1, 2, 3}));
        const interp::ExecResult res = interp.run(p, ctx);
        ASSERT_TRUE(res.ok()) << res.message;
        // First touch is at i = 0: size 3 (i + 3), not 8 (outer i = 5).
        EXPECT_EQ(ctx.buffers.at("T").size(), 3) << ff::testing::tier_name(tier);
        EXPECT_EQ(to_vector(ctx.buffers.at("T")), (std::vector<double>{2, 4, 6}));
    }
}

// --- Cross-thread determinism of the fuzzer ----------------------------------

core::FuzzConfig quick_config(std::int64_t default_n = 8) {
    core::FuzzConfig config;
    config.max_trials = 20;
    config.sampler.size_max = 8;
    config.cutout.defaults = {{"N", default_n}};
    return config;
}

std::string read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f) return "";
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
    std::fclose(f);
    return text;
}

/// Everything that must be identical across thread counts.
void expect_reports_identical(const core::FuzzReport& a, const core::FuzzReport& b,
                              const std::string& what) {
    EXPECT_EQ(a.verdict, b.verdict) << what;
    EXPECT_EQ(a.trials, b.trials) << what;
    EXPECT_EQ(a.uninteresting, b.uninteresting) << what;
    EXPECT_EQ(a.detail, b.detail) << what;
    EXPECT_EQ(a.cutout_nodes, b.cutout_nodes) << what;
    EXPECT_EQ(a.input_volume, b.input_volume) << what;
}

TEST(ParallelFuzzer, PassingInstanceIdenticalAt1_2_8Threads) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling tiling(4, xform::MapTiling::Variant::Correct);
    const auto matches = tiling.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    std::vector<core::FuzzReport> reports;
    for (const int threads : {1, 2, 8}) {
        core::FuzzConfig config = quick_config();
        config.num_threads = threads;
        core::Fuzzer fuzzer(config);
        reports.push_back(fuzzer.test_instance(p, tiling, matches[0]));
        EXPECT_EQ(reports.back().verdict, core::Verdict::Pass) << reports.back().detail;
        EXPECT_EQ(reports.back().trials, config.max_trials);
        EXPECT_EQ(reports.back().threads, threads);
    }
    expect_reports_identical(reports[0], reports[1], "1 vs 2 threads");
    expect_reports_identical(reports[0], reports[2], "1 vs 8 threads");
}

TEST(ParallelFuzzer, FailingInstanceIdenticalFirstFailureAndArtifact) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::NoRemainder);
    const auto matches = buggy.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    std::vector<core::FuzzReport> reports;
    std::vector<std::string> artifacts;
    for (const int threads : {1, 2, 8}) {
        core::FuzzConfig config = quick_config();
        config.num_threads = threads;
        config.artifact_dir = ::testing::TempDir();
        core::Fuzzer fuzzer(config);
        reports.push_back(fuzzer.test_instance(p, buggy, matches[0]));
        ASSERT_TRUE(reports.back().failed());
        ASSERT_FALSE(reports.back().artifact_path.empty());
        artifacts.push_back(read_file(reports.back().artifact_path));
    }
    expect_reports_identical(reports[0], reports[1], "1 vs 2 threads");
    expect_reports_identical(reports[0], reports[2], "1 vs 8 threads");
    // The reproducer (failing trial's inputs + both graphs) is byte-stable:
    // the lowest-indexed failing trial wins at any thread count.
    EXPECT_EQ(artifacts[0], artifacts[1]);
    EXPECT_EQ(artifacts[0], artifacts[2]);
}

TEST(ParallelFuzzer, SemanticsBugOnMatrixChainIdenticalAcrossThreads) {
    const ir::SDFG p = workloads::build_matrix_chain();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::OffByOne);
    const auto matches = buggy.find_matches(p);
    const xform::Match* mm2 = nullptr;
    for (const auto& m : matches)
        if (m.description.find("'mm2'") != std::string::npos) mm2 = &m;
    ASSERT_NE(mm2, nullptr);

    core::FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    std::vector<core::FuzzReport> reports;
    for (const int threads : {1, 4}) {
        config.num_threads = threads;
        core::Fuzzer fuzzer(config);
        reports.push_back(fuzzer.test_instance(p, buggy, *mm2));
        EXPECT_EQ(reports.back().verdict, core::Verdict::SemanticsChanged)
            << reports.back().detail;
    }
    expect_reports_identical(reports[0], reports[1], "1 vs 4 threads");
}

TEST(ParallelFuzzer, FullAuditByteIdenticalAcrossThreads) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    auto run_audit = [&](int threads) {
        core::FuzzConfig config = quick_config(6);
        config.sampler.size_max = 6;
        config.max_trials = 10;
        config.num_threads = threads;
        core::Fuzzer fuzzer(config);
        return fuzzer.audit(p, passes);
    };
    const auto seq = run_audit(1);
    const auto par = run_audit(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].transformation, par[i].transformation);
        EXPECT_EQ(seq[i].match_description, par[i].match_description);
        expect_reports_identical(seq[i], par[i], seq[i].transformation + " instance " +
                                                     std::to_string(i));
    }
}

TEST(ParallelFuzzer, ReferenceEngineAlsoDeterministicAcrossThreads) {
    // The string-keyed legacy engine runs trials through the same pool.
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::NoRemainder);
    const auto matches = buggy.find_matches(p);
    std::vector<core::FuzzReport> reports;
    for (const int threads : {1, 4}) {
        core::FuzzConfig config = quick_config();
        config.diff.exec.tier = interp::Tier::Reference;
        config.num_threads = threads;
        core::Fuzzer fuzzer(config);
        reports.push_back(fuzzer.test_instance(p, buggy, matches[0]));
        ASSERT_TRUE(reports.back().failed());
    }
    expect_reports_identical(reports[0], reports[1], "reference engine 1 vs 4 threads");
}

TEST(Report, AuditTableShowsThreadsColumn) {
    core::FuzzReport r;
    r.transformation = "X";
    r.verdict = core::Verdict::Pass;
    r.threads = 8;
    const auto summaries = core::summarize_audit({r});
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].threads, 8);
    const std::string table = core::audit_table(summaries);
    EXPECT_NE(table.find("Threads"), std::string::npos);
}

}  // namespace
}  // namespace ff
