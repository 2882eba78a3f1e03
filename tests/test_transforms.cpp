#include <gtest/gtest.h>

#include "common/error.h"

#include "helpers.h"
#include "interp/interpreter.h"
#include "transforms/buffer_tiling.h"
#include "transforms/gpu_kernel_extraction.h"
#include "transforms/loop_unrolling.h"
#include "transforms/map_expansion.h"
#include "transforms/map_fusion.h"
#include "transforms/map_reduce_fusion.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "transforms/state_assign_elimination.h"
#include "transforms/symbol_alias_promotion.h"
#include "transforms/tasklet_fusion.h"
#include "transforms/vectorization.h"
#include "transforms/write_elimination.h"
#include "workloads/matchain.h"
#include "workloads/npbench.h"

namespace ff::xform {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;
using ff::testing::run_ok;
using ff::testing::to_vector;

interp::Context scale_inputs(int n) {
    interp::Context ctx;
    ctx.symbols["N"] = n;
    interp::Buffer x(ir::DType::F64, {n});
    for (int i = 0; i < n; ++i) x.store(i, interp::Value::from_double(0.5 * i - 1));
    ctx.buffers.emplace("x", std::move(x));
    return ctx;
}

TEST(CodeRewriting, RenameIdentifier) {
    EXPECT_EQ(rename_identifier("o = a + ab + a", "a", "z"), "o = z + ab + z");
    EXPECT_EQ(rename_identifier("o = max(a, b)", "max", "z"), "o = max(a, b)");  // call kept
    EXPECT_EQ(rename_identifier("o = a * 1e5", "e5", "z"), "o = a * 1e5");  // literal kept
    EXPECT_EQ(rename_identifier("a = a", "a", "b"), "b = b");
}

TEST(CodeRewriting, VectorizeTaskletCode) {
    const std::string v = vectorize_tasklet_code("o = a * s", 2, {"o", "a"});
    EXPECT_EQ(v, "o[0] = a[0] * s; o[1] = a[1] * s");
}

TEST(MapTilingTest, CorrectPreservesScale) {
    for (int n : {5, 8, 16, 17}) {  // both multiples and remainders of tile 8
        ir::SDFG p = make_scale_sdfg();
        const auto before = run_ok(p, scale_inputs(n));
        MapTiling tiling(8, MapTiling::Variant::Correct);
        const auto matches = tiling.find_matches(p);
        ASSERT_EQ(matches.size(), 1u);
        tiling.apply(p, matches[0]);
        EXPECT_NO_THROW(p.validate());
        const auto after = run_ok(p, scale_inputs(n));
        EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y"))) << "N=" << n;
    }
}

TEST(MapTilingTest, NoRemainderVariantCrashesOnNonMultiples) {
    ir::SDFG p = make_scale_sdfg();
    MapTiling tiling(8, MapTiling::Variant::NoRemainder);
    tiling.apply(p, tiling.find_matches(p)[0]);
    interp::Interpreter interp;
    // Multiple of the tile: fine.
    auto ok_ctx = scale_inputs(16);
    EXPECT_TRUE(interp.run(p, ok_ctx).ok());
    // Non-multiple: out of bounds.
    auto bad_ctx = scale_inputs(13);
    EXPECT_EQ(interp.run(p, bad_ctx).status, interp::ExecStatus::Crash);
}

TEST(MapTilingTest, OffByOneCorruptsAccumulation) {
    // On the matrix chain's mm2 (accumulating k-loop inside), re-executed
    // iterations double-add: Fig. 2's bug.
    ir::SDFG p = workloads::build_matrix_chain();
    MapTiling buggy(4, MapTiling::Variant::OffByOne);
    const auto matches = buggy.find_matches(p);
    const Match* mm2 = nullptr;
    for (const auto& m : matches)
        if (m.description.find("mm2") != std::string::npos &&
            m.description.find("_k") == std::string::npos)
            mm2 = &m;
    ASSERT_NE(mm2, nullptr);

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 6;
        for (const char* name : {"A", "B", "C", "D"}) {
            interp::Buffer b(ir::DType::F64, {6, 6});
            for (int i = 0; i < 36; ++i)
                b.store(i, interp::Value::from_double(((i * 7) % 5) - 2.0));
            ctx.buffers.emplace(name, std::move(b));
        }
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    ir::SDFG q = p;
    buggy.apply(q, *mm2);
    const auto after = run_ok(q, inputs());
    EXPECT_TRUE(interp::compare_buffers(before.buffers.at("R"), after.buffers.at("R"), 1e-5)
                    .has_value());
}

TEST(VectorizationTest, DivisibleSizesPreserved) {
    ir::SDFG p = make_scale_sdfg();
    Vectorization vec(4);
    const auto matches = vec.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    vec.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());
    const auto before = run_ok(make_scale_sdfg(), scale_inputs(8));
    const auto after = run_ok(p, scale_inputs(8));
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
}

TEST(VectorizationTest, NonDivisibleSizeCrashes) {
    // The Table 2 `"` class: correctness depends on the input size.
    ir::SDFG p = make_scale_sdfg();
    Vectorization vec(4);
    vec.apply(p, vec.find_matches(p)[0]);
    interp::Interpreter interp;
    auto ctx = scale_inputs(10);
    EXPECT_EQ(interp.run(p, ctx).status, interp::ExecStatus::Crash);
}

TEST(VectorizationTest, ScalarBroadcastInputSkipsLanes) {
    // The MHA scale pattern: tensor input lane-indexed, scalar broadcast.
    ir::SDFG p("scale2");
    p.add_symbol("N");
    p.add_array("x", ir::DType::F64, {sym::symb("N")});
    p.add_scalar("s", ir::DType::F64);
    p.add_array("y", ir::DType::F64, {sym::symb("N")});
    ir::State& st = p.state(p.add_state("main", true));
    workloads::ew_binary(p, st, st.add_access("x"), st.add_access("s"), "y", "o = a * b");
    Vectorization vec(4);
    const auto matches = vec.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    vec.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());

    interp::Context ctx;
    ctx.symbols["N"] = 4;
    ctx.buffers.emplace("x", make_buffer({1, 2, 3, 4}));
    interp::Buffer s(ir::DType::F64, {});
    s.store(0, interp::Value::from_double(3));
    ctx.buffers.emplace("s", std::move(s));
    const auto r = run_ok(p, ctx);
    EXPECT_EQ(to_vector(r.buffers.at("y")), (std::vector<double>{3, 6, 9, 12}));
}

TEST(TaskletFusionTest, CorrectFusesIsolatedTemporary) {
    ir::SDFG p = workloads::build_npbench_kernel("scalar_pipeline");
    TaskletFusion correct(TaskletFusion::Variant::Correct);
    TaskletFusion buggy(TaskletFusion::Variant::IgnoreDownstreamReads);
    // The bug variant matches strictly more instances (it skips the
    // downstream-read check on t1).
    EXPECT_GT(buggy.find_matches(p).size(), correct.find_matches(p).size());
}

TEST(TaskletFusionTest, BugRemovesWriteReadLater) {
    ir::SDFG p = workloads::build_npbench_kernel("scalar_pipeline");
    TaskletFusion buggy(TaskletFusion::Variant::IgnoreDownstreamReads);
    const auto matches = buggy.find_matches(p);
    const Match* on_t1 = nullptr;
    for (const auto& m : matches)
        if (m.description.find("'t1'") != std::string::npos) on_t1 = &m;
    ASSERT_NE(on_t1, nullptr);

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 3;
        interp::Buffer alpha(ir::DType::F64, {});
        alpha.store(0, interp::Value::from_double(2));
        ctx.buffers.emplace("alpha", std::move(alpha));
        ctx.buffers.emplace("x", make_buffer({1, 2, 3}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    ir::SDFG q = p;
    buggy.apply(q, *on_t1);
    EXPECT_NO_THROW(q.validate());
    const auto after = run_ok(q, inputs());
    // y2 depends on the eliminated t1 write: changed.
    EXPECT_TRUE(interp::compare_buffers(before.buffers.at("y2"), after.buffers.at("y2"), 1e-5)
                    .has_value());
    // y does not: unchanged.
    EXPECT_FALSE(interp::compare_buffers(before.buffers.at("y"), after.buffers.at("y"), 1e-5)
                     .has_value());
}

TEST(WriteEliminationTest, CorrectRedirectsReaders) {
    ir::SDFG p = workloads::build_npbench_kernel("copy_pipeline");
    WriteElimination correct(WriteElimination::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_GE(matches.size(), 1u);
    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 4;
        ctx.buffers.emplace("src", make_buffer({1, 2, 3, 4}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    correct.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());
    const auto after = run_ok(p, inputs());
    EXPECT_TRUE(before.buffers.at("dst").bitwise_equal(after.buffers.at("dst")));
}

TEST(MapExpansionTest, CorrectSplitsAndPreserves) {
    ir::SDFG p("mm");
    p.add_symbol("N");
    p.add_array("x", ir::DType::F64, {sym::symb("N"), sym::symb("N")});
    p.add_array("y", ir::DType::F64, {sym::symb("N"), sym::symb("N")});
    {
        ir::State& st = p.state(p.add_state("main", true));
        workloads::ew_unary(p, st, st.add_access("x"), "y", "o = i + 1.0");
    }
    MapExpansion correct(MapExpansion::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 3;
        interp::Buffer x(ir::DType::F64, {3, 3});
        for (int i = 0; i < 9; ++i) x.store(i, interp::Value::from_double(i));
        ctx.buffers.emplace("x", std::move(x));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    ir::SDFG q = p;
    correct.apply(q, matches[0]);
    EXPECT_NO_THROW(q.validate());
    const auto after = run_ok(q, inputs());
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));

    // The buggy variant produces a graph validation rejects.
    ir::SDFG r = p;
    MapExpansion buggy(MapExpansion::Variant::DanglingExit);
    buggy.apply(r, buggy.find_matches(r)[0]);
    EXPECT_THROW(r.validate(), common::ValidationError);
}

TEST(MapReduceFusionTest, CorrectMatchesReduction) {
    ir::SDFG p = workloads::build_npbench_kernel("l2norm");
    MapReduceFusion correct(MapReduceFusion::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 4;
        ctx.buffers.emplace("x", make_buffer({1, -2, 3, -4}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    ir::SDFG q = p;
    correct.apply(q, matches[0]);
    EXPECT_NO_THROW(q.validate());
    const auto after = run_ok(q, inputs());
    EXPECT_NEAR(after.buffers.at("norm2").load_double(0), 30.0, 1e-12);
    EXPECT_NEAR(before.buffers.at("norm2").load_double(0),
                after.buffers.at("norm2").load_double(0), 1e-12);

    // Buggy variant leaves a stale access node on a deleted container.
    ir::SDFG r = p;
    MapReduceFusion buggy(MapReduceFusion::Variant::StaleAccessNode);
    buggy.apply(r, buggy.find_matches(r)[0]);
    EXPECT_THROW(r.validate(), common::ValidationError);
}

TEST(MapReduceFusionTest, MatchesOnlyAnF64IntermediateAndTarget) {
    // The all-F64 go_fast fuses its tanh map into the trace reduction.
    const ir::SDFG p = workloads::build_npbench_kernel("go_fast");
    MapReduceFusion correct(MapReduceFusion::Variant::Correct);
    EXPECT_EQ(correct.find_matches(p).size(), 1u);

    // An I32 intermediate truncates each tanh before the sum; the fused
    // loop would add the untruncated partials.
    ir::SDFG narrow_t = p;
    narrow_t.container("tdiag").dtype = ir::DType::I32;
    EXPECT_TRUE(correct.find_matches(narrow_t).empty());

    // An F32 target would round at every step of the fused loop instead of
    // once, after the reduction.
    ir::SDFG narrow_s = p;
    narrow_s.container("trace").dtype = ir::DType::F32;
    EXPECT_TRUE(correct.find_matches(narrow_s).empty());
}

TEST(BufferTilingTest, CorrectPreservesChain) {
    for (int n : {7, 8, 16, 19}) {
        ir::SDFG p = make_chain_sdfg("o = i * i", "o = i + 2.0");
        BufferTiling correct(4, BufferTiling::Variant::Correct);
        const auto matches = correct.find_matches(p);
        ASSERT_EQ(matches.size(), 1u) << "N=" << n;
        auto inputs = [n] {
            interp::Context ctx;
            ctx.symbols["N"] = n;
            interp::Buffer x(ir::DType::F64, {n});
            for (int i = 0; i < n; ++i) x.store(i, interp::Value::from_double(i - 2.5));
            ctx.buffers.emplace("x", std::move(x));
            return ctx;
        };
        const auto before = run_ok(p, inputs());
        correct.apply(p, matches[0]);
        EXPECT_NO_THROW(p.validate());
        const auto after = run_ok(p, inputs());
        EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y"))) << "N=" << n;
        // The intermediate container was replaced by a tile-sized buffer.
        EXPECT_FALSE(p.has_container("T"));
    }
}

TEST(BufferTilingTest, ReversedOffsetChangesSemantics) {
    ir::SDFG p = make_chain_sdfg("o = i * i", "o = i + 2.0");
    BufferTiling buggy(4, BufferTiling::Variant::ReversedOffset);
    buggy.apply(p, buggy.find_matches(p)[0]);
    EXPECT_NO_THROW(p.validate());
    interp::Context ctx;
    ctx.symbols["N"] = 8;
    ctx.buffers.emplace("x", make_buffer({1, 2, 3, 4, 5, 6, 7, 8}));
    const auto after = run_ok(p, ctx);
    // y[0] should be 1*1+2=3; reversed tile gives x[3]^2+2 = 18.
    EXPECT_DOUBLE_EQ(after.buffers.at("y").load_double(0), 18.0);
}

TEST(LoopUnrollingTest, CorrectHandlesNegativeSteps) {
    ir::SDFG p = workloads::build_npbench_kernel("unroll_candidates");
    LoopUnrolling correct(LoopUnrolling::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 2u);  // ascending + descending

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 2;
        interp::Buffer x(ir::DType::F64, {8, 2});
        for (int i = 0; i < 16; ++i) x.store(i, interp::Value::from_double(i));
        ctx.buffers.emplace("x", std::move(x));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    for (const auto& m : matches) {
        // Re-find after each apply: node ids change.
        const auto fresh = correct.find_matches(p);
        ASSERT_FALSE(fresh.empty());
        (void)m;
        correct.apply(p, fresh[0]);
    }
    EXPECT_NO_THROW(p.validate());
    const auto after = run_ok(p, inputs());
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
}

TEST(LoopUnrollingTest, BugDropsIterationsOnDescendingLoops) {
    ir::SDFG p = workloads::build_npbench_kernel("unroll_candidates");
    LoopUnrolling buggy(LoopUnrolling::Variant::PositiveStepFormula);
    const auto matches = buggy.find_matches(p);
    const Match* descending = nullptr;
    const Match* ascending = nullptr;
    for (const auto& m : matches) {
        if (m.description.find("countdown") != std::string::npos) descending = &m;
        else ascending = &m;
    }
    ASSERT_NE(descending, nullptr);
    ASSERT_NE(ascending, nullptr);

    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 2;
        interp::Buffer x(ir::DType::F64, {8, 2});
        for (int i = 0; i < 16; ++i) x.store(i, interp::Value::from_double(1.0));
        ctx.buffers.emplace("x", std::move(x));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    // Ascending loop: the buggy formula is still correct.
    {
        ir::SDFG q = p;
        buggy.apply(q, *ascending);
        const auto after = run_ok(q, inputs());
        EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
    }
    // Descending loop: only 2 of 4 instances created.
    {
        ir::SDFG q = p;
        buggy.apply(q, *descending);
        const auto after = run_ok(q, inputs());
        EXPECT_TRUE(interp::compare_buffers(before.buffers.at("y"), after.buffers.at("y"), 1e-5)
                        .has_value());
    }
}

TEST(StateAssignEliminationTest, CorrectOnlyRemovesGloballyDead) {
    ir::SDFG p = workloads::build_npbench_kernel("alias_stages");
    StateAssignElimination correct(StateAssignElimination::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);  // only 'dead'
    EXPECT_NE(matches[0].description.find("dead"), std::string::npos);
    correct.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());
}

TEST(StateAssignEliminationTest, BugRemovesLoopCounterUpdate) {
    ir::SDFG p = workloads::build_npbench_kernel("jacobi_1d");
    StateAssignElimination buggy(StateAssignElimination::Variant::NextStateOnly);
    const auto matches = buggy.find_matches(p);
    // `t` is not used in any state's memlets: both its initialization and
    // its increment look dead to the buggy next-state-only check.
    ASSERT_GE(matches.size(), 2u);
    interp::ExecConfig cfg;
    cfg.max_state_transitions = 64;
    for (const auto& m : matches) {
        ir::SDFG q = p;
        buggy.apply(q, m);
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.symbols = {{"N", 4}, {"TSTEPS", 2}};
        ctx.buffers.emplace("A", make_buffer({1, 2, 3, 4}));
        // Removing the init crashes on the unbound symbol; removing the
        // increment hangs.  Either way the program no longer terminates OK.
        EXPECT_NE(interp.run(q, ctx).status, interp::ExecStatus::Ok) << m.description;
    }
}

TEST(SymbolAliasPromotionTest, CorrectSubstitutesEverywhere) {
    ir::SDFG p = workloads::build_npbench_kernel("alias_stages");
    SymbolAliasPromotion correct(SymbolAliasPromotion::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 3;
        ctx.buffers.emplace("x", make_buffer({1, 2, 3}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    correct.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());
    EXPECT_FALSE(p.has_symbol("M2"));
    const auto after = run_ok(p, inputs());
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
}

TEST(SymbolAliasPromotionTest, BugLeavesDanglingUses) {
    ir::SDFG p = workloads::build_npbench_kernel("alias_stages");
    SymbolAliasPromotion buggy(SymbolAliasPromotion::Variant::InterstateOnly);
    buggy.apply(p, buggy.find_matches(p)[0]);
    // The map range still uses M2, which no longer exists and is never
    // assigned: runtime failure.
    interp::Interpreter interp;
    interp::Context ctx;
    ctx.symbols["N"] = 3;
    ctx.buffers.emplace("x", make_buffer({1, 2, 3}));
    EXPECT_EQ(interp.run(p, ctx).status, interp::ExecStatus::Crash);
}

TEST(MapFusionTest, FusesChainAndPreserves) {
    ir::SDFG p = make_chain_sdfg("o = i * 2.0", "o = i + 1.0");
    MapFusion fusion;
    const auto matches = fusion.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 5;
        ctx.buffers.emplace("x", make_buffer({1, 2, 3, 4, 5}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    fusion.apply(p, matches[0]);
    EXPECT_NO_THROW(p.validate());
    const auto after = run_ok(p, inputs());
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
    // Only one map remains.
    int entries = 0;
    const ir::State& st = p.state(p.start_state());
    for (ir::NodeId n : st.graph().nodes())
        entries += st.graph().node(n).kind == ir::NodeKind::MapEntry ? 1 : 0;
    EXPECT_EQ(entries, 1);
}

TEST(GpuExtractionTest, CorrectStagesOutputs) {
    ir::SDFG p = make_scale_sdfg();
    GpuKernelExtraction correct(GpuKernelExtraction::Variant::Correct);
    const auto matches = correct.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    const auto before = run_ok(p, scale_inputs(6));
    ir::SDFG q = p;
    correct.apply(q, matches[0]);
    EXPECT_NO_THROW(q.validate());
    const auto after = run_ok(q, scale_inputs(6));
    EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
}

TEST(GpuExtractionTest, BugLeaksGarbageOnPartialWrites) {
    // Map writes only y[0 : N/2-1]; whole-container copy-back corrupts the
    // rest (Fig. 7).
    ir::SDFG p("partial");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("x", ir::DType::F64, {n});
    p.add_array("y", ir::DType::F64, {n});
    {
        ir::State& st = p.state(p.add_state("main", true));
        const sym::ExprPtr i = sym::symb("i");
        auto [entry, exit] = st.add_map("half", {"i"},
                                        {ir::Range::span(sym::cst(0), sym::floordiv(n, sym::cst(2)) - 1)});
        const ir::NodeId t = st.add_tasklet("half", "o = a * 2.0");
        const ir::NodeId xin = st.add_access("x");
        const ir::NodeId yout = st.add_access("y");
        const ir::Subset half{{ir::Range::span(sym::cst(0), sym::floordiv(n, sym::cst(2)) - 1)}};
        st.add_edge(xin, "", entry, "", ir::Memlet("x", half));
        st.add_edge(entry, "", t, "a", ir::Memlet("x", ir::Subset{{ir::Range::index(i)}}));
        st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(i)}}));
        st.add_edge(exit, "", yout, "", ir::Memlet("y", half));
    }
    auto inputs = [] {
        interp::Context ctx;
        ctx.symbols["N"] = 6;
        ctx.buffers.emplace("x", make_buffer({1, 2, 3, 4, 5, 6}));
        return ctx;
    };
    const auto before = run_ok(p, inputs());
    EXPECT_EQ(to_vector(before.buffers.at("y")), (std::vector<double>{2, 4, 6, 0, 0, 0}));

    // Correct variant: still fine.
    {
        ir::SDFG q = p;
        GpuKernelExtraction correct(GpuKernelExtraction::Variant::Correct);
        correct.apply(q, correct.find_matches(q)[0]);
        const auto after = run_ok(q, inputs());
        EXPECT_TRUE(before.buffers.at("y").bitwise_equal(after.buffers.at("y")));
    }
    // Bug variant: garbage lands in y[3..5].
    {
        ir::SDFG q = p;
        GpuKernelExtraction buggy(GpuKernelExtraction::Variant::NoOutputCopyIn);
        buggy.apply(q, buggy.find_matches(q)[0]);
        EXPECT_NO_THROW(q.validate());
        const auto after = run_ok(q, inputs());
        const auto y = to_vector(after.buffers.at("y"));
        EXPECT_DOUBLE_EQ(y[0], 2);
        EXPECT_GE(y[3], 1.0e6);  // deterministic garbage
    }
}

TEST(Registry, BuiltinSetMatchesTable2Inventory) {
    const auto buggy = builtin_transformations({.table2_bugs = true});
    const auto clean = builtin_transformations({.table2_bugs = false});
    ASSERT_EQ(buggy.size(), clean.size());
    int planted = 0;
    for (const auto& t : buggy)
        if (t->name().find("[bug:") != std::string::npos) ++planted;
    // Six passes ship bug variants; Vectorization is input-dependent by
    // construction (no [bug:] tag).
    EXPECT_EQ(planted, 6);
    for (const auto& t : clean) EXPECT_EQ(t->name().find("[bug:"), std::string::npos);
    EXPECT_EQ(cloudsc_transformations(true).size(), 3u);
}

}  // namespace
}  // namespace ff::xform
