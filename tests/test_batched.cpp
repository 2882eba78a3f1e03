// Batched segment tier: adversarial shapes for the vertical (SIMD-friendly)
// kernel VM.
//
// The contract under test: segment batching (Tier::Batched) is a pure
// execution-strategy choice layered on top of the kernel tier.  For any
// program the batched tier must produce results byte-identical to the
// per-point kernel loop (Tier::Kernel), the generic compiled VM, and the
// reference AST engine — same buffers bit for bit, same error/resource messages, same
// cost counters.  This file attacks the batching machinery where it could
// plausibly diverge: degenerate and empty extents, non-unit outer strides,
// tails that do not fill a tile, resource budgets that a segment would
// cross, IEEE special payloads, and in-place aliasing that makes vertical
// execution illegal (the alias check must route those launches back to the
// per-point loop, not produce reordered stores).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "ir/subset.h"
#include "transforms/map_tiling.h"

namespace ff {
namespace {

using ff::testing::expect_same_run;
using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;
using ff::testing::run_on_tier;
using ff::testing::TierRun;
using interp::Tier;

/// Every run records coverage; a run under a point budget also caps
/// allocation.
interp::ExecConfig config(std::int64_t max_points = 0) {
    interp::ExecConfig cfg;
    cfg.coverage = true;
    if (max_points > 0) {
        cfg.max_points = max_points;
        cfg.max_alloc_bytes = 1ll << 30;
    }
    return cfg;
}

/// Runs all four tiers on the same inputs and requires batched == kernel ==
/// generic bitwise, and == reference modulo NaN payloads.  Returns the
/// batched run for extra assertions.
TierRun expect_all_tiers_agree(const ir::SDFG& p, const interp::Context& inputs,
                               const std::string& what, std::int64_t max_points = 0) {
    const TierRun batched = run_on_tier(p, inputs, Tier::Batched, config(max_points));
    for (const Tier tier : {Tier::Kernel, Tier::Generic, Tier::Reference})
        expect_same_run(batched, run_on_tier(p, inputs, tier, config(max_points)), what,
                        /*nan_equiv=*/tier == Tier::Reference);
    return batched;
}

interp::Context scale_inputs(std::int64_t n) {
    interp::Context ctx;
    ctx.symbols["N"] = n;
    std::vector<double> xv(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        xv[static_cast<std::size_t>(i)] = 0.25 * static_cast<double>(i) - 3.0;
    ctx.buffers.emplace("x", make_buffer(xv));
    return ctx;
}

// --- Segment shapes -----------------------------------------------------------

TEST(Batched, FlatScaleRunsOneSegmentLaunch) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierRun batched = expect_all_tiers_agree(p, scale_inputs(1000), "scale N=1000");
    EXPECT_EQ(batched.stats.scopes_specialized, 1);
    EXPECT_EQ(batched.stats.scopes_segmented, 1);
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 1);
    // With batching disabled, classification is unchanged but no segment runs.
    const TierRun perpoint = run_on_tier(p, scale_inputs(1000), Tier::Kernel, config());
    EXPECT_EQ(perpoint.stats.scopes_segmented, 1);
    EXPECT_EQ(perpoint.stats.segment_launches, 0);
    EXPECT_EQ(perpoint.stats.kernel_launches, 1);
}

TEST(Batched, LengthOneExtentTakesPerPointPath) {
    // seg_len == 1: batching would be pure overhead; the launch must commit
    // through the per-point loop and stay byte-identical.
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierRun batched = expect_all_tiers_agree(p, scale_inputs(1), "scale N=1");
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 0);
}

TEST(Batched, EmptyExtentExecutesNoPoints) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierRun batched = expect_all_tiers_agree(p, scale_inputs(0), "scale N=0");
    EXPECT_TRUE(batched.result.ok());
    EXPECT_EQ(batched.result.points, 0);
    EXPECT_EQ(batched.stats.segment_launches, 0);
}

TEST(Batched, UnalignedTailsAndTileBoundaries) {
    // The tile size of the vertical VM is 256: exercise below, exactly at,
    // one-past, and well-past the boundary, plus a prime straddle.
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = sqrt(t + 1.0) - i * 0.5");
    for (const std::int64_t n : {7ll, 255ll, 256ll, 257ll, 509ll, 768ll}) {
        const TierRun batched =
            expect_all_tiers_agree(p, scale_inputs(n), "tail N=" + std::to_string(n));
        EXPECT_EQ(batched.stats.segment_launches, 1) << n;
    }
}

TEST(Batched, BranchyTaskletNeverSegments) {
    // A ternary compiles to conditional jumps; the batch VMs are
    // straight-line only, so the scope must stay per-point (and still match
    // every tier bitwise).
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = t > 4.0 ? sqrt(t) : t * 0.5");
    const TierRun batched = expect_all_tiers_agree(p, scale_inputs(600), "branchy");
    EXPECT_EQ(batched.stats.scopes_specialized, 1);
    EXPECT_EQ(batched.stats.scopes_segmented, 0);
    EXPECT_EQ(batched.stats.segment_launches, 0);
    EXPECT_EQ(batched.stats.kernel_launches, 1);
}

TEST(Batched, NonUnitOuterStrideAdvancesSegmentsCorrectly) {
    // Outer param walks rows 0,2,4,6 of an 8x300 array (stride-2 iteration),
    // inner param is the contiguous 300-wide segment.  The outer odometer
    // advance must land each segment on the right row.
    ir::SDFG p("strided_rows");
    p.add_array("x", ir::DType::F64, {sym::cst(8), sym::cst(300)});
    p.add_array("y", ir::DType::F64, {sym::cst(8), sym::cst(300)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map(
        "m", {"i", "j"},
        {ir::Range{sym::cst(0), sym::cst(6), sym::cst(2)}, ir::Range::full(sym::cst(300))});
    const ir::NodeId t = st.add_tasklet("t", "o = i * 1.5 + 1.0");
    const ir::NodeId y = st.add_access("y");
    const ir::Subset point{{ir::Range::index(sym::symb("i")), ir::Range::index(sym::symb("j"))}};
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8), sym::cst(300)})));
    st.add_edge(entry, "", t, "i", ir::Memlet("x", point));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", point));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8), sym::cst(300)})));

    interp::Context inputs;
    interp::Buffer xv(ir::DType::F64, {8, 300});
    for (std::int64_t i = 0; i < xv.size(); ++i)
        xv.store(i, interp::Value::from_double(0.125 * static_cast<double>(i % 97) - 2.0));
    inputs.buffers.emplace("x", std::move(xv));
    const TierRun batched = expect_all_tiers_agree(p, inputs, "strided rows");
    EXPECT_EQ(batched.stats.segment_launches, 1);
    EXPECT_EQ(batched.result.points, 4 * 300);
}

// --- Dtype coverage of the segment VM ------------------------------------------

TEST(Batched, IntAffineScopesRunTheGenericTaggedVM) {
    // Int-family inputs have no untagged engine, and kernels run the
    // untagged VM only: the affine scope is not kernelized, so the generic
    // odometer runs its tasklet on the tagged VM, point by point — and
    // still matches the reference engine bitwise.  Integer division by the
    // zero element raises the same error with the same partial effects.
    for (const bool divides : {false, true}) {
        const std::string code = divides ? "o = 700 / i" : "o = i * 2 + 1";
        ir::SDFG p = make_scale_sdfg(code);
        p.container("x").dtype = ir::DType::I64;
        p.container("y").dtype = ir::DType::I64;
        p.bump_mutation_epoch();

        interp::Context inputs;
        inputs.symbols["N"] = 700;
        interp::Buffer xv(ir::DType::I64, {700});
        for (std::int64_t i = 0; i < 700; ++i) xv.store(i, interp::Value::from_int(i - 350));
        inputs.buffers.emplace("x", std::move(xv));

        const TierRun batched = expect_all_tiers_agree(p, inputs, code);
        expect_same_run(batched, run_on_tier(p, inputs, Tier::Reference, config()),
                        code + " (bitwise)");
        EXPECT_EQ(batched.result.status,
                  divides ? interp::ExecStatus::Crash : interp::ExecStatus::Ok)
            << code;
        if (!divides) {
            EXPECT_EQ(batched.ctx.buffers.at("y").load_double(0), -699.0);
        }
        EXPECT_EQ(batched.stats.tasklets_f64, 0) << code;
        EXPECT_EQ(batched.stats.scopes_planned, 1) << code;
        EXPECT_EQ(batched.stats.scopes_specialized, 0) << code;
        EXPECT_EQ(batched.stats.kernel_launches, 0) << code;
        EXPECT_EQ(batched.stats.kernel_fallbacks, 0) << code;
        EXPECT_EQ(batched.stats.segment_launches, 0) << code;
    }
}

TEST(Batched, FloatDivisionAndModuloKernelizeAndSegment) {
    // The F64 signature is the kernels' throw-free gate: with every input a
    // double, its feasibility proof rules out the integer division path,
    // so `/` and `%` tasklets kernelize and run batched segments — even
    // dividing by a zero element — and every tier agrees bitwise.
    for (const std::string code :
         {"o = i / (i * i + 1.0)", "o = 1.0 / i", "o = i % (i * 0.5 + 4.0)", "o = i % 0.75"}) {
        const ir::SDFG p = make_scale_sdfg(code);
        const TierRun batched = expect_all_tiers_agree(p, scale_inputs(600), code);
        EXPECT_TRUE(batched.result.ok()) << code << ": " << batched.result.message;
        EXPECT_EQ(batched.stats.tasklets_f64, 1) << code;
        EXPECT_EQ(batched.stats.scopes_specialized, 1) << code;
        EXPECT_EQ(batched.stats.scopes_segmented, 1) << code;
        EXPECT_EQ(batched.stats.kernel_launches, 1) << code;
        EXPECT_EQ(batched.stats.segment_launches, 1) << code;
    }
}

TEST(Batched, MixedDtypeSegmentsConvertLikeTheTaggedVM) {
    // F32 input, I32 output under the f64 signature: the segment gather
    // promotes float->double and the scatter narrows through the exact
    // Buffer::store casts.  Every tier must agree bitwise.
    ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 0.25");
    p.container("x").dtype = ir::DType::F32;
    p.container("y").dtype = ir::DType::I32;
    p.bump_mutation_epoch();

    interp::Context inputs;
    inputs.symbols["N"] = 600;
    interp::Buffer xv(ir::DType::F32, {600});
    for (std::int64_t i = 0; i < 600; ++i)
        xv.store(i, interp::Value::from_double(0.3 * static_cast<double>(i - 300)));
    inputs.buffers.emplace("x", std::move(xv));

    const TierRun batched = expect_all_tiers_agree(p, inputs, "f32->i32 scale");
    EXPECT_EQ(batched.stats.tasklets_f64, 1);
    EXPECT_EQ(batched.stats.segment_launches, 1);
    EXPECT_EQ(batched.ctx.buffers.at("y").dtype(), ir::DType::I32);
}

// --- Resource budgets ---------------------------------------------------------

TEST(Batched, BudgetCrossingASegmentBlamesTheSameLimit) {
    // Two 300-point maps under a 450-point budget: the first launch charges
    // 300, the second trips the budget mid-extent.  Kernel-tier launches
    // (batched or per-point) pre-charge the whole launch, so the batched
    // tier must blame exactly what per-point execution blames: same status,
    // same limit-naming message, and bitwise-identical partial effects (the
    // completed first map; none of the second).  The generic odometer
    // detects the same exhaustion per point — coarser partial effects by
    // documented design (interpreter.h ExecResult), but the same blame.
    const ir::SDFG p = make_chain_sdfg("o = i + 1.0", "o = i * 3.0");
    const TierRun batched = run_on_tier(p, scale_inputs(300), Tier::Batched, config(450));
    const TierRun perpoint = run_on_tier(p, scale_inputs(300), Tier::Kernel, config(450));
    const TierRun generic = run_on_tier(p, scale_inputs(300), Tier::Generic, config(450));
    const TierRun reference = run_on_tier(p, scale_inputs(300), Tier::Reference, config(450));
    expect_same_run(batched, perpoint, "budget mid-chain");
    EXPECT_EQ(batched.result.status, interp::ExecStatus::Resource);
    EXPECT_EQ(batched.result.message, generic.result.message);
    EXPECT_EQ(batched.result.message, reference.result.message);
    EXPECT_EQ(generic.result.status, interp::ExecStatus::Resource);
    EXPECT_EQ(reference.result.status, interp::ExecStatus::Resource);
    // The first map committed (one segment launch) before exhaustion.
    EXPECT_EQ(batched.stats.segment_launches, 1);
    ASSERT_TRUE(batched.ctx.has_buffer("T"));
    EXPECT_EQ(batched.ctx.buffers.at("T").load_double(0), -2.0);  // x[0]=-3 -> +1
    // The per-launch pre-charge refused the second map wholesale: its output
    // was ensured (zero-filled) by lane setup but no point of it ever ran —
    // identically for batched and per-point (asserted bitwise above).  The
    // generic odometer instead burned the remaining 150 points one at a time
    // before exhausting, so its prefix of y holds committed values.
    ASSERT_TRUE(batched.ctx.has_buffer("y"));
    EXPECT_EQ(batched.ctx.buffers.at("y").load_double(0), 0.0);
    ASSERT_TRUE(generic.ctx.has_buffer("y"));
    EXPECT_EQ(generic.ctx.buffers.at("y").load_double(0), -6.0);  // (x[0]+1)*3
    EXPECT_EQ(generic.ctx.buffers.at("y").load_double(150), 0.0);

    // Exactly at the boundary the budget is unobservable (budget purity).
    const TierRun exact =
        expect_all_tiers_agree(p, scale_inputs(300), "budget exact", /*max_points=*/600);
    EXPECT_TRUE(exact.result.ok());
    EXPECT_EQ(exact.result.points, 600);
    const TierRun unbudgeted = run_on_tier(p, scale_inputs(300), Tier::Batched, config());
    expect_same_run(exact, unbudgeted, "budget-at-limit vs unbudgeted");
}

// --- IEEE special payloads ----------------------------------------------------

TEST(Batched, SpecialPayloadsSurviveBatchingBitwise) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    interp::Context inputs;
    const double qnan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const double denorm = std::numeric_limits<double>::denorm_min();
    const std::vector<double> payloads = {qnan,   -qnan,        inf,  -inf,
                                          denorm, -denorm * 3,  0.0,  -0.0,
                                          std::numeric_limits<double>::min() / 4, 1.0};
    std::vector<double> xv;
    for (int rep = 0; rep < 40; ++rep)
        xv.insert(xv.end(), payloads.begin(), payloads.end());
    inputs.symbols["N"] = static_cast<std::int64_t>(xv.size());
    inputs.buffers.emplace("x", make_buffer(xv));
    const TierRun batched = expect_all_tiers_agree(p, inputs, "special payloads");
    EXPECT_EQ(batched.stats.segment_launches, 1);
    // Spot-check semantics: NaN propagates, inf saturates, -0 * 2 + 1 == 1.
    EXPECT_TRUE(std::isnan(batched.ctx.buffers.at("y").load_double(0)));
    EXPECT_EQ(batched.ctx.buffers.at("y").load_double(2), inf);
    EXPECT_EQ(batched.ctx.buffers.at("y").load_double(7), 1.0);
}

// --- Signed zeros --------------------------------------------------------------

TEST(Batched, SignedZeroMinMaxAgreeAcrossTiers) {
    // libm's fmin/fmax may return either zero of a ±0 pair; every tier must
    // order -0 below +0 instead, in both operand orders.
    std::vector<double> xv;
    for (int rep = 0; rep < 8; ++rep) xv.insert(xv.end(), {-0.0, 0.0});
    interp::Context inputs;
    inputs.symbols["N"] = static_cast<std::int64_t>(xv.size());
    inputs.buffers.emplace("x", make_buffer(xv));
    for (const std::string code :
         {"o = min(i, 0.0)", "o = min(0.0, i)", "o = max(i, 0.0)", "o = max(0.0, i)"}) {
        const TierRun batched = expect_all_tiers_agree(make_scale_sdfg(code), inputs, code);
        EXPECT_EQ(batched.stats.segment_launches, 1) << code;
        const bool is_min = code.find("min") != std::string::npos;
        for (std::size_t k = 0; k < xv.size(); ++k)
            EXPECT_EQ(std::signbit(batched.ctx.buffers.at("y").load_double(
                          static_cast<std::int64_t>(k))),
                      is_min && std::signbit(xv[k]))
                << code << " at " << k;
    }
}

TEST(Batched, IntegerZeroStaysUnsignedOnEveryTier) {
    // Integer zero has no sign: the tagged tiers negate an int 0/1 to +0 and
    // multiply it by a negative int to +0, where double arithmetic would
    // give -0.  Such programs must not run untagged; a product of
    // non-negative ints may.
    interp::Context inputs;
    const std::vector<double> xv = {-0.0, 0.0, 1.0, 7.0, -8.0, 6.0};
    inputs.symbols["N"] = static_cast<std::int64_t>(xv.size());
    inputs.buffers.emplace("x", make_buffer(xv));
    for (const std::string code : {"o = -(i > 5.0)", "o = (i > 5.0) * -3"}) {
        const TierRun batched = expect_all_tiers_agree(make_scale_sdfg(code), inputs, code);
        EXPECT_EQ(batched.stats.segment_launches, 0) << code;
        EXPECT_FALSE(std::signbit(batched.ctx.buffers.at("y").load_double(0))) << code;
    }
    const TierRun batched =
        expect_all_tiers_agree(make_scale_sdfg("o = (i > 5.0) * 3"), inputs, "nonneg product");
    EXPECT_EQ(batched.stats.segment_launches, 1);
}

// --- Aliasing: vertical execution must refuse reordering ----------------------

TEST(Batched, ShiftedSelfAliasRunsPerPoint) {
    // y[i+1] = y[i] * 2 is a loop-carried dependency: batching would read
    // stale values vertically.  The per-launch alias check must hand the
    // scope to the per-point loop (still a committed kernel launch), and the
    // result must equal the sequential recurrence on every tier.
    ir::SDFG p("shift_alias");
    p.add_array("y", ir::DType::F64, {sym::cst(512)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId yin = st.add_access("y");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(511))});
    const ir::NodeId t = st.add_tasklet("t", "o = i * 2.0");
    const ir::NodeId yout = st.add_access("y");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(yin, "", entry, "", ir::Memlet("y", ir::Subset::full({sym::cst(512)})));
    st.add_edge(entry, "", t, "i", ir::Memlet("y", idx(sym::symb("i"))));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", idx(sym::symb("i") + 1)));
    st.add_edge(exit, "", yout, "", ir::Memlet("y", ir::Subset::full({sym::cst(512)})));

    interp::Context inputs;
    std::vector<double> yv(512, 0.0);
    yv[0] = 1.0;
    inputs.buffers.emplace("y", make_buffer(yv));

    const TierRun batched = expect_all_tiers_agree(p, inputs, "shifted self-alias");
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 0) << "alias check must refuse batching";
    // The recurrence doubled 1.0 down the array: y[k] == 2^k (until overflow
    // to inf, which is fine — we check an early element).
    EXPECT_EQ(batched.ctx.buffers.at("y").load_double(10), 1024.0);
}

TEST(Batched, StrideZeroBroadcastWriteRunsPerPoint) {
    // x[0] = x[0] + 1 over 400 points: the write lane has inner stride 0, so
    // vertical execution would collapse 400 sequential increments into one.
    // The alias check must refuse; the committed per-point launch then
    // accumulates exactly like the generic odometer.
    ir::SDFG p("bcast_alias");
    p.add_array("x", ir::DType::F64, {sym::cst(4)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId xin = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(400))});
    const ir::NodeId t = st.add_tasklet("t", "o = v + 1.0");
    const ir::NodeId xout = st.add_access("x");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(xin, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(4)})));
    st.add_edge(entry, "", t, "v", ir::Memlet("x", idx(sym::cst(0))));
    st.add_edge(t, "o", exit, "", ir::Memlet("x", idx(sym::cst(0))));
    st.add_edge(exit, "", xout, "", ir::Memlet("x", ir::Subset::full({sym::cst(4)})));

    interp::Context inputs;
    inputs.buffers.emplace("x", make_buffer({0.5, 0, 0, 0}));
    const TierRun batched = expect_all_tiers_agree(p, inputs, "stride-0 broadcast");
    EXPECT_EQ(batched.stats.segment_launches, 0) << "stride-0 write must not batch";
    EXPECT_EQ(batched.ctx.buffers.at("x").load_double(0), 400.5);
}

TEST(Batched, LaneOffsetsDriftingApartAcrossSegmentsRunPerPoint) {
    // y[j + 3i] = y[j + 2i] * 2 + 1 over i < 2, j < 4: the read and write
    // lanes coincide in the first segment (i = 0) but drift apart by one
    // element per segment, so in the second the write runs one ahead of
    // the read — a loop-carried dependency.  The first segment alone must
    // not decide: lanes whose outer levels step differently have to be
    // disjoint over the whole launch.
    ir::SDFG p("drift");
    p.add_array("y", ir::DType::F64, {sym::cst(16)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId yin = st.add_access("y");
    auto [entry, exit] = st.add_map(
        "m", {"i", "j"}, {ir::Range::full(sym::cst(2)), ir::Range::full(sym::cst(4))});
    const ir::NodeId t = st.add_tasklet("t", "o = v * 2.0 + 1.0");
    const ir::NodeId yout = st.add_access("y");
    const sym::ExprPtr i = sym::symb("i"), j = sym::symb("j");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(yin, "", entry, "", ir::Memlet("y", ir::Subset::full({sym::cst(16)})));
    st.add_edge(entry, "", t, "v", ir::Memlet("y", idx(j + i * 2)));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", idx(j + i * 3)));
    st.add_edge(exit, "", yout, "", ir::Memlet("y", ir::Subset::full({sym::cst(16)})));

    std::vector<double> yv(16);
    for (std::size_t e = 0; e < yv.size(); ++e) yv[e] = static_cast<double>(e);
    interp::Context inputs;
    inputs.buffers.emplace("y", make_buffer(yv));
    const TierRun batched = expect_all_tiers_agree(p, inputs, "drifting lanes");
    EXPECT_EQ(batched.stats.segment_launches, 0);
    EXPECT_EQ(batched.ctx.buffers.at("y").load_double(5), 47.0);  // reads y[4] = 23
}

// --- Bands: reduction nests and tiled maps -------------------------------------

/// Containers of the nest programs: a[kRows, kCols] read at a[i, k] and
/// the 1-D accumulator o[kRows].
constexpr std::int64_t kRows = 320;
constexpr std::int64_t kCols = 12;

using Connectors = std::vector<std::pair<std::string, ir::Memlet>>;

/// The accum_nest shape of every matmul/matvec kernel (workloads/npbench.cpp):
/// a Parallel map over i around a Sequential map over k whose tasklet reads
/// `ins` and writes `outs` (all on a and o).
ir::SDFG make_nest(const ir::Range& outer, const ir::Range& inner, const Connectors& ins,
                   const Connectors& outs, const std::string& code) {
    ir::SDFG p("nest");
    p.add_array("a", ir::DType::F64, {sym::cst(kRows), sym::cst(kCols)});
    p.add_array("o", ir::DType::F64, {sym::cst(kRows)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId a = st.add_access("a");
    const ir::NodeId oin = st.add_access("o");
    auto [pe, px] = st.add_map("outer", {"i"}, {outer}, ir::Schedule::Parallel);
    auto [re, rx] = st.add_map("red", {"k"}, {inner}, ir::Schedule::Sequential);
    const ir::NodeId t = st.add_tasklet("acc", code);
    const ir::NodeId oout = st.add_access("o");
    const ir::Subset a_full = ir::Subset::full({sym::cst(kRows), sym::cst(kCols)});
    const ir::Subset o_full = ir::Subset::full({sym::cst(kRows)});
    st.add_edge(a, "", pe, "", ir::Memlet("a", a_full));
    st.add_edge(pe, "", re, "", ir::Memlet("a", a_full));
    st.add_edge(oin, "", pe, "", ir::Memlet("o", o_full));
    st.add_edge(pe, "", re, "", ir::Memlet("o", o_full));
    for (const auto& [conn, memlet] : ins) st.add_edge(re, "", t, conn, memlet);
    for (const auto& [conn, memlet] : outs) st.add_edge(t, conn, rx, "", memlet);
    st.add_edge(rx, "", px, "", ir::Memlet("o", o_full));
    st.add_edge(px, "", oout, "", ir::Memlet("o", o_full));
    return p;
}

const sym::ExprPtr kI = sym::symb("i");
const sym::ExprPtr kK = sym::symb("k");

ir::Memlet a_at(const sym::ExprPtr& row, const sym::ExprPtr& col) {
    return ir::Memlet("a", ir::Subset{{ir::Range::index(row), ir::Range::index(col)}});
}
ir::Memlet o_at(const sym::ExprPtr& index) {
    return ir::Memlet("o", ir::Subset{{ir::Range::index(index)}});
}

/// o[i] = o[i] + a[i, k] * 0.5 over i < n, k < kext: the reduction.
ir::SDFG make_reduction(std::int64_t n, std::int64_t kext) {
    return make_nest(ir::Range::full(sym::cst(n)), ir::Range::full(sym::cst(kext)),
                     {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}}, {{"cout", o_at(kI)}},
                     "cout = cin + a * 0.5");
}

interp::Context nest_inputs() {
    interp::Context ctx;
    interp::Buffer a(ir::DType::F64, {kRows, kCols});
    for (std::int64_t e = 0; e < a.size(); ++e)
        a.store(e, interp::Value::from_double(0.1 * static_cast<double>((e * 37) % 101) - 4.9));
    std::vector<double> o(static_cast<std::size_t>(kRows));
    for (std::size_t e = 0; e < o.size(); ++e) o[e] = 1.0 / (1.0 + static_cast<double>(e));
    ctx.buffers.emplace("a", std::move(a));
    ctx.buffers.emplace("o", make_buffer(o));
    return ctx;
}

TEST(Bands, ReductionNestBatchesAlongItsOutputAxis) {
    // One launch covers the whole nest.  Its innermost level writes o[i]
    // with stride 0, so it batches along i and runs k in order inside each
    // lane: every o[i] accumulates in the per-point order, bitwise.
    const TierRun batched =
        expect_all_tiers_agree(make_reduction(8, 8), nest_inputs(), "8x8 reduction");
    EXPECT_EQ(batched.stats.scopes_specialized, 2);  // the nest and its inner scope
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.nest_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 1);
    EXPECT_EQ(batched.stats.band_segment_launches, 1);
    EXPECT_EQ(batched.stats.kernel_points, 64);
    EXPECT_EQ(batched.stats.segment_points, 64);
    EXPECT_EQ(batched.result.points, 8 + 64) << "one point per outer point plus the inner points";
    EXPECT_FALSE(batched.coverage.empty());
}

TEST(Bands, DegenerateReductionAndBatchExtents) {
    // A reduction extent of 0: the generic nest charges each outer point
    // before finding the inner range empty, so the nest declines to
    // per-outer-point launches (each an empty commit).
    const TierRun empty =
        expect_all_tiers_agree(make_reduction(6, 0), nest_inputs(), "reduction extent 0");
    EXPECT_EQ(empty.result.points, 6);
    EXPECT_EQ(empty.stats.nest_launches, 0);
    EXPECT_EQ(empty.stats.kernel_fallbacks, 1);
    EXPECT_EQ(empty.stats.kernel_launches, 6);
    // A reduction extent of 1 commits and batches along i.
    const TierRun one =
        expect_all_tiers_agree(make_reduction(6, 1), nest_inputs(), "reduction extent 1");
    EXPECT_EQ(one.stats.nest_launches, 1);
    EXPECT_EQ(one.stats.band_segment_launches, 1);
    // A batch extent of 1 leaves nothing to batch: the per-point loop.
    const TierRun single =
        expect_all_tiers_agree(make_reduction(1, 9), nest_inputs(), "batch extent 1");
    EXPECT_EQ(single.stats.nest_launches, 1);
    EXPECT_EQ(single.stats.segment_launches, 0);
    EXPECT_EQ(single.result.points, 1 + 9);
}

TEST(Bands, BatchExtentPastATileLeavesATail) {
    // 300 outputs: one full 256-lane tile and a 44-lane tail, each running
    // the whole reduction in order.
    const TierRun batched =
        expect_all_tiers_agree(make_reduction(300, 7), nest_inputs(), "300x7 reduction");
    EXPECT_EQ(batched.stats.band_segment_launches, 1);
    EXPECT_EQ(batched.stats.segment_points, 300 * 7);
}

TEST(Bands, AliasedReductionOutputsRunPerPoint) {
    // o[i] += a[i, k] * o[k] reads the accumulator at another point: the
    // read window overlaps the write window unaligned, so the launch must
    // run point by point.
    const ir::SDFG inplace =
        make_nest(ir::Range::full(sym::cst(9)), ir::Range::full(sym::cst(9)),
                  {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}, {"b", o_at(kK)}}, {{"cout", o_at(kI)}},
                  "cout = cin + a * b");
    const TierRun aliased = expect_all_tiers_agree(inplace, nest_inputs(), "o[i] += a * o[k]");
    EXPECT_EQ(aliased.stats.nest_launches, 1);
    EXPECT_EQ(aliased.stats.segment_launches, 0) << "alias check must refuse batching";

    // Two accumulators: o[i + 100] += a (stride 0 along k, so the innermost
    // level cannot batch) and o[out] += a * 0.5 over 9 x kext.
    const auto two_sums = [](const sym::ExprPtr& out, std::int64_t kext) {
        const sym::ExprPtr side = kI + 100;
        return make_nest(ir::Range::full(sym::cst(9)), ir::Range::full(sym::cst(kext)),
                         {{"cin", o_at(out)}, {"pin", o_at(side)}, {"a", a_at(kI, kK)}},
                         {{"cout", o_at(out)}, {"q", o_at(side)}},
                         "cout = cin + a * 0.5; q = pin + a");
    };
    // o[i + k]: aligned with its own read, but neighbouring batch lanes
    // write each other's outputs (the batch stride 1 does not outrun the
    // sequential travel 8), so batching along i would change each output's
    // summation order.
    const TierRun shifted =
        expect_all_tiers_agree(two_sums(kI + kK, 9), nest_inputs(), "o[i + k] += a[i, k]");
    EXPECT_EQ(shifted.stats.nest_launches, 1);
    EXPECT_EQ(shifted.stats.segment_launches, 0) << "stride-vs-travel rule must refuse";
    // o[2i + k] for k < 2 strides past its whole travel: batches along i.
    const TierRun spread =
        expect_all_tiers_agree(two_sums(kI * 2 + kK, 2), nest_inputs(), "o[2i + k] += a[i, k]");
    EXPECT_EQ(spread.stats.band_segment_launches, 1);
}

/// The nest of make_reduction whose inner range reads i without changing:
/// the nest cannot form, so its inner scope launches once per outer point —
/// the execution every nest stood in for before bands spanned scopes.
ir::SDFG make_per_outer_point_reduction(std::int64_t n, std::int64_t kext) {
    return make_nest(ir::Range::full(sym::cst(n)),
                     ir::Range{sym::min(kI, sym::cst(0)), sym::cst(kext - 1), sym::cst(1)},
                     {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}}, {{"cout", o_at(kI)}},
                     "cout = cin + a * 0.5");
}

TEST(Bands, BudgetCrossingMidNestMatchesPerOuterPointLaunches) {
    // 4 x 10 nest charges 4 + 40 points.  Under a budget of 30 the nest
    // declines before lane setup, and per-outer-point launches run: rows 0
    // and 1 complete (22 points), row 2's launch is refused wholesale at
    // 23 + 10 > 30.  Same status, message and state as the twin program
    // whose nest cannot form.
    const ir::SDFG nest = make_reduction(4, 10);
    const ir::SDFG twin = make_per_outer_point_reduction(4, 10);
    for (const Tier tier : {Tier::Batched, Tier::Kernel}) {
        const TierRun got = run_on_tier(nest, nest_inputs(), tier, config(30));
        const TierRun want = run_on_tier(twin, nest_inputs(), tier, config(30));
        expect_same_run(got, want, "budget mid-nest");
        EXPECT_EQ(got.result.status, interp::ExecStatus::Resource);
        EXPECT_EQ(got.stats.nest_launches, 0);
        EXPECT_EQ(got.stats.kernel_launches, 2);
        const TierRun generic = run_on_tier(nest, nest_inputs(), Tier::Generic, config(30));
        EXPECT_EQ(got.result.status, generic.result.status);
        EXPECT_EQ(got.result.message, generic.result.message);
    }
    // Exactly at the boundary the nest commits and the budget is
    // unobservable.
    const TierRun exact = expect_all_tiers_agree(nest, nest_inputs(), "budget exact", 44);
    EXPECT_TRUE(exact.result.ok());
    EXPECT_EQ(exact.stats.nest_launches, 1);
    const TierRun per_outer_point = run_on_tier(twin, nest_inputs(), Tier::Batched, config());
    EXPECT_EQ(per_outer_point.stats.nest_launches, 0);
    EXPECT_EQ(per_outer_point.stats.kernel_launches, 4);
    expect_same_run(exact, per_outer_point, "exact vs twin");
}

TEST(Bands, TriangularInnerRangeStaysPerOuterPoint) {
    // k <= i: the inner bounds read a band parameter, so no nest forms and
    // the inner scope launches once per outer point.
    const ir::SDFG tri =
        make_nest(ir::Range::full(sym::cst(7)), ir::Range{sym::cst(0), kI, sym::cst(1)},
                  {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}}, {{"cout", o_at(kI)}},
                  "cout = cin + a * 0.5");
    const TierRun batched = expect_all_tiers_agree(tri, nest_inputs(), "triangular nest");
    EXPECT_EQ(batched.stats.scopes_specialized, 1);
    EXPECT_EQ(batched.stats.nest_launches, 0);
    EXPECT_EQ(batched.stats.kernel_launches, 7);
    EXPECT_EQ(batched.result.points, 7 + 28);
}

TEST(Bands, NestCoverageBitmapMatchesTheGenericTier) {
    // The nest marks its inner tasklet's class once; the generic tier marks
    // it per inner launch.  Every inner launch iterates the same count, so
    // the bitmaps agree — for the few (2..16) and many (>16) classes.
    for (const std::int64_t kext : {1, 5, 12}) {
        const std::string what = "coverage K=" + std::to_string(kext);
        const ir::SDFG p = make_reduction(5, kext);
        const TierRun batched = run_on_tier(p, nest_inputs(), Tier::Batched, config());
        const TierRun generic = run_on_tier(p, nest_inputs(), Tier::Generic, config());
        ASSERT_TRUE(batched.result.ok()) << what;
        EXPECT_EQ(batched.stats.nest_launches, 1) << what;
        EXPECT_FALSE(batched.coverage.empty()) << what;
        EXPECT_EQ(batched.coverage, generic.coverage) << what;
    }
}

/// `p` with its reduction map "red" tiled by MapTiling(tile, variant): the
/// tile parameter k__tile feeds the bounds of k, so the nest walks k__tile
/// into runs.
ir::SDFG tile_reduction(ir::SDFG p, std::int64_t tile,
                        xform::MapTiling::Variant variant = xform::MapTiling::Variant::Correct) {
    const xform::MapTiling tiling(tile, variant);
    for (const xform::Match& m : tiling.find_matches(p))
        if (p.state(m.state).graph().node(m.nodes.at(0)).label == "red") {
            tiling.apply(p, m);
            return p;
        }
    ADD_FAILURE() << "no reduction map to tile";
    return p;
}

TEST(Bands, TiledReductionReplaysItsRunsPerOutputLane) {
    // K = 12 in tiles of 8: runs k in [0, 7] and [8, 11], the last one
    // partial.  One launch covers the whole nest and batches along i, each
    // lane replaying both runs in order.
    const TierRun batched = expect_all_tiers_agree(tile_reduction(make_reduction(40, 12), 8),
                                                   nest_inputs(), "40x12 reduction in tiles of 8");
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.run_launches, 1);
    EXPECT_EQ(batched.stats.band_segment_launches, 1);
    EXPECT_EQ(batched.stats.segment_points, 40 * 12);
    EXPECT_EQ(batched.stats.kernel_fallbacks, 0);
    EXPECT_EQ(batched.result.points, 40 + 40 * 12);
    // Tiles of 3: four runs, the same single launch.
    const TierRun small = expect_all_tiers_agree(tile_reduction(make_reduction(40, 12), 3),
                                                 nest_inputs(), "40x12 reduction in tiles of 3");
    EXPECT_EQ(small.stats.kernel_launches, 1);
    EXPECT_EQ(small.stats.band_segment_launches, 1);
}

TEST(Bands, TileWiderThanTheReductionIsOneRun) {
    for (const std::int64_t kext : {5, 8}) {
        const std::string what = "K=" + std::to_string(kext) + " in one tile of 8";
        const TierRun one = expect_all_tiers_agree(tile_reduction(make_reduction(17, kext), 8),
                                                   nest_inputs(), what);
        EXPECT_EQ(one.stats.kernel_launches, 1) << what;
        EXPECT_EQ(one.stats.run_launches, 1) << what;
        EXPECT_EQ(one.stats.band_segment_launches, 1) << what;
    }
}

TEST(Bands, EmptyTiledReductionDeclinesToPerOuterPointLaunches) {
    // k__tile in [0, -1]: the walk reaches no point, so the nest declines
    // and the generic levels charge each outer point before finding the
    // nested scope empty.
    const TierRun empty = expect_all_tiers_agree(tile_reduction(make_reduction(6, 0), 8),
                                                 nest_inputs(), "tiled reduction extent 0");
    EXPECT_EQ(empty.result.points, 6);
    EXPECT_EQ(empty.stats.run_launches, 0);
    EXPECT_EQ(empty.stats.kernel_fallbacks, 1);
}

TEST(Bands, TilingBugVariantsOnTheReductionMatchTheGenericTier) {
    using V = xform::MapTiling::Variant;
    // Off by one: tiles [0, 8] and [8, 11] overlap at k = 8, in bounds, so
    // the launch commits and every output adds a[i, 8] twice, in order.
    const TierRun off = expect_all_tiers_agree(
        tile_reduction(make_reduction(30, 12), 8, V::OffByOne), nest_inputs(), "off-by-one");
    EXPECT_TRUE(off.result.ok());
    EXPECT_EQ(off.result.points, 30 + 30 * 13);
    EXPECT_EQ(off.stats.run_launches, 1);
    EXPECT_EQ(off.stats.band_segment_launches, 1);
    // No remainder: the last tile [8, 15] reads past a's 12 columns.  Run 0
    // is in bounds, run 1 is not, so lane setup declines and the generic
    // levels raise the generic path's error, with row 0's first run and the
    // in-bounds points of its second already accumulated.
    const TierRun oob = expect_all_tiers_agree(
        tile_reduction(make_reduction(30, 12), 8, V::NoRemainder), nest_inputs(), "no-remainder");
    EXPECT_EQ(oob.result.status, interp::ExecStatus::Crash);
    EXPECT_EQ(oob.stats.run_launches, 0);
    EXPECT_GT(oob.stats.kernel_fallbacks, 0);
    const TierRun generic = run_on_tier(tile_reduction(make_reduction(30, 12), 8, V::NoRemainder),
                                        nest_inputs(), Tier::Generic, config());
    EXPECT_EQ(oob.result.message, generic.result.message);
}

TEST(Bands, BudgetCrossingMidTiledNestMatchesPerOuterPointLaunches) {
    // 4 x 12 in tiles of 8 charges 4 + 48 points.  Under 30 the nest
    // declines before lane setup, and per-outer-point launches run, each
    // tile its own band launch: rows 0 and 1 complete (26 points), and row
    // 2's first tile is refused wholesale at 27 + 8 > 30.  Same status,
    // message and state as the twin program whose nest cannot form; the
    // generic odometer blames the same limit point by point.
    const ir::SDFG nest = tile_reduction(make_reduction(4, 12), 8);
    const ir::SDFG twin = tile_reduction(make_per_outer_point_reduction(4, 12), 8);
    for (const Tier tier : {Tier::Batched, Tier::Kernel}) {
        const std::string what = std::string("tiled budget (") + ff::testing::tier_name(tier) + ")";
        const TierRun got = run_on_tier(nest, nest_inputs(), tier, config(30));
        const TierRun want = run_on_tier(twin, nest_inputs(), tier, config(30));
        expect_same_run(got, want, what);
        EXPECT_EQ(got.result.status, interp::ExecStatus::Resource) << what;
        EXPECT_EQ(got.stats.run_launches, 0) << what;
        EXPECT_EQ(got.stats.kernel_fallbacks, 1) << what;
        EXPECT_EQ(got.stats.kernel_launches, 4) << what << ": two tiles in each of two rows";
        const TierRun generic = run_on_tier(nest, nest_inputs(), Tier::Generic, config(30));
        EXPECT_EQ(got.result.status, generic.result.status) << what;
        EXPECT_EQ(got.result.message, generic.result.message) << what;
    }
    // Exactly at the boundary the nest commits and the budget is
    // unobservable.
    const TierRun exact = expect_all_tiers_agree(nest, nest_inputs(), "budget 52", 52);
    EXPECT_TRUE(exact.result.ok());
    EXPECT_EQ(exact.stats.run_launches, 1);
    EXPECT_EQ(exact.stats.kernel_launches, 1);
    expect_same_run(exact, run_on_tier(twin, nest_inputs(), Tier::Batched, config()),
                    "exact vs twin");
}

TEST(Bands, AliasedTiledAccumulatorsRunPerPoint) {
    // o[i] += a[i, k] * o[k]: the read window of o[k] overlaps the written
    // outputs unaligned.
    const ir::SDFG inplace = tile_reduction(
        make_nest(ir::Range::full(sym::cst(12)), ir::Range::full(sym::cst(12)),
                  {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}, {"b", o_at(kK)}}, {{"cout", o_at(kI)}},
                  "cout = cin + a * b"),
        8);
    const TierRun aliased =
        expect_all_tiers_agree(inplace, nest_inputs(), "tiled o[i] += a * o[k]");
    EXPECT_EQ(aliased.stats.run_launches, 1);
    EXPECT_EQ(aliased.stats.segment_launches, 0) << "alias check must refuse batching";
    // o[8i + k] = o[8i + k] * 0.5 + a over k < 12 in tiles of 8, beside the
    // stride-0 accumulator o[i + 100] that keeps k from batching.  One run
    // of k spans 7 < 8, but both runs span 11: lane i's second run writes
    // o[8i + 8 ..] after lane i + 1's first run wrote it, so batching along
    // i would reorder those updates.
    const ir::SDFG spread = tile_reduction(
        make_nest(ir::Range::full(sym::cst(9)), ir::Range::full(sym::cst(12)),
                  {{"cin", o_at(kI * 8 + kK)}, {"pin", o_at(kI + 100)}, {"a", a_at(kI, kK)}},
                  {{"cout", o_at(kI * 8 + kK)}, {"q", o_at(kI + 100)}},
                  "cout = cin * 0.5 + a; q = pin + a"),
        8);
    const TierRun runs = expect_all_tiers_agree(spread, nest_inputs(), "tiled o[8i + k]");
    EXPECT_EQ(runs.stats.run_launches, 1);
    EXPECT_EQ(runs.stats.segment_launches, 0) << "the span of all runs must refuse batching";
}

TEST(Bands, TiledNestCoverageBitmapMatchesTheGenericTier) {
    // The nest marks its inner tasklet's class once, from the points of all
    // runs; the generic tier marks it per inner launch.
    for (const std::int64_t kext : {1, 5, 12}) {
        for (const std::int64_t tile : {3, 8}) {
            const std::string what =
                "coverage K=" + std::to_string(kext) + " tile " + std::to_string(tile);
            const ir::SDFG p = tile_reduction(make_reduction(5, kext), tile);
            const TierRun batched = run_on_tier(p, nest_inputs(), Tier::Batched, config());
            const TierRun generic = run_on_tier(p, nest_inputs(), Tier::Generic, config());
            ASSERT_TRUE(batched.result.ok()) << what;
            EXPECT_EQ(batched.stats.run_launches, 1) << what;
            EXPECT_FALSE(batched.coverage.empty()) << what;
            EXPECT_EQ(batched.coverage, generic.coverage) << what;
        }
    }
}

/// y[i, j] = x[i, j] * 1.5 + 1 over i < 20, j < 13 on 20x13 arrays, tiled by
/// MapTiling(8, variant): the tile parameters feed the inner bounds.
ir::SDFG make_tiled(xform::MapTiling::Variant variant) {
    ir::SDFG p("tiled");
    const std::vector<sym::ExprPtr> shape{sym::cst(20), sym::cst(13)};
    p.add_array("x", ir::DType::F64, shape);
    p.add_array("y", ir::DType::F64, shape);
    ir::State& st = p.state(p.add_state("main", true));
    auto [entry, exit] = st.add_map("m", {"i", "j"},
                                    {ir::Range::full(sym::cst(20)), ir::Range::full(sym::cst(13))});
    const ir::NodeId t = st.add_tasklet("t", "o = v * 1.5 + 1.0");
    const ir::Subset point{{ir::Range::index(kI), ir::Range::index(sym::symb("j"))}};
    st.add_edge(st.add_access("x"), "", entry, "", ir::Memlet("x", ir::Subset::full(shape)));
    st.add_edge(entry, "", t, "v", ir::Memlet("x", point));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", point));
    st.add_edge(exit, "", st.add_access("y"), "", ir::Memlet("y", ir::Subset::full(shape)));
    const xform::MapTiling tiling(8, variant);
    tiling.apply(p, tiling.find_matches(p).at(0));
    return p;
}

TEST(Bands, TiledMapsLaunchTheirTilesAsBands) {
    interp::Context inputs;
    interp::Buffer x(ir::DType::F64, {20, 13});
    for (std::int64_t e = 0; e < x.size(); ++e)
        x.store(e, interp::Value::from_double(0.25 * static_cast<double>(e % 29) - 3.0));
    inputs.buffers.emplace("x", std::move(x));
    using V = xform::MapTiling::Variant;
    // Correct: one band launch per (i__tile, j__tile) point, 3 x 2 tiles.
    const TierRun correct = expect_all_tiers_agree(make_tiled(V::Correct), inputs, "tiled");
    EXPECT_TRUE(correct.result.ok());
    EXPECT_EQ(correct.stats.prefix_launches, 6);
    EXPECT_EQ(correct.stats.segment_launches, 6);
    EXPECT_EQ(correct.stats.kernel_points, 20 * 13);
    // Off by one: overlapping in-bounds tiles, still one launch per tile.
    const TierRun off = expect_all_tiers_agree(make_tiled(V::OffByOne), inputs, "off-by-one");
    EXPECT_TRUE(off.result.ok());
    EXPECT_EQ(off.stats.prefix_launches, 6);
    // No remainder: the last tiles reach past 20 and 13.  Their launches
    // fail footprint validation and the generic levels raise the generic
    // path's error with its partial effects.
    const TierRun oob = expect_all_tiers_agree(make_tiled(V::NoRemainder), inputs, "no-remainder");
    EXPECT_EQ(oob.result.status, interp::ExecStatus::Crash);
    EXPECT_GT(oob.stats.kernel_fallbacks, 0);
    EXPECT_GT(oob.stats.prefix_launches, 0);
}

// --- DType name round-trip (exhaustive) ---------------------------------------

TEST(DTypeNames, RoundTripAllEnumerators) {
    // Mirrors the verdict round-trip test: every enumerator must survive
    // name -> parse, and kDTypeCount pins that new dtypes extend this test.
    for (int t = 0; t < ir::kDTypeCount; ++t) {
        const ir::DType dt = static_cast<ir::DType>(t);
        const char* name = ir::dtype_name(dt);
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::strlen(name), 0u);
        EXPECT_EQ(ir::dtype_from_name(name), dt) << name;
    }
    EXPECT_THROW(ir::dtype_from_name("float16"), common::ParseError);
    EXPECT_THROW(ir::dtype_from_name(""), common::ParseError);
    EXPECT_THROW(ir::dtype_from_name("float64 "), common::ParseError);
}

}  // namespace
}  // namespace ff
