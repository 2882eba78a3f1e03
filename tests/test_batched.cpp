// Batched segment tier: adversarial shapes for the vertical (SIMD-friendly)
// kernel VM.
//
// The contract under test: segment batching (ExecConfig::batch_segments) is
// a pure execution-strategy choice layered on top of specialization.  For
// any program the batched tier must produce results byte-identical to the
// per-point kernel loop, the generic compiled VM, and the reference AST
// engine — same buffers bit for bit, same error/resource messages, same
// cost counters.  This file attacks the batching machinery where it could
// plausibly diverge: degenerate and empty extents, non-unit outer strides,
// tails that do not fill a tile, resource budgets that a segment would
// cross, IEEE special payloads, and in-place aliasing that makes vertical
// execution illegal (the alias check must route those launches back to the
// per-point loop, not produce reordered stores).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "feedback/coverage.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"
#include "transforms/map_tiling.h"

namespace ff {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;

struct TierOut {
    interp::ExecResult res;
    interp::Context ctx;
    interp::SpecStats stats;
    std::vector<std::uint64_t> coverage;  ///< Def-use bitmap words of the run.
};

TierOut run_cfg(const ir::SDFG& p, const interp::Context& inputs, bool compiled,
                bool specialize, bool batch, std::int64_t max_points = 0) {
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    cfg.batch_segments = batch;
    cfg.coverage = true;
    if (max_points > 0) {
        cfg.max_points = max_points;
        cfg.max_alloc_bytes = 1ll << 30;
    }
    interp::Interpreter interp(cfg);
    feedback::CoverageMap map;
    map.reset(interp.plan_cache()->atlas_for(p)->pair_count());
    interp.set_coverage(&map);
    TierOut out{interp::ExecResult{}, inputs, interp::SpecStats{}, {}};
    out.res = interp.run(p, out.ctx);
    out.stats = interp.plan_cache()->spec_stats();
    out.coverage = map.trimmed_words();
    return out;
}

/// Bitwise context equality (same buffer names, dtypes, shapes, bytes) plus
/// identical status/message.  `nan_equiv` loosens only NaN payload bits —
/// needed against the reference AST engine, whose instruction selection may
/// legally propagate a different NaN than the bytecode VM.
void expect_same(const TierOut& a, const TierOut& b, const std::string& what,
                 bool nan_equiv = false) {
    EXPECT_EQ(a.res.status, b.res.status) << what;
    EXPECT_EQ(a.res.message, b.res.message) << what;
    if (a.res.ok() && b.res.ok()) {
        EXPECT_EQ(a.res.points, b.res.points) << what;
        EXPECT_EQ(a.res.instructions, b.res.instructions) << what;
        EXPECT_EQ(a.coverage, b.coverage) << what << ": coverage bitmaps differ";
    }
    ASSERT_EQ(a.ctx.buffers.size(), b.ctx.buffers.size()) << what;
    auto ita = a.ctx.buffers.begin();
    auto itb = b.ctx.buffers.begin();
    for (; ita != a.ctx.buffers.end(); ++ita, ++itb) {
        ASSERT_EQ(ita->first, itb->first) << what;
        if (!nan_equiv) {
            EXPECT_TRUE(ita->second.bitwise_equal(itb->second))
                << what << ": buffer '" << ita->first << "' differs";
            continue;
        }
        ASSERT_EQ(ita->second.dtype(), itb->second.dtype()) << what;
        ASSERT_EQ(ita->second.shape(), itb->second.shape()) << what;
        for (std::int64_t i = 0; i < ita->second.size(); ++i) {
            const double x = ita->second.load_double(i);
            const double y = itb->second.load_double(i);
            if (std::isnan(x) && std::isnan(y)) continue;
            EXPECT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
                << what << ": '" << ita->first << "' differs at " << i;
        }
    }
}

/// Runs all four tiers on the same inputs and requires batched == per-point
/// == generic bitwise, and == reference modulo NaN payloads.  Returns the
/// batched run for extra assertions.
TierOut expect_all_tiers_agree(const ir::SDFG& p, const interp::Context& inputs,
                               const std::string& what, std::int64_t max_points = 0) {
    const TierOut batched = run_cfg(p, inputs, true, true, true, max_points);
    const TierOut perpoint = run_cfg(p, inputs, true, true, false, max_points);
    const TierOut generic = run_cfg(p, inputs, true, false, false, max_points);
    const TierOut reference = run_cfg(p, inputs, false, false, false, max_points);
    expect_same(batched, perpoint, what + " (batched vs per-point)");
    expect_same(batched, generic, what + " (batched vs generic)");
    expect_same(batched, reference, what + " (batched vs reference)", /*nan_equiv=*/true);
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
    const TierOut batched = expect_all_tiers_agree(p, scale_inputs(1000), "scale N=1000");
    EXPECT_EQ(batched.stats.scopes_specialized, 1);
    EXPECT_EQ(batched.stats.scopes_segmented, 1);
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 1);
    // With batching disabled, classification is unchanged but no segment runs.
    const TierOut perpoint = run_cfg(p, scale_inputs(1000), true, true, false);
    EXPECT_EQ(perpoint.stats.scopes_segmented, 1);
    EXPECT_EQ(perpoint.stats.segment_launches, 0);
    EXPECT_EQ(perpoint.stats.kernel_launches, 1);
}

TEST(Batched, LengthOneExtentTakesPerPointPath) {
    // seg_len == 1: batching would be pure overhead; the launch must commit
    // through the per-point loop and stay byte-identical.
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierOut batched = expect_all_tiers_agree(p, scale_inputs(1), "scale N=1");
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 0);
}

TEST(Batched, EmptyExtentExecutesNoPoints) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0 + 1.0");
    const TierOut batched = expect_all_tiers_agree(p, scale_inputs(0), "scale N=0");
    EXPECT_TRUE(batched.res.ok());
    EXPECT_EQ(batched.res.points, 0);
    EXPECT_EQ(batched.stats.segment_launches, 0);
}

TEST(Batched, UnalignedTailsAndTileBoundaries) {
    // The tile size of the vertical VM is 256: exercise below, exactly at,
    // one-past, and well-past the boundary, plus a prime straddle.
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = sqrt(t + 1.0) - i * 0.5");
    for (const std::int64_t n : {7ll, 255ll, 256ll, 257ll, 509ll, 768ll}) {
        const TierOut batched =
            expect_all_tiers_agree(p, scale_inputs(n), "tail N=" + std::to_string(n));
        EXPECT_EQ(batched.stats.segment_launches, 1) << n;
    }
}

TEST(Batched, BranchyTaskletNeverSegments) {
    // A ternary compiles to conditional jumps; the batch VMs are
    // straight-line only, so the scope must stay per-point (and still match
    // every tier bitwise).
    const ir::SDFG p = make_scale_sdfg("t = i * i; o = t > 4.0 ? sqrt(t) : t * 0.5");
    const TierOut batched = expect_all_tiers_agree(p, scale_inputs(600), "branchy");
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
    const TierOut batched = expect_all_tiers_agree(p, inputs, "strided rows");
    EXPECT_EQ(batched.stats.segment_launches, 1);
    EXPECT_EQ(batched.res.points, 4 * 300);
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

        const TierOut batched = expect_all_tiers_agree(p, inputs, code);
        expect_same(batched, run_cfg(p, inputs, false, false, false), code + " (bitwise)");
        EXPECT_EQ(batched.res.status,
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
        const TierOut batched = expect_all_tiers_agree(p, scale_inputs(600), code);
        EXPECT_TRUE(batched.res.ok()) << code << ": " << batched.res.message;
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

    const TierOut batched = expect_all_tiers_agree(p, inputs, "f32->i32 scale");
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
    const TierOut batched = run_cfg(p, scale_inputs(300), true, true, true, /*max_points=*/450);
    const TierOut perpoint = run_cfg(p, scale_inputs(300), true, true, false, 450);
    const TierOut generic = run_cfg(p, scale_inputs(300), true, false, false, 450);
    const TierOut reference = run_cfg(p, scale_inputs(300), false, false, false, 450);
    expect_same(batched, perpoint, "budget mid-chain (batched vs per-point)");
    EXPECT_EQ(batched.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(batched.res.message, generic.res.message);
    EXPECT_EQ(batched.res.message, reference.res.message);
    EXPECT_EQ(generic.res.status, interp::ExecStatus::Resource);
    EXPECT_EQ(reference.res.status, interp::ExecStatus::Resource);
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
    const TierOut exact =
        expect_all_tiers_agree(p, scale_inputs(300), "budget exact", /*max_points=*/600);
    EXPECT_TRUE(exact.res.ok());
    EXPECT_EQ(exact.res.points, 600);
    const TierOut unbudgeted = run_cfg(p, scale_inputs(300), true, true, true);
    expect_same(exact, unbudgeted, "budget-at-limit vs unbudgeted");
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
    const TierOut batched = expect_all_tiers_agree(p, inputs, "special payloads");
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
        const TierOut batched = expect_all_tiers_agree(make_scale_sdfg(code), inputs, code);
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
        const TierOut batched = expect_all_tiers_agree(make_scale_sdfg(code), inputs, code);
        EXPECT_EQ(batched.stats.segment_launches, 0) << code;
        EXPECT_FALSE(std::signbit(batched.ctx.buffers.at("y").load_double(0))) << code;
    }
    const TierOut batched =
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

    const TierOut batched = expect_all_tiers_agree(p, inputs, "shifted self-alias");
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
    const TierOut batched = expect_all_tiers_agree(p, inputs, "stride-0 broadcast");
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
    const TierOut batched = expect_all_tiers_agree(p, inputs, "drifting lanes");
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
    const TierOut batched =
        expect_all_tiers_agree(make_reduction(8, 8), nest_inputs(), "8x8 reduction");
    EXPECT_EQ(batched.stats.scopes_specialized, 2);  // the nest and its inner scope
    EXPECT_EQ(batched.stats.kernel_launches, 1);
    EXPECT_EQ(batched.stats.nest_launches, 1);
    EXPECT_EQ(batched.stats.segment_launches, 1);
    EXPECT_EQ(batched.stats.band_segment_launches, 1);
    EXPECT_EQ(batched.stats.kernel_points, 64);
    EXPECT_EQ(batched.stats.segment_points, 64);
    EXPECT_EQ(batched.res.points, 8 + 64) << "one point per outer point plus the inner points";
    EXPECT_FALSE(batched.coverage.empty());
}

TEST(Bands, DegenerateReductionAndBatchExtents) {
    // A reduction extent of 0: the generic nest charges each outer point
    // before finding the inner range empty, so the nest declines to
    // per-outer-point launches (each an empty commit).
    const TierOut empty =
        expect_all_tiers_agree(make_reduction(6, 0), nest_inputs(), "reduction extent 0");
    EXPECT_EQ(empty.res.points, 6);
    EXPECT_EQ(empty.stats.nest_launches, 0);
    EXPECT_EQ(empty.stats.kernel_fallbacks, 1);
    EXPECT_EQ(empty.stats.kernel_launches, 6);
    // A reduction extent of 1 commits and batches along i.
    const TierOut one =
        expect_all_tiers_agree(make_reduction(6, 1), nest_inputs(), "reduction extent 1");
    EXPECT_EQ(one.stats.nest_launches, 1);
    EXPECT_EQ(one.stats.band_segment_launches, 1);
    // A batch extent of 1 leaves nothing to batch: the per-point loop.
    const TierOut single =
        expect_all_tiers_agree(make_reduction(1, 9), nest_inputs(), "batch extent 1");
    EXPECT_EQ(single.stats.nest_launches, 1);
    EXPECT_EQ(single.stats.segment_launches, 0);
    EXPECT_EQ(single.res.points, 1 + 9);
}

TEST(Bands, BatchExtentPastATileLeavesATail) {
    // 300 outputs: one full 256-lane tile and a 44-lane tail, each running
    // the whole reduction in order.
    const TierOut batched =
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
    const TierOut aliased = expect_all_tiers_agree(inplace, nest_inputs(), "o[i] += a * o[k]");
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
    const TierOut shifted =
        expect_all_tiers_agree(two_sums(kI + kK, 9), nest_inputs(), "o[i + k] += a[i, k]");
    EXPECT_EQ(shifted.stats.nest_launches, 1);
    EXPECT_EQ(shifted.stats.segment_launches, 0) << "stride-vs-travel rule must refuse";
    // o[2i + k] for k < 2 strides past its whole travel: batches along i.
    const TierOut spread =
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
    for (const bool batch : {true, false}) {
        const TierOut got = run_cfg(nest, nest_inputs(), true, true, batch, /*max_points=*/30);
        const TierOut want = run_cfg(twin, nest_inputs(), true, true, batch, 30);
        expect_same(got, want, batch ? "budget mid-nest (batched)" : "budget mid-nest (per-point)");
        EXPECT_EQ(got.res.status, interp::ExecStatus::Resource);
        EXPECT_EQ(got.stats.nest_launches, 0);
        EXPECT_EQ(got.stats.kernel_launches, 2);
        const TierOut generic = run_cfg(nest, nest_inputs(), true, false, false, 30);
        EXPECT_EQ(got.res.status, generic.res.status);
        EXPECT_EQ(got.res.message, generic.res.message);
    }
    // Exactly at the boundary the nest commits and the budget is
    // unobservable.
    const TierOut exact = expect_all_tiers_agree(nest, nest_inputs(), "budget exact", 44);
    EXPECT_TRUE(exact.res.ok());
    EXPECT_EQ(exact.stats.nest_launches, 1);
    const TierOut per_outer_point = run_cfg(twin, nest_inputs(), true, true, true);
    EXPECT_EQ(per_outer_point.stats.nest_launches, 0);
    EXPECT_EQ(per_outer_point.stats.kernel_launches, 4);
    expect_same(exact, per_outer_point, "exact vs twin");
}

TEST(Bands, TriangularInnerRangeStaysPerOuterPoint) {
    // k <= i: the inner bounds read a band parameter, so no nest forms and
    // the inner scope launches once per outer point.
    const ir::SDFG tri =
        make_nest(ir::Range::full(sym::cst(7)), ir::Range{sym::cst(0), kI, sym::cst(1)},
                  {{"cin", o_at(kI)}, {"a", a_at(kI, kK)}}, {{"cout", o_at(kI)}},
                  "cout = cin + a * 0.5");
    const TierOut batched = expect_all_tiers_agree(tri, nest_inputs(), "triangular nest");
    EXPECT_EQ(batched.stats.scopes_specialized, 1);
    EXPECT_EQ(batched.stats.nest_launches, 0);
    EXPECT_EQ(batched.stats.kernel_launches, 7);
    EXPECT_EQ(batched.res.points, 7 + 28);
}

TEST(Bands, NestCoverageBitmapMatchesTheGenericTier) {
    // The nest marks its inner tasklet's class once; the generic tier marks
    // it per inner launch.  Every inner launch iterates the same count, so
    // the bitmaps agree — for the few (2..16) and many (>16) classes.
    for (const std::int64_t kext : {1, 5, 12}) {
        const std::string what = "coverage K=" + std::to_string(kext);
        const TierOut batched = run_cfg(make_reduction(5, kext), nest_inputs(), true, true, true);
        const TierOut generic = run_cfg(make_reduction(5, kext), nest_inputs(), true, false, false);
        ASSERT_TRUE(batched.res.ok()) << what;
        EXPECT_EQ(batched.stats.nest_launches, 1) << what;
        EXPECT_FALSE(batched.coverage.empty()) << what;
        EXPECT_EQ(batched.coverage, generic.coverage) << what;
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
    const TierOut correct = expect_all_tiers_agree(make_tiled(V::Correct), inputs, "tiled");
    EXPECT_TRUE(correct.res.ok());
    EXPECT_EQ(correct.stats.prefix_launches, 6);
    EXPECT_EQ(correct.stats.segment_launches, 6);
    EXPECT_EQ(correct.stats.kernel_points, 20 * 13);
    // Off by one: overlapping in-bounds tiles, still one launch per tile.
    const TierOut off = expect_all_tiers_agree(make_tiled(V::OffByOne), inputs, "off-by-one");
    EXPECT_TRUE(off.res.ok());
    EXPECT_EQ(off.stats.prefix_launches, 6);
    // No remainder: the last tiles reach past 20 and 13.  Their launches
    // fail footprint validation and the generic levels raise the generic
    // path's error with its partial effects.
    const TierOut oob = expect_all_tiers_agree(make_tiled(V::NoRemainder), inputs, "no-remainder");
    EXPECT_EQ(oob.res.status, interp::ExecStatus::Crash);
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
