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
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"

namespace ff {
namespace {

using ff::testing::make_buffer;
using ff::testing::make_chain_sdfg;
using ff::testing::make_scale_sdfg;

struct TierOut {
    interp::ExecResult res;
    interp::Context ctx;
    interp::SpecStats stats;
};

TierOut run_cfg(const ir::SDFG& p, const interp::Context& inputs, bool compiled,
                bool specialize, bool batch, std::int64_t max_points = 0) {
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    cfg.batch_segments = batch;
    if (max_points > 0) {
        cfg.max_points = max_points;
        cfg.max_alloc_bytes = 1ll << 30;
    }
    interp::Interpreter interp(cfg);
    TierOut out{interp::ExecResult{}, inputs, interp::SpecStats{}};
    out.res = interp.run(p, out.ctx);
    out.stats = interp.plan_cache()->spec_stats();
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
