// Specialization tiers: flat-stride map kernels on the untagged f64 VM.
//
// The contract under test: the execution tier (ExecConfig::tier) is a pure
// execution-strategy choice.  For any program — any dtype mix,
// strided/offset/reversed subsets, non-affine indices, non-constant
// (triangular) ranges, out-of-bounds accesses — the kernel tiers produce
// results byte-identical to the generic compiled path and to the reference
// AST engine: same buffers bit for bit, same symbols, same crash messages.
// A fuzzing audit must therefore report byte-identical verdicts, counts and
// reproducer artifacts on every tier, at any thread count (this file is
// also a TSan target: the toggle tests run multi-worker audits over shared
// plan caches carrying kernel classifications).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "feedback/corpus.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

using ff::testing::expect_same_run;
using ff::testing::make_scale_sdfg;
using ff::testing::run_on_tier;
using ff::testing::TierRun;
using interp::Tier;

// --- Affine analysis ---------------------------------------------------------

std::vector<const std::string*> param_ptrs(const std::vector<std::string>& names) {
    std::vector<const std::string*> out;
    for (const std::string& n : names) out.push_back(&n);
    return out;
}

TEST(AffineCoefficients, ExtractsConstantStrides) {
    using sym::cst;
    using sym::symb;
    const std::vector<std::string> params{"i", "j"};
    const auto p = param_ptrs(params);

    auto coeffs = ir::affine_coefficients(symb("i"), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{1, 0}));

    coeffs = ir::affine_coefficients(symb("i") * 3 + symb("j") * -2 + 7, p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{3, -2}));

    // i appearing twice accumulates; free symbols land in the base.
    coeffs = ir::affine_coefficients(symb("i") + symb("i") + symb("N"), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{2, 0}));

    // A wholly param-free non-affine subtree is part of the base.
    coeffs = ir::affine_coefficients(symb("i") + sym::floordiv(symb("N"), cst(2)), p);
    ASSERT_TRUE(coeffs);
    EXPECT_EQ(*coeffs, (std::vector<std::int64_t>{1, 0}));
}

TEST(AffineCoefficients, RejectsNonAffineUses) {
    using sym::cst;
    using sym::symb;
    const std::vector<std::string> params{"i", "j"};
    const auto p = param_ptrs(params);

    EXPECT_FALSE(ir::affine_coefficients(symb("i") * symb("j"), p));       // bilinear
    EXPECT_FALSE(ir::affine_coefficients(symb("i") * symb("N"), p));       // symbolic stride
    EXPECT_FALSE(ir::affine_coefficients(sym::floordiv(symb("i"), cst(2)), p));
    EXPECT_FALSE(ir::affine_coefficients(sym::mod(symb("j"), cst(3)), p));
    EXPECT_FALSE(ir::affine_coefficients(sym::min(symb("i"), cst(5)), p));
    EXPECT_FALSE(ir::affine_coefficients(symb("i") * (std::int64_t{1} << 30), p));  // bound
}

// --- f64 feasibility of tasklet programs -------------------------------------

TEST(F64Variant, FloatOnlyProgramsQualify) {
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a * 2.0 + 1.0")->has_f64_variant());
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a > 0.0 ? a : -a")->has_f64_variant());
    EXPECT_TRUE(interp::TaskletProgram::parse("t = a * b; o = sqrt(t) + min(a, b)")
                    ->has_f64_variant());
    // Small-integer booleans/constants are exactly representable as doubles;
    // the tagged VM compares and promotes through as_double anyway.
    EXPECT_TRUE(interp::TaskletProgram::parse("o = (a > 0.5) + (b > 0.5) * 3")
                    ->has_f64_variant());
    // Float division is representation-identical.
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a / 2.0")->has_f64_variant());
}

TEST(F64Variant, IntSemanticsForceTheTaggedVM) {
    // Both operands can be integers at runtime: floor division / modulo
    // (and the int-div-by-zero crash) only exist in the tagged VM.  (A fully
    // constant `7 / 2` folds at compile time and stays eligible.)
    EXPECT_TRUE(interp::TaskletProgram::parse("o = 7 / 2 + a * 0.0")->has_f64_variant());
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 1.0) / 2 + a * 0.0")->has_f64_variant());
    EXPECT_FALSE(
        interp::TaskletProgram::parse("o = (a > 0) / (b > 0) + a")->has_f64_variant());
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 0) % 2 + a")->has_f64_variant());
    // Integer magnitudes beyond 2^50 could round in double representation.
    EXPECT_FALSE(interp::TaskletProgram::parse("o = (a > 0) * 1125899906842625 + a")
                     ->has_f64_variant());
    // a / 2 is fine when a is a float input (inputs arrive as doubles).
    EXPECT_TRUE(interp::TaskletProgram::parse("o = a / 2")->has_f64_variant());
}

// --- Classification + counters on a known program ----------------------------

TEST(Specialization, ScaleMapClassifiesAndLaunches) {
    const ir::SDFG p = make_scale_sdfg();  // y[i] = x[i] * 2, f64, affine
    interp::Interpreter interp;            // Tier::Batched by default
    interp::Context ctx;
    ctx.symbols["N"] = 16;
    ctx.buffers.emplace("x", ff::testing::make_buffer(std::vector<double>(16, 1.5)));
    ASSERT_TRUE(interp.run(p, ctx).ok());

    const interp::SpecStats stats = interp.plan_cache()->spec_stats();
    EXPECT_EQ(stats.scopes_planned, 1);
    EXPECT_EQ(stats.scopes_specialized, 1);
    EXPECT_EQ(stats.scopes_segmented, 1);  // straight-line f64: segment-eligible
    EXPECT_EQ(stats.tasklets_planned, 1);
    EXPECT_EQ(stats.tasklets_f64, 1);
    EXPECT_EQ(stats.kernel_launches, 1);
    EXPECT_EQ(stats.kernel_fallbacks, 0);
    EXPECT_EQ(stats.segment_launches, 1);  // the batched tier
    EXPECT_EQ(ctx.buffers.at("y").load_double(7), 3.0);
}

TEST(Specialization, OutOfBoundsFootprintFallsBackAndCrashesIdentically) {
    // y[i] = x[i + 60] over i in 0:15 with |x| = 64: points 0..3 succeed,
    // point 4 faults.  The kernel must refuse the launch (footprint) and the
    // generic path must reproduce the exact partial effects + error.
    ir::SDFG p("oob");
    p.add_array("x", ir::DType::F64, {sym::cst(64)});
    p.add_array("y", ir::DType::F64, {sym::cst(16)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(16))});
    const ir::NodeId t = st.add_tasklet("t", "o = i * 2.0");
    const ir::NodeId y = st.add_access("y");
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(64)})));
    st.add_edge(entry, "", t, "i",
                ir::Memlet("x", ir::Subset{{ir::Range::index(sym::symb("i") + 60)}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(16)})));

    auto run_with = [&](Tier tier) {
        interp::ExecConfig cfg;
        cfg.tier = tier;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        std::vector<double> xv(64);
        for (int i = 0; i < 64; ++i) xv[static_cast<std::size_t>(i)] = i;
        ctx.buffers.emplace("x", ff::testing::make_buffer(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(Tier::Batched);
    auto [r_gen, ctx_gen] = run_with(Tier::Generic);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    ASSERT_TRUE(ctx_spec.has_buffer("y"));
    EXPECT_TRUE(ctx_spec.buffers.at("y").bitwise_equal(ctx_gen.buffers.at("y")))
        << "partial effects before the crash must match";
}

TEST(Specialization, ThrowingTaskletNeverKernelizes) {
    // An I64 map whose tasklet divides by a runtime-zero value: the VM
    // throws at the first point.  The scope must not classify as a
    // flat-stride kernel (its pre-pass would allocate the output buffer the
    // generic path never reaches), so crashed contexts stay identical.
    ir::SDFG p("divzero");
    p.add_array("x", ir::DType::I64, {sym::cst(8)});
    p.add_array("y", ir::DType::I64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t = st.add_tasklet("t", "o = i % (i - i)");
    const ir::NodeId y = st.add_access("y");
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t, "i",
                ir::Memlet("x", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(t, "o", exit, "", ir::Memlet("y", ir::Subset{{ir::Range::index(sym::symb("i"))}}));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](Tier tier) {
        interp::ExecConfig cfg;
        cfg.tier = tier;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        interp::Buffer xv(ir::DType::I64, {8});
        for (int i = 0; i < 8; ++i) xv.store(i, interp::Value::from_int(i + 1));
        ctx.buffers.emplace("x", std::move(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(Tier::Batched);
    auto [r_gen, ctx_gen, stats_gen] = run_with(Tier::Generic);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    EXPECT_EQ(stats_spec.scopes_specialized, 0);  // throw-capable: not kernelized
    ASSERT_EQ(ctx_spec.buffers.size(), ctx_gen.buffers.size())
        << "crashed contexts must hold the same buffer set";
}

TEST(Specialization, MultiOutputOobLeavesLaterOutputsUnallocated) {
    // All-F64 two-output tasklet whose first output index is out of bounds:
    // the tagged path ensures each output's buffer lazily at its own
    // scatter, so the crash leaves the second output unallocated.  The
    // kernel tiers must not pre-allocate it — crashed contexts hold the same
    // buffer set on the batched and the generic tier.
    ir::SDFG p("multioob");
    p.add_array("x", ir::DType::F64, {sym::cst(8)});
    p.add_array("y", ir::DType::F64, {sym::cst(8)});
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t = st.add_tasklet("t", "o1 = i * 2.0; o2 = i + 1.0");
    const ir::NodeId y = st.add_access("y");
    const ir::NodeId z = st.add_access("z");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t, "i", ir::Memlet("x", idx(sym::symb("i"))));
    st.add_edge(t, "o1", exit, "", ir::Memlet("y", idx(sym::symb("i") + 40)));  // OOB
    st.add_edge(t, "o2", exit, "", ir::Memlet("z", idx(sym::symb("i"))));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));
    st.add_edge(exit, "", z, "", ir::Memlet("z", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](Tier tier) {
        interp::ExecConfig cfg;
        cfg.tier = tier;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(std::vector<double>(8, 1.0)));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(Tier::Batched);
    auto [r_gen, ctx_gen] = run_with(Tier::Generic);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    EXPECT_FALSE(ctx_gen.has_buffer("z")) << "tagged path must not allocate past the crash";
    EXPECT_EQ(ctx_spec.buffers.size(), ctx_gen.buffers.size())
        << "crashed contexts must hold the same buffer set";
}

TEST(Specialization, ThrowingSiblingLaneFallsBackToGenericReplay) {
    // Two tasklets in one map scope; T2's index contains an unbound symbol
    // (affine in the params, so the scope still classifies).  The generic
    // path executes T1 at the first point *before* throwing at T2's gather;
    // the kernel pre-pass must not shortcut that — it catches the throw,
    // falls back, and the generic replay reproduces both the partial
    // effects and the error.
    ir::SDFG p("sibling");
    p.add_symbol("Q");  // never bound at runtime
    p.add_array("x", ir::DType::F64, {sym::cst(8)});
    p.add_array("y", ir::DType::F64, {sym::cst(8)});
    p.add_array("z", ir::DType::F64, {sym::cst(8)});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    auto [entry, exit] = st.add_map("m", {"i"}, {ir::Range::full(sym::cst(8))});
    const ir::NodeId t1 = st.add_tasklet("t1", "o = i + 1.0");
    const ir::NodeId t2 = st.add_tasklet("t2", "o = i * 2.0");
    const ir::NodeId y = st.add_access("y");
    const ir::NodeId z = st.add_access("z");
    const auto idx = [](sym::ExprPtr e) { return ir::Subset{{ir::Range::index(e)}}; };
    st.add_edge(x, "", entry, "", ir::Memlet("x", ir::Subset::full({sym::cst(8)})));
    st.add_edge(entry, "", t1, "i", ir::Memlet("x", idx(sym::symb("i"))));
    st.add_edge(t1, "o", exit, "", ir::Memlet("y", idx(sym::symb("i"))));
    st.add_edge(entry, "", t2, "i", ir::Memlet("x", idx(sym::symb("i") + sym::symb("Q"))));
    st.add_edge(t2, "o", exit, "", ir::Memlet("z", idx(sym::symb("i"))));
    st.add_edge(exit, "", y, "", ir::Memlet("y", ir::Subset::full({sym::cst(8)})));
    st.add_edge(exit, "", z, "", ir::Memlet("z", ir::Subset::full({sym::cst(8)})));

    auto run_with = [&](Tier tier) {
        interp::ExecConfig cfg;
        cfg.tier = tier;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(
                                     std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(Tier::Batched);
    auto [r_gen, ctx_gen, stats_gen] = run_with(Tier::Generic);
    EXPECT_EQ(r_spec.status, interp::ExecStatus::Crash);
    EXPECT_EQ(r_spec.status, r_gen.status);
    EXPECT_EQ(r_spec.message, r_gen.message);
    // The scope classified — and with two straight-line f64 tasklets it is
    // even segment-eligible — yet the launch fell back (no commit, no
    // segment): a misclassification the per-launch validation catches must
    // reach the generic replay, never the batch VMs.
    EXPECT_EQ(stats_spec.scopes_specialized, 1);
    EXPECT_EQ(stats_spec.scopes_segmented, 1);
    EXPECT_EQ(stats_spec.kernel_fallbacks, 1);
    EXPECT_EQ(stats_spec.kernel_launches, 0);
    EXPECT_EQ(stats_spec.segment_launches, 0);
    // T1's first-point effect must be present on both paths.
    ASSERT_TRUE(ctx_spec.has_buffer("y"));
    ASSERT_TRUE(ctx_gen.has_buffer("y"));
    EXPECT_EQ(ctx_spec.buffers.at("y").load_double(0), 1.0);
    EXPECT_TRUE(ctx_spec.buffers.at("y").bitwise_equal(ctx_gen.buffers.at("y")));
}

// --- Differential property test ----------------------------------------------
//
// 420 random programs spanning dtypes, strided/offset/reversed subsets,
// non-affine indices, triangular (non-constant) ranges, reduction nests,
// tiled maps (every MapTiling variant) and occasional out-of-bounds
// offsets.  Reference AST engine, generic compiled path and
// specialized path must agree bit for bit — results and crash messages.

struct RandomProgram {
    ir::SDFG p{"prop"};
    interp::Context inputs;
};

ir::DType pick_dtype(common::Rng& rng) {
    switch (rng.uniform_int(0, 3)) {
        case 0: return ir::DType::F64;
        case 1: return ir::DType::F32;
        case 2: return ir::DType::I64;
        default: return ir::DType::I32;
    }
}

interp::Buffer random_buffer(common::Rng& rng, ir::DType dtype,
                             const std::vector<std::int64_t>& shape) {
    interp::Buffer buf(dtype, shape);
    for (std::int64_t i = 0; i < buf.size(); ++i) {
        if (ir::dtype_is_float(dtype))
            buf.store(i, interp::Value::from_double(rng.uniform_double(-8.0, 8.0)));
        else
            buf.store(i, interp::Value::from_int(rng.uniform_int(-9, 9)));
    }
    return buf;
}

/// One random elementwise map stage reading `in_name` and writing a fresh
/// container; returns the output access node.
ir::NodeId random_stage(common::Rng& rng, ir::SDFG& p, ir::State& st, ir::NodeId in_access,
                        int stage) {
    const std::string in_name = st.graph().node(in_access).data;
    const std::vector<sym::ExprPtr>& in_shape = p.container(in_name).shape;
    const std::size_t rank = in_shape.size();

    // Output container (occasionally a different dtype than the input), and
    // sometimes a second output — multi-output tasklets exercise the lazy
    // per-scatter allocation order when an earlier output faults.
    const std::string out_name = "s" + std::to_string(stage);
    const ir::DType out_dtype = pick_dtype(rng);
    std::vector<sym::ExprPtr> out_shape = in_shape;
    p.add_array(out_name, out_dtype, out_shape, /*transient=*/false);
    const bool two_outputs = rng.chance(0.25);
    const std::string out2_name = out_name + "b";
    if (two_outputs) p.add_array(out2_name, pick_dtype(rng), out_shape, /*transient=*/false);

    // Iteration space: smaller than the containers so strides/offsets fit.
    std::vector<std::string> params;
    std::vector<ir::Range> ranges;
    std::vector<sym::ExprPtr> in_idx, out_idx, out2_idx;
    for (std::size_t d = 0; d < rank; ++d) {
        const std::string param = "p" + std::to_string(stage) + "_" + std::to_string(d);
        params.push_back(param);
        const std::int64_t extent = rng.uniform_int(2, 4);
        switch (rng.uniform_int(0, 4)) {
            case 0:  // plain 0 .. extent-1
                ranges.push_back(ir::Range::full(sym::cst(extent)));
                break;
            case 1:  // reversed: extent-1 .. 0 step -1
                ranges.push_back(ir::Range{sym::cst(extent - 1), sym::cst(0), sym::cst(-1)});
                break;
            case 2:  // offset window
                ranges.push_back(
                    ir::Range{sym::cst(1), sym::cst(extent), sym::cst(1)});
                break;
            case 3:  // strided iteration
                ranges.push_back(
                    ir::Range{sym::cst(0), sym::cst(2 * (extent - 1)), sym::cst(2)});
                break;
            default:  // triangular against the previous param: forces the
                      // generic odometer (range references an own param)
                if (d > 0 && rng.chance(0.8))
                    ranges.push_back(ir::Range{sym::cst(0), sym::symb(params[d - 1]),
                                               sym::cst(1)});
                else
                    ranges.push_back(ir::Range::full(sym::cst(extent)));
                break;
        }
        const sym::ExprPtr pv = sym::symb(param);
        // Index expressions: identity / offset / strided / reversed /
        // non-affine (floordiv) / occasionally deliberately out of bounds.
        auto pick_index = [&](bool allow_oob) -> sym::ExprPtr {
            switch (rng.uniform_int(0, allow_oob ? 5 : 4)) {
                case 0: return pv;
                case 1: return pv + rng.uniform_int(0, 2);
                case 2: return pv * rng.uniform_int(1, 2);
                case 3: return pv * 2 + 1;
                case 4: return sym::floordiv(pv + 3, sym::cst(2));  // non-affine
                default: return pv + 40;  // far out of bounds: crash path
            }
        };
        in_idx.push_back(pick_index(rng.chance(0.06)));
        out_idx.push_back(pick_index(rng.chance(0.05)));
        out2_idx.push_back(pick_index(rng.chance(0.05)));
    }

    // Tasklet code: a mix of f64-friendly, int-heavy and branchy programs.
    static const char* kCodes[] = {
        "o = i * 2.0 + 1.0",
        "o = i > 0.0 ? i : -i",
        "t = i * i; o = t > 4.0 ? sqrt(t) : t * 0.5",
        "o = min(i, 3.0) + max(i, -3.0) * 0.25",
        "o = (i > 0.5) + (i > 2.5) * 3",
        "o = i / 2",
        "o = i % 3 + i",
        "o = floor(i) + select(i > 1.0, i, -i)",
        "o = exp(min(i, 2.0)) - tanh(i)",
        "o = 7 / 2 + i * 1",
        "o = i % (i - i)",  // int dtypes: mod-by-zero crash at every point
    };
    static const char* kTwoOutCodes[] = {
        "o = i * 2.0 + 1.0; q = i - 0.5",
        "o = i > 0.0 ? i : -i; q = o * 2.0",
        "o = min(i, 2.0); q = (i > 1.0) + (i > 3.0)",
    };
    const std::string code = two_outputs ? kTwoOutCodes[rng.uniform_int(0, 2)]
                                         : kCodes[rng.uniform_int(0, 10)];

    auto [entry, exit] = st.add_map("m" + std::to_string(stage), params, ranges);
    const ir::NodeId t = st.add_tasklet("t" + std::to_string(stage), code);
    const ir::NodeId out_acc = st.add_access(out_name);
    st.add_edge(in_access, "", entry, "",
                ir::Memlet(in_name, ir::Subset::full(in_shape)));
    ir::Subset in_point, out_point;
    for (std::size_t d = 0; d < rank; ++d) {
        in_point.ranges.push_back(ir::Range::index(in_idx[d]));
        out_point.ranges.push_back(ir::Range::index(out_idx[d]));
    }
    st.add_edge(entry, "", t, "i", ir::Memlet(in_name, in_point));
    st.add_edge(t, "o", exit, "", ir::Memlet(out_name, out_point));
    if (two_outputs) {
        ir::Subset out2_point;
        for (std::size_t d = 0; d < rank; ++d)
            out2_point.ranges.push_back(ir::Range::index(out2_idx[d]));
        const ir::NodeId out2_acc = st.add_access(out2_name);
        st.add_edge(t, "q", exit, "", ir::Memlet(out2_name, out2_point));
        st.add_edge(exit, "", out2_acc, "", ir::Memlet(out2_name, ir::Subset::full(out_shape)));
    }
    st.add_edge(exit, "", out_acc, "", ir::Memlet(out_name, ir::Subset::full(out_shape)));
    return out_acc;
}

/// A range of `extent` points: plain, reversed, offset or strided.
ir::Range random_range(common::Rng& rng, std::int64_t extent) {
    switch (rng.uniform_int(0, 3)) {
        case 0: return ir::Range::full(sym::cst(extent));
        case 1: return ir::Range{sym::cst(extent - 1), sym::cst(0), sym::cst(-1)};
        case 2: return ir::Range{sym::cst(1), sym::cst(extent), sym::cst(1)};
        default: return ir::Range{sym::cst(0), sym::cst(2 * (extent - 1)), sym::cst(2)};
    }
}

/// One random reduction-nest stage (the accum_nest shape of every matmul):
/// a map over i around a Sequential map over k accumulating into a fresh
/// container, o[out] = o[in_out] + f(in[..]).  Extents are 0..4.  The
/// accumulator is sometimes read at a shifted index, written with stride 0
/// along i or at i + k, and the inner range sometimes references i.
ir::NodeId random_nest_stage(common::Rng& rng, ir::SDFG& p, ir::State& st, ir::NodeId in_access,
                             int stage) {
    const std::string in_name = st.graph().node(in_access).data;
    const std::vector<sym::ExprPtr>& shape = p.container(in_name).shape;
    const std::size_t rank = shape.size();
    const std::string out_name = "s" + std::to_string(stage);
    p.add_array(out_name, pick_dtype(rng), shape, /*transient=*/false);

    const std::string pi = "p" + std::to_string(stage) + "_i";
    const std::string pk = "p" + std::to_string(stage) + "_k";
    const sym::ExprPtr i = sym::symb(pi), k = sym::symb(pk);
    const ir::Range outer = random_range(rng, rng.uniform_int(0, 4));
    const ir::Range inner = rng.chance(0.2) ? ir::Range{sym::cst(0), i, sym::cst(1)}
                                            : random_range(rng, rng.uniform_int(0, 4));
    auto pick_index = [&](const sym::ExprPtr& v) -> sym::ExprPtr {
        switch (rng.uniform_int(0, 5)) {
            case 0: return v;
            case 1: return v + 1;
            case 2: return v * 2;
            case 3: return v * 2 + 1;
            case 4: return sym::floordiv(v + 3, sym::cst(2));  // non-affine
            default: return rng.chance(0.3) ? v + 40 : v;       // rarely out of bounds
        }
    };
    ir::Subset in_point, out_point, acc_point;
    if (rank == 2) {
        in_point.ranges = {ir::Range::index(pick_index(i)), ir::Range::index(pick_index(k))};
    } else {
        in_point.ranges = {ir::Range::index(rng.chance(0.5) ? pick_index(i) + k : pick_index(k))};
    }
    sym::ExprPtr out_index;
    switch (rng.uniform_int(0, 5)) {
        case 0: out_index = sym::cst(1); break;  // stride 0 along both levels
        case 1: out_index = i + k; break;        // neighbouring lanes collide
        case 2: out_index = i * 2 + 1; break;
        default: out_index = i; break;
    }
    // Occasionally read the accumulator one element past what is written.
    const sym::ExprPtr acc_index = rng.chance(0.15) ? out_index + 1 : out_index;
    out_point.ranges = {ir::Range::index(out_index)};
    acc_point.ranges = {ir::Range::index(acc_index)};
    if (rank == 2) {
        const sym::ExprPtr col = rng.chance(0.7) ? sym::cst(0) : k;
        out_point.ranges.push_back(ir::Range::index(col));
        acc_point.ranges.push_back(ir::Range::index(col));
    }

    static const char* kCodes[] = {
        "cout = cin + a * 0.5",
        "cout = cin * 0.5 + a * a",
        "cout = max(cin, a) + 0.25",
        "cout = cin + (a > 0.0 ? a : -a)",
        "cout = cin + exp(min(a, 1.0))",
        "cout = cin + a % 3",
    };
    const std::string code = kCodes[rng.uniform_int(0, 5)];

    const ir::Subset full = ir::Subset::full(shape);
    auto [pe, px] = st.add_map("n" + std::to_string(stage), {pi}, {outer}, ir::Schedule::Parallel);
    auto [re, rx] =
        st.add_map("r" + std::to_string(stage), {pk}, {inner}, ir::Schedule::Sequential);
    const ir::NodeId t = st.add_tasklet("acc" + std::to_string(stage), code);
    const ir::NodeId acc_in = st.add_access(out_name);
    const ir::NodeId out_acc = st.add_access(out_name);
    st.add_edge(in_access, "", pe, "", ir::Memlet(in_name, full));
    st.add_edge(pe, "", re, "", ir::Memlet(in_name, full));
    st.add_edge(re, "", t, "a", ir::Memlet(in_name, in_point));
    st.add_edge(acc_in, "", pe, "", ir::Memlet(out_name, full));
    st.add_edge(pe, "", re, "", ir::Memlet(out_name, full));
    st.add_edge(re, "", t, "cin", ir::Memlet(out_name, acc_point));
    st.add_edge(t, "cout", rx, "", ir::Memlet(out_name, out_point));
    st.add_edge(rx, "", px, "", ir::Memlet(out_name, full));
    st.add_edge(px, "", out_acc, "", ir::Memlet(out_name, full));
    return out_acc;
}

/// A rank-1 or rank-2 container shape with extents 10-14: room for stride-2
/// + offset indexing of a 2..4 extent space.
void random_shape(common::Rng& rng, std::vector<sym::ExprPtr>& shape,
                  std::vector<std::int64_t>& concrete) {
    const std::size_t rank = static_cast<std::size_t>(rng.uniform_int(1, 2));
    for (std::size_t d = 0; d < rank; ++d) {
        const std::int64_t extent = rng.uniform_int(10, 14);
        shape.push_back(sym::cst(extent));
        concrete.push_back(extent);
    }
}

const xform::MapTiling::Variant kTilingVariants[] = {xform::MapTiling::Variant::Correct,
                                                     xform::MapTiling::Variant::OffByOne,
                                                     xform::MapTiling::Variant::NoRemainder};

RandomProgram make_random_program(std::uint64_t seed) {
    common::Rng rng(seed);
    RandomProgram rp;
    std::vector<sym::ExprPtr> shape;
    std::vector<std::int64_t> concrete;
    random_shape(rng, shape, concrete);
    const ir::DType in_dtype = pick_dtype(rng);
    rp.p.add_array("a0", in_dtype, shape);
    ir::State& st = rp.p.state(rp.p.add_state("main", true));
    ir::NodeId cur = st.add_access("a0");
    const int stages = static_cast<int>(rng.uniform_int(1, 2));
    for (int s = 0; s < stages; ++s)
        cur = rng.chance(0.35) ? random_nest_stage(rng, rp.p, st, cur, s)
                               : random_stage(rng, rp.p, st, cur, s);
    // Sometimes tile one map, in any variant: the tile parameters feed the
    // inner bounds (a prefix band), and the no-remainder variant reaches
    // out of bounds in the last tile.
    if (rng.chance(0.3)) {
        const xform::MapTiling tiling(rng.uniform_int(2, 3),
                                      kTilingVariants[rng.uniform_int(0, 2)]);
        const std::vector<xform::Match> matches = tiling.find_matches(rp.p);
        if (!matches.empty())
            tiling.apply(rp.p, matches[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(matches.size()) - 1))]);
    }
    rp.inputs.buffers.emplace("a0", random_buffer(rng, in_dtype, concrete));
    return rp;
}

/// One random reduction nest stage over a float input whose reduction map
/// MapTiling tiled (tile 1-3, any variant); nothing when the stage's
/// accumulator is an integer container (its tasklet runs tagged, so no
/// kernel forms) or its reduction range does not step by 1.
std::optional<RandomProgram> make_tiled_nest_program(std::uint64_t seed) {
    common::Rng rng(seed);
    RandomProgram rp;
    std::vector<sym::ExprPtr> shape;
    std::vector<std::int64_t> concrete;
    random_shape(rng, shape, concrete);
    const ir::DType in_dtype = rng.chance(0.5) ? ir::DType::F64 : ir::DType::F32;
    rp.p.add_array("a0", in_dtype, shape);
    ir::State& st = rp.p.state(rp.p.add_state("main", true));
    random_nest_stage(rng, rp.p, st, st.add_access("a0"), 0);
    if (!ir::dtype_is_float(rp.p.container("s0").dtype)) return std::nullopt;
    const xform::MapTiling tiling(rng.uniform_int(1, 3), kTilingVariants[rng.uniform_int(0, 2)]);
    for (const xform::Match& m : tiling.find_matches(rp.p)) {
        if (rp.p.state(m.state).graph().node(m.nodes.at(0)).label != "r0") continue;
        tiling.apply(rp.p, m);
        rp.inputs.buffers.emplace("a0", random_buffer(rng, in_dtype, concrete));
        return rp;
    }
    return std::nullopt;
}

TEST(SpecializationProperty, AllFourTiersAgreeOn420Programs) {
    int crashes = 0, kernels = 0, f64s = 0, segments = 0;
    int nests = 0, prefixes = 0, band_segments = 0, runs = 0;
    for (std::uint64_t seed = 0; seed < 420; ++seed) {
        const RandomProgram rp = make_random_program(0xC0FFEE00ULL + seed);
        const TierRun batched = run_on_tier(rp.p, rp.inputs, Tier::Batched);
        const TierRun spec = run_on_tier(rp.p, rp.inputs, Tier::Kernel);
        const TierRun generic = run_on_tier(rp.p, rp.inputs, Tier::Generic);
        const TierRun reference = run_on_tier(rp.p, rp.inputs, Tier::Reference);

        const std::string what = "seed " + std::to_string(seed);
        expect_same_run(batched, spec, what);
        expect_same_run(spec, generic, what);
        EXPECT_EQ(spec.result.status, reference.result.status) << what;
        EXPECT_EQ(spec.result.message, reference.result.message) << what;
        if (spec.result.ok()) expect_same_run(spec, reference, what, /*nan_equiv=*/true);

        crashes += spec.result.ok() ? 0 : 1;
        kernels += static_cast<int>(spec.stats.kernel_launches);
        f64s += static_cast<int>(spec.stats.tasklets_f64);
        segments += static_cast<int>(batched.stats.segment_launches);
        nests += static_cast<int>(batched.stats.nest_launches);
        prefixes += static_cast<int>(batched.stats.prefix_launches);
        band_segments += static_cast<int>(batched.stats.band_segment_launches);
        runs += static_cast<int>(batched.stats.run_launches);
    }
    // The generator must actually exercise every tier.
    EXPECT_GT(kernels, 50) << "flat-stride kernels barely exercised";
    EXPECT_GT(f64s, 20) << "untagged f64 VM barely exercised";
    EXPECT_GT(segments, 20) << "batched segment VM barely exercised";
    EXPECT_GT(nests, 0) << "no reduction nest launched as one band";
    EXPECT_GT(prefixes, 0) << "no band launched below prefix levels";
    EXPECT_GT(band_segments, 0) << "no band batched along its output axis";
    EXPECT_GT(runs, 0) << "no nest walked a tiled reduction into runs";
    EXPECT_GT(crashes, 5) << "crash paths barely exercised";
    EXPECT_LT(crashes, 300) << "generator crashes too often to test value paths";
}

TEST(SpecializationProperty, TiledReductionNestsAgreeOnAllFourTiers) {
    // The battery above seldom tiles the reduction map of a float nest, so
    // this property drives the nest's runs on purpose.  The kernel tiers
    // also run under a budget one point short of the whole program: the
    // crossing launch must end them alike.
    int programs = 0, runs = 0, band_segments = 0, crashes = 0;
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
        const std::optional<RandomProgram> rp = make_tiled_nest_program(0xBEEF0000ULL + seed);
        if (!rp) continue;
        ++programs;
        const TierRun batched = run_on_tier(rp->p, rp->inputs, Tier::Batched);
        const TierRun spec = run_on_tier(rp->p, rp->inputs, Tier::Kernel);
        const TierRun generic = run_on_tier(rp->p, rp->inputs, Tier::Generic);
        const TierRun reference = run_on_tier(rp->p, rp->inputs, Tier::Reference);

        const std::string what = "tiled nest seed " + std::to_string(seed);
        expect_same_run(batched, generic, what);
        expect_same_run(spec, generic, what);
        EXPECT_EQ(reference.result.message, generic.result.message) << what;
        if (generic.result.ok()) {
            expect_same_run(generic, reference, what, /*nan_equiv=*/true);
            if (generic.result.points > 1) {
                const interp::ExecConfig budget{.max_points = generic.result.points - 1};
                const TierRun b = run_on_tier(rp->p, rp->inputs, Tier::Batched, budget);
                const TierRun p = run_on_tier(rp->p, rp->inputs, Tier::Kernel, budget);
                EXPECT_EQ(b.result.status, interp::ExecStatus::Resource) << what;
                expect_same_run(b, p, what + " (budget)");
            }
        }
        crashes += generic.result.ok() ? 0 : 1;
        runs += static_cast<int>(batched.stats.run_launches);
        band_segments += static_cast<int>(batched.stats.band_segment_launches);
    }
    EXPECT_GT(programs, 300);
    EXPECT_GT(runs, 100) << "nested-prefix runs barely exercised";
    EXPECT_GT(band_segments, 20) << "tiled nests barely batched along their output axis";
    EXPECT_GT(crashes, 10) << "out-of-bounds tiles barely exercised";
}

/// The npbench kernels whose tasklets read stencil windows.
constexpr const char* kWindowKernels[] = {"heat_3d", "jacobi_1d", "jacobi_2d",
                                          "fdtd_2d", "hdiff",     "vadv_lite"};

/// What a random window program exercises (see make_window_program).
struct WindowProgram {
    RandomProgram rp;
    bool in_place = false;  ///< The stencil writes the container it reads.
};

/// One random window stencil: a map over 1-3 parameters whose tasklet reads
/// a multi-point window of `a0` at constant lanes and writes one point, of
/// a fresh container or of `a0` itself.  Per dimension the window has 1-3
/// points, an offset begin, and steps 1, 2 or -1.  The program reads some
/// of its lanes, sometimes one lane past it; sometimes the window is empty,
/// or its unread first corner sits one below the container.  Containers
/// are mostly float, sometimes F32 or integer.
WindowProgram make_window_program(std::uint64_t seed) {
    common::Rng rng(seed);
    WindowProgram wp;
    ir::SDFG& p = wp.rp.p;
    const std::size_t rank = static_cast<std::size_t>(rng.uniform_int(1, 3));
    std::vector<sym::ExprPtr> shape;
    std::vector<std::int64_t> concrete;
    for (std::size_t d = 0; d < rank; ++d) {
        const std::int64_t extent = rng.uniform_int(10, 13);
        shape.push_back(sym::cst(extent));
        concrete.push_back(extent);
    }
    const double kind = rng.uniform_double(0.0, 1.0);
    const ir::DType in_dtype = kind < 0.5    ? ir::DType::F64
                               : kind < 0.75 ? ir::DType::F32
                               : kind < 0.9  ? ir::DType::I64
                                             : ir::DType::I32;
    p.add_array("a0", in_dtype, shape);
    wp.in_place = rng.chance(0.2);
    const std::string out_name = wp.in_place ? "a0" : "s0";
    if (!wp.in_place) p.add_array(out_name, pick_dtype(rng), shape);

    std::vector<std::string> params;
    std::vector<ir::Range> ranges;
    ir::Subset window, point, out_point;
    std::vector<std::int64_t> counts;
    const bool low_corner = rng.chance(0.1);  // lane 0 one below the container
    const bool empty = rng.chance(0.05);
    for (std::size_t d = 0; d < rank; ++d) {
        const std::string param = "w" + std::to_string(d);
        params.push_back(param);
        const std::int64_t extent = rng.uniform_int(2, 4);
        ranges.push_back(rng.chance(0.5) ? ir::Range::full(sym::cst(extent))
                                         : random_range(rng, extent));
        const sym::ExprPtr pv = sym::symb(param) * (rng.chance(0.9) ? 1 : 2);
        const std::int64_t count = empty && d == 0 ? 0 : rng.uniform_int(1, 3);
        const std::int64_t step = rng.chance(0.2) ? -1 : rng.chance(0.2) ? 2 : 1;
        // The window's lowest index sits at pv + offset; lane 0 is its
        // highest when it steps down.
        const std::int64_t offset = rng.chance(0.04) ? -1 : rng.uniform_int(0, 1);
        std::int64_t first = offset + (step < 0 && count > 0 ? count - 1 : 0);
        if (low_corner) first = d == 0 ? -1 : 0;
        const sym::ExprPtr begin = pv + first;
        window.ranges.push_back(
            count == 0 ? ir::Range{begin, begin - step, sym::cst(step)}
                       : ir::Range{begin, begin + (count - 1) * step, sym::cst(step)});
        counts.push_back(count);
        point.ranges.push_back(ir::Range::index(pv));
        out_point.ranges.push_back(ir::Range::index(pv + rng.uniform_int(0, 1)));
    }
    // A low corner's map starts at 0, putting lane 0 at index -1; its reads
    // skip lane 0, so the first faulting point is one the program never
    // reads.
    if (low_corner) ranges[0] = ir::Range::full(sym::cst(3));

    std::int64_t volume = 1;
    for (const std::int64_t c : counts) volume *= c;
    std::vector<std::int64_t> lanes;
    const int reads = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < reads; ++r) {
        if (volume <= (low_corner ? 1 : 0)) break;
        lanes.push_back(rng.uniform_int(low_corner ? 1 : 0, volume - 1));
    }
    if (lanes.empty() || rng.chance(0.05)) lanes.push_back(volume);  // past the window
    const auto lane = [&](std::size_t k) {
        return "a[" + std::to_string(lanes[k % lanes.size()]) + "]";
    };
    const bool second = rng.chance(0.3);  // a single-point sibling input
    std::string code = "o = ";
    switch (rng.uniform_int(0, 3)) {
        case 0: code += lane(0) + " * 0.5 + " + lane(1) + " - " + lane(2) + " * 0.25"; break;
        case 1: code += lane(0) + " > " + lane(1) + " ? " + lane(0) + " : " + lane(2); break;
        case 2: code += "min(" + lane(0) + ", " + lane(1) + ") + (" + lane(2) + " > 0.5)"; break;
        default: code += lane(0) + " + " + lane(1) + " + " + lane(2) + " + " + lane(3); break;
    }
    if (second) code += " + b * 0.125";

    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId in = st.add_access("a0");
    auto [entry, exit] = st.add_map("win", params, ranges);
    const ir::NodeId t = st.add_tasklet("stencil", code);
    const ir::NodeId out = st.add_access(out_name);
    st.add_edge(in, "", entry, "", ir::Memlet("a0", ir::Subset::full(shape)));
    st.add_edge(entry, "", t, "a", ir::Memlet("a0", window));
    if (second) st.add_edge(entry, "", t, "b", ir::Memlet("a0", point));
    st.add_edge(t, "o", exit, "", ir::Memlet(out_name, out_point));
    st.add_edge(exit, "", out, "", ir::Memlet(out_name, ir::Subset::full(shape)));
    wp.rp.inputs.buffers.emplace("a0", random_buffer(rng, in_dtype, concrete));
    return wp;
}

TEST(Specialization, WindowKernelsLowerEveryStencilToTaps) {
    // Every tasklet of the npbench stencils takes the F64 signature, the
    // windows through taps, and every scope launches a kernel that never
    // falls back on in-bounds inputs — with the generic path's bytes.
    for (const char* name : kWindowKernels) {
        const ir::SDFG p = workloads::build_npbench_kernel(name);
        interp::Context inputs;
        inputs.symbols = workloads::npbench_defaults();
        common::Rng rng(7);
        for (const auto& [container, desc] : p.containers())
            if (!desc.transient)
                inputs.buffers.emplace(
                    container, random_buffer(rng, desc.dtype, desc.concrete_shape(inputs.symbols)));
        const TierRun batched = run_on_tier(p, inputs, Tier::Batched);
        const TierRun generic = run_on_tier(p, inputs, Tier::Generic);
        ASSERT_TRUE(generic.result.ok()) << name << ": " << generic.result.message;
        EXPECT_TRUE(batched.result.ok()) << name;
        expect_same_run(batched, generic, name);
        const interp::SpecStats& st = batched.stats;
        EXPECT_EQ(st.tasklets_f64, st.tasklets_planned) << name;
        EXPECT_GE(st.tasklets_window, 1) << name;
        EXPECT_EQ(st.scopes_specialized, st.scopes_planned) << name;
        EXPECT_GT(st.segment_launches, 0) << name;
        EXPECT_EQ(st.kernel_fallbacks, 0) << name;
    }
}

TEST(SpecializationProperty, WindowStencilsAgreeOnAllFourTiers) {
    // Window inputs lower to taps at plan time; the kernel tiers must still
    // match the tagged gather everywhere: statuses, messages, buffers and
    // cost counters, with faults on unread lanes and in-place stencils.
    // Under a budget one point short, the two kernel tiers end alike.
    int windows = 0, kernels = 0, segments = 0, fallbacks = 0, crashes = 0, in_place = 0;
    for (std::uint64_t seed = 0; seed < 600; ++seed) {
        const WindowProgram wp = make_window_program(0x5EED0000ULL + seed);
        const RandomProgram& rp = wp.rp;
        const TierRun batched = run_on_tier(rp.p, rp.inputs, Tier::Batched);
        const TierRun spec = run_on_tier(rp.p, rp.inputs, Tier::Kernel);
        const TierRun generic = run_on_tier(rp.p, rp.inputs, Tier::Generic);
        const TierRun reference = run_on_tier(rp.p, rp.inputs, Tier::Reference);

        const std::string what = "window seed " + std::to_string(seed);
        for (const TierRun* tier : {&batched, &spec, &reference}) {
            EXPECT_EQ(tier->result.status, generic.result.status) << what;
            EXPECT_EQ(tier->result.message, generic.result.message) << what;
            EXPECT_EQ(tier->result.points, generic.result.points) << what;
            EXPECT_EQ(tier->result.instructions, generic.result.instructions) << what;
        }
        expect_same_run(batched, generic, what);
        expect_same_run(spec, generic, what);
        // A crashed reference run leaves its scope parameters bound.
        if (generic.result.ok()) expect_same_run(reference, generic, what, /*nan_equiv=*/true);
        if (generic.result.ok() && generic.result.points > 1) {
            const interp::ExecConfig budget{.max_points = generic.result.points - 1};
            const TierRun b = run_on_tier(rp.p, rp.inputs, Tier::Batched, budget);
            const TierRun pp = run_on_tier(rp.p, rp.inputs, Tier::Kernel, budget);
            EXPECT_EQ(b.result.status, interp::ExecStatus::Resource) << what;
            expect_same_run(b, pp, what + " (budget)");
        }
        crashes += generic.result.ok() ? 0 : 1;
        windows += static_cast<int>(batched.stats.tasklets_window);
        kernels += static_cast<int>(spec.stats.kernel_launches);
        segments += static_cast<int>(batched.stats.segment_launches);
        fallbacks += static_cast<int>(batched.stats.kernel_fallbacks);
        in_place += wp.in_place && spec.stats.kernel_launches > 0 ? 1 : 0;
    }
    EXPECT_GT(windows, 250) << "F64 window tasklets barely exercised";
    EXPECT_GT(kernels, 200) << "window kernels barely launched";
    EXPECT_GT(segments, 120) << "window kernels barely batched";
    EXPECT_GT(fallbacks, 30) << "window footprint faults barely exercised";
    EXPECT_GT(in_place, 30) << "in-place window kernels barely exercised";
    EXPECT_GT(crashes, 60) << "crash paths barely exercised";
    EXPECT_LT(crashes, 300) << "generator crashes too often to test value paths";
}

// --- Fuzzer-level toggle determinism ----------------------------------------

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

struct AuditSnapshot {
    std::vector<core::FuzzReport> reports;
    std::vector<std::string> artifacts;
};

AuditSnapshot snapshot_audit(const ir::SDFG& p,
                             const std::vector<xform::TransformationPtr>& passes,
                             core::FuzzConfig config) {
    config.artifact_dir = ::testing::TempDir();
    core::Fuzzer fuzzer(config);
    AuditSnapshot snap;
    snap.reports = fuzzer.audit(p, passes);
    for (const core::FuzzReport& r : snap.reports)
        snap.artifacts.push_back(r.artifact_path.empty() ? "" : read_file(r.artifact_path));
    return snap;
}

void expect_snapshots_identical(const AuditSnapshot& a, const AuditSnapshot& b,
                                const std::string& what) {
    ASSERT_EQ(a.reports.size(), b.reports.size()) << what;
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const core::FuzzReport& ra = a.reports[i];
        const core::FuzzReport& rb = b.reports[i];
        const std::string where = what + " instance " + std::to_string(i);
        EXPECT_EQ(ra.transformation, rb.transformation) << where;
        EXPECT_EQ(ra.match_description, rb.match_description) << where;
        EXPECT_EQ(ra.verdict, rb.verdict) << where;
        EXPECT_EQ(ra.trials, rb.trials) << where;
        EXPECT_EQ(ra.uninteresting, rb.uninteresting) << where;
        EXPECT_EQ(ra.detail, rb.detail) << where;
        EXPECT_EQ(a.artifacts[i], b.artifacts[i]) << where << " artifact";
    }
}

TEST(SpecializationToggle, AuditByteIdenticalOnOffAt1And8Threads) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config;
    config.max_trials = 10;
    config.sampler.size_max = 6;
    config.cutout.defaults = {{"N", 6}};

    config.num_threads = 1;
    config.diff.exec.tier = Tier::Batched;
    const AuditSnapshot spec1 = snapshot_audit(p, passes, config);
    ASSERT_FALSE(spec1.reports.empty());
    bool any_failed = false;
    for (const auto& r : spec1.reports) any_failed |= r.failed();
    EXPECT_TRUE(any_failed) << "registry must include buggy variants for artifact coverage";

    config.diff.exec.tier = Tier::Generic;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "batched vs generic, 1 thread");

    config.num_threads = 8;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread batched vs 8 threads generic");
    config.diff.exec.tier = Tier::Batched;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread vs 8 threads, batched");
}

/// The bytes one audit of `job` leaves: its canonical report, every
/// reproducer, and with feedback its corpus file.
struct JobBytes {
    std::string report;
    std::vector<std::string> artifacts;
    std::string corpus;
};

JobBytes run_job(const shard::JobSpec& job, int threads, Tier tier) {
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = threads;
    config.diff.exec.tier = tier;
    config.artifact_dir = ff::testing::scratch_dir("toggle_artifacts");
    core::Fuzzer fuzzer(config);
    core::PreparedAudit audit =
        fuzzer.prepare(shard::load_job_program(job), shard::job_passes(job));
    audit.run_range(0, audit.unit_count());
    std::vector<core::FuzzReport> reports = audit.finalize();
    JobBytes bytes;
    for (const core::FuzzReport& r : reports)
        bytes.artifacts.push_back(r.artifact_path.empty() ? "" : read_file(r.artifact_path));
    bytes.report = shard::canonical_report_document(std::move(reports)).dump(2);
    if (job.feedback) {
        const std::string path = config.artifact_dir + "/corpus.jsonl";
        feedback::write_corpus_file(path, job.to_json(), audit.corpus());
        bytes.corpus = read_file(path);
    }
    return bytes;
}

TEST(SpecializationToggle, WindowKernelsByteIdenticalOnOffAt1And8Threads) {
    // The stencils whose windows lower to taps: the budgeted Table 2 audit
    // and the correct passes with feedback (whose corpus replays the
    // original side's coverage) must leave the same bytes on the batched and
    // the generic tier, on one thread and on eight.
    for (const char* name : kWindowKernels) {
        shard::JobSpec table2;
        table2.workload = name;
        table2.passes = "table2";
        table2.seed = 1000;
        table2.max_trials = 10;
        table2.size_max = 6;
        table2.max_state_transitions = 2000;
        table2.defaults = workloads::npbench_defaults();
        shard::JobSpec guided = table2;
        guided.passes = "correct";
        guided.seed = 11000;
        guided.max_trials = 40;
        guided.size_max = 16;
        guided.max_state_transitions = 0;
        guided.feedback = guided.coverage = true;
        guided.generation_size = 10;
        for (const shard::JobSpec* job : {&table2, &guided}) {
            const std::string what = std::string(name) + " " + job->passes;
            const JobBytes on = run_job(*job, 1, Tier::Batched);
            EXPECT_FALSE(on.report.empty()) << what;
            EXPECT_EQ(job->feedback, !on.corpus.empty()) << what;
            for (const auto& [threads, tier] : {std::pair{1, Tier::Generic},
                                                std::pair{8, Tier::Generic},
                                                std::pair{8, Tier::Batched}}) {
                const JobBytes other = run_job(*job, threads, tier);
                const std::string where = what + ", " + std::to_string(threads) +
                                          " thread(s), " + ff::testing::tier_name(tier);
                EXPECT_EQ(on.report, other.report) << where;
                EXPECT_EQ(on.artifacts, other.artifacts) << where;
                EXPECT_EQ(on.corpus, other.corpus) << where;
            }
        }
    }
}

TEST(SpecializationToggle, EveryKernelByteIdenticalOnEveryTier) {
    // Every npbench kernel, under the budgeted Table 2 audit and under the
    // correct passes: the canonical report and every reproducer must be the
    // same bytes on all four tiers at 4 threads.
    for (const std::string& name : workloads::npbench_kernel_names()) {
        shard::JobSpec table2;
        table2.workload = name;
        table2.passes = "table2";
        table2.seed = 1000;
        table2.max_trials = 10;
        table2.size_max = 6;
        table2.max_state_transitions = 2000;
        table2.defaults = workloads::npbench_defaults();
        shard::JobSpec correct;
        correct.workload = name;
        correct.passes = "correct";
        correct.seed = 11000;
        correct.max_trials = 10;
        correct.defaults = workloads::npbench_defaults();
        for (const shard::JobSpec* job : {&table2, &correct}) {
            const std::string what = name + " " + job->passes;
            const JobBytes batched = run_job(*job, 4, Tier::Batched);
            EXPECT_FALSE(batched.report.empty()) << what;
            for (const Tier tier : {Tier::Kernel, Tier::Generic, Tier::Reference}) {
                const JobBytes other = run_job(*job, 4, tier);
                const std::string where = what + ", " + ff::testing::tier_name(tier);
                EXPECT_EQ(batched.report, other.report) << where;
                EXPECT_EQ(batched.artifacts, other.artifacts) << where;
            }
        }
    }
}

TEST(SpecializationToggle, SchedulerStatsExposePrepareAndSpecCounters) {
    const ir::SDFG p = make_scale_sdfg();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config;
    config.max_trials = 5;
    config.sampler.size_max = 6;
    config.cutout.defaults = {{"N", 6}};
    config.num_threads = 4;

    core::Fuzzer fuzzer(config);
    const auto reports = fuzzer.audit(p, passes);
    ASSERT_FALSE(reports.empty());
    const core::SchedulerStats& stats = fuzzer.last_stats();
    EXPECT_GT(stats.prepare_seconds, 0.0);
    EXPECT_GT(stats.spec.scopes_planned, 0);
    EXPECT_GT(stats.spec.scopes_specialized, 0);
    EXPECT_GT(stats.spec.tasklets_f64, 0);
    EXPECT_GT(stats.spec.kernel_launches, 0);

    // The generic tier must zero the launch counters but keep the
    // classification (plans always carry it).
    config.diff.exec.tier = Tier::Generic;
    core::Fuzzer off(config);
    (void)off.audit(p, passes);
    EXPECT_GT(off.last_stats().spec.scopes_specialized, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_launches, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_fallbacks, 0);
}

}  // namespace
}  // namespace ff
