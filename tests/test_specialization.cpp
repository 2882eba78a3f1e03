// Specialization tiers: flat-stride map kernels + the untagged f64 VM.
//
// The contract under test: specialization is a pure execution-strategy
// choice.  For any program — any dtype mix, strided/offset/reversed subsets,
// non-affine indices, non-constant (triangular) ranges, out-of-bounds
// accesses — the specialized path (ExecConfig::specialize = true) produces
// results byte-identical to the generic compiled path and to the reference
// AST engine: same buffers bit for bit, same symbols, same crash messages.
// A fuzzing audit must therefore report byte-identical verdicts, counts and
// reproducer artifacts with specialization on or off, at any thread count
// (this file is also a TSan target: the toggle test runs 8-worker audits
// over shared plan caches carrying kernel classifications).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "interp/plan_cache.h"
#include "ir/subset.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"

namespace ff {
namespace {

using ff::testing::make_scale_sdfg;

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
    interp::Interpreter interp;            // specialize = true by default
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
    EXPECT_EQ(stats.segment_launches, 1);  // batch_segments defaults on
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

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        std::vector<double> xv(64);
        for (int i = 0; i < 64; ++i) xv[static_cast<std::size_t>(i)] = i;
        ctx.buffers.emplace("x", ff::testing::make_buffer(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(true);
    auto [r_gen, ctx_gen] = run_with(false);
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

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        interp::Buffer xv(ir::DType::I64, {8});
        for (int i = 0; i < 8; ++i) xv.store(i, interp::Value::from_int(i + 1));
        ctx.buffers.emplace("x", std::move(xv));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(true);
    auto [r_gen, ctx_gen, stats_gen] = run_with(false);
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
    // scatter, so the crash leaves the second output unallocated.  The f64
    // path must not pre-allocate it — crashed contexts hold the same buffer
    // set with specialization on or off.
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

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(std::vector<double>(8, 1.0)));
        const interp::ExecResult r = interp.run(p, ctx);
        return std::make_pair(r, std::move(ctx));
    };
    auto [r_spec, ctx_spec] = run_with(true);
    auto [r_gen, ctx_gen] = run_with(false);
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

    auto run_with = [&](bool specialize) {
        interp::ExecConfig cfg;
        cfg.specialize = specialize;
        interp::Interpreter interp(cfg);
        interp::Context ctx;
        ctx.buffers.emplace("x", ff::testing::make_buffer(
                                     std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
        const interp::ExecResult r = interp.run(p, ctx);
        const interp::SpecStats stats = interp.plan_cache()->spec_stats();
        return std::make_tuple(r, std::move(ctx), stats);
    };
    auto [r_spec, ctx_spec, stats_spec] = run_with(true);
    auto [r_gen, ctx_gen, stats_gen] = run_with(false);
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

RandomProgram make_random_program(std::uint64_t seed) {
    common::Rng rng(seed);
    RandomProgram rp;
    const std::size_t rank = static_cast<std::size_t>(rng.uniform_int(1, 2));
    std::vector<sym::ExprPtr> shape;
    std::vector<std::int64_t> concrete;
    for (std::size_t d = 0; d < rank; ++d) {
        // Room for stride-2 + offset indexing of a 2..4 extent space.
        const std::int64_t extent = rng.uniform_int(10, 14);
        shape.push_back(sym::cst(extent));
        concrete.push_back(extent);
    }
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
        static const xform::MapTiling::Variant kVariants[] = {
            xform::MapTiling::Variant::Correct, xform::MapTiling::Variant::OffByOne,
            xform::MapTiling::Variant::NoRemainder};
        const xform::MapTiling tiling(rng.uniform_int(2, 3), kVariants[rng.uniform_int(0, 2)]);
        const std::vector<xform::Match> matches = tiling.find_matches(rp.p);
        if (!matches.empty())
            tiling.apply(rp.p, matches[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(matches.size()) - 1))]);
    }
    rp.inputs.buffers.emplace("a0", random_buffer(rng, in_dtype, concrete));
    return rp;
}

/// Bitwise equality, except that any two NaNs match when `nan_equiv`.
/// Cross-engine comparisons need that looseness: which NaN payload `a + b`
/// propagates is unspecified in C++, so the reference AST walker and the
/// bytecode VM (different translation units, different instruction
/// selection) can legally differ in NaN sign/payload bits.  The
/// specialize-on/off comparison stays strictly bitwise — both run the same
/// VM code, and byte-identical reports are this PR's contract.
bool buffers_equal(const interp::Buffer& a, const interp::Buffer& b, bool nan_equiv) {
    if (!nan_equiv) return a.bitwise_equal(b);
    if (a.dtype() != b.dtype() || a.shape() != b.shape()) return false;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double x = a.load_double(i);
        const double y = b.load_double(i);
        if (std::isnan(x) && std::isnan(y)) continue;
        if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
    return true;
}

void expect_context_equal(const interp::Context& a, const interp::Context& b,
                          const std::string& what, bool nan_equiv = false) {
    EXPECT_EQ(a.symbols, b.symbols) << what;
    ASSERT_EQ(a.buffers.size(), b.buffers.size()) << what;
    auto ita = a.buffers.begin();
    auto itb = b.buffers.begin();
    for (; ita != a.buffers.end(); ++ita, ++itb) {
        EXPECT_EQ(ita->first, itb->first) << what;
        EXPECT_TRUE(buffers_equal(ita->second, itb->second, nan_equiv))
            << what << ": buffer '" << ita->first << "' differs";
    }
}

TEST(SpecializationProperty, AllFourTiersAgreeOn420Programs) {
    int crashes = 0, kernels = 0, f64s = 0, segments = 0;
    int nests = 0, prefixes = 0, band_segments = 0;
    for (std::uint64_t seed = 0; seed < 420; ++seed) {
        const RandomProgram rp = make_random_program(0xC0FFEE00ULL + seed);

        struct Run {
            interp::ExecResult result;
            interp::Context ctx;
            interp::SpecStats stats;
        };
        auto run_with = [&](bool compiled, bool specialize, bool batch) {
            interp::ExecConfig cfg;
            cfg.use_compiled_tasklets = compiled;
            cfg.specialize = specialize;
            cfg.batch_segments = batch;
            interp::Interpreter interp(cfg);
            Run r{interp::ExecResult{}, rp.inputs, interp::SpecStats{}};
            r.result = interp.run(rp.p, r.ctx);
            r.stats = interp.plan_cache()->spec_stats();
            return r;
        };
        const Run batched = run_with(true, true, true);
        const Run spec = run_with(true, true, false);
        const Run generic = run_with(true, false, false);
        const Run reference = run_with(false, false, false);

        const std::string what = "seed " + std::to_string(seed);
        EXPECT_EQ(batched.result.status, spec.result.status) << what;
        EXPECT_EQ(batched.result.message, spec.result.message) << what;
        EXPECT_EQ(spec.result.status, generic.result.status) << what;
        EXPECT_EQ(spec.result.message, generic.result.message) << what;
        EXPECT_EQ(spec.result.status, reference.result.status) << what;
        EXPECT_EQ(spec.result.message, reference.result.message) << what;
        expect_context_equal(batched.ctx, spec.ctx, what + " (batched vs per-point)");
        expect_context_equal(spec.ctx, generic.ctx, what + " (spec vs generic)");
        if (spec.result.ok())
            expect_context_equal(spec.ctx, reference.ctx, what + " (spec vs reference)",
                                 /*nan_equiv=*/true);

        crashes += spec.result.ok() ? 0 : 1;
        kernels += static_cast<int>(spec.stats.kernel_launches);
        f64s += static_cast<int>(spec.stats.tasklets_f64);
        segments += static_cast<int>(batched.stats.segment_launches);
        nests += static_cast<int>(batched.stats.nest_launches);
        prefixes += static_cast<int>(batched.stats.prefix_launches);
        band_segments += static_cast<int>(batched.stats.band_segment_launches);
    }
    // The generator must actually exercise every tier.
    EXPECT_GT(kernels, 50) << "flat-stride kernels barely exercised";
    EXPECT_GT(f64s, 20) << "untagged f64 VM barely exercised";
    EXPECT_GT(segments, 20) << "batched segment VM barely exercised";
    EXPECT_GT(nests, 0) << "no reduction nest launched as one band";
    EXPECT_GT(prefixes, 0) << "no band launched below prefix levels";
    EXPECT_GT(band_segments, 0) << "no band batched along its output axis";
    EXPECT_GT(crashes, 5) << "crash paths barely exercised";
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
    config.diff.exec.specialize = true;
    const AuditSnapshot spec1 = snapshot_audit(p, passes, config);
    ASSERT_FALSE(spec1.reports.empty());
    bool any_failed = false;
    for (const auto& r : spec1.reports) any_failed |= r.failed();
    EXPECT_TRUE(any_failed) << "registry must include buggy variants for artifact coverage";

    config.diff.exec.specialize = false;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "specialize on vs off, 1 thread");

    config.num_threads = 8;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread spec-on vs 8 threads spec-off");
    config.diff.exec.specialize = true;
    expect_snapshots_identical(spec1, snapshot_audit(p, passes, config),
                               "1 thread vs 8 threads, spec on");
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

    // Turning specialization off must zero the launch counters but keep the
    // classification (plans always carry it).
    config.diff.exec.specialize = false;
    core::Fuzzer off(config);
    (void)off.audit(p, passes);
    EXPECT_GT(off.last_stats().spec.scopes_specialized, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_launches, 0);
    EXPECT_EQ(off.last_stats().spec.kernel_fallbacks, 0);
}

}  // namespace
}  // namespace ff
