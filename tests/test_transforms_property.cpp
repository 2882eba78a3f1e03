// Property tests: every correct-mode transformation preserves semantics on
// every kernel of the suite where it matches, across input sizes — the
// ground truth that makes the differential verdicts in the audits
// meaningful (a "failure" is the transformation's fault, not the fuzzer's).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/error.h"

#include "common/rng.h"
#include "helpers.h"
#include "interp/interpreter.h"
#include "transforms/registry.h"
#include "transforms/vectorization.h"
#include "workloads/npbench.h"

namespace ff::xform {
namespace {

interp::Context random_inputs(const ir::SDFG& sdfg, const sym::Bindings& bindings,
                              std::uint64_t seed) {
    interp::Context ctx;
    ctx.symbols = bindings;
    common::Rng rng(seed);
    for (const auto& [name, desc] : sdfg.containers()) {
        if (desc.transient) continue;
        interp::Buffer buf(desc.dtype, desc.concrete_shape(bindings));
        for (std::int64_t i = 0; i < buf.size(); ++i) {
            if (ir::dtype_is_float(desc.dtype))
                buf.store(i, interp::Value::from_double(rng.uniform_double(-1, 1)));
            else
                buf.store(i, interp::Value::from_int(rng.uniform_int(-4, 4)));
        }
        ctx.buffers.emplace(name, std::move(buf));
    }
    return ctx;
}

/// Runs `sdfg` under every execution tier — reference AST engine, generic
/// compiled VM, specialized per-point kernels, batched segment kernels — and
/// requires identical observable behavior: same status and message, equal
/// cost counters for Ok runs, the same set of live buffers, and bitwise-
/// identical contents for every one of them (transients included).  This is
/// the tier half of the determinism contract the differential reports rest
/// on.  Returns the batched (default-config) run.
struct TierRun {
    interp::ExecResult res;
    interp::Context ctx;
};

TierRun run_all_tiers(const ir::SDFG& sdfg, const sym::Bindings& bindings, std::uint64_t seed,
                      const std::string& label) {
    struct Tier {
        const char* name;
        bool compiled, specialize, batch;
    };
    constexpr Tier kTiers[] = {
        {"reference", false, false, false},
        {"generic-compiled", true, false, false},
        {"specialized-per-point", true, true, false},
        {"batched-segments", true, true, true},
    };
    TierRun baseline;
    TierRun last;
    for (const Tier& t : kTiers) {
        interp::ExecConfig cfg;
        cfg.use_compiled_tasklets = t.compiled;
        cfg.specialize = t.specialize;
        cfg.batch_segments = t.batch;
        interp::Interpreter interp(cfg);
        TierRun run;
        run.ctx = random_inputs(sdfg, bindings, seed);
        run.res = interp.run(sdfg, run.ctx);
        if (&t == &kTiers[0]) {
            baseline = run;
        } else {
            EXPECT_EQ(run.res.status, baseline.res.status) << label << " tier " << t.name;
            EXPECT_EQ(run.res.message, baseline.res.message) << label << " tier " << t.name;
            if (run.res.ok() && baseline.res.ok()) {
                EXPECT_EQ(run.res.points, baseline.res.points) << label << " tier " << t.name;
                EXPECT_EQ(run.res.instructions, baseline.res.instructions)
                    << label << " tier " << t.name;
            }
            EXPECT_EQ(run.ctx.buffers.size(), baseline.ctx.buffers.size())
                << label << " tier " << t.name;
            for (const auto& [name, buf] : run.ctx.buffers) {
                const auto it = baseline.ctx.buffers.find(name);
                if (it == baseline.ctx.buffers.end()) {
                    ADD_FAILURE() << label << " tier " << t.name << ": extra buffer '" << name
                                  << "'";
                    continue;
                }
                EXPECT_TRUE(buf.bitwise_equal(it->second))
                    << label << " tier " << t.name << ": '" << name
                    << "' diverged from the reference engine";
            }
        }
        last = std::move(run);
    }
    return last;
}

/// Non-transient containers must be unchanged (within fp threshold) between
/// the original and transformed run.  Both sides first pass the full
/// execution-tier sweep (run_all_tiers), so the comparison below holds for
/// every tier at once.
/// Correct passes keep every dtype scheme within 1e-9 (MapReduceFusion,
/// which would round each partial sum into a narrower container, matches
/// only F64 ones).  Tier-vs-tier comparison stays bitwise regardless.
void expect_equivalent(const ir::SDFG& p, const ir::SDFG& q, const sym::Bindings& bindings,
                       const std::string& label) {
    constexpr double threshold = 1e-9;
    TierRun tp = run_all_tiers(p, bindings, 1234, label + " original");
    TierRun tq = run_all_tiers(q, bindings, 1234, label + " transformed");
    const auto& rp = tp.res;
    const auto& rq = tq.res;
    auto& cp = tp.ctx;
    auto& cq = tq.ctx;
    ASSERT_TRUE(rp.ok()) << label << " original: " << rp.message;
    ASSERT_TRUE(rq.ok()) << label << " transformed: " << rq.message;
    for (const auto& [name, desc] : p.containers()) {
        if (desc.transient) continue;
        if (!cp.buffers.count(name) || !cq.buffers.count(name)) continue;
        const auto mismatch =
            interp::compare_buffers(cp.buffers.at(name), cq.buffers.at(name), threshold);
        EXPECT_FALSE(mismatch.has_value())
            << label << ": '" << name << "' differs at " << (mismatch ? mismatch->flat_index : 0);
    }

    // Budget purity (docs/ARCHITECTURE.md determinism contract): re-running
    // each side under a point budget of exactly its own measured fuel must
    // still succeed, land bitwise-identical state, and burn identical
    // counters.  This is what lets budgets be part of the job key — an
    // enabled budget below the limit is unobservable, and exhaustion (one
    // point less would trip it) is a pure function of (program, inputs,
    // budget) across every execution tier the interpreter picks.
    interp::ExecConfig budget;
    budget.max_points = std::max<std::int64_t>({rp.points, rq.points, 1});
    budget.max_alloc_bytes = 1ll << 30;
    interp::Interpreter bp(budget), bq(budget);
    auto cbp = random_inputs(p, bindings, 1234);
    auto cbq = cbp;
    const auto rbp = bp.run(p, cbp);
    const auto rbq = bq.run(q, cbq);
    ASSERT_TRUE(rbp.ok()) << label << " budgeted original: " << rbp.message;
    ASSERT_TRUE(rbq.ok()) << label << " budgeted transformed: " << rbq.message;
    EXPECT_EQ(rbp.points, rp.points) << label;
    EXPECT_EQ(rbq.points, rq.points) << label;
    EXPECT_EQ(rbp.instructions, rp.instructions) << label;
    EXPECT_EQ(rbq.instructions, rq.instructions) << label;
    for (const auto& [name, desc] : p.containers()) {
        if (desc.transient) continue;
        if (!cp.buffers.count(name) || !cbp.buffers.count(name)) continue;
        EXPECT_TRUE(cbp.buffers.at(name).bitwise_equal(cp.buffers.at(name)))
            << label << ": budgeted original perturbed '" << name << "'";
        EXPECT_TRUE(cbq.buffers.at(name).bitwise_equal(cq.buffers.at(name)))
            << label << ": budgeted transformed perturbed '" << name << "'";
    }
}

class CorrectPassProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(CorrectPassProperty, PreservesSemanticsOnAllMatches) {
    const std::string kernel = GetParam();
    const sym::Bindings bindings = workloads::npbench_defaults();
    const auto passes = builtin_transformations({.table2_bugs = false});
    for (const auto& pass : passes) {
        if (pass->name() == "Vectorization") continue;  // input-dependent by design
        const ir::SDFG original = workloads::build_npbench_kernel(kernel);
        const auto matches = pass->find_matches(original);
        // Apply each match to a fresh copy: matches are positional and may
        // invalidate one another.
        for (std::size_t i = 0; i < matches.size(); ++i) {
            ir::SDFG transformed = original;
            ASSERT_NO_THROW(pass->apply(transformed, matches[i]))
                << kernel << " / " << pass->name();
            ASSERT_NO_THROW(transformed.validate()) << kernel << " / " << pass->name();
            expect_equivalent(original, transformed, bindings,
                              kernel + " / " + pass->name() + " #" + std::to_string(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, CorrectPassProperty,
                         ::testing::Values("gemm", "atax", "mvt", "gesummv", "syrk",
                                           "jacobi_1d", "jacobi_2d", "hdiff", "l2norm",
                                           "go_fast", "compute", "scalar_pipeline", "ew_chain",
                                           "copy_pipeline", "alias_stages", "arc_distance",
                                           "unroll_candidates", "conv1d", "vadv_lite"));

/// Container-dtype rewrite schemes for the widened differential battery.
/// The kernels are authored with F64 containers only; these schemes retype
/// them in place so the same all-tier oracle also exercises the f32
/// conversion paths, integer storage on the tagged VM, and kernels whose
/// producers and consumers store different float widths.
enum class DtypeScheme { F32, I64, Mixed };

const char* scheme_name(DtypeScheme s) {
    switch (s) {
        case DtypeScheme::F32: return "F32";
        case DtypeScheme::I64: return "I64";
        case DtypeScheme::Mixed: return "Mixed";
    }
    return "?";
}

/// Rewrites every container's dtype according to `scheme`:
///  * F32   — float containers become F32 (ints keep their type),
///  * I64   — every container becomes I64, so each kernel runs on integer
///            storage: int-tagged loads, the tagged VM's integer arithmetic,
///            and float results truncated on store,
///  * Mixed — cycles {F64, F32} over float containers and {I64, I32} over
///            int containers, in container order; on these all-F64 kernels
///            it alternates F64 and F32, producing cross-width
///            producer/consumer chains.
/// F32 and Mixed preserve every container's family, so only the storage
/// conversion surface the tiers must agree on changes; I64 also changes the
/// arithmetic, which every correct pass must preserve all the same.
void retype_containers(ir::SDFG& sdfg, DtypeScheme scheme) {
    int float_idx = 0, int_idx = 0;
    for (const auto& [name, desc] : sdfg.containers()) {
        ir::DataDesc& d = sdfg.container(name);
        const bool is_float = ir::dtype_is_float(d.dtype);
        switch (scheme) {
            case DtypeScheme::F32:
                if (is_float) d.dtype = ir::DType::F32;
                break;
            case DtypeScheme::I64:
                d.dtype = ir::DType::I64;
                break;
            case DtypeScheme::Mixed:
                if (is_float)
                    d.dtype = (float_idx++ % 2 == 0) ? ir::DType::F64 : ir::DType::F32;
                else
                    d.dtype = (int_idx++ % 2 == 0) ? ir::DType::I64 : ir::DType::I32;
                break;
        }
    }
    // Direct IR mutation bypasses Transformation::apply, so warm plan caches
    // must be invalidated by hand (see PlanCache key docs).
    sdfg.bump_mutation_epoch();
}

/// The pass-preservation property again, but over retyped containers: every
/// correct-mode pass, applied to every match on every kernel, must preserve
/// semantics when the containers are f32 / int64 / mixed-width — and
/// run_all_tiers inside expect_equivalent additionally pins all four
/// execution tiers to the reference engine bitwise for each such program.
class DtypeWidenedProperty
    : public ::testing::TestWithParam<std::tuple<std::string, DtypeScheme>> {};

TEST_P(DtypeWidenedProperty, PreservesSemanticsOnAllMatches) {
    const auto& [kernel, scheme] = GetParam();
    const sym::Bindings bindings = workloads::npbench_defaults();
    const auto passes = builtin_transformations({.table2_bugs = false});
    ir::SDFG original = workloads::build_npbench_kernel(kernel);
    retype_containers(original, scheme);
    ASSERT_NO_THROW(original.validate()) << kernel << " retyped " << scheme_name(scheme);
    for (const auto& pass : passes) {
        if (pass->name() == "Vectorization") continue;  // input-dependent by design
        const auto matches = pass->find_matches(original);
        for (std::size_t i = 0; i < matches.size(); ++i) {
            ir::SDFG transformed = original;
            ASSERT_NO_THROW(pass->apply(transformed, matches[i]))
                << kernel << " / " << pass->name();
            ASSERT_NO_THROW(transformed.validate()) << kernel << " / " << pass->name();
            expect_equivalent(original, transformed, bindings,
                              kernel + "[" + scheme_name(scheme) + "] / " + pass->name() +
                                  " #" + std::to_string(i));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DtypeWidenedProperty,
    ::testing::Combine(::testing::Values("gemm", "atax", "mvt", "gesummv", "syrk", "jacobi_1d",
                                         "jacobi_2d", "hdiff", "l2norm", "go_fast", "compute",
                                         "scalar_pipeline", "ew_chain", "copy_pipeline",
                                         "alias_stages", "arc_distance", "unroll_candidates",
                                         "conv1d", "vadv_lite"),
                       ::testing::Values(DtypeScheme::F32, DtypeScheme::I64,
                                         DtypeScheme::Mixed)),
    [](const ::testing::TestParamInfo<DtypeWidenedProperty::ParamType>& info) {
        return std::get<0>(info.param) + "_" + scheme_name(std::get<1>(info.param));
    });

/// Vectorization preserves semantics exactly on divisible sizes.
class VectorizationDivisibleProperty : public ::testing::TestWithParam<int> {};

TEST_P(VectorizationDivisibleProperty, ExactOnMultiplesOfWidth) {
    const int n = GetParam();
    ASSERT_EQ(n % 4, 0);
    const ir::SDFG original = ff::testing::make_scale_sdfg("o = i * 0.5 + 1.0");
    ir::SDFG transformed = original;
    Vectorization vec(4);
    const auto matches = vec.find_matches(transformed);
    ASSERT_EQ(matches.size(), 1u);
    vec.apply(transformed, matches[0]);
    expect_equivalent(original, transformed, {{"N", n}}, "vectorize N=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, VectorizationDivisibleProperty,
                         ::testing::Values(4, 8, 12, 16, 32));

}  // namespace
}  // namespace ff::xform
