// Interpreter hot-path microbenchmark: tasklet executions per second.
//
// The inner loop of every fuzzing trial is one tasklet execution per map
// point, on both sides of the differential test.  This bench measures that
// loop head-to-head on the three engines:
//
//  * reference   — recursive AST walker, per-point ConnectorEnv (std::map)
//    construction and fresh gather/scatter vectors;
//  * generic     — bytecode VM over precomputed memlet access plans and a
//    reusable flat scratch arena (ExecConfig::specialize = false);
//  * specialized — flat-stride map kernels + the untagged f64 VM on top
//    of the generic path (batch_segments = false here, so this is the
//    per-point kernel loop; see docs/ARCHITECTURE.md "Specialization
//    tiers");
//  * batched     — segment-eligible kernels run a whole batch level per
//    dispatch through the VM's batch mode (the default): the stride-1 inner
//    extent of the elementwise maps, and the accumulation nest — one band
//    launch spanning both of its scopes — along its output axis.
//
// The workload is tasklet-dense on purpose (chained elementwise maps with
// arithmetic, a matmul-style accumulation nest, and a branchy activation —
// the shapes that dominate the MHA and CLOUDSC workloads); every container
// is constant-extent f64, so the specialization tiers fully apply.  The
// acceptance bars: compiled >= 3x the reference engine, specialized >= 1.5x
// the generic compiled path, and batched >= 2x specialized (all on one
// thread).  The last fails when the nest, 86% of the program's tasklet
// executions, drops off the batched tier.
//
// A second, flat-stride section measures the batched segment tier against
// the per-point kernel loop on straight-line 1-D chains per float dtype
// (f64, f32).  Acceptance bar: batched >= 2x per-point on the f64 section.
// The exit code is 1 when any of the four bars fails.
//
// Lines prefixed BENCH_KV are machine-readable; `scripts/bench_json.py hotpath`
// folds them into a BENCH_hotpath.json baseline artifact (CI uploads it).
#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "workloads/builders.h"

namespace {

using namespace ff;

constexpr std::int64_t kN = 96;
constexpr std::int64_t kM = 96;
constexpr std::int64_t kK = 24;

/// Chain of elementwise maps plus an accumulation nest; returns the number
/// of tasklet executions one run() performs.
ir::SDFG build_hotpath() {
    ir::SDFG p("hotpath");
    p.add_symbol("N");
    p.add_symbol("M");
    p.add_symbol("K");
    const sym::ExprPtr n = sym::symb("N"), m = sym::symb("M"), k = sym::symb("K");
    p.add_array("x", ir::DType::F64, {n, m});
    p.add_array("w", ir::DType::F64, {n, m});
    p.add_array("t1", ir::DType::F64, {n, m}, /*transient=*/true);
    p.add_array("t2", ir::DType::F64, {n, m}, /*transient=*/true);
    p.add_array("y", ir::DType::F64, {n, m});
    p.add_array("a", ir::DType::F64, {n, k});
    p.add_array("b", ir::DType::F64, {k, m});
    p.add_array("c", ir::DType::F64, {n, m});

    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId x = st.add_access("x");
    const ir::NodeId w = st.add_access("w");
    // Branchy activation + arithmetic: exercises constant folding, jumps
    // and the full binary-op dispatch.
    const ir::NodeId t1 = workloads::ew_binary(p, st, x, w, "t1",
                                               "o = a > 0.0 ? a * b + 1.0 : -a * b - 1.0");
    const ir::NodeId t2 = workloads::ew_unary(p, st, t1, "t2",
                                              "s = i * 0.5; o = s * s + i * 0.25");
    workloads::ew_unary(p, st, t2, "y", "o = max(i, 0.0) + min(i, 0.0) * 0.125");

    const ir::NodeId a = st.add_access("a");
    const ir::NodeId b = st.add_access("b");
    const ir::NodeId c0 = workloads::zero_init(p, st, "c");
    workloads::matmul_nest(p, st, a, b, c0, n, k, m, "acc");
    return p;
}

std::int64_t tasklet_executions_per_run() {
    // Three elementwise maps (N*M each), the zero-init map (N*M), and the
    // matmul accumulation nest (N*M*K).
    return 4 * kN * kM + kN * kM * kK;
}

sym::Bindings bindings() { return {{"N", kN}, {"M", kM}, {"K", kK}}; }

/// Executions/second on one engine; runs `reps` full program executions
/// against a warm interpreter (plan + tasklet caches populated).  `spec`
/// optionally receives the plan cache's specialization counters.
double measure(bool compiled, bool specialize, bool batch, int reps,
               interp::SpecStats* spec = nullptr) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = compiled;
    cfg.specialize = specialize;
    cfg.batch_segments = batch;
    interp::Interpreter interp(cfg);

    interp::Context warm = bench::random_inputs(p, bindings());
    if (!interp.run(p, warm).ok()) throw common::Error("hotpath warmup failed");

    // Pre-sample the input configurations so the timed region measures the
    // execution engines only, not the input generator.
    std::vector<interp::Context> contexts;
    contexts.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        contexts.push_back(bench::random_inputs(p, bindings(), 4242 + static_cast<unsigned>(r)));

    const auto t0 = std::chrono::steady_clock::now();
    for (interp::Context& ctx : contexts)
        if (!interp.run(p, ctx).ok()) throw common::Error("hotpath run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    if (spec) *spec = interp.plan_cache()->spec_stats();
    return static_cast<double>(tasklet_executions_per_run()) * reps / secs;
}

// --- Flat-stride batched vs per-point, per float dtype ------------------------

constexpr std::int64_t kFlatN = 1 << 15;

/// Two chained straight-line 1-D elementwise maps over float `dtype`
/// containers: the shape the segment tier exists for (every launch is one
/// contiguous stride-1 segment of kFlatN points).
ir::SDFG build_flat(ir::DType dtype) {
    ir::SDFG p("flat");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("x", dtype, {n});
    p.add_array("t", dtype, {n}, /*transient=*/true);
    p.add_array("y", dtype, {n});
    ir::State& st = p.state(p.add_state("main", true));
    const ir::NodeId t = workloads::ew_unary(p, st, st.add_access("x"), "t", "o = i * 0.5 + 1.0");
    workloads::ew_unary(p, st, t, "y", "o = i * i - i * 0.25");
    return p;
}

/// Map points/second on the flat-stride chain for one dtype, batched or
/// per-point (both run the specialized kernel tier).
double measure_flat(ir::DType dtype, bool batch, int reps,
                    interp::SpecStats* spec = nullptr) {
    ir::SDFG p = build_flat(dtype);
    interp::ExecConfig cfg;
    cfg.batch_segments = batch;
    interp::Interpreter interp(cfg);
    const sym::Bindings binds{{"N", kFlatN}};

    interp::Context warm = bench::random_inputs(p, binds);
    if (!interp.run(p, warm).ok()) throw common::Error("flat warmup failed");

    std::vector<interp::Context> contexts;
    contexts.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        contexts.push_back(bench::random_inputs(p, binds, 777 + static_cast<unsigned>(r)));

    const auto t0 = std::chrono::steady_clock::now();
    for (interp::Context& ctx : contexts)
        if (!interp.run(p, ctx).ok()) throw common::Error("flat run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    if (spec) *spec = interp.plan_cache()->spec_stats();
    return static_cast<double>(2 * kFlatN) * reps / secs;
}

void BM_HotpathReference(benchmark::State& state) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = false;
    interp::Interpreter interp(cfg);
    for (auto _ : state) {
        interp::Context ctx = bench::random_inputs(p, bindings());
        interp.run(p, ctx);
    }
    state.SetItemsProcessed(state.iterations() * tasklet_executions_per_run());
}
BENCHMARK(BM_HotpathReference)->Unit(benchmark::kMillisecond);

void BM_HotpathCompiled(benchmark::State& state) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = true;
    interp::Interpreter interp(cfg);
    for (auto _ : state) {
        interp::Context ctx = bench::random_inputs(p, bindings());
        interp.run(p, ctx);
    }
    state.SetItemsProcessed(state.iterations() * tasklet_executions_per_run());
}
BENCHMARK(BM_HotpathCompiled)->Unit(benchmark::kMillisecond);

/// Aggregate executions/second with `threads` interpreters running the same
/// immutable SDFG concurrently over one shared PlanCache — the execution
/// shape of the parallel fuzzer (per-thread scratch, shared plans).
double measure_parallel(int threads, int reps_per_thread) {
    ir::SDFG p = build_hotpath();
    interp::ExecConfig cfg;
    cfg.use_compiled_tasklets = true;
    auto cache = std::make_shared<interp::PlanCache>();

    // Pre-sample every context so the timed region is pure execution.
    std::vector<std::vector<interp::Context>> contexts(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
        for (int r = 0; r < reps_per_thread; ++r)
            contexts[static_cast<std::size_t>(t)].push_back(bench::random_inputs(
                p, bindings(), 4242 + static_cast<unsigned>(t * reps_per_thread + r)));

    // Warm the shared cache once so the timed region measures steady state.
    {
        interp::Interpreter warm_interp(cfg, cache);
        interp::Context warm = bench::random_inputs(p, bindings());
        if (!warm_interp.run(p, warm).ok()) throw common::Error("hotpath warmup failed");
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<bool> failed{false};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            interp::Interpreter interp(cfg, cache);
            for (interp::Context& ctx : contexts[static_cast<std::size_t>(t)])
                if (!interp.run(p, ctx).ok()) failed.store(true);
        });
    }
    for (std::thread& th : pool) th.join();
    if (failed.load()) throw common::Error("hotpath parallel run failed");
    const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                            .count();
    return static_cast<double>(tasklet_executions_per_run()) * threads * reps_per_thread / secs;
}

/// Prints the report; returns whether all four acceptance bars hold.
bool print_report() {
    const int reps = 6;
    const double ref = measure(/*compiled=*/false, /*specialize=*/false, /*batch=*/false, reps);
    const double generic =
        measure(/*compiled=*/true, /*specialize=*/false, /*batch=*/false, reps);
    interp::SpecStats spec_stats;
    const double specialized = measure(/*compiled=*/true, /*specialize=*/true, /*batch=*/false,
                                       reps, &spec_stats);
    interp::SpecStats batch_stats;
    const double batched = measure(/*compiled=*/true, /*specialize=*/true, /*batch=*/true,
                                   reps, &batch_stats);
    // The 3x bar gates the *generic* compiled path (the pre-specialization
    // guarantee — still a supported mode and the kernel fallback target);
    // the 1.5x bar gates specialization on top of it.
    const double compiled_speedup = generic / ref;
    const double spec_speedup = specialized / generic;
    const double batched_speedup = batched / specialized;
    const double total_speedup = specialized / ref;
    const double batched_share =
        batch_stats.kernel_points > 0
            ? static_cast<double>(batch_stats.segment_points) / batch_stats.kernel_points
            : 0.0;

    bench::banner("Interpreter hot path - tasklet executions per second (N=" +
                  std::to_string(kN) + ", M=" + std::to_string(kM) + ", K=" +
                  std::to_string(kK) + ", constant-extent f64)");
    std::printf("  reference   (AST walker + ConnectorEnv): %12.0f exec/s\n", ref);
    std::printf("  generic     (bytecode VM, no kernels)  : %12.0f exec/s\n", generic);
    std::printf("  specialized (per-point kernel loop)    : %12.0f exec/s\n", specialized);
    std::printf("  batched     (segment tier, the default): %12.0f exec/s\n", batched);
    bool bars_hold = compiled_speedup >= 3.0 && spec_speedup >= 1.5 && batched_speedup >= 2.0;
    std::printf("  generic compiled speedup: %.2fx vs reference (acceptance bar: >= 3x)  -> %s\n",
                compiled_speedup, compiled_speedup >= 3.0 ? "PASS" : "FAIL");
    std::printf("  specialization speedup: %.2fx vs generic (acceptance bar: >= 1.5x)  -> %s\n",
                spec_speedup, spec_speedup >= 1.5 ? "PASS" : "FAIL");
    std::printf("  batched speedup: %.2fx vs specialized (acceptance bar: >= 2x)  -> %s\n",
                batched_speedup, batched_speedup >= 2.0 ? "PASS" : "FAIL");
    std::printf("  total: %.2fx vs reference\n", total_speedup);

    bench::banner("Specialization hit rates (plan classification + launches)");
    std::printf("  scopes: %lld/%lld flat-stride (%lld segment-eligible), "
                "tasklets: %lld/%lld untagged f64\n",
                static_cast<long long>(spec_stats.scopes_specialized),
                static_cast<long long>(spec_stats.scopes_planned),
                static_cast<long long>(spec_stats.scopes_segmented),
                static_cast<long long>(spec_stats.tasklets_f64),
                static_cast<long long>(spec_stats.tasklets_planned));
    std::printf("  kernel launches: %lld committed, %lld fell back to the odometer, "
                "%lld ran batched segments\n",
                static_cast<long long>(spec_stats.kernel_launches),
                static_cast<long long>(spec_stats.kernel_fallbacks),
                static_cast<long long>(batch_stats.segment_launches));
    std::printf("  kernel points: %.1f%% of %lld ran batched\n", 100.0 * batched_share,
                static_cast<long long>(batch_stats.kernel_points));

    // Flat-stride straight-line chains, per dtype: the segment tier's home
    // turf.  The f64 section carries the acceptance bar.
    struct FlatRow {
        const char* name;
        ir::DType dtype;
        double perpoint, batched;
        std::int64_t segments;
    };
    FlatRow flats[] = {{"f64", ir::DType::F64, 0, 0, 0}, {"f32", ir::DType::F32, 0, 0, 0}};
    bench::banner("Batched segment tier - flat-stride map points per second (N=" +
                  std::to_string(kFlatN) + ", 2 straight-line maps)");
    for (FlatRow& row : flats) {
        interp::SpecStats fs;
        row.perpoint = measure_flat(row.dtype, /*batch=*/false, 20);
        row.batched = measure_flat(row.dtype, /*batch=*/true, 20, &fs);
        row.segments = fs.segment_launches;
        const double speedup = row.batched / row.perpoint;
        if (row.dtype == ir::DType::F64) bars_hold = bars_hold && speedup >= 2.0;
        std::printf("  %s: per-point %12.0f pts/s, batched %12.0f pts/s -> %.2fx%s\n",
                    row.name, row.perpoint, row.batched, speedup,
                    row.dtype == ir::DType::F64
                        ? (speedup >= 2.0 ? "  (acceptance bar: >= 2x) PASS"
                                          : "  (acceptance bar: >= 2x) FAIL")
                        : "");
    }

    // Thread scaling over the shared plan cache.  FF_BENCH_THREADS overrides
    // the thread count (CI runs 1 and N and prints the ratio).
    const int threads = bench::env_threads();
    const unsigned hw = std::thread::hardware_concurrency();
    bench::banner("Parallel interpreters over a shared plan cache");
    const double one = measure_parallel(1, 4);
    const double many = threads > 1 ? measure_parallel(threads, 4) : one;
    std::printf("  1 thread : %12.0f exec/s\n", one);
    std::printf("  %d threads: %12.0f exec/s (hardware_concurrency=%u)\n", threads, many, hw);
    std::printf("  scaling ratio: %.2fx\n", many / one);

    // Machine-readable baseline (`scripts/bench_json.py hotpath`).
    std::printf("BENCH_KV workload=hotpath_const_extent_f64\n");
    std::printf("BENCH_KV n=%lld m=%lld k=%lld\n", static_cast<long long>(kN),
                static_cast<long long>(kM), static_cast<long long>(kK));
    std::printf("BENCH_KV reference_exec_per_s=%.0f\n", ref);
    std::printf("BENCH_KV generic_exec_per_s=%.0f\n", generic);
    std::printf("BENCH_KV specialized_exec_per_s=%.0f\n", specialized);
    std::printf("BENCH_KV batched_exec_per_s=%.0f\n", batched);
    std::printf("BENCH_KV compiled_speedup=%.3f\n", compiled_speedup);
    std::printf("BENCH_KV specialization_speedup=%.3f\n", spec_speedup);
    std::printf("BENCH_KV batched_speedup=%.3f\n", batched_speedup);
    std::printf("BENCH_KV total_speedup=%.3f\n", total_speedup);
    std::printf("BENCH_KV scopes_specialized=%lld scopes_planned=%lld scopes_segmented=%lld\n",
                static_cast<long long>(spec_stats.scopes_specialized),
                static_cast<long long>(spec_stats.scopes_planned),
                static_cast<long long>(spec_stats.scopes_segmented));
    std::printf("BENCH_KV tasklets_f64=%lld tasklets_planned=%lld\n",
                static_cast<long long>(spec_stats.tasklets_f64),
                static_cast<long long>(spec_stats.tasklets_planned));
    std::printf("BENCH_KV kernel_launches=%lld kernel_fallbacks=%lld segment_launches=%lld\n",
                static_cast<long long>(spec_stats.kernel_launches),
                static_cast<long long>(spec_stats.kernel_fallbacks),
                static_cast<long long>(batch_stats.segment_launches));
    std::printf("BENCH_KV kernel_points=%lld segment_points=%lld batched_point_share=%.3f\n",
                static_cast<long long>(batch_stats.kernel_points),
                static_cast<long long>(batch_stats.segment_points), batched_share);
    std::printf("BENCH_KV flat_n=%lld\n", static_cast<long long>(kFlatN));
    for (const FlatRow& row : flats) {
        std::printf("BENCH_KV flat_%s_perpoint_pts_per_s=%.0f\n", row.name, row.perpoint);
        std::printf("BENCH_KV flat_%s_batched_pts_per_s=%.0f\n", row.name, row.batched);
        std::printf("BENCH_KV flat_%s_batch_speedup=%.3f\n", row.name,
                    row.batched / row.perpoint);
        std::printf("BENCH_KV flat_%s_segment_launches=%lld\n", row.name,
                    static_cast<long long>(row.segments));
    }
    std::printf("BENCH_KV parallel_1t_exec_per_s=%.0f\n", one);
    std::printf("BENCH_KV parallel_nt_exec_per_s=%.0f parallel_threads=%d\n", many, threads);
    return bars_hold;
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    // A failed bar fails the run, so CI gates on interpreter speed.
    return print_report() ? 0 : 1;
}
