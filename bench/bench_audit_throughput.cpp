// Audit-wide scheduling throughput: executed trials per second across a
// multi-instance audit.
//
// The audit-wide scheduler keeps one fixed worker pool for the whole audit
// and drains a global queue of (instance, trial) units, so trials of
// independent instances overlap and pool spawn/join is paid once.  Two
// configurations over the same K-instance workload:
//   audit @ 1     — Fuzzer::audit with a single worker (serial baseline);
//   audit @ N     — Fuzzer::audit with N workers (the audit-wide pool).
//
// Acceptance bar: on hardware with >= N cores, audit@N scales vs audit@1
// (>= 3x at 8 workers).  Reports must be byte-identical across both
// (determinism check; the process exits non-zero otherwise).
#include "bench_common.h"

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "transforms/map_tiling.h"
#include "workloads/builders.h"

namespace {

using namespace ff;

constexpr int kInstances = 12;
constexpr int kTrialsPerInstance = 24;

/// `kInstances` independent elementwise map chains: one MapTiling match
/// (= one audit instance) per chain, each trial tasklet-dense on both sides
/// of the differential test.
ir::SDFG build_workload() {
    ir::SDFG p("audit_throughput");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    ir::State& st = p.state(p.add_state("main", true));
    for (int i = 0; i < kInstances; ++i) {
        const std::string x = "x" + std::to_string(i);
        const std::string y = "y" + std::to_string(i);
        p.add_array(x, ir::DType::F64, {n});
        p.add_array(y, ir::DType::F64, {n});
        workloads::ew_unary(p, st, st.add_access(x), y,
                            "s = i * 0.5; o = s * s + i * 0.25");
    }
    return p;
}

core::FuzzConfig make_config(int num_threads) {
    core::FuzzConfig config;
    config.max_trials = kTrialsPerInstance;
    config.num_threads = num_threads;
    config.sampler.size_max = 24;  // large enough inputs to dominate setup
    config.cutout.defaults = {{"N", 24}};
    return config;
}

struct RunResult {
    std::vector<core::FuzzReport> reports;
    double seconds = 0.0;
    int executed = 0;  ///< trials + uninteresting across all instances

    double trials_per_second() const { return seconds > 0.0 ? executed / seconds : 0.0; }
};

void tally(RunResult& run) {
    for (const auto& r : run.reports) run.executed += r.trials + r.uninteresting;
}

/// The audit-wide scheduler: one pool over every (instance, trial) unit.
RunResult run_audit(const ir::SDFG& p, int num_threads) {
    std::vector<xform::TransformationPtr> passes;
    passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));
    core::Fuzzer fuzzer(make_config(num_threads));
    RunResult run;
    const auto t0 = std::chrono::steady_clock::now();
    run.reports = fuzzer.audit(p, passes);
    run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    tally(run);
    return run;
}

/// Returns false when reports diverge across worker counts (main()
/// propagates this so the CI step actually fails).
bool identical(const RunResult& a, const RunResult& b) {
    if (a.reports.size() != b.reports.size()) return false;
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        const auto& x = a.reports[i];
        const auto& y = b.reports[i];
        if (x.verdict != y.verdict || x.trials != y.trials ||
            x.uninteresting != y.uninteresting || x.detail != y.detail)
            return false;
    }
    return true;
}

bool print_report() {
    const int threads = bench::env_threads();
    const unsigned hw = std::thread::hardware_concurrency();

    const ir::SDFG p = build_workload();
    const RunResult audit_one = run_audit(p, 1);
    if (static_cast<int>(audit_one.reports.size()) != kInstances)
        throw common::Error("expected " + std::to_string(kInstances) + " instances");
    const RunResult audit_many = threads > 1 ? run_audit(p, threads) : audit_one;

    bench::banner("Audit-wide scheduling - executed trials per second (" +
                  std::to_string(kInstances) + " instances x " +
                  std::to_string(kTrialsPerInstance) + " trials)");
    std::printf("  audit @ 1 worker   : %10.1f trials/s  (%d executed)\n",
                audit_one.trials_per_second(), audit_one.executed);
    std::printf("  audit @ %-2d workers : %10.1f trials/s  (one pool, global unit queue, hw=%u)\n",
                threads, audit_many.trials_per_second(), hw);
    std::printf("  scaling vs 1 worker      : %.2fx (bar: >= 3x at 8 workers on >= 8 cores)\n",
                audit_many.trials_per_second() / audit_one.trials_per_second());

    const bool ok = identical(audit_one, audit_many);
    std::printf("  determinism (reports identical at 1 and %d workers): %s\n", threads,
                ok ? "PASS" : "FAIL");

    // Machine-readable baseline for `scripts/bench_json.py audit` (the
    // BENCH_audit.json CI artifact, like bench_interp_hotpath's BENCH_KV
    // lines feeding BENCH_hotpath.json).
    std::printf("BENCH_KV audit_instances=%d audit_trials_per_instance=%d audit_threads=%d\n",
                kInstances, kTrialsPerInstance, threads);
    std::printf("BENCH_KV audit1_trials_per_s=%.1f auditN_trials_per_s=%.1f\n",
                audit_one.trials_per_second(), audit_many.trials_per_second());
    std::printf("BENCH_KV audit_scaling=%.3f audit_determinism_ok=%d\n",
                audit_many.trials_per_second() / audit_one.trials_per_second(), ok ? 1 : 0);
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return print_report() ? 0 : 1;
}
