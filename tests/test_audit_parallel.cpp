// Audit-wide scheduler: one worker pool over every (instance, trial) unit.
//
// The contract under test (docs/ARCHITECTURE.md "Determinism contract"):
// a full audit produces byte-identical reports — verdicts, trial counts,
// failure details, reproducer artifacts, instance order — at any worker
// count, because trial inputs are a pure function of (seed, trial index)
// and per-instance records are merged in canonical instance x trial order.
// This file also checks how the workers' execution contexts are built,
// reused and rebound, that each prepared instance keeps its compiled plans
// across ranges, and doubles as a TSan target alongside test_parallel (see
// the FF_SANITIZE=thread CI job).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/fuzzer.h"
#include "core/report.h"
#include "helpers.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "workloads/matchain.h"

namespace ff {
namespace {

using ff::testing::make_scale_sdfg;

/// Chain of `k` elementwise maps x -> t1 -> ... -> y: `k` independent
/// MapTiling matches, i.e. a k-instance audit.
ir::SDFG make_k_map_chain(int k) {
    ir::SDFG p("kchain");
    p.add_symbol("N");
    const sym::ExprPtr n = sym::symb("N");
    p.add_array("x", ir::DType::F64, {n});
    for (int i = 1; i < k; ++i)
        p.add_array("t" + std::to_string(i), ir::DType::F64, {n}, /*transient=*/true);
    p.add_array("y", ir::DType::F64, {n});
    ir::State& st = p.state(p.add_state("main", true));
    ir::NodeId cur = st.add_access("x");
    for (int i = 1; i < k; ++i)
        cur = workloads::ew_unary(p, st, cur, "t" + std::to_string(i), "o = i + 1.0");
    workloads::ew_unary(p, st, cur, "y", "o = i * 3.0");
    p.validate();
    return p;
}

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

/// Everything that must be identical across scheduler configurations.
void expect_reports_identical(const core::FuzzReport& a, const core::FuzzReport& b,
                              const std::string& what) {
    EXPECT_EQ(a.transformation, b.transformation) << what;
    EXPECT_EQ(a.match_description, b.match_description) << what;
    EXPECT_EQ(a.verdict, b.verdict) << what;
    EXPECT_EQ(a.trials, b.trials) << what;
    EXPECT_EQ(a.uninteresting, b.uninteresting) << what;
    EXPECT_EQ(a.detail, b.detail) << what;
    EXPECT_EQ(a.cutout_nodes, b.cutout_nodes) << what;
    EXPECT_EQ(a.input_volume, b.input_volume) << what;
}

/// An audit's deterministic outputs: reports plus reproducer artifact bytes
/// (read immediately, before another run can overwrite the shared dir).
struct AuditSnapshot {
    std::vector<core::FuzzReport> reports;
    std::vector<std::string> artifacts;  // empty string for passing instances
};

AuditSnapshot run_audit_snapshot(const ir::SDFG& p,
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
        expect_reports_identical(a.reports[i], b.reports[i],
                                 what + " instance " + std::to_string(i));
        EXPECT_EQ(a.artifacts[i], b.artifacts[i]) << what << " artifact " << i;
    }
}

// --- Cross-instance determinism of the audit-wide pool -----------------------

TEST(AuditParallel, FullAuditByteIdenticalAt1_2_8Workers) {
    const ir::SDFG p = workloads::build_matrix_chain();
    const auto passes = xform::builtin_transformations();

    core::FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    config.max_trials = 10;

    config.num_threads = 1;
    const AuditSnapshot one = run_audit_snapshot(p, passes, config);
    ASSERT_FALSE(one.reports.empty());
    // The builtin registry carries buggy variants: some instance must fail,
    // or the artifact comparison below compares nothing.
    bool any_failed = false;
    for (const auto& r : one.reports) any_failed |= r.failed();
    EXPECT_TRUE(any_failed);

    config.num_threads = 2;
    expect_snapshots_identical(one, run_audit_snapshot(p, passes, config), "1 vs 2 workers");
    config.num_threads = 8;
    expect_snapshots_identical(one, run_audit_snapshot(p, passes, config), "1 vs 8 workers");
}

TEST(AuditParallel, TinyCacheBoundsStillByteIdentical) {
    // Eight workers over five instances: workers rebind back and forth
    // between instances whose plan caches other workers are filling at the
    // same time.  That must never change results.
    const ir::SDFG p = make_k_map_chain(5);
    std::vector<xform::TransformationPtr> passes;
    passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));

    core::FuzzConfig config = quick_config();
    config.num_threads = 1;
    const AuditSnapshot baseline = run_audit_snapshot(p, passes, config);
    ASSERT_EQ(baseline.reports.size(), 5u);
    for (const auto& r : baseline.reports)
        EXPECT_EQ(r.verdict, core::Verdict::Pass) << r.detail;

    config.num_threads = 8;
    expect_snapshots_identical(baseline, run_audit_snapshot(p, passes, config),
                               "1 vs 8 workers");
}

TEST(AuditParallel, SchedulerStatsCountUnitsAndClaims) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling tiling(4, xform::MapTiling::Variant::Correct);
    const auto matches = tiling.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);

    core::FuzzConfig config = quick_config();
    config.max_trials = 20;
    config.num_threads = 1;
    core::Fuzzer fuzzer(config);
    const core::FuzzReport report = fuzzer.test_instance(p, tiling, matches[0]);
    EXPECT_EQ(report.verdict, core::Verdict::Pass) << report.detail;
    EXPECT_EQ(report.threads, 1);

    const core::SchedulerStats& stats = fuzzer.last_stats();
    EXPECT_EQ(stats.workers, 1);
    EXPECT_EQ(stats.units, 20);       // every trial of the passing instance ran
    EXPECT_EQ(stats.claims, 20);      // one unit per claim
    EXPECT_EQ(stats.contexts_built, 1);
    EXPECT_EQ(stats.context_hits, 0);
    EXPECT_EQ(stats.context_rebinds, 0);
}

TEST(AuditParallel, RevisitedInstanceRebuildsNoPlans) {
    // Each prepared instance owns its plan cache for the audit's lifetime:
    // a range over an instance an earlier range finished (a coordinator
    // worker's next lease of the job) finds every plan already built.
    const ir::SDFG p = make_k_map_chain(6);
    std::vector<xform::TransformationPtr> passes;
    passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));

    core::FuzzConfig config = quick_config();
    config.num_threads = 1;
    core::PreparedAudit audit = core::Fuzzer(config).prepare(p, passes);
    ASSERT_EQ(audit.instance_count(), 6u);
    audit.run_range(0, audit.unit_count());
    EXPECT_EQ(audit.stats().units, 6 * config.max_trials);
    EXPECT_GT(audit.stats().spec.scopes_planned, 0);

    audit.reset_trials();
    audit.run_range(0, 1);
    EXPECT_EQ(audit.stats().units, 1);
    EXPECT_EQ(audit.stats().spec.scopes_planned, 0);
    EXPECT_EQ(audit.records(0)[0].kind, core::TrialRecord::Kind::Pass);
}

TEST(AuditParallel, RangeStartingWhereTheLastEndedReusesItsContext) {
    // A coordinator worker's next lease of a job runs on the same prepared
    // audit after reset_trials() (shard::JobCache).  A lease that starts in
    // the instance the previous one ended in finds the context the previous
    // lease left bound there: no build, no rebind, one hit.
    const ir::SDFG p = make_k_map_chain(3);
    std::vector<xform::TransformationPtr> passes;
    passes.push_back(std::make_unique<xform::MapTiling>(4, xform::MapTiling::Variant::Correct));
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        core::FuzzConfig config = quick_config();
        config.num_threads = threads;
        core::PreparedAudit audit = core::Fuzzer(config).prepare(p, passes);
        ASSERT_EQ(audit.instance_count(), 3u);
        const std::int64_t mt = audit.max_trials();

        // The first lease lies inside instance 1: every context it builds
        // ends bound there.
        audit.run_range(mt, mt + mt / 2);
        EXPECT_EQ(audit.stats().workers, threads);
        EXPECT_GE(audit.stats().contexts_built, 1);
        EXPECT_LE(audit.stats().contexts_built, threads);
        EXPECT_EQ(audit.stats().context_hits, 0);
        EXPECT_EQ(audit.stats().context_rebinds, 0);

        // The next lease continues instance 1 on one worker, which takes
        // the first slot — built by the first lease.
        audit.reset_trials();
        audit.run_range(mt + mt / 2, mt + mt / 2 + 1);
        EXPECT_EQ(audit.stats().units, 1);
        EXPECT_EQ(audit.stats().contexts_built, 0);
        EXPECT_EQ(audit.stats().context_hits, 1);
        EXPECT_EQ(audit.stats().context_rebinds, 0);

        // A lease in another instance rebinds that context instead.
        audit.reset_trials();
        audit.run_range(2 * mt, 2 * mt + 1);
        EXPECT_EQ(audit.stats().contexts_built, 0);
        EXPECT_EQ(audit.stats().context_hits, 0);
        EXPECT_EQ(audit.stats().context_rebinds, 1);
        EXPECT_EQ(audit.records(2)[0].kind, core::TrialRecord::Kind::Pass);
    }
}

}  // namespace
}  // namespace ff
