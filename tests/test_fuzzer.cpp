#include <gtest/gtest.h>

#include "common/error.h"

#include <cstdio>
#include <set>

#include "core/constraints.h"
#include "core/diff_test.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "core/sampler.h"
#include "core/testcase_io.h"
#include "helpers.h"
#include "transforms/map_tiling.h"
#include "transforms/registry.h"
#include "transforms/vectorization.h"
#include "workloads/matchain.h"
#include "workloads/npbench.h"

namespace ff::core {
namespace {

using ff::testing::make_scale_sdfg;

FuzzConfig quick_config(std::int64_t default_n = 8) {
    FuzzConfig config;
    config.max_trials = 20;
    config.sampler.size_max = 8;
    config.cutout.defaults = {{"N", default_n}};
    return config;
}

TEST(Constraints, SizeAndIndexClassification) {
    const ir::SDFG cutout = make_scale_sdfg();
    const Constraints c = derive_constraints(cutout, cutout);
    EXPECT_TRUE(c.free_symbols.count("N"));
    EXPECT_TRUE(c.size_symbols.count("N"));  // used in shapes
}

TEST(Constraints, LoopDetection) {
    // durbin_lite loops `iter` from 0 with a constant bound (iter < 4).
    const ir::SDFG p = workloads::build_npbench_kernel("durbin_lite");
    const auto loops = detect_loop_ranges(p);
    ASSERT_TRUE(loops.count("iter"));
    EXPECT_EQ(loops.at("iter").lo, 0);
    EXPECT_EQ(loops.at("iter").hi, 4);
    // floyd_warshall's bound (k < N - 1) is symbolic: best-effort detection
    // skips it, and the index-bound constraint takes over instead.
    EXPECT_FALSE(detect_loop_ranges(workloads::build_npbench_kernel("floyd_warshall"))
                     .count("k"));
}

TEST(Constraints, InterstateAssignedSymbolsNotSampled) {
    const ir::SDFG p = workloads::build_npbench_kernel("alias_stages");
    const Constraints c = derive_constraints(p, p);
    EXPECT_TRUE(c.free_symbols.count("N"));
    EXPECT_FALSE(c.free_symbols.count("M2"));   // produced by the program
    EXPECT_FALSE(c.free_symbols.count("dead"));
}

TEST(Sampler, DeterministicPerTrial) {
    const ir::SDFG cutout = make_scale_sdfg();
    const Constraints c = derive_constraints(cutout, cutout);
    const InputSampler sampler(SamplerConfig{});
    const auto a = sampler.sample(cutout, {"x"}, c, 7);
    const auto b = sampler.sample(cutout, {"x"}, c, 7);
    const auto other = sampler.sample(cutout, {"x"}, c, 8);
    EXPECT_EQ(a.symbols, b.symbols);
    EXPECT_TRUE(a.buffers.at("x").bitwise_equal(b.buffers.at("x")));
    EXPECT_FALSE(a.symbols == other.symbols &&
                 a.buffers.at("x").bitwise_equal(other.buffers.at("x")));
}

TEST(Sampler, GrayBoxRespectsSizeConstraints) {
    const ir::SDFG cutout = make_scale_sdfg();
    const Constraints c = derive_constraints(cutout, cutout);
    SamplerConfig cfg;
    cfg.size_max = 5;
    const InputSampler sampler(cfg);
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        const auto ctx = sampler.sample(cutout, {"x"}, c, trial);
        const std::int64_t n = ctx.symbols.at("N");
        EXPECT_GE(n, 1);
        EXPECT_LE(n, 5);
        EXPECT_EQ(ctx.buffers.at("x").size(), n);
    }
}

TEST(Sampler, UniformModeProducesInvalidSizes) {
    // The paper's motivation for gray-box sampling: uniform draws produce
    // many uninteresting crashes (sizes <= 0).
    const ir::SDFG cutout = make_scale_sdfg();
    const Constraints c = derive_constraints(cutout, cutout);
    SamplerConfig cfg;
    cfg.gray_box = false;
    const InputSampler sampler(cfg);
    int invalid = 0;
    for (std::uint64_t trial = 0; trial < 40; ++trial) {
        try {
            const auto ctx = sampler.sample(cutout, {"x"}, c, trial);
            if (ctx.symbols.at("N") <= 0) ++invalid;
        } catch (const std::exception&) {
            ++invalid;  // negative shape rejected at buffer construction
        }
    }
    EXPECT_GT(invalid, 5);
}

TEST(DiffTester, PassesOnIdenticalPrograms) {
    const ir::SDFG p = make_scale_sdfg();
    DifferentialTester tester(p, p, {"y"});
    interp::Context inputs;
    inputs.symbols["N"] = 4;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4}));
    EXPECT_EQ(tester.run_trial(inputs).verdict, Verdict::Pass);
}

TEST(DiffTester, DetectsSemanticChange) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0");
    const ir::SDFG q = make_scale_sdfg("o = i * 2.0 + 0.001");
    DifferentialTester tester(p, q, {"y"});
    interp::Context inputs;
    inputs.symbols["N"] = 4;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4}));
    const auto outcome = tester.run_trial(inputs);
    EXPECT_EQ(outcome.verdict, Verdict::SemanticsChanged);
    EXPECT_NE(outcome.detail.find("y"), std::string::npos);
}

TEST(DiffTester, ThresholdToleratesNoise) {
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0");
    const ir::SDFG q = make_scale_sdfg("o = i * 2.0 + 1e-12");
    DiffConfig cfg;
    cfg.threshold = 1e-5;  // paper default
    DifferentialTester tolerant(p, q, {"y"}, cfg);
    interp::Context inputs;
    inputs.symbols["N"] = 2;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2}));
    EXPECT_EQ(tolerant.run_trial(inputs).verdict, Verdict::Pass);
    cfg.threshold = 0.0;  // bitwise
    DifferentialTester strict(p, q, {"y"}, cfg);
    EXPECT_EQ(strict.run_trial(inputs).verdict, Verdict::SemanticsChanged);
}

TEST(DiffTester, InvalidTransformedProgram) {
    const ir::SDFG p = make_scale_sdfg();
    ir::SDFG q = p;
    q.state(q.start_state()).add_access("ghost");  // invalid graph
    DifferentialTester tester(p, q, {"y"});
    EXPECT_FALSE(tester.transformed_valid());
    interp::Context inputs;
    inputs.symbols["N"] = 2;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2}));
    EXPECT_EQ(tester.run_trial(inputs).verdict, Verdict::InvalidCode);
}

TEST(DiffTester, CoverageMarksOnlyTheOriginalSide) {
    // One interpreter runs both sides; the coverage map is installed only
    // while the original side runs.  The original is the two-map chain (16
    // pair ids, one bitmap word).  The transformed side is 17 top-level
    // tasklets doubling x[0] into y[0]: its 34 accesses have pair ids up to
    // 135, so a transformed run that marked the original's map would write
    // past its one word (an abort in the assertion and sanitizer builds).
    const ir::SDFG p = ff::testing::make_chain_sdfg();
    const ir::SDFG q = [] {
        ir::SDFG sdfg("top_level");
        sdfg.add_symbol("N");
        sdfg.add_array("x", ir::DType::F64, {sym::symb("N")}, /*transient=*/false);
        sdfg.add_array("y", ir::DType::F64, {sym::symb("N")}, /*transient=*/false);
        ir::State& st = sdfg.state(sdfg.add_state("main", true));
        const ir::Subset first{{ir::Range::index(sym::cst(0))}};
        for (int k = 0; k < 17; ++k) {
            const ir::NodeId t = st.add_tasklet("t" + std::to_string(k), "o = i * 2.0");
            st.add_edge(st.add_access("x"), "", t, "i", ir::Memlet("x", first));
            st.add_edge(t, "o", st.add_access("y"), "", ir::Memlet("y", first));
        }
        return sdfg;
    }();
    const std::set<std::string> state = {"y"};
    interp::Context inputs;
    inputs.symbols["N"] = 4;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4}));
    DiffConfig cfg;
    cfg.exec.coverage = true;

    // The words of a lone run of `program` under its own atlas.
    const auto lone_words = [&](const ir::SDFG& program) {
        interp::Interpreter lone(cfg.exec);
        feedback::CoverageMap map;
        map.reset(lone.plan_cache()->atlas_for(program)->pair_count());
        lone.set_coverage(&map);
        interp::Context ctx = inputs;
        EXPECT_TRUE(lone.run(program, ctx).ok());
        return map.trimmed_words();
    };
    const std::vector<std::uint64_t> want = lone_words(p);
    ASSERT_FALSE(want.empty());
    ASSERT_NE(lone_words(q), want);

    DifferentialTester tester(p, q, state, cfg);
    for (int trial = 0; trial < 2; ++trial) {
        const TrialOutcome got = tester.run_trial(inputs);
        EXPECT_EQ(got.verdict, Verdict::SemanticsChanged);
        EXPECT_EQ(got.coverage, want) << "trial " << trial;
    }

    // A memo fallback re-runs the original side without touching the words.
    OriginalMemo memo(1);
    DifferentialTester first(cfg);
    first.bind(p, p, state, nullptr, nullptr, &memo);
    EXPECT_EQ(first.run_trial(inputs, 0).coverage, want);
    DifferentialTester second(cfg);
    second.bind(p, q, state, nullptr, nullptr, &memo);
    EXPECT_EQ(second.run_trial(inputs, 0).coverage, want);
    EXPECT_EQ(memo.stats().fallbacks, 1);
    EXPECT_EQ(second.run_trial(inputs).coverage, want);
}

TEST(DiffTester, VerdictNamesRoundTripExhaustively) {
    // Iterate the enum by value, not by a hand-written list: adding a
    // verdict without extending verdict_name/verdict_from_name (or without
    // bumping kVerdictCount) must fail here, not in a shard merge at 3 a.m.
    std::set<std::string> names;
    for (int i = 0; i < kVerdictCount; ++i) {
        const Verdict v = static_cast<Verdict>(i);
        const std::string name = verdict_name(v);
        ASSERT_FALSE(name.empty());
        EXPECT_NE(name, "?") << "verdict_name missing case for value " << i;
        EXPECT_TRUE(names.insert(name).second) << "duplicate verdict name: " << name;
        EXPECT_EQ(verdict_from_name(name), v) << name;
    }
    EXPECT_EQ(names.count("resource-exhausted"), 1u);
    EXPECT_THROW(verdict_from_name("no-such-verdict"), common::Error);
    EXPECT_THROW(verdict_from_name(""), common::Error);
}

TEST(DiffTester, ResourceBudgetIsDeterministicAndBlamesTransformed) {
    // The "transformed" side computes the same function through two maps
    // (y = (x + 1) * 3 via a transient), so it spends 2N point fuel where
    // the original (y = 3x + 3) spends N: a budget between the two costs
    // yields ResourceExhausted, and re-running the identical trial yields
    // the identical outcome — budget exhaustion is a pure function of
    // (program, inputs, budget).
    const ir::SDFG p = make_scale_sdfg("o = i * 3.0 + 3.0");
    const ir::SDFG q = ff::testing::make_chain_sdfg("o = i + 1.0", "o = i * 3.0");

    interp::Context inputs;
    inputs.symbols["N"] = 8;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4, 5, 6, 7, 8}));
    // Pre-create the output (as the sampler does for every non-transient
    // container) so the only budget-charged allocation is the chain's T.
    inputs.buffers.emplace("y", ff::testing::make_buffer(std::vector<double>(8, 0.0)));

    DiffConfig cfg;
    cfg.exec.max_points = 9;  // original spends 8, the two-map chain 16
    DifferentialTester tester(p, q, {"y"}, cfg);
    const TrialOutcome first = tester.run_trial(inputs);
    EXPECT_EQ(first.verdict, Verdict::ResourceExhausted) << first.detail;
    // Cost counters are captured only for sides that completed Ok.
    EXPECT_EQ(first.original_points, 8);
    EXPECT_EQ(first.transformed_points, 0);
    EXPECT_EQ(first.transformed_instructions, 0);
    const TrialOutcome again = tester.run_trial(inputs);
    EXPECT_EQ(again.verdict, first.verdict);
    EXPECT_EQ(again.detail, first.detail);

    // The allocation budget trips on the chain's transient (8 f64 = 64
    // bytes) while the transient-free original allocates nothing.
    DiffConfig lowmem;
    lowmem.exec.max_alloc_bytes = 32;
    DifferentialTester cramped(p, q, {"y"}, lowmem);
    EXPECT_EQ(cramped.run_trial(inputs).verdict, Verdict::ResourceExhausted);

    // The original side exhausting the budget is the input's fault, exactly
    // like an original-side crash: resampled, never reported.
    DiffConfig tight;
    tight.exec.max_points = 4;
    DifferentialTester strict(p, q, {"y"}, tight);
    EXPECT_EQ(strict.run_trial(inputs).verdict, Verdict::Uninteresting);
}

TEST(DiffTester, OriginalCrashIsUninteresting) {
    const ir::SDFG p = make_scale_sdfg();
    DifferentialTester tester(p, p, {"y"});
    interp::Context inputs;  // N unbound: original crashes
    EXPECT_EQ(tester.run_trial(inputs).verdict, Verdict::Uninteresting);
}

TEST(Fuzzer, CorrectTilingPasses) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling tiling(4, xform::MapTiling::Variant::Correct);
    Fuzzer fuzzer(quick_config());
    const auto matches = tiling.find_matches(p);
    ASSERT_EQ(matches.size(), 1u);
    const FuzzReport report = fuzzer.test_instance(p, tiling, matches[0]);
    EXPECT_EQ(report.verdict, Verdict::Pass) << report.detail;
    EXPECT_EQ(report.trials, fuzzer.config().max_trials);
}

TEST(Fuzzer, NoRemainderTilingCaughtAsInputDependent) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::NoRemainder);
    Fuzzer fuzzer(quick_config());
    const FuzzReport report = fuzzer.test_instance(p, buggy, buggy.find_matches(p)[0]);
    EXPECT_EQ(report.verdict, Verdict::TransformedCrash) << report.detail;
    // Needs more than one trial only when the first sampled N is a multiple
    // of 4 — either way, strictly fewer trials than the budget.
    EXPECT_LE(report.trials, fuzzer.config().max_trials);
    EXPECT_TRUE(report.failed());
}

TEST(Fuzzer, Fig2TilingBugFoundOnMatrixChain) {
    const ir::SDFG p = workloads::build_matrix_chain();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::OffByOne);
    FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    Fuzzer fuzzer(config);
    const auto matches = buggy.find_matches(p);
    const xform::Match* mm2 = nullptr;
    for (const auto& m : matches)
        if (m.description.find("'mm2'") != std::string::npos) mm2 = &m;
    ASSERT_NE(mm2, nullptr);
    const FuzzReport report = fuzzer.test_instance(p, buggy, *mm2);
    EXPECT_EQ(report.verdict, Verdict::SemanticsChanged) << report.detail;
    // The cutout around mm2 is much smaller than the whole chain.
    EXPECT_LT(report.cutout_nodes, report.program_nodes / 2);
}

TEST(Fuzzer, WholeProgramBaselineFindsSameBugSlower) {
    const ir::SDFG p = workloads::build_matrix_chain();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::OffByOne);
    const auto matches = buggy.find_matches(p);
    const xform::Match* mm2 = nullptr;
    for (const auto& m : matches)
        if (m.description.find("'mm2'") != std::string::npos) mm2 = &m;
    ASSERT_NE(mm2, nullptr);

    FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    config.whole_program = true;
    Fuzzer baseline(config);
    const FuzzReport report = baseline.test_instance(p, buggy, *mm2);
    EXPECT_EQ(report.verdict, Verdict::SemanticsChanged) << report.detail;
    EXPECT_TRUE(report.whole_program_cutout);
    EXPECT_EQ(report.cutout_nodes, report.program_nodes);
}

TEST(Fuzzer, ArtifactRoundTripReproducesFailure) {
    const ir::SDFG p = make_scale_sdfg();
    xform::MapTiling buggy(4, xform::MapTiling::Variant::NoRemainder);
    FuzzConfig config = quick_config();
    config.artifact_dir = ::testing::TempDir();
    Fuzzer fuzzer(config);
    const FuzzReport report = fuzzer.test_instance(p, buggy, buggy.find_matches(p)[0]);
    ASSERT_TRUE(report.failed());
    ASSERT_FALSE(report.artifact_path.empty());

    // Load the reproducer and re-run the failing trial.
    std::FILE* f = std::fopen(report.artifact_path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, got);
    std::fclose(f);
    const LoadedTestCase tc = testcase_from_json(common::Json::parse(text));
    EXPECT_EQ(tc.verdict, std::string(verdict_name(report.verdict)));

    DifferentialTester tester(tc.original, tc.transformed, tc.system_state);
    const auto outcome = tester.run_trial(tc.inputs);
    EXPECT_EQ(outcome.verdict, report.verdict);
}

// --- The original-side memo of a cutout class ---------------------------------

/// The fields of a report that trials determine (no wall clock, no threads).
std::string trial_fields(const FuzzReport& r) {
    return r.transformation + "|" + r.match_description + "|" + verdict_name(r.verdict) + "|" +
           r.detail + "|" + std::to_string(r.trials) + "|" + std::to_string(r.uninteresting) +
           "|" + std::to_string(r.original_points) + "|" + std::to_string(r.original_instructions) +
           "|" + std::to_string(r.transformed_points) + "|" +
           std::to_string(r.transformed_instructions);
}

TEST(Digest128, AnySplitOfTheBytesGivesOneDigest) {
    // The memo digests buffers field by field: a digest must depend on the
    // bytes fed, never on how they were split into calls.
    std::string bytes;
    for (int i = 0; i < 100; ++i) bytes += static_cast<char>('a' + i % 26);
    common::Hasher128 whole;
    whole.bytes(bytes.data(), bytes.size());
    for (std::size_t cut1 = 0; cut1 <= bytes.size(); cut1 += 7) {
        for (std::size_t cut2 = cut1; cut2 <= bytes.size(); cut2 += 5) {
            common::Hasher128 h;
            h.bytes(bytes.data(), cut1)
                .bytes(bytes.data() + cut1, cut2 - cut1)
                .bytes(bytes.data() + cut2, bytes.size() - cut2);
            EXPECT_EQ(h.finish(), whole.finish()) << cut1 << ", " << cut2;
        }
    }
    // Every byte and the length count; no bytes (even from a null pointer)
    // feed nothing.
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::string flipped = bytes;
        flipped[i] ^= 1;
        common::Hasher128 h;
        h.bytes(flipped.data(), flipped.size());
        EXPECT_NE(h.finish(), whole.finish()) << i;
    }
    common::Hasher128 shorter;
    shorter.bytes(bytes.data(), bytes.size() - 1);
    EXPECT_NE(shorter.finish(), whole.finish());
    common::Hasher128 empty;
    empty.bytes(nullptr, 0);
    EXPECT_EQ(empty.finish(), common::Hasher128{}.finish());
}

TEST(OriginalMemo, PassesSharingACutoutShareOnlyTheOriginalSide) {
    // MapTiling and its off-by-one variant match the same maps of the matrix
    // chain, so each map's two instances extract equal cutouts and share one
    // memo: whichever runs a trial first publishes the original side and the
    // other reuses it.  Only the buggy variant may be flagged, and every
    // report must equal the one test_instance (a lone instance, so no memo)
    // produces — in either pass order, at any thread count.
    const ir::SDFG p = workloads::build_matrix_chain();
    FuzzConfig config = quick_config(6);
    config.sampler.size_max = 6;
    auto pass = [](bool buggy) -> xform::TransformationPtr {
        return std::make_unique<xform::MapTiling>(
            4, buggy ? xform::MapTiling::Variant::OffByOne : xform::MapTiling::Variant::Correct);
    };
    auto alone = [&](bool buggy) {
        const xform::TransformationPtr t = pass(buggy);
        Fuzzer fuzzer(config);
        std::vector<FuzzReport> reports;
        for (const xform::Match& m : t->find_matches(p)) {
            reports.push_back(fuzzer.test_instance(p, *t, m));
            EXPECT_EQ(fuzzer.last_stats().memo.hits + fuzzer.last_stats().memo.misses, 0);
        }
        return reports;
    };
    const std::vector<FuzzReport> correct_alone = alone(false);
    const std::vector<FuzzReport> buggy_alone = alone(true);
    ASSERT_GE(correct_alone.size(), 2u);
    ASSERT_EQ(buggy_alone.size(), correct_alone.size());

    for (bool buggy_first : {false, true}) {
        for (int threads : {1, 4}) {
            std::vector<xform::TransformationPtr> passes;
            passes.push_back(pass(buggy_first));
            passes.push_back(pass(!buggy_first));
            config.num_threads = threads;
            Fuzzer fuzzer(config);
            const std::vector<FuzzReport> reports = fuzzer.audit(p, passes);
            const std::string where = std::string(buggy_first ? "buggy" : "correct") +
                                      " pass first, " + std::to_string(threads) + " thread(s)";
            ASSERT_EQ(reports.size(), 2 * correct_alone.size()) << where;
            int flagged = 0;
            for (std::size_t i = 0; i < reports.size(); ++i) {
                const bool buggy = (i < correct_alone.size()) == buggy_first;
                const FuzzReport& want =
                    (buggy ? buggy_alone : correct_alone)[i % correct_alone.size()];
                EXPECT_EQ(trial_fields(reports[i]), trial_fields(want))
                    << where << ", report " << i;
                if (!buggy) {
                    EXPECT_FALSE(reports[i].failed()) << where << ": " << reports[i].detail;
                }
                flagged += reports[i].failed() ? 1 : 0;
            }
            EXPECT_GE(flagged, 1) << where << ": the off-by-one tiling went unflagged";
            EXPECT_GT(fuzzer.last_stats().memo.hits, 0) << where;
            EXPECT_GT(fuzzer.last_stats().memo.misses, 0) << where;
        }
    }
}

TEST(OriginalMemo, DigestMismatchFallsBackToTheExactComparison) {
    // Two testers of one cutout class: the first runs the original side and
    // publishes it; the second's transformed side differs bitwise but within
    // the threshold, so its digests cannot vouch for it — it re-runs the
    // original side and compares exactly, returning what a tester without a
    // memo returns.
    const ir::SDFG p = make_scale_sdfg("o = i * 2.0");
    const ir::SDFG near = make_scale_sdfg("o = i * 2.0 + 1e-12");
    const std::set<std::string> state = {"y"};
    interp::Context inputs;
    inputs.symbols["N"] = 4;
    inputs.buffers.emplace("x", ff::testing::make_buffer({1, 2, 3, 4}));

    for (double threshold : {1e-5, 0.0}) {
        DiffConfig cfg;
        cfg.threshold = threshold;
        OriginalMemo memo(2);
        DifferentialTester first(cfg);
        first.bind(p, p, state, nullptr, nullptr, &memo);
        EXPECT_EQ(first.run_trial(inputs, 0).verdict, Verdict::Pass);
        EXPECT_EQ(memo.stats().misses, 1);

        DifferentialTester second(cfg);
        second.bind(p, near, state, nullptr, nullptr, &memo);
        const TrialOutcome got = second.run_trial(inputs, 0);
        DifferentialTester plain(p, near, state, cfg);
        const TrialOutcome want = plain.run_trial(inputs);
        EXPECT_EQ(got.verdict, threshold > 0 ? Verdict::Pass : Verdict::SemanticsChanged);
        EXPECT_EQ(got.verdict, want.verdict) << "threshold " << threshold;
        EXPECT_EQ(got.detail, want.detail) << "threshold " << threshold;
        EXPECT_EQ(got.original_points, want.original_points);
        EXPECT_EQ(got.original_instructions, want.original_instructions);
        EXPECT_EQ(got.transformed_points, want.transformed_points);
        EXPECT_EQ(memo.stats().hits, 1);
        EXPECT_GT(memo.stats().fallbacks, 0) << "threshold " << threshold;

        // A bitwise-equal transformed side passes from the memo alone; other
        // inputs (or an unindexed trial) never read the entry.
        EXPECT_EQ(first.run_trial(inputs, 0).verdict, Verdict::Pass);
        EXPECT_EQ(memo.stats().hits, 2);
        EXPECT_EQ(memo.stats().fallbacks, 1);
        interp::Context other = inputs;
        other.buffers.at("x").store(0, interp::Value::from_double(5.0));
        EXPECT_EQ(second.run_trial(other, 0).verdict, plain.run_trial(other).verdict);
        EXPECT_EQ(second.run_trial(inputs).verdict, want.verdict);
        EXPECT_EQ(memo.stats().hits, 2);
        EXPECT_EQ(memo.stats().misses, 2);
    }
}

TEST(Report, AuditSummaryAggregates) {
    FuzzReport a;
    a.transformation = "X";
    a.verdict = Verdict::Pass;
    FuzzReport b = a;
    b.verdict = Verdict::SemanticsChanged;
    FuzzReport c;
    c.transformation = "Y";
    c.verdict = Verdict::InvalidCode;
    const auto summaries = summarize_audit({a, b, c});
    ASSERT_EQ(summaries.size(), 2u);
    EXPECT_EQ(summaries[0].transformation, "X");
    EXPECT_EQ(summaries[0].instances, 2);
    EXPECT_EQ(summaries[0].failures, 1);
    EXPECT_EQ(summaries[1].failures, 1);
    const std::string table = audit_table(summaries);
    EXPECT_NE(table.find("semantics-changed"), std::string::npos);
    EXPECT_NE(table.find("invalid-code"), std::string::npos);
}

}  // namespace
}  // namespace ff::core
