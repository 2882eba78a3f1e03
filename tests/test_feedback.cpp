// The feedback subsystem (src/feedback + core/guided): coverage bitmap and
// hex wire form, corpus files (committed golden bytes) and their integrity
// checks on the bytes on disk, sampler-config validation, and the
// clause-10 determinism bar — feedback-enabled reports
// and corpora are byte-identical across execution tiers, worker-thread
// counts, and shard counts (including an interrupted-and-resumed shard).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/fuzzer.h"
#include "core/report.h"
#include "core/sampler.h"
#include "core/testcase_io.h"
#include "feedback/corpus.h"
#include "feedback/coverage.h"
#include "helpers.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "shard/runner.h"
#include "workloads/npbench.h"

namespace ff {
namespace {

namespace fs = std::filesystem;
using ff::testing::scratch_dir;

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// --- Sampler-config validation ------------------------------------------------

TEST(FeedbackSampler, RejectsEmptyIntervalsAtConstruction) {
    // The size interval [1, size_max] is the only configurable one.
    core::SamplerConfig bad_size;
    bad_size.size_max = 0;
    EXPECT_THROW(core::InputSampler{bad_size}, common::ValidationError);

    // A degenerate one-point interval is valid.
    core::SamplerConfig point;
    point.size_max = 1;
    EXPECT_NO_THROW(core::InputSampler{point});
}

// --- Coverage map + hex wire form ---------------------------------------------

TEST(FeedbackCoverage, MapMarkAbsorbAndHexRoundTripProperty) {
    common::Rng rng(0xFEEDBAC);
    for (int iter = 0; iter < 50; ++iter) {
        const std::uint32_t bits = 1 + static_cast<std::uint32_t>(rng() % 200);
        feedback::CoverageMap map;
        map.reset(bits);
        std::int64_t expected = 0;
        for (int m = 0; m < 40; ++m) {
            const std::uint32_t id = static_cast<std::uint32_t>(rng() % bits);
            if (!map.test(id)) ++expected;
            map.mark(id);
            EXPECT_TRUE(map.test(id));
        }
        EXPECT_EQ(map.count(), expected);

        const std::vector<std::uint64_t> words = map.trimmed_words();
        EXPECT_EQ(feedback::cov_popcount(words), expected);
        const std::string hex = feedback::cov_words_to_hex(words);
        EXPECT_EQ(feedback::cov_words_from_hex(hex), words) << "iteration " << iter;

        // Absorbing a map into itself never grows it; absorbing into an
        // empty map grows iff any bit is set.
        feedback::CoverageMap cum;
        cum.reset(bits);
        EXPECT_EQ(cum.absorb(words), expected > 0);
        EXPECT_FALSE(cum.absorb(words));
        EXPECT_EQ(cum.count(), expected);
    }
    EXPECT_THROW(feedback::cov_words_from_hex("xyz"), common::ParseError);
}

TEST(FeedbackCoverage, AtlasIsDeterministicAndClassesPartitionPoints) {
    const ir::SDFG gemm = workloads::build_npbench_kernel("gemm");
    const feedback::CovAtlas a = feedback::CovAtlas::build(gemm);
    const feedback::CovAtlas b = feedback::CovAtlas::build(gemm);
    EXPECT_GT(a.pair_count(), 0u);
    EXPECT_EQ(a.pair_count(), b.pair_count());

    EXPECT_EQ(feedback::region_class(0), 0);
    EXPECT_EQ(feedback::region_class(-3), 0);
    EXPECT_EQ(feedback::region_class(1), 1);
    EXPECT_EQ(feedback::region_class(2), 2);
    EXPECT_EQ(feedback::region_class(16), 2);
    EXPECT_EQ(feedback::region_class(17), 3);
    EXPECT_EQ(feedback::region_class(1 << 20), 3);
}

// --- Corpus entries and files -------------------------------------------------

std::vector<feedback::CorpusEntry> sample_entries() {
    std::vector<feedback::CorpusEntry> entries;
    for (int i = 0; i < 6; ++i) {
        feedback::CorpusEntry e;
        e.instance = i / 3;
        e.trial = (i % 3) * 7;
        e.cov_hex = feedback::cov_words_to_hex({0x10ull << i, 0x3});
        common::Json inputs = common::Json::object();
        common::Json symbols = common::Json::object();
        symbols["N"] = 4 + i;
        inputs["symbols"] = std::move(symbols);
        inputs["buffers"] = common::Json::object();
        e.inputs = std::move(inputs);
        entries.push_back(std::move(e));
    }
    return entries;
}

TEST(FeedbackCorpus, MergeIsCanonicalAndIdempotent) {
    const std::vector<feedback::CorpusEntry> entries = sample_entries();
    // Shuffled + duplicated input collapses to the canonical order.
    std::vector<feedback::CorpusEntry> noisy;
    for (int rep = 0; rep < 2; ++rep)
        for (std::size_t i = entries.size(); i-- > 0;) noisy.push_back(entries[i]);
    const auto merged = feedback::merge_corpus_entries(noisy);
    ASSERT_EQ(merged.size(), entries.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].instance, entries[i].instance);
        EXPECT_EQ(merged[i].trial, entries[i].trial);
        EXPECT_EQ(merged[i].cov_hex, entries[i].cov_hex);
    }
    const auto again = feedback::merge_corpus_entries(merged);
    ASSERT_EQ(again.size(), merged.size());

    // The rolling digest is order-sensitive (it parameterizes generation
    // scheduling) but deterministic.
    std::uint32_t d1 = 0, d2 = 0;
    for (const auto& e : merged) d1 = feedback::corpus_digest_fold(d1, e);
    for (const auto& e : merged) d2 = feedback::corpus_digest_fold(d2, e);
    EXPECT_EQ(d1, d2);
    EXPECT_NE(d1, 0u);
}

TEST(FeedbackCorpus, FileRoundTripAndCorruptionRejected) {
    const std::string dir = scratch_dir("corpus_file");
    const std::string path = dir + "/corpus.jsonl";
    common::Json job = common::Json::object();
    job["workload"] = std::string("gemm");
    const std::vector<feedback::CorpusEntry> entries = sample_entries();
    feedback::write_corpus_file(path, job, entries);

    const feedback::CorpusFile file = feedback::read_corpus_file(path);
    ASSERT_EQ(file.entries.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(file.entries[i].trial, entries[i].trial);
        EXPECT_EQ(file.entries[i].cov_hex, entries[i].cov_hex);
        EXPECT_EQ(file.entries[i].inputs.dump(), entries[i].inputs.dump());
    }

    // Writing the parsed entries again reproduces the exact bytes.
    const std::string bytes = read_file(path);
    feedback::write_corpus_file(path + ".again", job, file.entries);
    EXPECT_EQ(read_file(path + ".again"), bytes);

    // A single flipped byte anywhere in an entry line is rejected.
    std::string corrupt = bytes;
    const std::size_t pos = corrupt.find("\"cov\"");
    ASSERT_NE(pos, std::string::npos);
    corrupt[pos + 1] ^= 0x01;
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << corrupt;
    }
    EXPECT_THROW(feedback::read_corpus_file(path), common::Error);

    // Truncation (lost trailer) is rejected too.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() - 2);
    }
    EXPECT_THROW(feedback::read_corpus_file(path), common::Error);
}

/// A committed corpus file: gemm, tiling, 8 trials, size-max 5, 2000
/// transitions, feedback at generation size 4.  Regenerate only for a
/// deliberate format change, with `ffaudit run` of that job (`--feedback
/// --generation-size 4 --corpus-out corpus.jsonl`).
const std::string kGoldenCorpus = std::string(FF_GOLDEN_DIR) + "/corpus-gemm-tiling.jsonl";

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(FeedbackCorpus, GoldenFileReadAndReproducedByteForByte) {
    const std::string golden = read_file(kGoldenCorpus);
    const feedback::CorpusFile file = feedback::read_corpus_file(kGoldenCorpus);
    ASSERT_GT(file.entries.size(), 1u);

    // The header names the job: deriving its corpus again writes the file
    // again, published whole (no .tmp left behind).
    const shard::JobSpec job = shard::JobSpec::from_json(file.job);
    core::Fuzzer fuzzer(shard::job_fuzz_config(job));
    core::PreparedAudit audit =
        fuzzer.prepare(shard::load_job_program(job), shard::job_passes(job));
    audit.run_range(0, audit.unit_count());
    audit.finalize();
    const std::string path = scratch_dir("golden") + "/corpus.jsonl";
    feedback::write_corpus_file(path, job.to_json(), audit.corpus());
    EXPECT_EQ(read_file(path), golden);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(FeedbackCorpus, NonCanonicalBytesRejectedAtTheirLine) {
    // Each edit keeps every line valid JSON with unchanged content, so only
    // a reader that checks the bytes on disk (not a re-serialization) sees
    // it — and it must name the edited line.
    const std::string golden = read_file(kGoldenCorpus);
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < golden.size();) {
        const std::size_t nl = golden.find('\n', pos);
        lines.push_back(golden.substr(pos, nl - pos));
        pos = nl + 1;
    }
    const int trailer_line = static_cast<int>(lines.size());
    const auto join = [](const std::vector<std::string>& ls) {
        std::string out;
        for (const std::string& l : ls) out += l + "\n";
        return out;
    };
    const std::string path = scratch_dir("noncanonical") + "/corpus.jsonl";
    // Returns the rejection's detail ("" when the bytes were accepted).
    const auto expect_rejected_at = [&](const std::string& bytes, int line, const char* edit) {
        write_file(path, bytes);
        try {
            feedback::read_corpus_file(path);
        } catch (const common::IntegrityError& e) {
            EXPECT_EQ(e.line(), line) << edit << ": " << e.what();
            return e.detail();
        }
        ADD_FAILURE() << edit << ": accepted";
        return std::string();
    };

    std::vector<std::string> edited = lines;  // (a) a space in the trailer
    edited.back().insert(1, " ");
    expect_rejected_at(join(edited), trailer_line, "space inserted into the trailer");

    edited = lines;  // (b) the trailer's crc field moved to the front
    const std::string& trailer = lines.back();
    const std::size_t crc_at = trailer.rfind(",\"crc\":");
    edited.back() =
        "{" + trailer.substr(crc_at + 1, 16) + "," + trailer.substr(1, crc_at - 1) + "}";
    expect_rejected_at(join(edited), trailer_line, "trailer crc moved to the front");

    // (c) the final newline removed
    expect_rejected_at(golden.substr(0, golden.size() - 1), trailer_line, "final newline removed");

    edited = lines;  // (d) a space in entry line 2
    edited[1].insert(1, " ");
    EXPECT_NE(expect_rejected_at(join(edited), 2, "space inserted into entry line 2")
                  .find("line checksum mismatch"),
              std::string::npos);
}

// --- Report plumbing ----------------------------------------------------------

core::FuzzConfig tiling_config(int trials, bool feedback, bool coverage = false) {
    core::FuzzConfig config;
    config.max_trials = trials;
    config.sampler.size_max = 5;
    config.cutout.defaults = workloads::npbench_defaults();
    config.diff.exec.max_state_transitions = 2000;
    config.feedback = feedback;
    config.coverage = coverage;
    config.generation_size = 4;
    return config;
}

std::vector<xform::TransformationPtr> tiling_passes() {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "tiling";
    return shard::job_passes(job);
}

TEST(FeedbackReport, CoverageCountersFlowIntoReportsAndSummary) {
    const ir::SDFG gemm = workloads::build_npbench_kernel("gemm");

    core::Fuzzer off(tiling_config(6, /*feedback=*/false));
    const auto plain = off.audit(gemm, tiling_passes());
    ASSERT_FALSE(plain.empty());
    for (const auto& r : plain) {
        EXPECT_EQ(r.pairs_total, 0);
        EXPECT_EQ(r.pairs_hit, 0);
        EXPECT_EQ(r.corpus_size, 0);
        // Feedback-off reports keep their historical wire bytes: no
        // coverage keys at all.
        EXPECT_FALSE(core::fuzz_report_to_json(r).contains("pairs_total"));
    }

    // Coverage-only: counters but no corpus.
    core::Fuzzer cov(tiling_config(6, /*feedback=*/false, /*coverage=*/true));
    const auto instrumented = cov.audit(gemm, tiling_passes());
    std::int64_t hit = 0;
    for (const auto& r : instrumented) {
        EXPECT_GT(r.pairs_total, 0);
        EXPECT_LE(r.pairs_hit, r.pairs_total);
        EXPECT_EQ(r.corpus_size, 0);
        hit += r.pairs_hit;
        EXPECT_TRUE(core::fuzz_report_to_json(r).contains("pairs_total"));
    }
    EXPECT_GT(hit, 0);

    // Feedback: corpus entries appear, and the audit table shows the
    // coverage columns.
    core::Fuzzer fb(tiling_config(6, /*feedback=*/true));
    const auto guided = fb.audit(gemm, tiling_passes());
    std::int64_t corpus = 0;
    for (const auto& r : guided) corpus += r.corpus_size;
    EXPECT_GT(corpus, 0);
    const std::string table = core::audit_table(core::summarize_audit(guided));
    EXPECT_NE(table.find("Pairs hit"), std::string::npos);
    EXPECT_NE(table.find("Corpus"), std::string::npos);
    EXPECT_NE(table.find("/"), std::string::npos) << "hit/total cell";
}

// --- Determinism: tiers, threads, shards --------------------------------------

/// Canonical (report document, corpus dump) of one in-process feedback
/// audit under the given execution tier and worker count.
std::pair<std::string, std::string> guided_fingerprint(bool compiled, bool specialize,
                                                       bool batch, int threads) {
    core::FuzzConfig config = tiling_config(8, /*feedback=*/true);
    config.num_threads = threads;
    config.diff.exec.use_compiled_tasklets = compiled;
    config.diff.exec.specialize = specialize;
    config.diff.exec.batch_segments = batch;
    core::Fuzzer fuzzer(config);
    const ir::SDFG gemm = workloads::build_npbench_kernel("gemm");
    core::PreparedAudit audit = fuzzer.prepare(gemm, tiling_passes());
    audit.run_range(0, audit.unit_count());
    std::vector<core::FuzzReport> reports = audit.finalize();
    std::string corpus;
    for (const auto& e : audit.corpus())
        corpus += feedback::corpus_entry_to_json(e).dump() + "\n";
    return {shard::canonical_report_document(std::move(reports)).dump(2), corpus};
}

TEST(FeedbackDeterminism, ReportsAndCorporaInvariantAcrossTiersAndThreads) {
    // Reference AST engine, single worker.
    const auto reference = guided_fingerprint(false, false, false, 1);
    EXPECT_NE(reference.second, "") << "corpus empty — job too tame for this test";
    // Generic compiled, per-point specialized, and batched tiers; worker
    // counts 1 and 8 (the acceptance bar's thread set).
    const std::tuple<bool, bool, bool> tiers[] = {
        {true, false, false}, {true, true, false}, {true, true, true}};
    for (const auto& [compiled, specialize, batch] : tiers) {
        for (int threads : {1, 8}) {
            const auto got = guided_fingerprint(compiled, specialize, batch, threads);
            EXPECT_EQ(got.first, reference.first)
                << "compiled=" << compiled << " specialize=" << specialize
                << " batch=" << batch << " threads=" << threads;
            EXPECT_EQ(got.second, reference.second)
                << "compiled=" << compiled << " specialize=" << specialize
                << " batch=" << batch << " threads=" << threads;
        }
    }
}

shard::JobSpec feedback_job(int trials = 8) {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "tiling";
    job.max_trials = trials;
    job.size_max = 5;
    job.max_state_transitions = 2000;
    job.feedback = job.coverage = true;
    job.generation_size = 4;
    job.defaults = workloads::npbench_defaults();
    return job;
}

TEST(FeedbackDeterminism, ShardMergedCorpusMatchesSingleProcessByteForByte) {
    const shard::JobSpec job = feedback_job();
    const std::string root = scratch_dir("shards");

    // Single-process reference: report document + corpus file bytes.
    core::FuzzConfig config = shard::job_fuzz_config(job);
    core::Fuzzer fuzzer(config);
    core::PreparedAudit reference = fuzzer.prepare(shard::load_job_program(job),
                                                   shard::job_passes(job));
    reference.run_range(0, reference.unit_count());
    const std::string ref_doc =
        shard::canonical_report_document(reference.finalize()).dump(2);
    const std::string ref_corpus_path = root + "/corpus-ref.jsonl";
    feedback::write_corpus_file(ref_corpus_path, job.to_json(), reference.corpus());
    const std::string ref_corpus = read_file(ref_corpus_path);
    EXPECT_NE(ref_corpus.find("\"cov\""), std::string::npos) << "corpus has entries";

    const ir::SDFG program = shard::load_job_program(job);
    for (int count : {1, 2, 4, 8}) {
        const std::string dir = root + "/n" + std::to_string(count);
        fs::create_directories(dir);
        const auto manifests = shard::plan_shards(job, program, count, /*checkpoint=*/3);
        std::vector<std::string> paths;
        for (const auto& m : manifests) {
            const std::string path = dir + "/records-" + std::to_string(m.shard_index) + ".jsonl";
            shard::RunShardOptions options;
            options.num_threads = 1 + m.shard_index % 2;
            if (count == 4 && m.shard_index == 2 && m.unit_end - m.unit_begin > 2) {
                // Interrupt one shard mid-run and resume it.
                shard::RunShardOptions interrupting = options;
                interrupting.interrupt_after_units = (m.unit_end - m.unit_begin) / 2;
                EXPECT_FALSE(shard::run_shard(m, path, interrupting).completed);
                EXPECT_TRUE(shard::run_shard(m, path, options).completed);
            } else {
                EXPECT_TRUE(shard::run_shard(m, path, options).completed);
            }
            paths.push_back(path);
        }
        shard::MergeResult merged = shard::merge_shards(paths);
        EXPECT_EQ(shard::canonical_report_document(std::move(merged.reports)).dump(2), ref_doc)
            << count << " shard(s)";
        const std::string corpus_path = dir + "/corpus.jsonl";
        feedback::write_corpus_file(corpus_path, merged.job.to_json(), merged.corpus);
        EXPECT_EQ(read_file(corpus_path), ref_corpus) << count << " shard(s)";
    }
}

TEST(FeedbackDeterminism, InvalidInstanceDerivesNoCorpusWhereverARangeSplits) {
    // fdtd_2d's Vectorization instance (instance 3 of the correct pass set)
    // fails validation, so none of its trials runs the original side.  It
    // derives no corpus: with one, its corpus depended on where a range
    // boundary fell inside it — unit 301 is its trial 1 — because trials a
    // range ran donated "no coverage" while trials it did not run were
    // re-derived with real coverage.
    shard::JobSpec job;
    job.workload = "fdtd_2d";
    job.passes = "correct";
    job.seed = 11000;
    job.feedback = job.coverage = true;
    job.defaults = workloads::npbench_defaults();
    const std::string root = scratch_dir("split301");
    const ir::SDFG program = shard::load_job_program(job);

    auto in_process = [&](int threads) {
        core::FuzzConfig config = shard::job_fuzz_config(job);
        config.num_threads = threads;
        core::Fuzzer fuzzer(config);
        core::PreparedAudit audit = fuzzer.prepare(program, shard::job_passes(job));
        audit.run_range(0, audit.unit_count());
        const std::vector<core::FuzzReport> reports = audit.finalize();
        EXPECT_EQ(reports.at(3).transformation, "Vectorization");
        EXPECT_EQ(reports.at(3).verdict, core::Verdict::InvalidCode);
        EXPECT_EQ(reports.at(3).corpus_size, 0);
        const std::string path = root + "/corpus-t" + std::to_string(threads) + ".jsonl";
        feedback::write_corpus_file(path, job.to_json(), audit.corpus());
        return read_file(path);
    };
    const std::string reference = in_process(1);
    EXPECT_NE(reference.find("\"cov\""), std::string::npos) << "corpus has entries";
    EXPECT_EQ(in_process(4), reference) << "4 threads";

    std::vector<shard::ShardManifest> manifests = shard::plan_shards(job, program, 2, 64);
    ASSERT_EQ(manifests.size(), 2u);
    manifests[0].unit_end = manifests[1].unit_begin = 301;
    std::vector<std::string> paths;
    for (const shard::ShardManifest& m : manifests) {
        paths.push_back(root + "/records-" + std::to_string(m.shard_index) + ".jsonl");
        EXPECT_TRUE(shard::run_shard(m, paths.back(), {}).completed);
    }
    const shard::MergeResult merged = shard::merge_shards(paths);
    const std::string split_path = root + "/corpus-split.jsonl";
    feedback::write_corpus_file(split_path, merged.job.to_json(), merged.corpus);
    EXPECT_EQ(read_file(split_path), reference) << "ranges split at unit 301";
}

TEST(FeedbackDeterminism, JobSpecKeyAndManifestCoverFeedbackKnobs) {
    shard::JobSpec plain;
    plain.workload = "gemm";
    shard::JobSpec guided = plain;
    guided.feedback = guided.coverage = true;
    guided.generation_size = 10;
    EXPECT_NE(plain.key(), guided.key()) << "feedback changes trial inputs, so it is job identity";
    // Feedback-off specs keep their historical wire bytes.
    EXPECT_FALSE(plain.to_json().contains("feedback"));
    EXPECT_FALSE(plain.to_json().contains("coverage"));

    const shard::JobSpec back = shard::JobSpec::from_json(guided.to_json());
    EXPECT_TRUE(back.feedback);
    EXPECT_TRUE(back.coverage);
    EXPECT_EQ(back.generation_size, 10);
    EXPECT_EQ(back.key(), guided.key());
}

// --- Guidance actually guides -------------------------------------------------

TEST(FeedbackGuidance, GuidedCoverageDominatesUnguidedAtEqualBudget) {
    // A budget/size-space combination the uniform sampler cannot saturate:
    // boundary region classes (empty / one-point / large extents) are rare
    // under uniform size draws but targeted by the mutator.  Everything is
    // deterministic, so this is a fixed inequality, not a flaky stochastic
    // bound.
    const ir::SDFG gemm = workloads::build_npbench_kernel("gemm");
    auto run = [&](bool feedback) {
        core::FuzzConfig config = tiling_config(30, feedback, /*coverage=*/true);
        config.sampler.size_max = 96;
        config.generation_size = 10;
        core::Fuzzer fuzzer(config);
        std::int64_t hit = 0;
        for (const auto& r : fuzzer.audit(gemm, tiling_passes())) hit += r.pairs_hit;
        return hit;
    };
    const std::int64_t unguided = run(false);
    const std::int64_t guided = run(true);
    EXPECT_GT(unguided, 0);
    EXPECT_GT(guided, unguided) << "guided run must reach strictly more def-use pairs";
}

}  // namespace
}  // namespace ff
