// Sharded audits (src/shard): wire-format losslessness, the deterministic
// planner, checkpoint/resume semantics, committed golden stream bytes and
// their invariance across thread counts, merge validation, and the
// end-to-end acceptance bar — for a fixed (workload, seed, trial budget),
// merging shard record files at ANY shard count (including a shard that
// was interrupted mid-chunk and resumed) reconstructs a report document and
// reproducer artifacts byte-identical to the single-process Fuzzer::audit
// (docs/ARCHITECTURE.md "Sharded execution").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/report.h"
#include "core/testcase_io.h"
#include "helpers.h"
#include "ir/serialize.h"
#include "shard/manifest.h"
#include "shard/merger.h"
#include "shard/records.h"
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

/// filename -> bytes of every regular file in `dir`.
std::map<std::string, std::string> dir_contents(const std::string& dir) {
    std::map<std::string, std::string> out;
    if (!fs::exists(dir)) return out;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file())
            out[entry.path().filename().string()] = read_file(entry.path().string());
    return out;
}

// --- Wire-format round trips --------------------------------------------------

interp::Context random_context(common::Rng& rng) {
    interp::Context ctx;
    const int nsym = static_cast<int>(rng() % 4);
    for (int s = 0; s < nsym; ++s)
        ctx.symbols["sym" + std::to_string(s)] = static_cast<std::int64_t>(rng()) % 1000;
    const int nbuf = static_cast<int>(rng() % 3) + 1;
    for (int b = 0; b < nbuf; ++b) {
        const ir::DType dtype =
            std::vector<ir::DType>{ir::DType::F64, ir::DType::F32, ir::DType::I64,
                                   ir::DType::I32}[rng() % 4];
        const std::int64_t rank = 1 + static_cast<std::int64_t>(rng() % 2);
        std::vector<std::int64_t> shape;
        for (std::int64_t r = 0; r < rank; ++r)
            shape.push_back(1 + static_cast<std::int64_t>(rng() % 4));
        interp::Buffer buf(dtype, std::move(shape));
        for (std::int64_t i = 0; i < buf.size(); ++i) {
            if (ir::dtype_is_float(dtype)) {
                // Exercise values that break naive float printing: huge,
                // tiny, negative zero, long mantissas.
                const double picks[] = {1.0 / 3.0, -0.0, 1e300, 5e-324, -123456.789012345,
                                        static_cast<double>(rng()) / 7.0};
                buf.store(i, interp::Value::from_double(picks[rng() % 6]));
            } else {
                buf.store(i, interp::Value::from_int(static_cast<std::int64_t>(rng())));
            }
        }
        ctx.buffers.emplace("buf" + std::to_string(b), std::move(buf));
    }
    return ctx;
}

core::TrialRecord random_record(common::Rng& rng) {
    core::TrialRecord rec;
    switch (rng() % 4) {
        case 0: rec.kind = core::TrialRecord::Kind::NotRun; break;
        case 1: rec.kind = core::TrialRecord::Kind::Uninteresting; break;
        case 2: rec.kind = core::TrialRecord::Kind::Pass; break;
        default: {
            rec.kind = core::TrialRecord::Kind::Failed;
            const core::Verdict verdicts[] = {core::Verdict::SemanticsChanged,
                                              core::Verdict::TransformedCrash,
                                              core::Verdict::TransformedHang,
                                              core::Verdict::InvalidCode};
            rec.verdict = verdicts[rng() % 4];
            rec.detail = "mismatch at [\"x\"][3]: 1.0000000000000002 != 1\nline2 \\ \"quoted\"";
            rec.inputs = std::make_unique<interp::Context>(random_context(rng));
            break;
        }
    }
    return rec;
}

TEST(ShardWire, TrialRecordJsonRoundTripProperty) {
    common::Rng rng(0xC0FFEE);
    for (int iter = 0; iter < 200; ++iter) {
        const core::TrialRecord rec = random_record(rng);
        const common::Json j = core::trial_record_to_json(rec);
        const core::TrialRecord back = core::trial_record_from_json(j);
        // Lossless: re-serializing the deserialized record reproduces the
        // exact wire bytes (the property the byte-identical merge rides on).
        EXPECT_EQ(core::trial_record_to_json(back).dump(), j.dump()) << "iteration " << iter;
        EXPECT_EQ(back.kind, rec.kind);
        if (rec.kind == core::TrialRecord::Kind::Failed) {
            EXPECT_EQ(back.verdict, rec.verdict);
            EXPECT_EQ(back.detail, rec.detail);
            ASSERT_NE(back.inputs, nullptr);
            EXPECT_EQ(core::context_to_json(*back.inputs).dump(),
                      core::context_to_json(*rec.inputs).dump());
        }
    }
}

TEST(ShardWire, FuzzReportJsonRoundTrip) {
    core::FuzzReport r;
    r.transformation = "MapTiling";
    r.match_description = "map 3 in state main";
    r.verdict = core::Verdict::TransformedHang;
    r.trials = 17;
    r.uninteresting = 4;
    r.threads = 8;
    r.seconds = 1.25;
    r.trials_per_second = 13.6;
    r.detail = "transition budget exceeded";
    r.artifact_path = "/tmp/artifacts/testcase_0123456789abcdef.json";
    r.artifact_error = "cannot open /ro/x.json: Permission denied";
    r.cutout_nodes = 12;
    r.program_nodes = 345;
    r.input_volume = 64;
    r.input_volume_before_mincut = 128;
    r.mincut_improved = true;
    r.whole_program_cutout = false;

    const core::FuzzReport back = core::fuzz_report_from_json(core::fuzz_report_to_json(r));
    EXPECT_EQ(core::fuzz_report_to_json(back).dump(), core::fuzz_report_to_json(r).dump());
    EXPECT_EQ(back.verdict, r.verdict);
    EXPECT_EQ(back.trials, r.trials);
    EXPECT_EQ(back.artifact_error, r.artifact_error);
    EXPECT_DOUBLE_EQ(back.seconds, r.seconds);
}

TEST(ShardWire, FailedRecordWithoutInputsIsRejected) {
    // A failing record's inputs feed the merge-time artifact save; wire
    // data without them is malformed and must fail deserialization instead
    // of crashing the merger later.
    const common::Json j = common::Json::parse(
        R"({"kind":"failed","verdict":"semantics-changed","detail":"d"})");
    EXPECT_THROW(core::trial_record_from_json(j), common::Error);
}

TEST(ShardWire, VerdictNamesRoundTrip) {
    for (core::Verdict v :
         {core::Verdict::Pass, core::Verdict::SemanticsChanged, core::Verdict::TransformedCrash,
          core::Verdict::TransformedHang, core::Verdict::InvalidCode,
          core::Verdict::Uninteresting})
        EXPECT_EQ(core::verdict_from_name(core::verdict_name(v)), v);
    EXPECT_THROW(core::verdict_from_name("bogus"), common::Error);
}

// --- Planner ------------------------------------------------------------------

shard::JobSpec gemm_job(int trials = 8) {
    shard::JobSpec job;
    job.workload = "gemm";
    job.passes = "table2";
    job.max_trials = trials;
    job.size_max = 5;
    job.max_state_transitions = 2000;
    job.defaults = workloads::npbench_defaults();
    return job;
}

TEST(ShardPlanner, TilesBalancesAndIsDeterministic) {
    const shard::JobSpec job = gemm_job(10);
    const ir::SDFG program = shard::load_job_program(job);
    for (int count : {1, 2, 3, 4, 7, 9, 16}) {
        const auto shards = shard::plan_shards(job, program, count, /*checkpoint_interval=*/5);
        ASSERT_EQ(shards.size(), static_cast<std::size_t>(count));
        EXPECT_EQ(shards.front().unit_begin, 0);
        const std::int64_t units = shards.front().instance_count * 10;
        EXPECT_GT(units, 0);
        std::int64_t next = 0;
        std::int64_t smallest = units, largest = 0;
        for (int i = 0; i < count; ++i) {
            EXPECT_EQ(shards[i].shard_index, i);
            EXPECT_EQ(shards[i].shard_count, count);
            EXPECT_EQ(shards[i].unit_begin, next) << "contiguous partition";
            next = shards[i].unit_end;
            const std::int64_t size = shards[i].unit_end - shards[i].unit_begin;
            smallest = std::min(smallest, size);
            largest = std::max(largest, size);
        }
        EXPECT_EQ(next, units) << "exact coverage";
        EXPECT_LE(largest - smallest, 1) << "balanced to within one unit";

        const auto again = shard::plan_shards(job, program, count, 5);
        for (int i = 0; i < count; ++i)
            EXPECT_EQ(again[i].to_json().dump(), shards[i].to_json().dump()) << "deterministic";
    }
    EXPECT_THROW(shard::plan_shards(job, program, 0, 5), common::Error);
}

TEST(ShardPlanner, ManifestJsonRoundTrip) {
    const shard::JobSpec job = gemm_job();
    const ir::SDFG program = shard::load_job_program(job);
    for (const auto& m : shard::plan_shards(job, program, 3, 7)) {
        const shard::ShardManifest back = shard::ShardManifest::from_json(m.to_json());
        EXPECT_EQ(back.to_json().dump(), m.to_json().dump());
    }
}

// --- Record streams: checkpoints, torn tails, resume --------------------------

shard::ShardManifest tiny_manifest(std::int64_t begin, std::int64_t end) {
    shard::ShardManifest m;
    m.job = gemm_job();
    m.unit_begin = begin;
    m.unit_end = end;
    m.instance_count = 9;  // gemm/table2; only range checks read this here
    m.checkpoint_interval = 4;
    return m;
}

TEST(ShardRecords, WriterReaderRoundTripWithTornTail) {
    const std::string dir = scratch_dir("records_torn");
    const std::string path = dir + "/records-0.jsonl";
    const shard::ShardManifest manifest = tiny_manifest(10, 30);
    common::Rng rng(7);

    auto writer = shard::RecordWriter::create(path, manifest);
    std::vector<std::string> wire;
    for (std::int64_t u = 10; u < 18; ++u) {
        core::TrialRecord rec = random_record(rng);
        wire.push_back(core::trial_record_to_json(rec).dump());
        writer.write_record(u, rec);
    }
    writer.checkpoint(18);
    // An interrupted chunk: two records and a torn final line, no checkpoint.
    writer.write_record(18, core::TrialRecord{});
    writer.write_record(19, core::TrialRecord{});
    writer.append_raw("{\"type\":\"record\",\"unit\":2");

    const shard::ShardRecordFile file = shard::read_record_file(path);
    EXPECT_EQ(file.manifest.to_json().dump(), manifest.to_json().dump());
    EXPECT_EQ(file.checkpoint, 18);
    EXPECT_FALSE(file.complete());
    ASSERT_EQ(file.records.size(), 8u) << "post-checkpoint records dropped";
    for (std::size_t i = 0; i < file.records.size(); ++i) {
        EXPECT_EQ(file.records[i].first, 10 + static_cast<std::int64_t>(i));
        EXPECT_EQ(core::trial_record_to_json(file.records[i].second).dump(), wire[i]);
    }

    // Resume truncates the interrupted chunk and completes the range; the
    // final checkpoint seals the stream with its trailer.
    auto resumed = shard::RecordWriter::resume(path, file.resume_offset, manifest.unit_end,
                                               file.checkpoint - manifest.unit_begin);
    for (std::int64_t u = 18; u < 30; ++u) resumed.write_record(u, core::TrialRecord{});
    resumed.checkpoint(30);
    const shard::ShardRecordFile done = shard::read_record_file(path);
    EXPECT_TRUE(done.has_trailer);
    EXPECT_TRUE(done.complete());
    EXPECT_EQ(done.records.size(), 20u);
}

TEST(ShardRecords, FirstCheckpointPublishesAtomically) {
    const std::string dir = scratch_dir("records_publish");
    const std::string path = dir + "/records-0.jsonl";
    auto writer = shard::RecordWriter::create(path, tiny_manifest(0, 8));
    writer.write_record(0, core::TrialRecord{});
    writer.write_record(1, core::TrialRecord{});
    // Until the first checkpoint the stream lives at `<path>.tmp`: a reader
    // can never observe a record file without a durable checkpoint.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".tmp"));

    writer.checkpoint(2);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(shard::read_record_file(path).checkpoint, 2);

    // Later checkpoints append in place; no .tmp reappears.
    writer.write_record(2, core::TrialRecord{});
    writer.checkpoint(3);
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    EXPECT_EQ(shard::read_record_file(path).checkpoint, 3);
}

/// Runs `fn`, requires it to throw FileParseError, and requires every
/// string in `needles` to appear in the message — the "which file, which
/// line, what was expected" contract of the parse diagnostics.
template <typename Fn>
void expect_file_parse_error(Fn fn, const std::vector<std::string>& needles) {
    try {
        fn();
        FAIL() << "expected a FileParseError";
    } catch (const common::FileParseError& e) {
        const std::string msg = e.what();
        for (const std::string& needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "message '" << msg << "' lacks '" << needle << "'";
    }
}

/// Like expect_file_parse_error, for common::IntegrityError — the
/// checksum/digest/trailer violations that must NOT read as mere parse
/// noise (they map to a distinct exit code in ffaudit).
template <typename Fn>
void expect_integrity_error(Fn fn, const std::vector<std::string>& needles) {
    try {
        fn();
        FAIL() << "expected an IntegrityError";
    } catch (const common::IntegrityError& e) {
        const std::string msg = e.what();
        for (const std::string& needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "message '" << msg << "' lacks '" << needle << "'";
    }
}

/// Splices a valid per-line CRC32C into a hand-crafted compact JSON line
/// (must end with '}'), matching the writer's wire format.  Lets the
/// corruption tests get PAST the checksum gate to exercise the semantic
/// validation behind it (unit order, checkpoint coverage).
std::string checksummed(std::string line) {
    const std::uint32_t crc = common::crc32c(line);
    line.insert(line.size() - 1, ",\"crc\":\"" + common::crc32c_hex(crc) + "\"");
    return line + "\n";
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return bytes;
}

void spew(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(ShardRecords, ReaderRejectsCorruptStreamsNamingFileAndLine) {
    const std::string dir = scratch_dir("records_corrupt");
    const shard::ShardManifest manifest = tiny_manifest(0, 8);

    {  // no header
        const std::string path = dir + "/no_header.jsonl";
        std::ofstream(path) << "{\"type\":\"record\",\"unit\":0,\"rec\":{\"kind\":\"pass\"}}\n";
        expect_file_parse_error([&] { shard::read_record_file(path); },
                                {path, "line 1", "header"});
    }
    {  // out-of-order record appended to a published stream
        const std::string path = dir + "/out_of_order.jsonl";
        auto writer = shard::RecordWriter::create(path, manifest);
        writer.write_record(0, core::TrialRecord{});
        writer.write_record(1, core::TrialRecord{});
        writer.checkpoint(2);
        writer.append_raw(checksummed("{\"rec\":{\"kind\":\"pass\"},\"type\":\"record\",\"unit\":5}"));
        // Lines: header, two records, checkpoint, then the corrupt one.
        expect_file_parse_error([&] { shard::read_record_file(path); },
                                {path, "line 5", "unit 5", "unit 2 was expected"});
    }
    {  // checkpoint claiming units its records do not cover
        const std::string path = dir + "/bad_checkpoint.jsonl";
        auto writer = shard::RecordWriter::create(path, manifest);
        writer.write_record(0, core::TrialRecord{});
        writer.checkpoint(1);
        writer.append_raw(checksummed("{\"completed\":5,\"type\":\"checkpoint\"}"));
        expect_file_parse_error([&] { shard::read_record_file(path); },
                                {path, "line 4", "claims 5 units", "records cover 1"});
    }
    {  // malformed JSON mid-file (only a torn *final* line is forgiven)
        const std::string path = dir + "/mid_file_garbage.jsonl";
        auto writer = shard::RecordWriter::create(path, manifest);
        writer.write_record(0, core::TrialRecord{});
        writer.checkpoint(1);
        // Checksum-valid bytes whose JSON is torn: parse diagnostics still
        // fire behind the integrity gate.
        writer.append_raw(checksummed("{\"type\":\"rec}") +
                          checksummed("{\"completed\":1,\"type\":\"checkpoint\"}"));
        expect_file_parse_error([&] { shard::read_record_file(path); },
                                {path, "line 4", "column"});
    }
    EXPECT_THROW(shard::read_record_file(dir + "/missing.jsonl"), common::Error);
}

TEST(ShardRecords, IntegrityViolationsThrowNamingFileAndLine) {
    const std::string dir = scratch_dir("records_integrity");

    {  // a flipped bit anywhere in a line fails its checksum
        const std::string path = dir + "/bit_flip.jsonl";
        auto writer = shard::RecordWriter::create(path, tiny_manifest(0, 2));
        writer.write_record(0, core::TrialRecord{});
        writer.write_record(1, core::TrialRecord{});
        writer.checkpoint(2);  // final checkpoint: seals with the trailer
        std::string text = slurp(path);
        const std::size_t at = text.find("\"unit\":1");
        ASSERT_NE(at, std::string::npos);
        text[at + 7] = '2';  // record line keeps valid JSON, wrong bytes
        spew(path, text);
        expect_integrity_error([&] { shard::read_record_file(path); },
                               {path, "line 3", "checksum mismatch"});
    }
    {  // a line stripped of its checksum field is equally loud
        const std::string path = dir + "/missing_crc.jsonl";
        auto writer = shard::RecordWriter::create(path, tiny_manifest(0, 2));
        writer.write_record(0, core::TrialRecord{});
        writer.checkpoint(1);
        writer.append_raw("{\"rec\":{\"kind\":\"pass\"},\"type\":\"record\",\"unit\":1}\n");
        expect_integrity_error([&] { shard::read_record_file(path); },
                               {path, "line 4", "missing its checksum"});
    }
    {  // a dropped WHOLE line (checksum-valid stream) fails the trailer digest
        const std::string path = dir + "/dropped_line.jsonl";
        auto writer = shard::RecordWriter::create(path, tiny_manifest(0, 4));
        writer.write_record(0, core::TrialRecord{});
        writer.write_record(1, core::TrialRecord{});
        writer.checkpoint(2);
        writer.write_record(2, core::TrialRecord{});
        writer.write_record(3, core::TrialRecord{});
        writer.checkpoint(4);
        std::string text = slurp(path);
        const std::size_t at = text.find("{\"completed\":2");  // mid-stream checkpoint
        ASSERT_NE(at, std::string::npos);
        text.erase(at, text.find('\n', at) - at + 1);  // semantically invisible drop
        spew(path, text);
        expect_integrity_error([&] { shard::read_record_file(path); },
                               {path, "line 7", "digest mismatch"});
    }
    {  // bytes appended after the sealing trailer
        const std::string path = dir + "/after_trailer.jsonl";
        auto writer = shard::RecordWriter::create(path, tiny_manifest(0, 1));
        writer.write_record(0, core::TrialRecord{});
        writer.checkpoint(1);
        writer.append_raw(checksummed("{\"completed\":1,\"type\":\"checkpoint\"}"));
        expect_integrity_error([&] { shard::read_record_file(path); },
                               {path, "line 5", "after the stream trailer"});
    }
}

TEST(ShardRecords, ScanClassifiesAndRepairRestoresResumableStream) {
    const std::string dir = scratch_dir("records_fsck");
    const shard::ShardManifest manifest = tiny_manifest(0, 8);
    const std::string path = dir + "/records-0.jsonl";
    {
        auto writer = shard::RecordWriter::create(path, manifest);
        writer.write_record(0, core::TrialRecord{});
        writer.write_record(1, core::TrialRecord{});
        writer.checkpoint(2);
        writer.write_record(2, core::TrialRecord{});
        writer.write_record(3, core::TrialRecord{});
        writer.checkpoint(4);
    }
    const std::string pristine = slurp(path);

    {  // healthy, mid-run: clean, not complete, nothing to repair
        const shard::RecordScan scan = shard::scan_record_file(path);
        EXPECT_TRUE(scan.clean());
        EXPECT_FALSE(scan.file.complete());
        EXPECT_EQ(scan.file.checkpoint, 4);
    }
    {  // torn tail: classified, tolerated by the reader, trimmed by repair
        spew(path, pristine + "{\"rec\":{\"kind\":\"pa");
        const shard::RecordScan scan = shard::scan_record_file(path);
        EXPECT_FALSE(scan.clean());
        EXPECT_TRUE(scan.torn_tail);
        EXPECT_EQ(scan.torn_line, 8);
        EXPECT_EQ(scan.error_kind, shard::ScanErrorKind::None);
        EXPECT_EQ(shard::read_record_file(path).checkpoint, 4) << "reader tolerates the tear";
        shard::repair_record_file(path, scan);
        EXPECT_EQ(slurp(path), pristine) << "repair trimmed exactly the tear";
        EXPECT_TRUE(shard::scan_record_file(path).clean());
    }
    {  // bit flip in the second chunk: repair truncates back to checkpoint 2
        std::string text = pristine;
        const std::size_t at = text.find("\"unit\":3");
        ASSERT_NE(at, std::string::npos);
        text[at + 7] = '7';
        spew(path, text);
        const shard::RecordScan scan = shard::scan_record_file(path);
        EXPECT_FALSE(scan.clean());
        EXPECT_EQ(scan.error_kind, shard::ScanErrorKind::Integrity);
        EXPECT_EQ(scan.error_line, 6);
        const std::int64_t removed = shard::repair_record_file(path, scan);
        EXPECT_GT(removed, 0);
        const shard::RecordScan again = shard::scan_record_file(path);
        EXPECT_TRUE(again.clean());
        EXPECT_EQ(again.file.checkpoint, 2) << "verifiable prefix ends at the 1st checkpoint";

        // The repaired stream is a first-class resume point: finishing it
        // yields a complete, trailer-sealed, fully verified file.
        auto resumed = shard::RecordWriter::resume(
            path, again.file.resume_offset, manifest.unit_end,
            again.file.checkpoint - manifest.unit_begin);
        for (std::int64_t u = 2; u < 8; ++u) resumed.write_record(u, core::TrialRecord{});
        resumed.checkpoint(8);
        EXPECT_TRUE(shard::read_record_file(path).complete());
    }
    {  // no surviving header: repair empties the file for a fresh start
        spew(path, "{\"type\":\"hea");
        const shard::RecordScan scan = shard::scan_record_file(path);
        EXPECT_FALSE(scan.have_header);
        shard::repair_record_file(path, scan);
        EXPECT_EQ(slurp(path), "");
    }
}

// --- Golden bytes and thread invariance ---------------------------------------

/// A committed record stream of a failing shard: gemm, table2, 40 trials,
/// size-max 6, 2000 transitions, one shard.  It holds failed records with
/// inputs, not-run records above each failure, six checkpoints and the
/// trailer.  Regenerate only for a deliberate format change, with `ffaudit
/// plan` of that job (`--shards 1 --out-dir plan`) and then `ffaudit
/// run-shard --manifest plan/shard-0.json --records-dir rec --threads 1`.
const std::string kGoldenRecords = std::string(FF_GOLDEN_DIR) + "/records-gemm-table2.jsonl";

/// Where `got` first differs from `want` ("" when equal), so a mismatch of
/// a 30 KB stream fails with a line number instead of both streams.
std::string first_difference(const std::string& got, const std::string& want) {
    if (got == want) return "";
    const auto at = std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first;
    return "differs at byte " + std::to_string(at - got.begin()) + " (line " +
           std::to_string(std::count(got.begin(), at, '\n') + 1) + ")";
}

/// Runs `manifest` in-process into a fresh `path` and returns the stream.
std::string run_fresh_shard(const shard::ShardManifest& manifest, const std::string& path,
                            const shard::RunShardOptions& options) {
    fs::remove(path);
    EXPECT_TRUE(shard::run_shard(manifest, path, options).completed);
    return slurp(path);
}

TEST(ShardRecords, GoldenStreamReadAndReproducedByteForByte) {
    const std::string golden = slurp(kGoldenRecords);
    const shard::ShardRecordFile file = shard::read_record_file(kGoldenRecords);
    EXPECT_TRUE(file.complete());
    int failed = 0, not_run = 0;
    for (const auto& [unit, rec] : file.records) {
        if (rec.kind == core::TrialRecord::Kind::NotRun) ++not_run;
        if (rec.kind != core::TrialRecord::Kind::Failed) continue;
        ++failed;
        EXPECT_NE(rec.inputs, nullptr) << "failed record of unit " << unit << " lost its inputs";
    }
    EXPECT_GT(failed, 1);
    EXPECT_GT(not_run, 0);
    std::size_t checkpoints = 0;
    for (std::size_t at = golden.find("\"type\":\"checkpoint\""); at != std::string::npos;
         at = golden.find("\"type\":\"checkpoint\"", at + 1))
        ++checkpoints;
    EXPECT_GT(checkpoints, 2u);

    const std::string path = scratch_dir("golden") + "/records-0.jsonl";
    EXPECT_EQ(first_difference(run_fresh_shard(file.manifest, path, {}), golden), "");

    // Interrupted after two checkpoints, then resumed: the same bytes.
    fs::remove(path);
    shard::RunShardOptions interrupting;
    interrupting.interrupt_after_units = 150;
    EXPECT_FALSE(shard::run_shard(file.manifest, path, interrupting).completed);
    EXPECT_GT(shard::run_shard(file.manifest, path, {}).resumed_from, 0);
    EXPECT_EQ(first_difference(slurp(path), golden), "");
}

TEST(ShardRecords, StreamsByteIdenticalAtAnyThreadCount) {
    // The golden shard fails in several instances, so worker threads have
    // trials above a lowest failure in flight when it lands; the stream
    // must not show which of them ran.
    const std::string golden = slurp(kGoldenRecords);
    const shard::ShardManifest manifest = shard::read_record_file(kGoldenRecords).manifest;
    const std::string path = scratch_dir("thread_invariance") + "/records-0.jsonl";
    for (int threads : {1, 2, 4, 8}) {
        shard::RunShardOptions options;
        options.num_threads = threads;
        for (int run = 0; run < 20; ++run)
            ASSERT_EQ(first_difference(run_fresh_shard(manifest, path, options), golden), "")
                << threads << " thread(s), run " << run;
    }
}

// --- Streamed checkpoints and prepared-job reuse -------------------------------

std::size_t count_checkpoints(const std::string& stream) {
    std::size_t n = 0;
    for (std::size_t at = stream.find("\"type\":\"checkpoint\""); at != std::string::npos;
         at = stream.find("\"type\":\"checkpoint\"", at + 1))
        ++n;
    return n;
}

TEST(ShardRecords, CheckpointsStreamFromTheCompletedPrefix) {
    const std::string golden = slurp(kGoldenRecords);
    const shard::ShardManifest manifest = shard::read_record_file(kGoldenRecords).manifest;
    const std::int64_t units = manifest.unit_end - manifest.unit_begin;
    const std::int64_t interval = manifest.checkpoint_interval;
    // One progress call per boundary of the checkpoint grid, whatever the
    // thread count.
    std::vector<std::int64_t> want;
    for (std::int64_t done = 0; done < units;) {
        done = std::min(done + interval, units);
        want.push_back(done);
    }
    ASSERT_GT(want.size(), 2u);
    const std::string path = scratch_dir("streamed") + "/records-0.jsonl";
    for (int threads : {1, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " thread(s)");
        shard::RunShardOptions options;
        options.num_threads = threads;
        std::vector<std::int64_t> seen;
        options.on_progress = [&seen](std::int64_t units_done) { seen.push_back(units_done); };
        EXPECT_EQ(first_difference(run_fresh_shard(manifest, path, options), golden), "");
        EXPECT_EQ(seen, want);

        // A progress hook that throws at the second checkpoint stops the
        // pool; its exception leaves run_shard with two checkpoints durable.
        fs::remove(path);
        int calls = 0;
        options.on_progress = [&calls](std::int64_t) {
            if (++calls == 2) throw common::Error("progress hook failed");
        };
        EXPECT_THROW(shard::run_shard(manifest, path, options), common::Error);
        EXPECT_EQ(calls, 2);
        EXPECT_EQ(count_checkpoints(slurp(path)), 2u);
        EXPECT_EQ(shard::read_record_file(path).checkpoint, manifest.unit_begin + 2 * interval);
        EXPECT_EQ(shard::run_shard(manifest, path, {}).resumed_from,
                  manifest.unit_begin + 2 * interval);
        EXPECT_EQ(first_difference(slurp(path), golden), "") << "resumed after the throw";
    }
}

TEST(ShardRecords, ThrowingSettleHookStopsThePool) {
    const shard::JobSpec job = shard::read_record_file(kGoldenRecords).manifest.job;
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = 1;
    core::PreparedAudit audit =
        core::Fuzzer(config).prepare(shard::load_job_program(job), shard::job_passes(job));
    const std::int64_t interval = 64;
    int calls = 0;
    EXPECT_THROW(audit.run_range(0, audit.unit_count(), interval,
                                 [&calls](std::int64_t, std::int64_t) {
                                     if (++calls == 2) throw common::Error("settle hook failed");
                                     return true;
                                 }),
                 common::Error);
    EXPECT_EQ(calls, 2);
    // The only worker settles inline after each claim, so nothing past the
    // second boundary ran.
    const int mt = audit.max_trials();
    for (std::int64_t u = 2 * interval; u < audit.unit_count(); ++u) {
        const auto& slots = audit.records(static_cast<std::size_t>(u / mt));
        if (!slots.empty())
            EXPECT_EQ(slots[static_cast<std::size_t>(u % mt)].kind,
                      core::TrialRecord::Kind::NotRun)
                << "unit " << u;
    }
}

/// `whole` narrowed to [begin, end) as shard `index` of two.
shard::ShardManifest half_of(shard::ShardManifest whole, int index, std::int64_t begin,
                             std::int64_t end) {
    whole.shard_index = index;
    whole.shard_count = 2;
    whole.unit_begin = begin;
    whole.unit_end = end;
    return whole;
}

/// The unit after the lowest failure of the first instance whose lowest
/// failure is not its last trial (-1 when none): split there, the first
/// shard holds that failure and the second the instance's later trials.
std::int64_t unit_after_inner_failure(const shard::ShardRecordFile& file) {
    const int mt = file.manifest.job.max_trials;
    for (const auto& [unit, rec] : file.records)
        if (rec.kind == core::TrialRecord::Kind::Failed && unit % mt < mt - 1) return unit + 1;
    return -1;
}

TEST(ShardReuse, LeasesOnOneJobCacheLeakNoState) {
    const shard::ShardManifest plain = shard::read_record_file(kGoldenRecords).manifest;
    shard::ShardManifest guided = plain;
    guided.job.coverage = true;
    guided.job.feedback = true;
    guided.job.generation_size = 8;
    const std::string dir = scratch_dir("reuse");
    shard::RunShardOptions options;
    options.num_threads = 2;
    for (const shard::ShardManifest& whole : {plain, guided}) {
        SCOPED_TRACE(whole.job.feedback ? "feedback on" : "feedback off");
        run_fresh_shard(whole, dir + "/whole.jsonl", options);
        const std::int64_t split =
            unit_after_inner_failure(shard::read_record_file(dir + "/whole.jsonl"));
        ASSERT_GT(split, whole.unit_begin);
        const shard::ShardManifest a = half_of(whole, 0, whole.unit_begin, split);
        const shard::ShardManifest b = half_of(whole, 1, split, whole.unit_end);
        ASSERT_GT(b.unit_end - b.unit_begin, 2 * b.checkpoint_interval);
        const std::string want_a = run_fresh_shard(a, dir + "/fresh-a.jsonl", options);
        const std::string want_b = run_fresh_shard(b, dir + "/fresh-b.jsonl", options);
        const std::string path_a = dir + "/a.jsonl";
        const std::string path_b = dir + "/b.jsonl";

        // B after A through one cache: A's lowest failure sits below B's
        // trials of the same instance, so a leaked watermark would skip them.
        shard::JobCache cache;
        fs::remove(path_a);
        fs::remove(path_b);
        EXPECT_TRUE(shard::run_shard(cache, a, path_a, options).completed);
        EXPECT_TRUE(shard::run_shard(cache, b, path_b, options).completed);
        EXPECT_EQ(first_difference(slurp(path_a), want_a), "") << "A on a fresh cache";
        EXPECT_EQ(first_difference(slurp(path_b), want_b), "") << "B after A on one cache";

        // B interrupted after its first checkpoint, then resumed, both on
        // the audit A left behind.
        shard::JobCache resumed;
        fs::remove(path_a);
        fs::remove(path_b);
        EXPECT_TRUE(shard::run_shard(resumed, a, path_a, options).completed);
        shard::RunShardOptions interrupting = options;
        interrupting.interrupt_after_units = b.checkpoint_interval;
        EXPECT_FALSE(shard::run_shard(resumed, b, path_b, interrupting).completed);
        EXPECT_EQ(shard::run_shard(resumed, b, path_b, options).resumed_from,
                  b.unit_begin + b.checkpoint_interval);
        EXPECT_EQ(first_difference(slurp(path_b), want_b), "") << "B resumed on one cache";
    }
}

TEST(ShardPlanner, ManifestFileErrorsNameFileLineAndField) {
    const std::string dir = scratch_dir("manifest_errors");
    {  // JSON syntax error: file + line + column
        const std::string path = dir + "/syntax.json";
        std::ofstream(path) << "{\n  \"job\": {,}\n}\n";
        expect_file_parse_error([&] { shard::load_manifest_file(path); }, {path, "line 2"});
    }
    {  // well-formed JSON missing a field: file + field name
        const std::string path = dir + "/missing_field.json";
        common::Json j = tiny_manifest(0, 8).to_json();
        j.as_object().erase("unit_end");
        std::ofstream(path) << j.dump();
        expect_file_parse_error([&] { shard::load_manifest_file(path); }, {path, "unit_end"});
    }
}

// --- End-to-end: shard counts, interruption, merge validation -----------------

/// The single-process reference: same canonical document `ffaudit run`
/// emits.
common::Json reference_document(const shard::JobSpec& job, const std::string& artifact_dir,
                                int threads) {
    core::FuzzConfig config = shard::job_fuzz_config(job);
    config.num_threads = threads;
    config.artifact_dir = artifact_dir;
    core::Fuzzer fuzzer(config);
    std::vector<core::FuzzReport> reports =
        fuzzer.audit(shard::load_job_program(job), shard::job_passes(job));
    return shard::canonical_report_document(std::move(reports));
}

/// Plans `count` shards, runs each to a record file (heterogeneous worker
/// counts on purpose), merges, returns the canonical document.
common::Json sharded_document(const shard::JobSpec& job, int count, const std::string& dir,
                              const std::string& artifact_dir, int checkpoint_interval,
                              bool interrupt_one = false) {
    const ir::SDFG program = shard::load_job_program(job);
    const auto manifests = shard::plan_shards(job, program, count, checkpoint_interval);
    std::vector<std::string> paths;
    for (const auto& m : manifests) {
        const std::string path = dir + "/records-" + std::to_string(m.shard_index) + ".jsonl";
        shard::RunShardOptions options;
        options.num_threads = 1 + m.shard_index % 3;
        if (interrupt_one && m.shard_index == count / 2 && m.unit_end - m.unit_begin > 2) {
            shard::RunShardOptions interrupting = options;
            interrupting.interrupt_after_units = (m.unit_end - m.unit_begin) / 2;
            const auto first = shard::run_shard(m, path, interrupting);
            EXPECT_FALSE(first.completed);
            const auto second = shard::run_shard(m, path, options);  // resume
            EXPECT_TRUE(second.completed);
            EXPECT_GT(second.resumed_from, m.unit_begin) << "resume skipped completed chunks";
        } else {
            const auto result = shard::run_shard(m, path, options);
            EXPECT_TRUE(result.completed);
        }
        paths.push_back(path);
    }
    shard::MergeOptions merge_options;
    merge_options.artifact_dir = artifact_dir;
    shard::MergeResult merged = shard::merge_shards(paths, merge_options);
    EXPECT_EQ(merged.shard_files, static_cast<std::size_t>(count));
    return shard::canonical_report_document(std::move(merged.reports));
}

TEST(ShardEndToEnd, MergeByteIdenticalAcrossShardCounts) {
    const shard::JobSpec job = gemm_job();
    const std::string root = scratch_dir("e2e");
    const std::string ref_art = root + "/art_ref";
    fs::create_directories(ref_art);
    const common::Json reference = reference_document(job, ref_art, 1);
    const std::string ref_dump = reference.dump(2);

    // The reference audit must exercise the interesting paths: failures
    // (so artifacts exist) and a non-runnable instance (apply failed).
    const auto contents = dir_contents(ref_art);
    EXPECT_FALSE(contents.empty()) << "no reproducer artifacts — job too tame for this test";
    EXPECT_NE(ref_dump.find("invalid-code"), std::string::npos);

    for (int count : {1, 2, 4, 8}) {
        const std::string dir = root + "/shards" + std::to_string(count);
        const std::string art = root + "/art" + std::to_string(count);
        fs::create_directories(dir);
        fs::create_directories(art);
        const common::Json doc =
            sharded_document(job, count, dir, art, /*checkpoint_interval=*/5,
                             /*interrupt_one=*/count == 4);
        EXPECT_EQ(doc.dump(2), ref_dump) << "shard count " << count;
        EXPECT_EQ(dir_contents(art), contents) << "artifact bytes, shard count " << count;
    }
}

TEST(ShardEndToEnd, SdfgFileJobMergesLosslessly) {
    const std::string root = scratch_dir("sdfg_job");
    const std::string sdfg_path = root + "/chain.json";
    std::ofstream(sdfg_path) << ir::to_json(ff::testing::make_chain_sdfg()).dump(2);

    shard::JobSpec job;
    job.sdfg_path = sdfg_path;
    job.passes = "tiling";
    job.max_trials = 12;
    job.size_max = 6;
    job.defaults = {{"N", 8}};

    const common::Json reference = reference_document(job, "", 2);
    fs::create_directories(root + "/rec");
    const common::Json doc = sharded_document(job, 3, root + "/rec", "", 4);
    EXPECT_EQ(doc.dump(2), reference.dump(2));
}

TEST(ShardEndToEnd, MergeValidatesCoverageOverlapAndCompleteness) {
    const shard::JobSpec job = gemm_job(4);
    const std::string root = scratch_dir("merge_validation");
    const ir::SDFG program = shard::load_job_program(job);
    const auto manifests = shard::plan_shards(job, program, 3, 4);
    std::vector<std::string> paths;
    for (const auto& m : manifests) {
        paths.push_back(root + "/records-" + std::to_string(m.shard_index) + ".jsonl");
        shard::run_shard(m, paths.back(), {});
    }

    EXPECT_NO_THROW(shard::merge_shards(paths, {}));
    // Arrival order is irrelevant.
    EXPECT_NO_THROW(shard::merge_shards({paths[2], paths[0], paths[1]}, {}));
    // A missing shard is a coverage gap.
    EXPECT_THROW(shard::merge_shards({paths[0], paths[2]}, {}), common::Error);
    // The same shard twice is an overlap.
    EXPECT_THROW(shard::merge_shards({paths[0], paths[1], paths[2], paths[1]}, {}),
                 common::Error);
    // An interrupted, never-resumed shard refuses to merge.
    const std::string interrupted = root + "/records-interrupted.jsonl";
    shard::RunShardOptions interrupt;
    interrupt.interrupt_after_units = 1;
    shard::run_shard(manifests[1], interrupted, interrupt);
    EXPECT_THROW(shard::merge_shards({paths[0], interrupted, paths[2]}, {}), common::Error);
    // Shards of a different job (different seed) refuse to mix.
    shard::JobSpec other = job;
    other.seed = 999;
    const auto other_manifests = shard::plan_shards(other, program, 3, 4);
    const std::string other_path = root + "/records-other.jsonl";
    shard::run_shard(other_manifests[1], other_path, {});
    EXPECT_THROW(shard::merge_shards({paths[0], other_path, paths[2]}, {}), common::Error);
}

TEST(ShardEndToEnd, ResumeStartsFreshOverUnparseableFileButRefusesForeignShard) {
    const shard::JobSpec job = gemm_job(4);
    const ir::SDFG program = shard::load_job_program(job);
    const auto manifests = shard::plan_shards(job, program, 2, 4);
    const std::string root = scratch_dir("resume_edge");

    // A previous run died inside the header write: nothing is resumable,
    // and every record is recomputable, so the runner starts fresh.
    const std::string torn = root + "/records-0.jsonl";
    std::ofstream(torn) << "{\"type\":\"hea";
    const auto result = shard::run_shard(manifests[0], torn, {});
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(shard::read_record_file(torn).complete());

    // A parseable file from a different shard means a mispointed
    // --records path: refuse instead of overwriting it.
    EXPECT_THROW(shard::run_shard(manifests[1], torn, {}), common::Error);
}

TEST(ShardEndToEnd, RunShardRejectsManifestDrift) {
    const shard::JobSpec job = gemm_job(4);
    const ir::SDFG program = shard::load_job_program(job);
    auto manifests = shard::plan_shards(job, program, 2, 4);
    const std::string root = scratch_dir("drift");
    manifests[0].instance_count += 1;  // planner/runner disagreement
    EXPECT_THROW(shard::run_shard(manifests[0], root + "/r.jsonl", {}), common::Error);
}

// --- Satellite: artifact write failures surface in report + table -------------

TEST(ArtifactErrors, SurfacedInReportAndAuditTable) {
    const shard::JobSpec job = gemm_job(6);
    core::FuzzConfig config = shard::job_fuzz_config(job);
    // Parent directory does not exist, so every artifact write fails.
    config.artifact_dir = scratch_dir("art_err") + "/missing_subdir/deeper";
    core::Fuzzer fuzzer(config);
    const std::vector<core::FuzzReport> reports =
        fuzzer.audit(shard::load_job_program(job), shard::job_passes(job));

    int errors = 0;
    for (const auto& r : reports) {
        if (r.failed() && r.verdict != core::Verdict::InvalidCode) {
            // InvalidCode from a failed apply has no failing trial inputs,
            // hence no artifact attempt; every other failure attempted one.
            EXPECT_TRUE(r.artifact_path.empty());
        }
        if (!r.artifact_error.empty()) {
            ++errors;
            EXPECT_TRUE(r.artifact_path.empty()) << "path and error are mutually exclusive";
        }
    }
    ASSERT_GT(errors, 0) << "job produced no artifact attempts — test needs a failing instance";

    const auto summaries = core::summarize_audit(reports);
    int table_errors = 0;
    for (const auto& s : summaries) table_errors += s.artifact_errors;
    EXPECT_EQ(table_errors, errors);
    const std::string table = core::audit_table(summaries);
    EXPECT_NE(table.find("Artifact errors"), std::string::npos);
    // Each failing transformation's row carries its own error count (the
    // audit-wide total is split per row, so searching for it would only
    // ever match stray timing digits).
    for (const auto& s : summaries) {
        if (s.artifact_errors == 0) continue;
        std::istringstream lines(table);
        std::string line;
        bool found = false;
        while (std::getline(lines, line)) {
            if (line.find(s.transformation) != std::string::npos &&
                line.find(std::to_string(s.artifact_errors)) != std::string::npos)
                found = true;
        }
        EXPECT_TRUE(found) << "no table row shows " << s.artifact_errors
                           << " artifact error(s) for " << s.transformation;
    }
}

}  // namespace
}  // namespace ff
