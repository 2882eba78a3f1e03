#include "shard/records.h"

#include <algorithm>

#include "common/error.h"
#include "core/testcase_io.h"

namespace ff::shard {

using common::Json;

RecordWriter RecordWriter::create(const std::string& path, const ShardManifest& manifest) {
    RecordWriter writer(common::SealedWriter::create(path), manifest.unit_end, 0);
    Json header = Json::object();
    header["type"] = "header";
    header["format"] = kFormatVersion;
    header["manifest"] = manifest.to_json();
    writer.log_.append(header);
    writer.log_.flush();
    return writer;
}

RecordWriter RecordWriter::resume(const std::string& path, std::int64_t resume_offset,
                                  std::int64_t unit_end, std::int64_t records_so_far) {
    // Dropping the interrupted chunk (and any torn final line) matters: the
    // resumed run re-executes it, and duplicate record lines would break
    // the reader's ascending-unit invariant.
    return RecordWriter(common::SealedWriter::resume(path, resume_offset), unit_end,
                        records_so_far);
}

void RecordWriter::write_record(std::int64_t unit, const core::TrialRecord& record) {
    Json line = Json::object();
    line["type"] = "record";
    line["unit"] = unit;
    line["rec"] = core::trial_record_to_json(record);
    log_.append(line);
    ++record_count_;
}

void RecordWriter::write_trailer() {
    Json line = Json::object();
    line["type"] = "trailer";
    line["records"] = record_count_;
    log_.seal(std::move(line));
    trailer_written_ = true;
}

void RecordWriter::checkpoint(std::int64_t completed) {
    // Records first, durably — only then the line that asserts they exist.
    log_.sync();
    Json line = Json::object();
    line["type"] = "checkpoint";
    line["completed"] = completed;
    log_.append(line);
    if (completed == unit_end_ && !trailer_written_) write_trailer();
    log_.sync();
    log_.publish();
}

void RecordWriter::finish() {
    if (trailer_written_) return;
    write_trailer();
    log_.sync();
}

void RecordWriter::append_raw(const std::string& bytes) { log_.append_raw(bytes); }

RecordScan scan_record_file(const std::string& path) {
    ShardRecordFile file;
    const auto covered = [&file] {
        return file.manifest.unit_begin + static_cast<std::int64_t>(file.records.size());
    };
    const auto on_line = [&](const common::SealedLine& line) {
        if (line.number == 1) {
            if (line.type != "header") throw common::Error(line.type + " line before the header");
            const std::int64_t format = common::json_int(line.json, "format");
            if (format != kFormatVersion)
                throw common::Error("unsupported record format version " +
                                    std::to_string(format) + " (this build speaks " +
                                    std::to_string(kFormatVersion) + ")");
            file.manifest = ShardManifest::from_json(line.json.at("manifest"));
            file.checkpoint = file.manifest.unit_begin;
            file.resume_offset = line.end;
        } else if (line.type == "record") {
            const std::int64_t unit = common::json_int(line.json, "unit");
            if (unit != covered())
                throw common::Error("record for unit " + std::to_string(unit) + " where unit " +
                                    std::to_string(covered()) + " was expected");
            if (unit >= file.manifest.unit_end)
                throw common::Error("record for unit " + std::to_string(unit) +
                                    " outside the shard range");
            file.records.emplace_back(unit, core::trial_record_from_json(line.json.at("rec")));
        } else if (line.type == "checkpoint") {
            const std::int64_t completed = common::json_int(line.json, "completed");
            if (completed != covered())
                throw common::Error("checkpoint claims " + std::to_string(completed) +
                                    " units but records cover " + std::to_string(covered()));
            file.checkpoint = completed;
            file.resume_offset = line.end;
        } else {
            throw common::Error("unexpected line type '" + line.type +
                                "' after the header (expected record, checkpoint, or trailer)");
        }
    };
    const auto on_trailer = [&](const common::SealedLine& line) {
        if (file.checkpoint != file.manifest.unit_end)
            throw common::IntegrityError(path, line.number,
                                         "trailer before the final checkpoint (checkpoint at " +
                                             std::to_string(file.checkpoint) + " of " +
                                             std::to_string(file.manifest.unit_end) + ")");
        const std::int64_t claimed = common::json_int(line.json, "records");
        if (claimed != static_cast<std::int64_t>(file.records.size()))
            throw common::IntegrityError(path, line.number,
                                         "trailer claims " + std::to_string(claimed) +
                                             " record line(s) but the stream carries " +
                                             std::to_string(file.records.size()));
        file.has_trailer = true;
        file.resume_offset = line.end;
    };
    common::SealedScan scan = common::scan_sealed(path, on_line, on_trailer);
    // Records past the last checkpoint belong to a chunk that never
    // completed — siblings may be missing, so none of them are durable.
    file.records.resize(static_cast<std::size_t>(
        std::max<std::int64_t>(0, file.checkpoint - file.manifest.unit_begin)));
    return RecordScan{std::move(scan), std::move(file)};
}

ShardRecordFile read_record_file(const std::string& path) {
    RecordScan scan = scan_record_file(path);
    scan.throw_if_corrupt(path);
    if (!scan.have_header)
        throw common::FileParseError(path, 0, "no record stream header (expected a first line "
                                              "{\"type\":\"header\",...})");
    return std::move(scan.file);
}

std::int64_t repair_record_file(const std::string& path, const RecordScan& scan) {
    return common::truncate_sealed(path, scan.have_header ? scan.file.resume_offset : 0);
}

}  // namespace ff::shard
