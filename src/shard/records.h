// The shard record wire format: one append-only JSONL stream per shard, a
// schema over the sealed-log format (common/sealed_log.h), which owns the
// per-line CRC32C, the digest trailer, verification, the torn-tail rule and
// the publish/fsync mechanics.
//
// Line types (format 2):
//   {"type":"header","format":2,"manifest":{...},"crc":"xxxxxxxx"}
//   {"type":"record","unit":<u>,"rec":{...},"crc":"xxxxxxxx"}
//   {"type":"checkpoint","completed":<u>,"crc":"xxxxxxxx"}
//   {"digest":"xxxxxxxx","records":<n>,"type":"trailer","crc":"xxxxxxxx"}
//
// Records appear in ascending unit order.  A checkpoint line asserts that
// every unit in [manifest.unit_begin, completed) has a record line above
// it and has been fsync'd to disk; an interrupted shard resumes from its
// last checkpoint instead of restarting (the partially written chunk after
// it — including a torn final line from a mid-write kill — is discarded by
// truncation).  A shard is *complete* when its last checkpoint reaches
// manifest.unit_end AND the stream ends with its trailer line, whose
// "records" is the count of record lines.  Readers verify every line and
// the trailer unconditionally; a mismatch throws common::IntegrityError
// naming the file and line (`ffaudit fsck` reports it, `fsck --repair`
// truncates back to the last checkpoint that verified).  Only a torn final
// line is tolerated.
//
// Durability (the checkpoint invariant): the writer streams to
// `<path>.tmp` and publishes the file under its real name at the first
// checkpoint, so a reader never observes a stream without a durable
// checkpoint.  Every checkpoint fsyncs twice — records first, then the
// checkpoint line — so a crash at any instant can never leave a durable
// checkpoint line above unsynced records.  Torn *tails* are recoverable; a
// checkpoint that lies about its prefix is impossible.
//
// The record payload is core::trial_record_to_json: kind, and for failing
// trials the verdict, detail and exact inputs — everything the canonical
// merge and reproducer-artifact saving consume.  Trials skipped by
// early-stop (and units of instances whose setup failed) are written as
// explicit "not-run" records, so a complete shard always carries exactly
// `unit_end - unit_begin` record lines and coverage validation is a count,
// not a guess.
//
// Re-run determinism: records are pure functions of the job — every slot
// above an instance's lowest failure is "not-run" whatever ran there — and
// checkpoints land on the same interval grid whatever the interruption /
// resume history, so two complete record files of the same shard are
// byte-identical at any thread count — the property the coordinator
// (src/coord) exploits to cross-check duplicate completions of a re-issued
// shard.
#pragma once

/// \file
/// Shard record streams: the record schema over common/sealed_log.h —
/// writer with fsync'd checkpoints, verifying reader with a resume point,
/// tolerant scanner and repair for `ffaudit fsck`.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/sealed_log.h"
#include "core/report.h"
#include "shard/manifest.h"

namespace ff::shard {

/// Append-only writer of one shard's record stream.  Record writes are
/// buffered in user space and made durable by checkpoint(); a crash between
/// checkpoints loses at most one chunk.  The stream lives at `<path>.tmp`
/// until the first checkpoint publishes it at `path` — a visible record
/// file therefore always contains at least one durable checkpoint.  The
/// checkpoint that reaches `unit_end` automatically appends the trailer.
class RecordWriter {
public:
    /// Fresh stream: creates/truncates `path + ".tmp"` and writes the
    /// header line.  The file appears at `path` at the first checkpoint().
    static RecordWriter create(const std::string& path, const ShardManifest& manifest);

    /// Resume: truncates the published `path` to `resume_offset` (the byte
    /// offset just past the last checkpoint line, from read_record_file) —
    /// dropping any partially written chunk — and appends after it.
    /// `unit_end` comes from the manifest and `records_so_far` is the
    /// number of record lines in the retained prefix
    /// (`checkpoint - unit_begin`); both re-arm the trailer bookkeeping, so
    /// a resumed stream stays byte-identical to an uninterrupted one.
    static RecordWriter resume(const std::string& path, std::int64_t resume_offset,
                               std::int64_t unit_end, std::int64_t records_so_far);

    /// Appends one trial slot at flat unit index `unit` (buffered).
    void write_record(std::int64_t unit, const core::TrialRecord& record);

    /// Makes every unit in [unit_begin, completed) durable: writes + fsyncs
    /// the buffered records, then writes + fsyncs the checkpoint line (two
    /// fsyncs, so the checkpoint can never be durable above unsynced
    /// records), then — on the first checkpoint — publishes the stream at
    /// its real path.  The final checkpoint (`completed == unit_end`) also
    /// writes the stream trailer.
    void checkpoint(std::int64_t completed);

    /// Writes the stream trailer without a new checkpoint — for resuming a
    /// stream whose final checkpoint is durable but whose trailer was torn
    /// off by a crash.  No-op when the trailer was already written.
    void finish();

    /// Appends raw bytes without a newline, checkpoint or fsync — a test
    /// hook that simulates a process killed mid-write (torn final line).
    void append_raw(const std::string& bytes);

private:
    RecordWriter(common::SealedWriter log, std::int64_t unit_end, std::int64_t records)
        : log_(std::move(log)), unit_end_(unit_end), record_count_(records) {}
    void write_trailer();

    common::SealedWriter log_;
    std::int64_t unit_end_ = 0;      ///< Shard range end; arms the trailer.
    std::int64_t record_count_ = 0;  ///< Record lines written (incl. resumed prefix).
    bool trailer_written_ = false;
};

/// Parsed view of one shard record file.
struct ShardRecordFile {
    ShardManifest manifest;      ///< From the header line.
    std::int64_t checkpoint = 0;  ///< Units [unit_begin, checkpoint) are durable.
    /// Byte offset just past the last checkpoint line (or the header when
    /// none; past the trailer when present) — where RecordWriter::resume
    /// truncates to.
    std::int64_t resume_offset = 0;
    /// (unit, record) pairs covered by the last checkpoint, ascending by
    /// unit.  Record lines past the checkpoint (an interrupted chunk) are
    /// dropped: their chunk never completed, so siblings may be missing.
    std::vector<std::pair<std::int64_t, core::TrialRecord>> records;
    /// Whether the verified stream trailer was present.
    bool has_trailer = false;

    /// Whether the shard ran to the end of its range and the stream is
    /// sealed by its trailer.
    bool complete() const { return checkpoint == manifest.unit_end && has_trailer; }
};

using common::ScanErrorKind;

/// Result of the tolerant scan behind `ffaudit fsck`: the longest valid
/// prefix plus the sealed-log classification of whatever stopped the scan
/// (a torn tail is tolerated by the strict reader and reported by fsck).
struct RecordScan : common::SealedScan {
    ShardRecordFile file;  ///< Valid prefix (records resized to the checkpoint).
};

/// Scans a shard record stream without throwing on corruption: consumes
/// lines until the first defect, classifying it instead of raising.  Still
/// throws common::Error when the file cannot be opened or read at all.
RecordScan scan_record_file(const std::string& path);

/// Reads a shard record stream, verifying every line checksum and — when
/// present — the stream trailer.  Tolerates a torn final line (truncated
/// by a kill mid-write) by stopping at the last intact checkpoint; throws
/// common::IntegrityError on a checksum/digest/trailer mismatch and
/// common::FileParseError — naming the file, the 1-based line and what was
/// expected — when the file is missing, has no parseable header, contains
/// malformed JSON before its final line, or violates the format (records
/// out of range/order, checkpoint without its records).
ShardRecordFile read_record_file(const std::string& path);

/// `ffaudit fsck --repair`: truncates `path` back to the last verifiable
/// prefix found by `scan` (its resume_offset; the whole file when no
/// header survived).  The result is a valid resumable stream — or an empty
/// file a fresh run recreates.  Returns the number of bytes removed.
std::int64_t repair_record_file(const std::string& path, const RecordScan& scan);

}  // namespace ff::shard
