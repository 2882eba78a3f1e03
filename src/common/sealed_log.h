// Sealed logs: the one integrity format of the repo's on-disk JSONL files —
// shard record streams (shard/records.h) and feedback corpus files
// (feedback/corpus.h) are schemas over it.
//
// Line format.  A sealed log is a sequence of compact JSON objects
// (Json::dump, keys sorted), one per line.  Every line carries its own
// CRC32C as a final "crc" field spliced into the object's closing brace:
//   {...fields...,"crc":"xxxxxxxx"}\n
// where xxxxxxxx is the CRC32C of the line with that splice removed —
// exactly the bytes Json::dump produced.  The splice is raw text rather than
// a "crc" key because dump sorts keys: verification is positional suffix
// arithmetic on the bytes read, never a re-serialization.  Every line has a
// "type" field.  The first line is the schema's header; a sealed (complete)
// log ends with a trailer line
//   {"digest":"xxxxxxxx",<schema count>,"type":"trailer","crc":"xxxxxxxx"}
// whose digest is the rolling CRC32C of every byte before the trailer line,
// so dropped or reordered *whole* lines (each checksum-valid) are caught too.
//
// Verify before parse.  A reader checks each line's raw bytes against its
// CRC before parsing them: a flipped byte anywhere — even one that keeps the
// JSON valid, like an inserted space — is rejected at its own line.  Only
// the header line may lack its checksum long enough to be parsed, so a file
// of a foreign format fails with the schema's version error, not a checksum
// complaint.
//
// Torn tail.  A final line without its newline, or a final line that does
// not parse, is the signature of a process killed mid-write: the scan
// reports it as a torn tail, not as corruption.  Whether a torn tail is
// tolerable is the schema's call — a record stream resumes over it, a corpus
// (written whole) rejects it.  Malformed lines with intact lines after them
// are always corruption.
//
// Publish and fsync.  A writer buffers appended lines in user space.
// flush() hands them to the kernel, sync() also fsyncs the file, and
// publish() atomically renames the `<path>.tmp` a fresh log is written at to
// `<path>` and fsyncs the directory — a reader never sees a log under its
// real name before the writer chose to publish it.  A resumed writer
// truncates a published log to a verified prefix and re-seeds the rolling
// digest from the kept bytes, so the resumed log stays byte-identical to an
// uninterrupted one.
#pragma once

/// \file
/// common::SealedWriter (append, seal, sync, publish, resume),
/// common::scan_sealed (verify-before-parse scan with torn-tail
/// classification) and truncation to a verified prefix.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/json.h"

namespace ff::common {

/// Append-only writer of one sealed log.
class SealedWriter {
public:
    /// Fresh log: creates or truncates `path + ".tmp"`; the file appears at
    /// `path` on publish().
    static SealedWriter create(const std::string& path);

    /// Reopens the published log at `path`, truncated to `offset` (the end
    /// of a verified prefix), and re-seeds the rolling digest from the
    /// bytes kept.
    static SealedWriter resume(const std::string& path, std::int64_t offset);

    SealedWriter(SealedWriter&& other) noexcept;
    SealedWriter& operator=(SealedWriter&& other) noexcept;
    SealedWriter(const SealedWriter&) = delete;
    SealedWriter& operator=(const SealedWriter&) = delete;
    ~SealedWriter();

    /// Buffers `line` (a JSON object) with its checksum splice; the buffer
    /// is written out (not synced) once it passes 64 KiB.
    void append(const Json& line);
    /// Buffers whole lines that already carry their checksum splices — a
    /// verified prefix of another log — folding them into the digest.
    /// Throws common::Error unless every line ends in a newline and
    /// verifies.
    void append_verified(std::string_view lines);
    /// Appends `trailer` with its "digest" set to every byte so far.
    void seal(Json trailer);
    /// write(2)s the buffered bytes; no fsync.
    void flush();
    /// flush(), then fsync(2) of the log.
    void sync();
    /// Renames `<path>.tmp` to `path` and fsyncs the directory; a no-op once
    /// published.  Publishes what is on disk: sync() first.
    void publish();
    /// Writes raw bytes past the buffered lines, outside the digest and
    /// without a newline — a test hook that simulates a torn write.
    void append_raw(std::string_view bytes);

private:
    SealedWriter(int fd, std::string path, bool published, std::uint32_t digest)
        : fd_(fd), path_(std::move(path)), published_(published), digest_(digest) {}

    int fd_ = -1;             ///< POSIX descriptor of the log.
    std::string path_;        ///< Published path (the log is at path_ + ".tmp" until then).
    bool published_ = false;  ///< Whether the log is visible at path_.
    std::string buffer_;      ///< Appended bytes not yet written.
    std::uint32_t digest_ = 0;  ///< Rolling CRC32C of every appended byte.
};

/// How a scan classified the first defect it hit.
enum class ScanErrorKind {
    None,       ///< No hard corruption (the log may still be torn).
    Parse,      ///< Malformed JSON / schema violation -> common::FileParseError.
    Integrity,  ///< Checksum, digest or trailer violation -> common::IntegrityError.
};

/// Result of scan_sealed: how far the log verified and what stopped it.
struct SealedScan {
    bool have_header = false;  ///< The first line verified and the schema accepted it.
    bool sealed = false;       ///< A trailer verified against the digest and the schema.
    /// A final line missing its newline or unparseable — the signature of a
    /// mid-write kill.
    bool torn_tail = false;
    int torn_line = 0;           ///< 1-based line of the tear (0 = none).
    ScanErrorKind error_kind = ScanErrorKind::None;
    int error_line = 0;          ///< 1-based line of the corruption (0 = none).
    std::string error;           ///< Human detail of the corruption.
    std::int64_t lines = 0;      ///< Lines examined, including a bad one.

    /// Fully healthy: header present, no corruption, no tear.
    bool clean() const { return have_header && error_kind == ScanErrorKind::None && !torn_tail; }

    /// Throws the typed error for a corrupt scan (IntegrityError or
    /// FileParseError, naming `path` and the line); no-op otherwise.
    void throw_if_corrupt(const std::string& path) const;
};

/// One verified line, handed to a schema callback.
struct SealedLine {
    const Json& json;         ///< The parsed line (its "crc" field included).
    const std::string& type;  ///< Its "type" field.
    int number;               ///< 1-based line number.
    std::int64_t end;         ///< Byte offset just past its newline.
};

/// Schema callback: throws common::IntegrityError for content that
/// contradicts the log (classified Integrity) and any other common::Error
/// for a malformed line (classified Parse).
using SealedLineFn = std::function<void(const SealedLine&)>;

/// Scans the sealed log at `path`: verifies each line's checksum, then
/// parses it and hands it to `on_line` — the trailer, after its digest
/// verified, to `on_trailer` instead.  Stops at the first defect and
/// classifies it instead of throwing; still throws common::Error when the
/// file cannot be read at all.
SealedScan scan_sealed(const std::string& path, const SealedLineFn& on_line,
                       const SealedLineFn& on_trailer);

/// The "type" of the log's first line, or "" when the file cannot be read
/// or that line does not parse — lets a tool pick the schema reader before
/// anything is verified.
std::string sealed_header_type(const std::string& path);

/// Truncates the log at `path` to its first `keep` bytes (a verified
/// prefix).  Returns the number of bytes removed.
std::int64_t truncate_sealed(const std::string& path, std::int64_t keep);

}  // namespace ff::common
