// The feedback corpus: input configurations that reached new def-use pairs.
//
// A corpus entry pins one trial — (instance, trial index), the trial's full
// coverage bitmap, and its exact input configuration — for the trials whose
// coverage added at least one new pair to the instance's cumulative map when
// scanned in canonical (ascending trial) order.  Because trial inputs and
// original-side coverage are pure functions of the job (docs/ARCHITECTURE.md
// clause 10), the corpus is too: every process that derives it — a
// single-process audit, a shard merge, a coordinator fleet — produces
// byte-identical entries, and merging per-shard derivations is a plain
// canonical-order union with duplicates dropped.
//
// The corpus file is a schema over the sealed-log format
// (common/sealed_log.h): a header with the job identity, the entries in
// canonical order, and a trailer with the entry count.  It is written whole
// and published atomically, so unlike a record stream it has no resumable
// prefix: a torn or truncated corpus is damage, and the fix is to
// regenerate it.
//   {"format":1,"job":{...},"type":"corpus-header","crc":"xxxxxxxx"}
//   {"entry":{...},"type":"entry","crc":"xxxxxxxx"}        (ascending order)
//   {"digest":"xxxxxxxx","entries":<n>,"type":"trailer","crc":"xxxxxxxx"}
#pragma once

/// \file
/// feedback::CorpusEntry, canonical idempotent merge, the instance-local
/// sampling digest, and the sealed corpus file reader/writer.

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"

namespace ff::feedback {

/// One corpus entry: a trial whose coverage reached new def-use pairs.
struct CorpusEntry {
    std::int64_t instance = 0;  ///< Instance index within the audit.
    std::int64_t trial = 0;     ///< Trial index within the instance.
    /// Canonical hex (cov_words_to_hex) of the trial's full coverage bitmap.
    std::string cov_hex;
    /// The trial's exact input configuration (core::context_to_json form).
    common::Json inputs;
};

/// Wire form of one entry; canonical (key-sorted compact dump).
common::Json corpus_entry_to_json(const CorpusEntry& entry);
CorpusEntry corpus_entry_from_json(const common::Json& j);

/// Canonical idempotent merge: sorts by (instance, trial) and drops
/// duplicate keys (shards derive identical entries for overlapping trials,
/// so which duplicate survives cannot matter).  merge(merge(a) + b) ==
/// merge(a + b) — the property that makes shard and fleet corpora
/// byte-identical however derivation work was split.
std::vector<CorpusEntry> merge_corpus_entries(std::vector<CorpusEntry> entries);

/// Rolls `entry` into an instance-local corpus digest — the value that
/// parameterizes the next generation's mutations.  Chained: start from 0,
/// fold entries in canonical order.  Covers the trial index and coverage
/// (the inputs are already a pure function of those plus the chain).
std::uint32_t corpus_digest_fold(std::uint32_t digest, const CorpusEntry& entry);

/// The "type" of a corpus file's header line.
inline constexpr const char* kCorpusHeaderType = "corpus-header";

/// Writes the sealed corpus file: to <path>.tmp, fsynced, then renamed to
/// `path` with a directory fsync.  `job` is the job-identity document stored
/// in the header (JobSpec::to_json for audits; any object).  Entries must
/// already be in canonical order.
void write_corpus_file(const std::string& path, const common::Json& job,
                       const std::vector<CorpusEntry>& entries);

/// Parsed corpus file.
struct CorpusFile {
    common::Json job;                  ///< Header job-identity document.
    std::vector<CorpusEntry> entries;  ///< In file (canonical) order.
};

/// Reads and fully verifies a corpus file: every line's bytes against its
/// CRC, ascending entry order, trailer digest and count.  Throws
/// common::FileParseError on malformed content and common::IntegrityError
/// on checksum/digest violations, a torn final line or a missing trailer,
/// naming the file and 1-based line.
CorpusFile read_corpus_file(const std::string& path);

}  // namespace ff::feedback
