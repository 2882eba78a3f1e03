#include "feedback/corpus.h"

#include <algorithm>
#include <utility>

#include "common/checksum.h"
#include "common/error.h"
#include "common/sealed_log.h"

namespace ff::feedback {

constexpr std::int64_t kCorpusFormat = 1;

common::Json corpus_entry_to_json(const CorpusEntry& entry) {
    common::JsonObject o;
    o["instance"] = common::Json(entry.instance);
    o["trial"] = common::Json(entry.trial);
    o["cov"] = common::Json(entry.cov_hex);
    o["inputs"] = entry.inputs;
    return common::Json(std::move(o));
}

CorpusEntry corpus_entry_from_json(const common::Json& j) {
    CorpusEntry entry;
    entry.instance = common::json_int(j, "instance");
    entry.trial = common::json_int(j, "trial");
    entry.cov_hex = common::json_string(j, "cov");
    entry.inputs = j.at("inputs");
    return entry;
}

std::vector<CorpusEntry> merge_corpus_entries(std::vector<CorpusEntry> entries) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const CorpusEntry& a, const CorpusEntry& b) {
                         return a.instance != b.instance ? a.instance < b.instance
                                                         : a.trial < b.trial;
                     });
    std::vector<CorpusEntry> out;
    out.reserve(entries.size());
    for (auto& e : entries) {
        if (!out.empty() && out.back().instance == e.instance && out.back().trial == e.trial)
            continue;
        out.push_back(std::move(e));
    }
    return out;
}

std::uint32_t corpus_digest_fold(std::uint32_t digest, const CorpusEntry& entry) {
    const std::string key = std::to_string(entry.trial) + ":" + entry.cov_hex + ";";
    return common::crc32c(key, digest);
}

void write_corpus_file(const std::string& path, const common::Json& job,
                       const std::vector<CorpusEntry>& entries) {
    common::SealedWriter log = common::SealedWriter::create(path);
    common::Json header = common::Json::object();
    header["type"] = kCorpusHeaderType;
    header["format"] = kCorpusFormat;
    header["job"] = job;
    log.append(header);
    for (const CorpusEntry& entry : entries) {
        common::Json line = common::Json::object();
        line["type"] = "entry";
        line["entry"] = corpus_entry_to_json(entry);
        log.append(line);
    }
    common::Json trailer = common::Json::object();
    trailer["type"] = "trailer";
    trailer["entries"] = entries.size();
    log.seal(std::move(trailer));
    log.sync();
    log.publish();
}

CorpusFile read_corpus_file(const std::string& path) {
    CorpusFile file;
    const auto on_line = [&](const common::SealedLine& line) {
        if (line.number == 1) {
            if (line.type != kCorpusHeaderType)
                throw common::Error("expected a corpus-header line");
            const std::int64_t format = common::json_int(line.json, "format");
            if (format != kCorpusFormat)
                throw common::Error("unsupported corpus format " + std::to_string(format));
            file.job = line.json.at("job");
            return;
        }
        if (line.type != "entry")
            throw common::Error("unknown line type '" + line.type + "'");
        CorpusEntry entry = corpus_entry_from_json(line.json.at("entry"));
        if (!file.entries.empty() &&
            std::make_pair(file.entries.back().instance, file.entries.back().trial) >=
                std::make_pair(entry.instance, entry.trial))
            throw common::Error("entries out of canonical order at instance " +
                                std::to_string(entry.instance) + ", trial " +
                                std::to_string(entry.trial));
        file.entries.push_back(std::move(entry));
    };
    const auto on_trailer = [&](const common::SealedLine& line) {
        const std::int64_t claimed = common::json_int(line.json, "entries");
        if (claimed != static_cast<std::int64_t>(file.entries.size()))
            throw common::IntegrityError(path, line.number,
                                         "trailer claims " + std::to_string(claimed) +
                                             " entries but the file carries " +
                                             std::to_string(file.entries.size()));
    };
    const common::SealedScan scan = common::scan_sealed(path, on_line, on_trailer);
    scan.throw_if_corrupt(path);
    // A corpus is written whole, so a tear or a missing trailer is damage,
    // never a write in progress.
    if (scan.torn_tail)
        throw common::IntegrityError(path, scan.torn_line, "torn final line");
    if (!scan.have_header) throw common::FileParseError(path, 1, "no corpus-header line");
    if (!scan.sealed)
        throw common::IntegrityError(path, static_cast<int>(scan.lines) + 1,
                                     "corpus file is missing its trailer");
    return file;
}

}  // namespace ff::feedback
