#include "common/sealed_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/error.h"

namespace ff::common {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw Error(what + ": " + std::strerror(errno));
}

void write_all(int fd, std::string_view bytes, const std::string& path) {
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0) {
            if (errno == EINTR) continue;
            throw_errno("write failed on " + path);
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

/// fsync of the containing directory, so a just-renamed file survives a
/// crash of the directory entry itself.
void sync_parent_dir(const std::string& path) {
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;  // best effort: some filesystems refuse directory fds
    ::fsync(fd);
    ::close(fd);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) throw Error("read failed on " + path);
    return buf.str();
}

constexpr std::size_t kCrcSuffixBytes = 18;  // strlen(",\"crc\":\"xxxxxxxx\"}")

std::string checksummed_line(const Json& j) {
    std::string dump = j.dump();
    const std::uint32_t crc = crc32c(dump);
    dump.insert(dump.size() - 1, ",\"crc\":\"" + crc32c_hex(crc) + "\"");
    dump += '\n';
    return dump;
}

enum class LineCrc { Ok, Bad, Missing };

/// Verifies the trailing checksum field of one raw line (no newline).
LineCrc verify_line_crc(std::string_view line) {
    if (line.size() < kCrcSuffixBytes + 2 || line.back() != '}') return LineCrc::Missing;
    const std::string_view tail = line.substr(line.size() - kCrcSuffixBytes);
    if (tail.substr(0, 8) != ",\"crc\":\"" || tail[16] != '"') return LineCrc::Missing;
    std::uint32_t stored = 0;
    if (!crc32c_parse(tail.substr(8, 8), stored)) return LineCrc::Bad;
    const std::uint32_t body = crc32c(line.substr(0, line.size() - kCrcSuffixBytes));
    return crc32c("}", body) == stored ? LineCrc::Ok : LineCrc::Bad;
}

}  // namespace

SealedWriter SealedWriter::create(const std::string& path) {
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw_errno("cannot create " + tmp);
    return SealedWriter(fd, path, /*published=*/false, /*digest=*/0);
}

SealedWriter SealedWriter::resume(const std::string& path, std::int64_t offset) {
    const std::string kept = read_file(path);
    if (static_cast<std::int64_t>(kept.size()) < offset)
        throw Error(path + " shrank below its resume offset");
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) throw_errno("cannot reopen " + path + " for resume");
    SealedWriter writer(fd, path, /*published=*/true,
                        crc32c(std::string_view(kept).substr(0, static_cast<std::size_t>(offset))));
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0)
        throw_errno("cannot truncate " + path + " for resume");
    if (::lseek(fd, 0, SEEK_END) < 0) throw_errno("cannot seek " + path);
    return writer;
}

SealedWriter::SealedWriter(SealedWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      published_(other.published_),
      buffer_(std::move(other.buffer_)),
      digest_(other.digest_) {}

SealedWriter& SealedWriter::operator=(SealedWriter&& other) noexcept {
    // Swap: `other`'s destructor closes this writer's old descriptor.
    std::swap(fd_, other.fd_);
    std::swap(path_, other.path_);
    std::swap(published_, other.published_);
    std::swap(buffer_, other.buffer_);
    std::swap(digest_, other.digest_);
    return *this;
}

SealedWriter::~SealedWriter() {
    if (fd_ >= 0) ::close(fd_);
}

void SealedWriter::append(const Json& line) {
    const std::string bytes = checksummed_line(line);
    digest_ = crc32c(bytes, digest_);
    buffer_ += bytes;
    if (buffer_.size() >= 1 << 16) flush();
}

void SealedWriter::append_verified(std::string_view lines) {
    int number = 0;
    for (std::size_t pos = 0; pos < lines.size();) {
        const std::size_t nl = lines.find('\n', pos);
        ++number;
        if (nl == std::string_view::npos ||
            verify_line_crc(lines.substr(pos, nl - pos)) != LineCrc::Ok)
            throw Error("appended line " + std::to_string(number) + " of " + path_ +
                        " does not verify");
        pos = nl + 1;
    }
    digest_ = crc32c(lines, digest_);
    buffer_ += lines;
    if (buffer_.size() >= 1 << 16) flush();
}

void SealedWriter::seal(Json trailer) {
    trailer["digest"] = crc32c_hex(digest_);
    append(trailer);
}

void SealedWriter::flush() {
    write_all(fd_, buffer_, path_);
    buffer_.clear();
}

void SealedWriter::sync() {
    flush();
    if (::fsync(fd_) != 0) throw_errno("fsync failed on " + path_);
}

void SealedWriter::publish() {
    if (published_) return;
    const std::string tmp = path_ + ".tmp";
    if (::rename(tmp.c_str(), path_.c_str()) != 0) throw_errno("cannot publish " + path_);
    sync_parent_dir(path_);
    published_ = true;
}

void SealedWriter::append_raw(std::string_view bytes) {
    flush();
    write_all(fd_, bytes, path_);
}

void SealedScan::throw_if_corrupt(const std::string& path) const {
    if (error_kind == ScanErrorKind::Integrity) throw IntegrityError(path, error_line, error);
    if (error_kind == ScanErrorKind::Parse) throw FileParseError(path, error_line, error);
}

SealedScan scan_sealed(const std::string& path, const SealedLineFn& on_line,
                       const SealedLineFn& on_trailer) {
    const std::string text = read_file(path);
    SealedScan scan;
    std::uint32_t digest = 0;  // rolling CRC32C of the accepted lines
    int number = 0;
    const auto corrupt = [&](ScanErrorKind kind, std::string detail) {
        scan.error_kind = kind;
        scan.error_line = number;
        scan.error = std::move(detail);
    };
    for (std::size_t pos = 0; pos < text.size();) {
        const std::size_t nl = text.find('\n', pos);
        scan.lines = ++number;
        if (nl == std::string::npos) {  // a write cut off mid-line
            scan.torn_tail = true;
            scan.torn_line = number;
            break;
        }
        const std::string_view raw(text.data() + pos, nl - pos);
        if (scan.sealed) {
            corrupt(ScanErrorKind::Integrity, "data after the stream trailer");
            break;
        }
        const LineCrc crc = verify_line_crc(raw);
        if (crc == LineCrc::Bad) {
            corrupt(ScanErrorKind::Integrity,
                    "line checksum mismatch (the line's bytes are not the bytes that "
                    "were written)");
            break;
        }
        if (crc == LineCrc::Missing && scan.have_header) {
            corrupt(ScanErrorKind::Integrity, "line is missing its checksum field");
            break;
        }
        Json j;
        try {
            j = Json::parse(raw);
        } catch (const JsonParseError& e) {
            if (nl + 1 == text.size()) {  // only the final line may be torn
                scan.torn_tail = true;
                scan.torn_line = number;
                break;
            }
            corrupt(ScanErrorKind::Parse,
                    e.detail() + " (column " + std::to_string(e.column()) + ")");
            break;
        }
        try {
            const std::string& type = json_string(j, "type");
            const SealedLine line{j, type, number, static_cast<std::int64_t>(nl + 1)};
            if (type == "trailer" && scan.have_header) {
                const std::string& hex = json_string(j, "digest");
                std::uint32_t stored = 0;
                if (!crc32c_parse(hex, stored) || stored != digest)
                    throw IntegrityError(path, number,
                                         "stream digest mismatch (trailer " + hex + ", stream " +
                                             crc32c_hex(digest) +
                                             ") — a line was altered, dropped or reordered");
                on_trailer(line);
                scan.sealed = true;
            } else {
                on_line(line);
                if (crc == LineCrc::Missing)
                    throw IntegrityError(path, number, "header line is missing its checksum field");
                scan.have_header = true;
            }
        } catch (const IntegrityError& e) {
            corrupt(ScanErrorKind::Integrity, e.detail());
            break;
        } catch (const Error& e) {
            corrupt(ScanErrorKind::Parse, error_detail(e));
            break;
        }
        digest = crc32c(std::string_view(text.data() + pos, nl + 1 - pos), digest);
        pos = nl + 1;
    }
    return scan;
}

std::string sealed_header_type(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string first;
    if (!std::getline(in, first)) return "";
    try {
        const Json j = Json::parse(first);
        return json_string(j, "type");
    } catch (const Error&) {
        return "";
    }
}

std::int64_t truncate_sealed(const std::string& path, std::int64_t keep) {
    std::error_code ec;
    const auto size = static_cast<std::int64_t>(std::filesystem::file_size(path, ec));
    if (ec) throw Error("cannot stat " + path + ": " + ec.message());
    if (size < keep) throw Error(path + " shrank below its verified prefix");
    if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0)
        throw_errno("cannot truncate " + path);
    return size - keep;
}

}  // namespace ff::common
