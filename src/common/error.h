// Error types shared across the FuzzyFlow library.
//
// The interpreter intentionally converts *all* runtime misbehaviour (out of
// bounds accesses, unbound symbols, malformed graphs, non-terminating state
// machines) into typed exceptions.  The differential tester catches them and
// maps them onto the paper's verdict categories ("crashes or hangs while the
// original does not", Sec. 5.1).
#pragma once

#include <stdexcept>
#include <string>

namespace ff::common {

/// Base class for every error raised by the library.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& msg) : std::runtime_error(msg) {}
};

/// A symbol was evaluated without a binding (surfaces e.g. the
/// StateAssignElimination "generates invalid code" bug class).
class UnboundSymbolError : public Error {
public:
    explicit UnboundSymbolError(const std::string& symbol)
        : Error("unbound symbol: " + symbol), symbol_(symbol) {}
    const std::string& symbol() const { return symbol_; }

private:
    std::string symbol_;
};

/// A container access fell outside the allocated extent.
class OutOfBoundsError : public Error {
public:
    OutOfBoundsError(const std::string& container, long long index, long long size)
        : Error("out-of-bounds access on '" + container + "': index " +
                std::to_string(index) + " not in [0, " + std::to_string(size) + ")"),
          container_(container) {}
    const std::string& container() const { return container_; }

private:
    std::string container_;
};

/// The program graph violates a structural invariant.
class ValidationError : public Error {
public:
    explicit ValidationError(const std::string& msg) : Error("validation: " + msg) {}
};

/// The state machine exceeded the configured transition budget (hang proxy).
class HangError : public Error {
public:
    explicit HangError(long long limit)
        : Error("state machine exceeded " + std::to_string(limit) + " transitions") {}
};

/// A deterministic per-execution resource budget was exhausted (map-point
/// fuel or the allocation budget).  The message names only the limit —
/// never a running counter — so every execution tier raises byte-identical
/// text from whichever program point it detects exhaustion at.
class ResourceError : public Error {
public:
    explicit ResourceError(const std::string& msg) : Error(msg) {}

    static ResourceError points(long long limit) {
        return ResourceError("map execution exceeded " + std::to_string(limit) + " points");
    }
    static ResourceError alloc(long long limit) {
        return ResourceError("allocation exceeded " + std::to_string(limit) + " bytes");
    }
};

/// Malformed textual input (expression / tasklet / JSON parsing).
class ParseError : public Error {
public:
    explicit ParseError(const std::string& msg) : Error("parse: " + msg) {}
};

/// Malformed content of a named input file (a shard manifest, a record
/// stream, a test case): carries the file path and — when known — the line,
/// so diagnostics read `plan/shard-0.json, line 3: expected ':'` instead of
/// a bare parse throw.  The ffaudit CLI maps this type to its own exit code.
class FileParseError : public ParseError {
public:
    FileParseError(const std::string& path, int line, const std::string& what)
        : ParseError(path + (line > 0 ? ", line " + std::to_string(line) : "") + ": " + what),
          path_(path),
          line_(line),
          detail_(what) {}
    const std::string& path() const { return path_; }
    int line() const { return line_; }  ///< 1-based; 0 when unknown.
    const std::string& detail() const { return detail_; }  ///< Message without path and line.

private:
    std::string path_;
    int line_;
    std::string detail_;
};

/// Checksummed content failed its integrity verification: a sealed-log line
/// (common/sealed_log.h) whose CRC32C does not match its bytes, a trailer
/// whose digest or count disagrees with the log, or data appearing after the
/// trailer.  Deliberately NOT a ParseError — the bytes may parse fine; they
/// are provably not the bytes that were written.  The ffaudit CLI maps this
/// to the merge/validation exit code (6), and `ffaudit fsck --repair` can
/// truncate the file back to its last verifiable prefix.
class IntegrityError : public Error {
public:
    IntegrityError(const std::string& path, int line, const std::string& what)
        : Error(path + (line > 0 ? ", line " + std::to_string(line) : "") + ": " + what),
          path_(path),
          line_(line),
          detail_(what) {}
    const std::string& path() const { return path_; }
    int line() const { return line_; }  ///< 1-based; 0 when unknown.
    const std::string& detail() const { return detail_; }  ///< Message without path and line.

private:
    std::string path_;
    int line_;
    std::string detail_;
};

/// The message of `e` without the "parse: " prefix ParseError adds —
/// for wrapping a low-level parse failure into a higher-level one
/// (FileParseError) without stacking prefixes.
inline std::string error_detail(const std::exception& e) {
    std::string msg = e.what();
    if (msg.rfind("parse: ", 0) == 0) msg.erase(0, 7);
    return msg;
}

}  // namespace ff::common
