// 128-bit content digests for in-process caches.
//
// Digest128 is MurmurHash3_x64_128 made incremental: feeding the same bytes
// in any split yields the digest of their concatenation.  It is a
// fingerprint, not a checksum of anything on disk or on the wire (that is
// CRC32C, common/checksum.h): the original-side memo (core/diff_test.h)
// treats two buffers, input configurations or cutouts with equal digests as
// equal, so the width is chosen to make an accidental collision negligible,
// not to resist a chosen one.
#pragma once

/// \file
/// Digest128 and Hasher128: an incremental 128-bit non-cryptographic hash.

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ff::common {

/// A 128-bit digest; ordered so it can key a map.
struct Digest128 {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool operator==(const Digest128&, const Digest128&) = default;
    friend auto operator<=>(const Digest128&, const Digest128&) = default;
};

/// Incremental MurmurHash3_x64_128.  Callers that hash a sequence of
/// variable-length fields frame them (str() length-prefixes its string) so
/// different sequences never feed the same bytes.
class Hasher128 {
public:
    explicit Hasher128(std::uint64_t seed = 0) : h1_(seed), h2_(seed) {}

    /// Feeds `n` raw bytes.
    Hasher128& bytes(const void* data, std::size_t n);
    /// Feeds one 64-bit value.
    Hasher128& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
    /// Feeds a length-prefixed string.
    Hasher128& str(std::string_view s) { return u64(s.size()).bytes(s.data(), s.size()); }

    /// Digest of everything fed so far (the hasher stays usable).
    Digest128 finish() const;

private:
    void block(const unsigned char* p);

    std::uint64_t h1_;
    std::uint64_t h2_;
    unsigned char tail_[16] = {};
    std::size_t tail_len_ = 0;
    std::uint64_t total_ = 0;
};

}  // namespace ff::common
