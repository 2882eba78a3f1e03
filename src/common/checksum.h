// CRC32C (Castagnoli) — the one checksum shared by the coordinator's wire
// frames and the sealed logs on disk (common/sealed_log.h).
//
// Chosen over CRC32 (ISO-HDLC) for its better error-detection properties on
// short messages and because it is the checksum hardware accelerates
// everywhere (SSE4.2 crc32, ARMv8 CRC) — this software table implementation
// keeps the build dependency-free while staying drop-in compatible with any
// accelerated producer.  The empty-message CRC is 0, and values chain:
// crc32c(a + b) == crc32c(b, crc32c(a)), which the sealed-log trailer
// exploits to keep a rolling digest across resumed writers.
#pragma once

/// \file
/// crc32c(): software CRC32C over a byte range, plus hex helpers.

#include <cstdint>
#include <string>
#include <string_view>

namespace ff::common {

/// CRC32C of `data`, seeded with a previous crc32c value (0 for a fresh
/// stream).  Chaining: crc32c(b, crc32c(a)) == crc32c(ab).
std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0);

/// Fixed-width lowercase hex of a CRC value ("00000000".."ffffffff") — the
/// wire/file representation, always exactly 8 characters.
std::string crc32c_hex(std::uint32_t crc);

/// Inverse of crc32c_hex.  Returns false when `hex` is not exactly 8
/// lowercase/uppercase hex digits.
bool crc32c_parse(std::string_view hex, std::uint32_t& out);

}  // namespace ff::common
