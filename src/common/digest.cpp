#include "common/digest.h"

#include <algorithm>
#include <cstring>

namespace ff::common {

namespace {

constexpr std::uint64_t kC1 = 0x87c37b91114253d5ULL;
constexpr std::uint64_t kC2 = 0x4cf5ad432745937fULL;

std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

std::uint64_t fmix64(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

std::uint64_t mix_k1(std::uint64_t k1) { return rotl(k1 * kC1, 31) * kC2; }
std::uint64_t mix_k2(std::uint64_t k2) { return rotl(k2 * kC2, 33) * kC1; }

}  // namespace

void Hasher128::block(const unsigned char* p) {
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::memcpy(&k1, p, 8);
    std::memcpy(&k2, p + 8, 8);
    h1_ ^= mix_k1(k1);
    h1_ = rotl(h1_, 27) + h2_;
    h1_ = h1_ * 5 + 0x52dce729;
    h2_ ^= mix_k2(k2);
    h2_ = rotl(h2_, 31) + h1_;
    h2_ = h2_ * 5 + 0x38495ab5;
}

Hasher128& Hasher128::bytes(const void* data, std::size_t n) {
    if (n == 0) return *this;  // an empty buffer's data() may be null
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += n;
    if (tail_len_ > 0) {
        const std::size_t take = std::min(n, sizeof tail_ - tail_len_);
        std::memcpy(tail_ + tail_len_, p, take);
        tail_len_ += take;
        p += take;
        n -= take;
        if (tail_len_ < sizeof tail_) return *this;
        block(tail_);
        tail_len_ = 0;
    }
    for (; n >= 16; p += 16, n -= 16) block(p);
    if (n > 0) std::memcpy(tail_, p, n);
    tail_len_ = n;
    return *this;
}

Digest128 Hasher128::finish() const {
    std::uint64_t h1 = h1_;
    std::uint64_t h2 = h2_;
    unsigned char last[16] = {};
    std::memcpy(last, tail_, tail_len_);
    std::uint64_t k1 = 0;
    std::uint64_t k2 = 0;
    std::memcpy(&k1, last, 8);
    std::memcpy(&k2, last + 8, 8);
    if (tail_len_ > 8) h2 ^= mix_k2(k2);
    if (tail_len_ > 0) h1 ^= mix_k1(k1);
    h1 ^= total_;
    h2 ^= total_;
    h1 += h2;
    h2 += h1;
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 += h2;
    h2 += h1;
    return Digest128{h1, h2};
}

}  // namespace ff::common
