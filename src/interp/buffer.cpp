#include "interp/buffer.h"

#include <cmath>
#include <cstring>

#include "common/error.h"
#include "common/rng.h"

namespace ff::interp {

Buffer::Buffer(ir::DType dtype, std::vector<std::int64_t> shape)
    : dtype_(dtype), shape_(std::move(shape)) {
    size_ = 1;
    for (std::int64_t extent : shape_) {
        if (extent < 0) throw common::Error("negative container extent");
        size_ *= extent;
    }
    strides_.resize(shape_.size());
    std::int64_t stride = 1;
    for (std::size_t d = shape_.size(); d-- > 0;) {
        strides_[d] = stride;
        stride *= shape_[d];
    }
    const std::size_t n = static_cast<std::size_t>(size_);
    switch (dtype_) {
        case ir::DType::F64: data_ = std::vector<double>(n, 0.0); break;
        case ir::DType::F32: data_ = std::vector<float>(n, 0.0f); break;
        case ir::DType::I64: data_ = std::vector<std::int64_t>(n, 0); break;
        case ir::DType::I32: data_ = std::vector<std::int32_t>(n, 0); break;
    }
}

std::int64_t Buffer::flat_index(const std::vector<std::int64_t>& idx,
                                const std::string& container) const {
    if (idx.size() != shape_.size())
        throw common::Error("index rank mismatch on '" + container + "'");
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < idx.size(); ++d) {
        if (idx[d] < 0 || idx[d] >= shape_[d])
            throw common::OutOfBoundsError(container, idx[d], shape_[d]);
        flat += idx[d] * strides_[d];
    }
    return flat;
}

Value Buffer::load(std::int64_t flat) const {
    const std::size_t i = static_cast<std::size_t>(flat);
    switch (dtype_) {
        case ir::DType::F64: return Value::from_double(std::get<std::vector<double>>(data_)[i]);
        case ir::DType::F32:
            return Value::from_double(static_cast<double>(std::get<std::vector<float>>(data_)[i]));
        case ir::DType::I64:
            return Value::from_int(std::get<std::vector<std::int64_t>>(data_)[i]);
        case ir::DType::I32:
            return Value::from_int(
                static_cast<std::int64_t>(std::get<std::vector<std::int32_t>>(data_)[i]));
    }
    throw common::Error("unreachable dtype");
}

void Buffer::store(std::int64_t flat, const Value& v) {
    const std::size_t i = static_cast<std::size_t>(flat);
    switch (dtype_) {
        case ir::DType::F64: std::get<std::vector<double>>(data_)[i] = v.as_double(); break;
        case ir::DType::F32:
            std::get<std::vector<float>>(data_)[i] = static_cast<float>(v.as_double());
            break;
        case ir::DType::I64: std::get<std::vector<std::int64_t>>(data_)[i] = v.as_int(); break;
        case ir::DType::I32:
            std::get<std::vector<std::int32_t>>(data_)[i] = static_cast<std::int32_t>(v.as_int());
            break;
    }
}

void Buffer::fill_garbage(std::uint64_t seed) {
    common::Rng rng(seed);
    for (std::int64_t i = 0; i < size_; ++i) {
        // Large-magnitude values so that garbage leaking into results is
        // unmistakably different from legitimate data.
        const double g = 1.0e6 + rng.uniform_double(0.0, 1.0e6);
        store(i, ir::dtype_is_float(dtype_) ? Value::from_double(g)
                                            : Value::from_int(static_cast<std::int64_t>(g)));
    }
}

bool Buffer::bitwise_equal(const Buffer& other) const {
    if (dtype_ != other.dtype_ || shape_ != other.shape_) return false;
    // Empty buffers are trivially equal; an empty vector's data() may be
    // null, which memcmp is declared never to accept.
    if (size_ == 0) return true;
    return std::memcmp(raw_data(), other.raw_data(), raw_bytes()) == 0;
}

const void* Buffer::raw_data() const {
    return std::visit([](const auto& vec) -> const void* { return vec.data(); }, data_);
}

std::size_t Buffer::raw_bytes() const {
    return static_cast<std::size_t>(size_) * ir::dtype_size(dtype_);
}

std::optional<BufferMismatch> compare_buffers(const Buffer& a, const Buffer& b,
                                              double threshold) {
    if (a.dtype() != b.dtype() || a.shape() != b.shape())
        return BufferMismatch{-1, static_cast<double>(a.size()), static_cast<double>(b.size())};
    if (threshold <= 0.0) {
        if (a.bitwise_equal(b)) return std::nullopt;
        // Locate the first differing element for the report.
        for (std::int64_t i = 0; i < a.size(); ++i) {
            const Value va = a.load(i);
            const Value vb = b.load(i);
            if (std::memcmp(&va.f, &vb.f, sizeof(double)) != 0 || va.i != vb.i)
                return BufferMismatch{i, va.as_double(), vb.as_double()};
        }
        return std::nullopt;  // padding-only difference (cannot happen with vectors)
    }
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double x = a.load_double(i);
        const double y = b.load_double(i);
        // Equal values first: equal infinities would make the relative
        // test's difference NaN.
        if (x == y || (std::isnan(x) && std::isnan(y))) continue;
        const double diff = std::fabs(x - y);
        const double scale = std::fmax(1.0, std::fmax(std::fabs(x), std::fabs(y)));
        if (!(diff / scale <= threshold)) return BufferMismatch{i, x, y};
    }
    return std::nullopt;
}

}  // namespace ff::interp
