// Concrete, typed, bounds-checked storage for containers.
//
// Buffers are allocated per execution from a container's concrete shape.
// Device buffers are filled with *deterministic garbage* derived from the
// container name: this is the simulated-GPU behaviour that makes the CLOUDSC
// GPU-kernel-extraction bug observable (Sec. 6.4 — copying back a whole
// container of which only a subset was written transports garbage into host
// memory, deterministically, so differential comparison flags it).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ir/dtypes.h"
#include "interp/tasklet_lang.h"

namespace ff::interp {

class Buffer {
public:
    Buffer() = default;
    Buffer(ir::DType dtype, std::vector<std::int64_t> shape);

    ir::DType dtype() const { return dtype_; }
    const std::vector<std::int64_t>& shape() const { return shape_; }
    /// Row-major element strides (same length as shape()); exposed so the
    /// interpreter's flat-stride map kernels can fold affine index
    /// expressions into precomputed flat-offset advances.
    const std::vector<std::int64_t>& strides() const { return strides_; }
    std::size_t dims() const { return shape_.size(); }
    std::int64_t size() const { return size_; }

    /// Raw f64 storage, or nullptr unless dtype() == F64.  The flat-stride
    /// kernel path reads/writes through this pointer after validating the
    /// whole iteration footprint up front — callers own the bounds proof.
    double* f64_data() {
        auto* v = std::get_if<std::vector<double>>(&data_);
        return v ? v->data() : nullptr;
    }
    const double* f64_data() const {
        const auto* v = std::get_if<std::vector<double>>(&data_);
        return v ? v->data() : nullptr;
    }

    /// Typed siblings of f64_data() for the widened untagged/segment tiers:
    /// raw storage, or nullptr unless dtype() matches.  Same contract — the
    /// kernel path validates the whole footprint before touching these.
    float* f32_data() {
        auto* v = std::get_if<std::vector<float>>(&data_);
        return v ? v->data() : nullptr;
    }
    const float* f32_data() const {
        const auto* v = std::get_if<std::vector<float>>(&data_);
        return v ? v->data() : nullptr;
    }
    std::int64_t* i64_data() {
        auto* v = std::get_if<std::vector<std::int64_t>>(&data_);
        return v ? v->data() : nullptr;
    }
    const std::int64_t* i64_data() const {
        const auto* v = std::get_if<std::vector<std::int64_t>>(&data_);
        return v ? v->data() : nullptr;
    }
    std::int32_t* i32_data() {
        auto* v = std::get_if<std::vector<std::int32_t>>(&data_);
        return v ? v->data() : nullptr;
    }
    const std::int32_t* i32_data() const {
        const auto* v = std::get_if<std::vector<std::int32_t>>(&data_);
        return v ? v->data() : nullptr;
    }

    /// Row-major flat index; throws common::OutOfBoundsError (tagged with
    /// `container` for diagnostics) when any coordinate is out of range.
    std::int64_t flat_index(const std::vector<std::int64_t>& idx,
                            const std::string& container) const;

    Value load(std::int64_t flat) const;
    void store(std::int64_t flat, const Value& v);

    double load_double(std::int64_t flat) const { return load(flat).as_double(); }

    /// Deterministic pseudo-random fill (used for Device allocations).
    void fill_garbage(std::uint64_t seed);

    bool bitwise_equal(const Buffer& other) const;

    /// Raw bytes for hashing / serialization.
    const void* raw_data() const;
    std::size_t raw_bytes() const;

private:
    ir::DType dtype_ = ir::DType::F64;
    std::vector<std::int64_t> shape_;
    std::vector<std::int64_t> strides_;
    std::int64_t size_ = 0;
    std::variant<std::vector<double>, std::vector<float>, std::vector<std::int64_t>,
                 std::vector<std::int32_t>>
        data_;
};

/// First element where the two buffers differ beyond `threshold`
/// (relative-or-absolute for floats, exact for ints); nullopt when equal.
/// threshold <= 0 requests bitwise comparison (Sec. 5.1).
struct BufferMismatch {
    std::int64_t flat_index;
    double lhs;
    double rhs;
};
std::optional<BufferMismatch> compare_buffers(const Buffer& a, const Buffer& b,
                                              double threshold);

}  // namespace ff::interp
