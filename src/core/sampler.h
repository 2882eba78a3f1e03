// Input-configuration sampling for differential fuzzing (Sec. 5.1).
//
// Gray-box mode applies the derived constraints: size symbols in
// [1, size_max], index symbols within the (sampled) container extents, loop
// variables within their loop ranges.  Uniform mode samples every symbol
// from one wide interval — the paper's baseline that "may lead to many
// uninteresting crashes".  Sampling is fully deterministic in
// (seed, trial index).
#pragma once

#include "common/error.h"
#include "core/constraints.h"
#include "interp/interpreter.h"

namespace ff::core {

/// Input buffers draw float elements from [-1, 1] and integer elements
/// from [-8, 8]; uniform mode draws every symbol from [-64, 64].
struct SamplerConfig {
    std::uint64_t seed = 0x5eed;
    std::int64_t size_max = 16;
    bool gray_box = true;
};

class InputSampler {
public:
    /// Throws common::ValidationError on a config whose size_max admits no
    /// valid size (< 1) — catching nonsense at construction instead of
    /// sampling from an empty interval trials later.
    explicit InputSampler(SamplerConfig config = {}) : config_(config) {
        if (config_.size_max < 1)
            throw common::ValidationError("sampler size_max must be >= 1, got " +
                                          std::to_string(config_.size_max));
    }

    const SamplerConfig& config() const { return config_; }

    /// Samples symbol values + input buffers for one trial.  Throws when a
    /// container shape cannot be resolved from the sampled symbols (the
    /// caller treats this as an uninteresting trial).
    interp::Context sample(const ir::SDFG& cutout, const std::set<std::string>& input_config,
                           const Constraints& constraints, std::uint64_t trial) const;

    /// Deterministic mutation of a corpus parent: keeps or redraws each
    /// symbol (size redraws are boundary-biased toward the empty / one-point
    /// / full extents that flip def-use region classes) and refills input
    /// buffers for the mutated shapes.  A pure function of (config seed,
    /// trial, corpus_digest, parent) — the feedback scheduler derives
    /// corpus_digest from the merged previous-generation corpus, so every
    /// shard mutates identically (docs/ARCHITECTURE.md clause 10).
    interp::Context mutate(const ir::SDFG& cutout, const std::set<std::string>& input_config,
                           const Constraints& constraints, std::uint64_t trial,
                           const interp::Context& parent, std::uint32_t corpus_digest) const;

private:
    SamplerConfig config_;
};

}  // namespace ff::core
