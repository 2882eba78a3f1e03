#include "core/sampler.h"

#include <algorithm>

#include "common/rng.h"

namespace ff::core {

namespace {

/// Input buffer elements are drawn from these intervals by dtype family.
constexpr double kFloatLo = -1.0, kFloatHi = 1.0;
constexpr std::int64_t kIntLo = -8, kIntHi = 8;
/// Uniform mode draws every symbol from this interval (it may produce
/// invalid sizes on purpose).
constexpr std::int64_t kUniformLo = -64, kUniformHi = 64;

/// Allocates every input container at the shape `ctx`'s symbols give it and
/// fills it uniformly at random.
void fill_inputs(const ir::SDFG& cutout, const std::set<std::string>& input_config,
                 common::Rng& rng, interp::Context& ctx) {
    for (const auto& name : input_config) {
        const ir::DataDesc& desc = cutout.container(name);
        interp::Buffer buf(desc.dtype, desc.concrete_shape(ctx.symbols));
        const bool is_float = ir::dtype_is_float(desc.dtype);
        for (std::int64_t i = 0; i < buf.size(); ++i) {
            if (is_float)
                buf.store(i, interp::Value::from_double(rng.uniform_double(kFloatLo, kFloatHi)));
            else
                buf.store(i, interp::Value::from_int(rng.uniform_int(kIntLo, kIntHi)));
        }
        ctx.buffers.emplace(name, std::move(buf));
    }
}

}  // namespace

interp::Context InputSampler::sample(const ir::SDFG& cutout,
                                     const std::set<std::string>& input_config,
                                     const Constraints& constraints,
                                     std::uint64_t trial) const {
    common::Rng rng(common::trial_seed(config_.seed, trial));
    interp::Context ctx;

    if (!config_.gray_box) {
        // Uniform sampling over one wide interval for every symbol.
        for (const auto& s : constraints.free_symbols)
            ctx.symbols[s] = rng.uniform_int(kUniformLo, kUniformHi);
    } else {
        // Pass 1: sizes (needed to evaluate index bounds).
        for (const auto& s : constraints.free_symbols)
            if (constraints.size_symbols.count(s))
                ctx.symbols[s] = rng.uniform_int(1, config_.size_max);
        // Pass 2: everything else.
        for (const auto& s : constraints.free_symbols) {
            if (constraints.size_symbols.count(s)) continue;
            auto lit = constraints.loop_ranges.find(s);
            if (lit != constraints.loop_ranges.end()) {
                ctx.symbols[s] = rng.uniform_int(lit->second.lo, lit->second.hi);
                continue;
            }
            auto iit = constraints.index_bounds.find(s);
            if (iit != constraints.index_bounds.end()) {
                std::int64_t hi = config_.size_max;
                for (const IndexBound& b : iit->second) {
                    const ir::DataDesc& desc = cutout.container(b.container);
                    if (b.dim < desc.shape.size())
                        hi = std::min(hi, desc.shape[b.dim]->evaluate(ctx.symbols) - 1);
                }
                ctx.symbols[s] = rng.uniform_int(0, std::max<std::int64_t>(0, hi));
                continue;
            }
            ctx.symbols[s] = rng.uniform_int(0, config_.size_max);
        }
    }

    fill_inputs(cutout, input_config, rng, ctx);
    return ctx;
}

interp::Context InputSampler::mutate(const ir::SDFG& cutout,
                                     const std::set<std::string>& input_config,
                                     const Constraints& constraints, std::uint64_t trial,
                                     const interp::Context& parent,
                                     std::uint32_t corpus_digest) const {
    // Folding the corpus digest into the seed makes the mutation a pure
    // function of (seed, trial, merged previous-generation corpus): every
    // shard that merged the same corpus draws the same mutant.
    common::Rng rng(
        common::trial_seed(config_.seed ^ common::splitmix64(corpus_digest), trial));
    interp::Context ctx;

    const auto parent_symbol = [&](const std::string& s, std::int64_t& out) {
        const auto it = parent.symbols.find(s);
        if (it == parent.symbols.end()) return false;
        out = it->second;
        return true;
    };

    if (!config_.gray_box) {
        for (const auto& s : constraints.free_symbols) {
            std::int64_t v = 0;
            if (parent_symbol(s, v) && !rng.chance(0.5)) ctx.symbols[s] = v;
            else ctx.symbols[s] = rng.uniform_int(kUniformLo, kUniformHi);
        }
    } else {
        // Pass 1: sizes.  Redraws are boundary-biased — extents of 0 map
        // points (size 1 upper bounds often mean an empty inner range), one
        // point, and the full size_max flip region classes, which is where
        // unseen def-use pairs live.
        for (const auto& s : constraints.free_symbols) {
            if (!constraints.size_symbols.count(s)) continue;
            std::int64_t v = 0;
            const bool have = parent_symbol(s, v);
            if (have && !rng.chance(0.5)) {
                ctx.symbols[s] = std::min(std::max<std::int64_t>(v, 1), config_.size_max);
            } else if (rng.chance(0.5)) {
                const std::int64_t picks[3] = {1, std::min<std::int64_t>(2, config_.size_max),
                                               config_.size_max};
                ctx.symbols[s] = picks[rng.uniform_int(0, 2)];
            } else {
                ctx.symbols[s] = rng.uniform_int(1, config_.size_max);
            }
        }
        // Pass 2: loop/index/free symbols — keep the parent's value clamped
        // into the bound the *mutated* sizes allow, or redraw.
        for (const auto& s : constraints.free_symbols) {
            if (constraints.size_symbols.count(s)) continue;
            std::int64_t v = 0;
            const bool have = parent_symbol(s, v);
            const bool keep = have && !rng.chance(0.5);
            auto lit = constraints.loop_ranges.find(s);
            if (lit != constraints.loop_ranges.end()) {
                ctx.symbols[s] =
                    keep ? std::min(std::max(v, lit->second.lo), lit->second.hi)
                         : rng.uniform_int(lit->second.lo, lit->second.hi);
                continue;
            }
            auto iit = constraints.index_bounds.find(s);
            if (iit != constraints.index_bounds.end()) {
                std::int64_t hi = config_.size_max;
                for (const IndexBound& b : iit->second) {
                    const ir::DataDesc& desc = cutout.container(b.container);
                    if (b.dim < desc.shape.size())
                        hi = std::min(hi, desc.shape[b.dim]->evaluate(ctx.symbols) - 1);
                }
                hi = std::max<std::int64_t>(0, hi);
                ctx.symbols[s] = keep ? std::min(std::max<std::int64_t>(v, 0), hi)
                                      : rng.uniform_int(0, hi);
                continue;
            }
            ctx.symbols[s] = keep ? std::min(std::max<std::int64_t>(v, 0), config_.size_max)
                                  : rng.uniform_int(0, config_.size_max);
        }
    }

    // Input buffers: fresh fill for the mutated shapes (shape symbols may
    // have changed, so parent values cannot be carried over in general; the
    // symbols carry the coverage-relevant structure).
    fill_inputs(cutout, input_config, rng, ctx);
    return ctx;
}

}  // namespace ff::core
