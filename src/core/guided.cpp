#include "core/guided.h"

#include <utility>

#include "common/rng.h"
#include "core/testcase_io.h"
#include "interp/plan_cache.h"

namespace ff::core {

InstanceFeedback::InstanceFeedback(const ir::SDFG& original,
                                   const std::set<std::string>& input_config,
                                   const Constraints& constraints, const InputSampler& sampler,
                                   interp::ExecConfig exec, int generation_size,
                                   std::int64_t instance, interp::PlanCachePtr plans)
    : original_(original),
      input_config_(input_config),
      constraints_(constraints),
      sampler_(sampler),
      generation_size_(generation_size < 1 ? 1 : generation_size),
      instance_(instance),
      interp_(
          [&exec] {
              exec.coverage = true;
              return exec;
          }(),
          std::move(plans)) {
    atlas_ = interp_.plan_cache()->atlas_for(original_);
    cum_map_.reset(atlas_->pair_count());
    boundary_.push_back({0, 0});  // generation 0 mutates nothing
}

void InstanceFeedback::sync_boundaries() {
    // boundary_[g] snapshots the scan state over trials < g * generation
    // size; push it the moment the scan reaches that point, before any
    // further entry can fold in.
    while (static_cast<std::int64_t>(boundary_.size()) * generation_size_ <= scanned_)
        boundary_.push_back({digest_, entries_.size()});
}

std::vector<std::uint64_t> InstanceFeedback::coverage_of(std::int64_t trial,
                                                         const interp::Context& ctx) {
    const auto it = donated_.find(trial);
    if (it != donated_.end()) {
        std::vector<std::uint64_t> cov = std::move(it->second);
        donated_.erase(it);
        return cov;
    }
    // Cold path: this process never executed the trial (another shard owns
    // it, or the scheduler stopped early) — derive its coverage by running
    // the original side, exactly as the recording process did.
    run_map_.reset(atlas_->pair_count());
    interp_.set_coverage(&run_map_);
    interp::Context scratch = ctx;
    const interp::ExecResult r = interp_.run(original_, scratch);
    interp_.set_coverage(nullptr);
    if (!r.ok()) return {};
    return run_map_.trimmed_words();
}

void InstanceFeedback::scan_one() {
    const std::int64_t trial = scanned_;
    interp::Context ctx;
    bool drawn = false;
    try {
        ctx = draw(trial);
        drawn = true;
    } catch (const std::exception&) {
        // Unresolvable draw: the trial was recorded uninteresting with no
        // coverage; it contributes nothing to the corpus.
    }
    if (drawn) {
        const std::vector<std::uint64_t> cov = coverage_of(trial, ctx);
        if (!cov.empty() && cum_map_.absorb(cov)) {
            feedback::CorpusEntry entry;
            entry.instance = instance_;
            entry.trial = trial;
            entry.cov_hex = feedback::cov_words_to_hex(cov);
            entry.inputs = context_to_json(ctx);
            digest_ = feedback::corpus_digest_fold(digest_, entry);
            entries_.push_back(std::move(entry));
            parents_.push_back(std::move(ctx));
        }
    } else {
        donated_.erase(trial);
    }
    ++scanned_;
}

interp::Context InstanceFeedback::draw(std::int64_t trial) const {
    const std::int64_t gen = trial / generation_size_;
    const auto& [digest, parent_count] = boundary_.at(static_cast<std::size_t>(gen));
    if (parent_count == 0)
        return sampler_.sample(original_, input_config_, constraints_,
                               static_cast<std::uint64_t>(trial));
    // Deterministic parent choice: a hash of the trial index keyed by the
    // generation digest, so shards agree and reseeding the corpus reshuffles
    // the pairing.
    const std::size_t parent =
        static_cast<std::size_t>(common::splitmix64(
            static_cast<std::uint64_t>(trial) * 0x9E3779B97F4A7C15ull ^ digest)) %
        parent_count;
    return sampler_.mutate(original_, input_config_, constraints_,
                           static_cast<std::uint64_t>(trial), parents_[parent], digest);
}

interp::Context InstanceFeedback::sample_trial(std::int64_t trial) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Derive the corpus through the previous generation before drawing from
    // it (a no-op for every trial after the generation's first).
    const std::int64_t needed = (trial / generation_size_) * generation_size_;
    while (scanned_ < needed) {
        sync_boundaries();
        scan_one();
    }
    sync_boundaries();
    return draw(trial);
}

void InstanceFeedback::note_trial(std::int64_t trial, const std::vector<std::uint64_t>& coverage) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (trial < scanned_) return;  // already folded into the scan
    donated_[trial] = coverage;
}

void InstanceFeedback::derive_through(std::int64_t trial_limit) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (scanned_ < trial_limit) {
        sync_boundaries();
        scan_one();
    }
    sync_boundaries();
}

std::vector<feedback::CorpusEntry> InstanceFeedback::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
}

}  // namespace ff::core
