#include "interp/plan_cache.h"

#include "feedback/coverage.h"
#include "ir/sdfg.h"

namespace ff::interp {

void PlanCache::evict_stale_epochs(const PlanKey& key) {
    // Keys order by (uid, epoch, state), so the same SDFG's entries are
    // contiguous: erase the range [ (uid, 0, nullptr), (uid, epoch, nullptr) ).
    const auto first = plans_.lower_bound(PlanKey{std::get<0>(key), 0, nullptr});
    const auto last = plans_.lower_bound(PlanKey{std::get<0>(key), std::get<1>(key), nullptr});
    plans_.erase(first, last);
}

std::shared_ptr<const feedback::CovAtlas> PlanCache::atlas_for(const ir::SDFG& sdfg) {
    const std::pair<std::uint64_t, std::uint64_t> key{sdfg.plan_uid(), sdfg.mutation_epoch()};
    std::lock_guard<std::mutex> lock(atlas_mutex_);
    auto it = atlases_.find(key);
    if (it == atlases_.end()) {
        // Evict the same SDFG's stale-epoch atlases (epochs only grow).
        const auto first = atlases_.lower_bound({key.first, 0});
        atlases_.erase(first, atlases_.lower_bound(key));
        it = atlases_
                 .emplace(key, std::make_shared<const feedback::CovAtlas>(
                                   feedback::CovAtlas::build(sdfg)))
                 .first;
    }
    return it->second;
}

TaskletProgramPtr PlanCache::program_for(const std::string& code) {
    std::lock_guard<std::mutex> lock(programs_mutex_);
    auto it = programs_.find(code);
    if (it != programs_.end()) return it->second;
    TaskletProgramPtr prog = TaskletProgram::parse(code);
    programs_.emplace(code, prog);
    return prog;
}

}  // namespace ff::interp
