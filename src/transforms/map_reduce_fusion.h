// Map-reduce fusion: fuses an elementwise producer map with a following
// ReduceSum into a single sequential accumulation loop, eliminating the
// intermediate buffer ("MapReduceFusion: Removes intermediate buffers for
// reductions", Table 2).
//
//   map_i { T[i] = f(x[i]) } ; S = reduce_sum(T)
//     =>
//   S = 0 ; for i { S += f(x[i]) }
//
// Both T and S must be F64: a narrower T would round each partial before
// the sum, a narrower S each step of it.
//
// The bug variant deletes the intermediate container from the SDFG while a
// stale access node still references it — `generates invalid code`, caught
// by validation.
#pragma once

#include "transforms/transformation.h"

namespace ff::xform {

class MapReduceFusion : public Transformation {
public:
    enum class Variant { Correct, StaleAccessNode };

    explicit MapReduceFusion(Variant variant = Variant::Correct) : variant_(variant) {}

    std::string name() const override {
        return variant_ == Variant::Correct ? "MapReduceFusion"
                                            : "MapReduceFusion[bug:stale-access-node]";
    }
    std::vector<Match> find_matches(const ir::SDFG& sdfg) const override;
protected:
    void apply_impl(ir::SDFG& sdfg, const Match& match) const override;

private:
    Variant variant_;
};

}  // namespace ff::xform
