#include "transforms/vectorization.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

namespace {

/// True when the subset's last range is exactly [p, p, 1].
bool last_dim_is_param(const ir::Subset& subset, const std::string& param) {
    if (subset.ranges.empty()) return false;
    const ir::Range& r = subset.ranges.back();
    const sym::ExprPtr p = sym::symb(param);
    return r.begin->equals(*p) && r.end->equals(*p) && r.step->is_constant() &&
           r.step->constant_value() == 1;
}

}  // namespace

std::vector<Match> Vectorization::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const ir::ScopeTree scopes(st);
        for (ir::NodeId nid : st.graph().nodes()) {
            const DataflowNode& n = st.graph().node(nid);
            if (n.kind != NodeKind::MapEntry) continue;
            if (n.schedule != ir::Schedule::Parallel) continue;
            if (n.attrs.count("vectorized")) continue;
            const ir::Range& last = n.map_ranges.back();
            if (!(last.step->is_constant() && last.step->constant_value() == 1)) continue;

            // The scope must be a single tasklet whose memlets access the
            // innermost dimension with the plain last parameter.
            const auto& inside = scopes.members(nid);
            if (inside.size() != 1) continue;
            const ir::NodeId body = inside.front();
            if (st.graph().node(body).kind != NodeKind::Tasklet) continue;

            const std::string& p = n.params.back();
            bool ok = true;
            bool any_vector = false;
            for (graph::EdgeId eid : st.graph().in_edges(body)) {
                const ir::Subset& s = st.graph().edge(eid).data.memlet.subset;
                if (s.dims() == 0) continue;  // broadcast scalar input
                if (!last_dim_is_param(s, p)) { ok = false; break; }
            }
            for (graph::EdgeId eid : st.graph().out_edges(body)) {
                const ir::Subset& s = st.graph().edge(eid).data.memlet.subset;
                // Outputs must be vectorizable (lane-indexed).
                if (!last_dim_is_param(s, p)) { ok = false; break; }
                any_vector = true;
            }
            if (!ok || !any_vector) continue;

            Match m;
            m.state = sid;
            m.nodes = {nid, body};
            m.description = "vectorize map '" + n.label + "' (width " +
                            std::to_string(width_) + ")";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void Vectorization::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    DataflowNode& entry = st.graph().node(match.nodes.at(0));
    const ir::NodeId body = match.nodes.at(1);
    const std::string p = entry.params.back();

    // Innermost dimension now strides by the vector width.  NOTE: no
    // remainder handling — out of bounds when the extent % width != 0.
    entry.map_ranges.back().step = sym::cst(static_cast<std::int64_t>(width_));
    entry.schedule = ir::Schedule::Vector;
    entry.attrs["vectorized"] = std::to_string(width_);

    // Widen the tasklet's lane-indexed memlets to W lanes.
    std::set<std::string> vector_vars;
    auto widen = [&](graph::EdgeId eid, const std::string& conn) {
        auto& memlet = st.graph().edge(eid).data.memlet;
        if (memlet.subset.dims() == 0) return;  // broadcast scalar
        if (!last_dim_is_param(memlet.subset, p)) return;
        ir::Range& r = memlet.subset.ranges.back();
        r = ir::Range{r.begin, r.begin + (width_ - 1), sym::cst(1)};
        vector_vars.insert(conn);
    };
    for (graph::EdgeId eid : st.graph().in_edges(body))
        widen(eid, st.graph().edge(eid).data.dst_conn);
    for (graph::EdgeId eid : st.graph().out_edges(body))
        widen(eid, st.graph().edge(eid).data.src_conn);

    DataflowNode& tasklet = st.graph().node(body);
    tasklet.code = vectorize_tasklet_code(tasklet.code, width_, vector_vars);
}

}  // namespace ff::xform
