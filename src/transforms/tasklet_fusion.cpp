#include "transforms/tasklet_fusion.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

namespace {

/// Total number of access nodes of `data` across the whole SDFG.
int count_access_nodes(const ir::SDFG& sdfg, const std::string& data) {
    int count = 0;
    for (ir::StateId sid : sdfg.states())
        count += static_cast<int>(sdfg.state(sid).access_nodes(data).size());
    return count;
}

}  // namespace

std::vector<Match> TaskletFusion::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId mid : g.nodes()) {
            const DataflowNode& mnode = g.node(mid);
            if (mnode.kind != NodeKind::Access) continue;
            // Pattern: tasklet t1 -> access(tmp) -> tasklet t2.
            if (g.in_degree(mid) != 1 || g.out_degree(mid) != 1) continue;
            const auto& in_e = g.edge(g.in_edges(mid)[0]);
            const auto& out_e = g.edge(g.out_edges(mid)[0]);
            const ir::NodeId t1 = in_e.src;
            const ir::NodeId t2 = out_e.dst;
            if (g.node(t1).kind != NodeKind::Tasklet) continue;
            if (g.node(t2).kind != NodeKind::Tasklet) continue;
            if (g.out_degree(t1) != 1) continue;  // t1 feeds only tmp
            // Producer and consumer must touch the same subset.
            if (!in_e.data.memlet.subset.equals(out_e.data.memlet.subset)) continue;
            // Same scope level.
            if (scopes.parent(t1) != scopes.parent(t2)) continue;

            if (variant_ == Variant::Correct) {
                const ir::DataDesc& desc = sdfg.container(mnode.data);
                if (!desc.transient) continue;
                // tmp must have no other readers/writers anywhere.
                if (count_access_nodes(sdfg, mnode.data) != 1) continue;
            }
            Match m;
            m.state = sid;
            m.nodes = {t1, mid, t2};
            m.description = "fuse tasklet '" + g.node(t1).label + "' into '" +
                            g.node(t2).label + "' removing '" + mnode.data + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void TaskletFusion::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId t1 = match.nodes.at(0);
    const ir::NodeId mid = match.nodes.at(1);
    const ir::NodeId t2 = match.nodes.at(2);
    const std::string tmp_data = g.node(mid).data;

    // Connector carrying t1's result and t2's use of the temporary.
    const auto& in_e = g.edge(g.in_edges(mid)[0]);
    const auto& out_e = g.edge(g.out_edges(mid)[0]);
    const std::string producer_conn = in_e.data.src_conn;
    const std::string consumer_conn = out_e.data.dst_conn;

    // Merge code: t1's inputs get an "f_" prefix to avoid collisions, t1's
    // output and t2's read of it become the local `__fused`.
    std::string t1_code = g.node(t1).code;
    std::vector<std::pair<graph::EdgeId, std::string>> rewired;  // t1 in-edge -> new conn
    for (graph::EdgeId eid : g.in_edges(t1)) {
        const std::string& conn = g.edge(eid).data.dst_conn;
        const std::string fresh = "f_" + conn;
        t1_code = rename_identifier(t1_code, conn, fresh);
        rewired.emplace_back(eid, fresh);
    }
    t1_code = rename_identifier(t1_code, producer_conn, "__fused");
    const std::string t2_code = rename_identifier(g.node(t2).code, consumer_conn, "__fused");
    g.node(t2).code = t1_code + "; " + t2_code;

    // Rewire t1's inputs into t2 under the fresh connector names.
    for (const auto& [eid, fresh] : rewired) {
        const auto& e = g.edge(eid);
        ir::MemletEdge data = e.data;
        data.dst_conn = fresh;
        g.add_edge(e.src, t2, std::move(data));
    }

    g.remove_node(t1);
    g.remove_node(mid);

    // Drop the container when it is now completely unused (correct mode
    // guarantees this; the bug variant may leave other uses behind, which
    // keep reading the now-never-written container).
    bool still_used = false;
    for (ir::StateId sid : sdfg.states())
        still_used |= !sdfg.state(sid).access_nodes(tmp_data).empty();
    if (!still_used) sdfg.remove_container(tmp_data);
}

}  // namespace ff::xform
