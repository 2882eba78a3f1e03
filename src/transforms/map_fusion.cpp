#include "transforms/map_fusion.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

namespace {

bool ranges_equal(const std::vector<ir::Range>& a, const std::vector<ir::Range>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!a[i].equals(b[i])) return false;
    return true;
}

}  // namespace

std::vector<Match> MapFusion::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId acc : g.nodes()) {
            const DataflowNode& an = g.node(acc);
            if (an.kind != NodeKind::Access) continue;
            if (g.in_degree(acc) != 1 || g.out_degree(acc) != 1) continue;
            const ir::NodeId m1_exit = g.edge(g.in_edges(acc)[0]).src;
            const ir::NodeId m2_entry = g.edge(g.out_edges(acc)[0]).dst;
            if (g.node(m1_exit).kind != NodeKind::MapExit) continue;
            if (g.node(m2_entry).kind != NodeKind::MapEntry) continue;
            const ir::NodeId m1_entry = scopes.partner(m1_exit);
            const ir::NodeId m2_exit = scopes.partner(m2_entry);
            if (m1_entry == graph::kInvalidNode || m2_exit == graph::kInvalidNode) continue;
            if (scopes.parent(m1_entry) != graph::kInvalidNode) continue;
            if (scopes.parent(m2_entry) != graph::kInvalidNode) continue;

            const DataflowNode& e1 = g.node(m1_entry);
            const DataflowNode& e2 = g.node(m2_entry);
            if (e1.params != e2.params) continue;
            if (!ranges_equal(e1.map_ranges, e2.map_ranges)) continue;
            if (e1.schedule != ir::Schedule::Parallel || e2.schedule != ir::Schedule::Parallel)
                continue;
            // m1 only feeds the intermediate; both scopes are single
            // tasklets; the intermediate has no other uses program-wide.
            if (g.out_degree(m1_exit) != 1) continue;
            const auto& in1 = scopes.members(m1_entry);
            const auto& in2 = scopes.members(m2_entry);
            if (in1.size() != 1 || in2.size() != 1) continue;
            const ir::NodeId t1 = in1.front();
            const ir::NodeId t2 = in2.front();
            if (g.node(t1).kind != NodeKind::Tasklet || g.node(t2).kind != NodeKind::Tasklet)
                continue;
            if (!sdfg.container(an.data).transient) continue;
            int uses = 0;
            for (ir::StateId s2 : sdfg.states())
                uses += static_cast<int>(sdfg.state(s2).access_nodes(an.data).size());
            if (uses != 1) continue;
            // The producer writes and the consumer reads the same
            // per-iteration subset of the intermediate.
            const ir::Subset* wsub = nullptr;
            const ir::Subset* rsub = nullptr;
            for (graph::EdgeId eid : g.out_edges(t1))
                if (g.edge(eid).data.memlet.data == an.data)
                    wsub = &g.edge(eid).data.memlet.subset;
            for (graph::EdgeId eid : g.in_edges(t2))
                if (g.edge(eid).data.memlet.data == an.data)
                    rsub = &g.edge(eid).data.memlet.subset;
            if (!wsub || !rsub || !wsub->equals(*rsub)) continue;

            Match m;
            m.state = sid;
            m.nodes = {m1_entry, t1, m1_exit, acc, m2_entry, t2, m2_exit};
            m.description = "fuse maps '" + e1.label + "' and '" + e2.label + "' over '" +
                            an.data + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void MapFusion::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId m1_entry = match.nodes.at(0);
    const ir::NodeId t1 = match.nodes.at(1);
    const ir::NodeId m1_exit = match.nodes.at(2);
    const ir::NodeId acc = match.nodes.at(3);
    const ir::NodeId m2_entry = match.nodes.at(4);
    const ir::NodeId t2 = match.nodes.at(5);
    const ir::NodeId m2_exit = match.nodes.at(6);
    const std::string t_data = g.node(acc).data;

    // In-scope access node for the intermediate element.
    const ir::NodeId acc_inner = st.add_access(t_data);

    // t1's write to the intermediate goes through the in-scope access node.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(t1))) {
        auto edge = g.edge(eid);
        if (edge.data.memlet.data != t_data) continue;
        g.remove_edge(eid);
        g.add_edge(t1, acc_inner, edge.data);
    }
    // t2's read of the intermediate comes from the in-scope access node;
    // its other inputs move to m1's entry.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(t2))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        if (edge.data.memlet.data == t_data) g.add_edge(acc_inner, t2, edge.data);
        else g.add_edge(m1_entry, t2, edge.data);
    }
    // t2's outputs go through m1's exit.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(t2))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        g.add_edge(t2, m1_exit, edge.data);
    }
    // m2's boundary edges move onto m1.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(m2_entry))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        if (edge.src == acc) continue;  // the old intermediate hand-off
        g.add_edge(edge.src, m1_entry, edge.data);
    }
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(m2_exit))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        g.add_edge(m1_exit, edge.dst, edge.data);
    }

    g.remove_node(m2_entry);
    g.remove_node(m2_exit);
    g.remove_node(acc);
    // The old m1_exit -> acc edge died with acc.  The intermediate
    // container itself stays (it is still written, now inside the scope).
}

}  // namespace ff::xform
