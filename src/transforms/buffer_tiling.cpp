#include "transforms/buffer_tiling.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

namespace {

/// Matches the single-tasklet 1-D map scope shape; returns the tasklet.
ir::NodeId single_tasklet_scope(const ir::State& st, const ir::ScopeTree& scopes,
                                ir::NodeId entry) {
    const DataflowNode& n = st.graph().node(entry);
    if (n.kind != NodeKind::MapEntry || n.params.size() != 1) return graph::kInvalidNode;
    if (!(n.map_ranges[0].step->is_constant() && n.map_ranges[0].step->constant_value() == 1))
        return graph::kInvalidNode;
    const auto& inside = scopes.members(entry);
    if (inside.size() != 1) return graph::kInvalidNode;
    const ir::NodeId body = inside.front();
    return st.graph().node(body).kind == NodeKind::Tasklet ? body : graph::kInvalidNode;
}

}  // namespace

std::vector<Match> BufferTiling::find_matches(const ir::SDFG& sdfg) const {
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

            const ir::NodeId t1 = single_tasklet_scope(st, scopes, m1_entry);
            const ir::NodeId t2 = single_tasklet_scope(st, scopes, m2_entry);
            if (t1 == graph::kInvalidNode || t2 == graph::kInvalidNode) continue;

            const DataflowNode& e1 = g.node(m1_entry);
            const DataflowNode& e2 = g.node(m2_entry);
            // Identical iteration spaces.
            if (!e1.map_ranges[0].begin->equals(*e2.map_ranges[0].begin)) continue;
            if (!e1.map_ranges[0].end->equals(*e2.map_ranges[0].end)) continue;

            // The buffer must be 1-D transient, written as T[i] and read as
            // T[j] (the respective map parameters), with no other uses.
            const ir::DataDesc& desc = sdfg.container(an.data);
            if (!desc.transient || desc.dims() != 1) continue;
            int uses = 0;
            for (ir::StateId s2 : sdfg.states())
                uses += static_cast<int>(sdfg.state(s2).access_nodes(an.data).size());
            if (uses != 1) continue;

            auto writes_exact_param = [&](ir::NodeId tasklet, const std::string& param,
                                          bool outgoing) {
                const auto& edges = outgoing ? g.out_edges(tasklet) : g.in_edges(tasklet);
                for (graph::EdgeId eid : edges) {
                    const auto& m = g.edge(eid).data.memlet;
                    if (m.data != an.data) continue;
                    const sym::ExprPtr p = sym::symb(param);
                    if (m.subset.dims() == 1 && m.subset.ranges[0].begin->equals(*p) &&
                        m.subset.ranges[0].end->equals(*p))
                        return true;
                }
                return false;
            };
            if (!writes_exact_param(t1, e1.params[0], /*outgoing=*/true)) continue;
            if (!writes_exact_param(t2, e2.params[0], /*outgoing=*/false)) continue;

            Match m;
            m.state = sid;
            m.nodes = {m1_entry, t1, m1_exit, acc, m2_entry, t2, m2_exit};
            m.description = "buffer-tile '" + an.data + "' between maps '" + e1.label +
                            "' and '" + e2.label + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void BufferTiling::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId m1_entry = match.nodes.at(0);
    const ir::NodeId t1 = match.nodes.at(1);
    const ir::NodeId m1_exit = match.nodes.at(2);
    const ir::NodeId acc = match.nodes.at(3);
    const ir::NodeId m2_entry = match.nodes.at(4);
    const ir::NodeId t2 = match.nodes.at(5);
    const ir::NodeId m2_exit = match.nodes.at(6);

    const DataflowNode e1 = g.node(m1_entry);  // copies: nodes get removed below
    const DataflowNode e2 = g.node(m2_entry);
    const std::string t_data = g.node(acc).data;
    const ir::DataDesc t_desc = sdfg.container(t_data);

    // Tile-sized replacement buffer.
    const std::string tt = sdfg.fresh_container_name(t_data + "_tile");
    sdfg.add_array(tt, t_desc.dtype, {sym::cst(tile_size_)}, /*transient=*/true);

    const sym::ExprPtr lo = e1.map_ranges[0].begin;
    const sym::ExprPtr hi = e1.map_ranges[0].end;
    const std::string bt = "__bt";
    const sym::ExprPtr btv = sym::symb(bt);

    // New scopes.
    auto [outer_entry, outer_exit] =
        st.add_map("tilebuf_outer", {bt}, {ir::Range{lo, hi, sym::cst(tile_size_)}},
                   ir::Schedule::Sequential);
    const ir::Range inner_range{btv, sym::min(btv + (tile_size_ - 1), hi), sym::cst(1)};
    auto [in1_entry, in1_exit] =
        st.add_map("tilebuf_produce", {e1.params[0]}, {inner_range}, e1.schedule);
    auto [in2_entry, in2_exit] =
        st.add_map("tilebuf_consume", {e2.params[0]}, {inner_range}, e2.schedule);
    const ir::NodeId acc_tt = st.add_access(tt);

    // Collect original boundary edges before removal.
    struct Boundary {
        ir::NodeId peer;
        ir::MemletEdge data;
    };
    std::vector<Boundary> m1_inputs, m2_inputs, m2_outputs;
    for (graph::EdgeId eid : g.in_edges(m1_entry))
        m1_inputs.push_back({g.edge(eid).src, g.edge(eid).data});
    for (graph::EdgeId eid : g.in_edges(m2_entry))
        if (g.edge(eid).src != acc) m2_inputs.push_back({g.edge(eid).src, g.edge(eid).data});
    for (graph::EdgeId eid : g.out_edges(m2_exit))
        m2_outputs.push_back({g.edge(eid).dst, g.edge(eid).data});

    // Rewire tasklet edges: T -> Tt with the tile-local index.
    auto rewrite_t_memlet = [&](ir::Memlet& m, const std::string& param, bool consumer) {
        if (m.data != t_data) return;
        m.data = tt;
        const sym::ExprPtr p = sym::symb(param);
        sym::ExprPtr index = p - btv;  // tile-local position
        if (consumer && variant_ == Variant::ReversedOffset)
            index = sym::cst(tile_size_ - 1) - (p - btv);  // back-to-front: wrong values
        m.subset.ranges[0] = ir::Range::index(index);
    };

    // t1: inputs move from m1_entry to in1_entry; output goes to in1_exit.
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(t1))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        g.add_edge(in1_entry, t1, edge.data);
    }
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(t1))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        rewrite_t_memlet(edge.data.memlet, e1.params[0], /*consumer=*/false);
        g.add_edge(t1, in1_exit, edge.data);
    }
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.in_edges(t2))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        rewrite_t_memlet(edge.data.memlet, e2.params[0], /*consumer=*/true);
        g.add_edge(in2_entry, t2, edge.data);
    }
    for (graph::EdgeId eid : std::vector<graph::EdgeId>(g.out_edges(t2))) {
        auto edge = g.edge(eid);
        g.remove_edge(eid);
        g.add_edge(t2, in2_exit, edge.data);
    }

    // Structural wiring of the new scopes.
    const ir::Memlet tt_full(tt, ir::Subset{{ir::Range{sym::cst(0), sym::cst(tile_size_ - 1),
                                                       sym::cst(1)}}});
    st.add_edge(in1_exit, "", acc_tt, "", tt_full);
    st.add_edge(acc_tt, "", in2_entry, "", tt_full);

    for (const Boundary& b : m1_inputs) {
        st.add_edge(b.peer, b.data.src_conn, outer_entry, "", b.data.memlet);
        st.add_edge(outer_entry, "", in1_entry, b.data.dst_conn, b.data.memlet);
    }
    for (const Boundary& b : m2_inputs) {
        st.add_edge(b.peer, b.data.src_conn, outer_entry, "", b.data.memlet);
        st.add_edge(outer_entry, "", in2_entry, b.data.dst_conn, b.data.memlet);
    }
    for (const Boundary& b : m2_outputs) {
        st.add_edge(in2_exit, "", outer_exit, "", b.data.memlet);
        st.add_edge(outer_exit, b.data.src_conn, b.peer, b.data.dst_conn, b.data.memlet);
    }

    // Remove the original scopes, buffer access and container.
    g.remove_node(m1_entry);
    g.remove_node(m1_exit);
    g.remove_node(acc);
    g.remove_node(m2_entry);
    g.remove_node(m2_exit);
    sdfg.remove_container(t_data);
}

}  // namespace ff::xform
