#include "transforms/map_reduce_fusion.h"

#include "interp/tasklet_lang.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

std::vector<Match> MapReduceFusion::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId red : g.nodes()) {
            const DataflowNode& rn = g.node(red);
            if (rn.kind != NodeKind::Library || rn.lib != ir::LibraryKind::ReduceSum) continue;
            // Pattern: map -> access(T) -> reduce -> access(S).
            if (g.in_degree(red) != 1 || g.out_degree(red) != 1) continue;
            const ir::NodeId acc_t = g.edge(g.in_edges(red)[0]).src;
            const ir::NodeId acc_s = g.edge(g.out_edges(red)[0]).dst;
            if (g.node(acc_t).kind != NodeKind::Access) continue;
            if (g.node(acc_s).kind != NodeKind::Access) continue;
            if (g.in_degree(acc_t) != 1 || g.out_degree(acc_t) != 1) continue;
            const ir::NodeId m_exit = g.edge(g.in_edges(acc_t)[0]).src;
            if (g.node(m_exit).kind != NodeKind::MapExit) continue;
            const ir::NodeId m_entry = scopes.partner(m_exit);
            if (m_entry == graph::kInvalidNode) continue;
            if (scopes.parent(m_entry) != graph::kInvalidNode) continue;
            const DataflowNode& en = g.node(m_entry);
            if (en.params.size() != 1) continue;

            const auto& inside = scopes.members(m_entry);
            if (inside.size() != 1) continue;
            const ir::NodeId body = inside.front();
            if (g.node(body).kind != NodeKind::Tasklet) continue;
            // Single output connector writing T[i].
            if (g.out_degree(body) != 1) continue;
            const auto& out_memlet = g.edge(g.out_edges(body)[0]).data.memlet;
            if (out_memlet.data != g.node(acc_t).data) continue;

            // T: transient 1-D with no other uses; S: one scalar element.
            const ir::DataDesc& t_desc = sdfg.container(g.node(acc_t).data);
            if (!t_desc.transient || t_desc.dims() != 1) continue;
            int uses = 0;
            for (ir::StateId s2 : sdfg.states())
                uses += static_cast<int>(sdfg.state(s2).access_nodes(t_desc.name).size());
            if (uses != 1) continue;
            const ir::DataDesc& s_desc = sdfg.container(g.node(acc_s).data);
            if (s_desc.dims() != 0) continue;
            // The fused loop adds each partial straight into S in double,
            // without storing it into T: that matches the reduction only
            // when T and S are both F64.
            if (t_desc.dtype != ir::DType::F64 || s_desc.dtype != ir::DType::F64) continue;

            Match m;
            m.state = sid;
            m.nodes = {m_entry, body, m_exit, acc_t, red, acc_s};
            m.description = "fuse map '" + en.label + "' with reduction into '" +
                            s_desc.name + "'";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void MapReduceFusion::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId m_entry = match.nodes.at(0);
    const ir::NodeId body = match.nodes.at(1);
    const ir::NodeId m_exit = match.nodes.at(2);
    const ir::NodeId acc_t = match.nodes.at(3);
    const ir::NodeId red = match.nodes.at(4);
    const ir::NodeId acc_s = match.nodes.at(5);
    const std::string t_data = g.node(acc_t).data;
    const std::string s_data = g.node(acc_s).data;

    // The accumulation must run in order.
    g.node(m_entry).schedule = ir::Schedule::Sequential;

    // Rewrite the body: `conn = RHS` becomes
    // `__part = RHS; red_out = red_in + __part`.
    const std::string out_conn = g.edge(g.out_edges(body)[0]).data.src_conn;
    DataflowNode& tasklet = g.node(body);
    tasklet.code = rename_identifier(tasklet.code, out_conn, "__part") +
                   "; red_out = red_in + __part";

    // Zero-initialize S ahead of the loop.
    const ir::NodeId init = st.add_tasklet("init_" + s_data, "z = 0.0");
    const ir::NodeId acc_s_init = st.add_access(s_data);
    const ir::Memlet s_memlet(s_data, ir::Subset{});
    st.add_edge(init, "z", acc_s_init, "", s_memlet);
    st.add_edge(acc_s_init, "", m_entry, "", s_memlet);

    // Accumulate through the scope boundary.
    st.add_edge(m_entry, "", body, "red_in", s_memlet);
    g.remove_edge(g.out_edges(body)[0]);  // old T[i] write
    st.add_edge(body, "red_out", m_exit, "", s_memlet);
    st.add_edge(m_exit, "", acc_s, "", s_memlet);

    // Remove the reduction and the intermediate buffer.
    g.remove_node(red);
    if (variant_ == Variant::Correct) g.remove_node(acc_t);
    // StaleAccessNode: acc_t remains, referencing a container we delete.
    sdfg.remove_container(t_data);
}

}  // namespace ff::xform
