#include "transforms/loop_unrolling.h"

#include "symbolic/expr.h"

namespace ff::xform {

using ir::DataflowNode;
using ir::NodeKind;

std::vector<Match> LoopUnrolling::find_matches(const ir::SDFG& sdfg) const {
    std::vector<Match> matches;
    for (ir::StateId sid : sdfg.states()) {
        const ir::State& st = sdfg.state(sid);
        const auto& g = st.graph();
        const ir::ScopeTree scopes(st);
        for (ir::NodeId entry : g.nodes()) {
            const DataflowNode& n = g.node(entry);
            if (n.kind != NodeKind::MapEntry) continue;
            if (n.schedule != ir::Schedule::Sequential) continue;
            if (n.params.size() != 1) continue;
            if (scopes.parent(entry) != graph::kInvalidNode) continue;
            const ir::Range& r = n.map_ranges[0];
            if (!r.begin->is_constant() || !r.end->is_constant() || !r.step->is_constant())
                continue;
            if (r.step->constant_value() == 0) continue;

            // Body: a single tasklet with no container both read and
            // written (iterations must be independent, since unrolled
            // instances execute in topological rather than loop order).
            const auto& inside = scopes.members(entry);
            if (inside.size() != 1) continue;
            const ir::NodeId body = inside.front();
            if (g.node(body).kind != NodeKind::Tasklet) continue;
            std::set<std::string> read_data, written_data;
            for (graph::EdgeId eid : g.in_edges(body))
                read_data.insert(g.edge(eid).data.memlet.data);
            for (graph::EdgeId eid : g.out_edges(body))
                written_data.insert(g.edge(eid).data.memlet.data);
            bool independent = true;
            for (const auto& d : written_data) independent &= !read_data.count(d);
            if (!independent) continue;

            Match m;
            m.state = sid;
            m.nodes = {entry, body};
            m.description = "unroll loop '" + n.label + "' (" + r.to_string() + ")";
            matches.push_back(std::move(m));
        }
    }
    return matches;
}

void LoopUnrolling::apply_impl(ir::SDFG& sdfg, const Match& match) const {
    ir::State& st = sdfg.state(match.state);
    auto& g = st.graph();
    const ir::NodeId entry = match.nodes.at(0);
    const ir::NodeId body = match.nodes.at(1);
    const ir::NodeId exit = ir::ScopeTree(st).partner(entry);

    const DataflowNode map_node = g.node(entry);  // copy before removal
    const DataflowNode body_node = g.node(body);
    const std::string& param = map_node.params[0];
    const std::int64_t begin = map_node.map_ranges[0].begin->constant_value();
    const std::int64_t end = map_node.map_ranges[0].end->constant_value();
    const std::int64_t step = map_node.map_ranges[0].step->constant_value();

    // Iteration values to materialize.
    std::vector<std::int64_t> values;
    if (variant_ == Variant::Correct) {
        if (step > 0)
            for (std::int64_t v = begin; v <= end; v += step) values.push_back(v);
        else
            for (std::int64_t v = begin; v >= end; v += step) values.push_back(v);
    } else {
        // BUG: trip count from the ascending-loop formula.  Correct for
        // step > 0, but undercounts descending loops.
        const std::int64_t trips = sym::floordiv_i64(end - begin + 1, step);
        for (std::int64_t t = 0; t < trips; ++t) values.push_back(begin + t * step);
    }

    // For every boundary container, find the outer peer feeding/consuming it.
    struct Boundary {
        ir::NodeId peer;
        std::string conn;      // tasklet connector
        ir::Memlet memlet;     // body-side memlet (parametric in `param`)
    };
    std::vector<Boundary> inputs, outputs;
    for (graph::EdgeId eid : g.in_edges(body)) {
        const auto& inner = g.edge(eid);
        // Outer source: the entry in-edge carrying the same container.
        ir::NodeId peer = graph::kInvalidNode;
        for (graph::EdgeId oe : g.in_edges(entry))
            if (g.edge(oe).data.memlet.data == inner.data.memlet.data) peer = g.edge(oe).src;
        inputs.push_back({peer, inner.data.dst_conn, inner.data.memlet});
    }
    for (graph::EdgeId eid : g.out_edges(body)) {
        const auto& inner = g.edge(eid);
        ir::NodeId peer = graph::kInvalidNode;
        for (graph::EdgeId oe : g.out_edges(exit))
            if (g.edge(oe).data.memlet.data == inner.data.memlet.data) peer = g.edge(oe).dst;
        outputs.push_back({peer, inner.data.src_conn, inner.data.memlet});
    }

    g.remove_node(body);
    g.remove_node(entry);
    g.remove_node(exit);

    for (std::size_t i = 0; i < values.size(); ++i) {
        const sym::SubstMap subst{{param, sym::cst(values[i])}};
        const ir::NodeId clone = st.add_tasklet(
            body_node.label + "_u" + std::to_string(values[i]), body_node.code);
        for (const Boundary& b : inputs) {
            if (b.peer == graph::kInvalidNode) continue;
            ir::Memlet m(b.memlet.data, b.memlet.subset.substituted(subst));
            st.add_edge(b.peer, "", clone, b.conn, std::move(m));
        }
        for (const Boundary& b : outputs) {
            if (b.peer == graph::kInvalidNode) continue;
            ir::Memlet m(b.memlet.data, b.memlet.subset.substituted(subst));
            st.add_edge(clone, b.conn, b.peer, "", std::move(m));
        }
    }
}

}  // namespace ff::xform
