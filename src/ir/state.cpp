#include "ir/state.h"

#include <map>
#include <set>

namespace ff::ir {

NodeId State::add_access(const std::string& data) {
    DataflowNode n;
    n.kind = NodeKind::Access;
    n.label = data;
    n.data = data;
    return graph_.add_node(std::move(n));
}

NodeId State::add_tasklet(const std::string& label, const std::string& code) {
    DataflowNode n;
    n.kind = NodeKind::Tasklet;
    n.label = label;
    n.code = code;
    return graph_.add_node(std::move(n));
}

std::pair<NodeId, NodeId> State::add_map(const std::string& label,
                                         std::vector<std::string> params,
                                         std::vector<Range> ranges, Schedule schedule) {
    const std::int32_t sid = next_scope_id();
    DataflowNode entry;
    entry.kind = NodeKind::MapEntry;
    entry.label = label;
    entry.scope_id = sid;
    entry.params = std::move(params);
    entry.map_ranges = std::move(ranges);
    entry.schedule = schedule;
    DataflowNode exit;
    exit.kind = NodeKind::MapExit;
    exit.label = label;
    exit.scope_id = sid;
    exit.schedule = schedule;
    const NodeId e = graph_.add_node(std::move(entry));
    const NodeId x = graph_.add_node(std::move(exit));
    return {e, x};
}

NodeId State::add_library(LibraryKind kind, const std::string& label) {
    DataflowNode n;
    n.kind = NodeKind::Library;
    n.label = label.empty() ? library_kind_name(kind) : label;
    n.lib = kind;
    return graph_.add_node(std::move(n));
}

NodeId State::add_comm(CommKind kind, std::int32_t root, const std::string& label) {
    DataflowNode n;
    n.kind = NodeKind::Comm;
    n.label = label.empty() ? comm_kind_name(kind) : label;
    n.comm = kind;
    n.comm_root = root;
    return graph_.add_node(std::move(n));
}

EdgeId State::add_edge(NodeId src, const std::string& src_conn, NodeId dst,
                       const std::string& dst_conn, Memlet memlet) {
    MemletEdge e;
    e.memlet = std::move(memlet);
    e.src_conn = src_conn;
    e.dst_conn = dst_conn;
    return graph_.add_edge(src, dst, std::move(e));
}

std::vector<NodeId> State::access_nodes(const std::string& data) const {
    std::vector<NodeId> out;
    for (NodeId n : graph_.nodes()) {
        const DataflowNode& node = graph_.node(n);
        if (node.kind == NodeKind::Access && node.data == data) out.push_back(n);
    }
    return out;
}

std::string State::to_string() const {
    std::string s = "state " + name_ + " {\n";
    for (NodeId n : graph_.nodes()) {
        s += "  [" + std::to_string(n) + "] " + graph_.node(n).to_string() + "\n";
        for (EdgeId eid : graph_.out_edges(n)) {
            const auto& e = graph_.edge(eid);
            s += "    -> [" + std::to_string(e.dst) + "] " + e.data.to_string() + "\n";
        }
    }
    s += "}";
    return s;
}

ScopeTree::ScopeTree(const State& st) {
    const auto& g = st.graph();
    const auto slot = [](NodeId n) { return static_cast<std::size_t>(n); };
    const std::vector<NodeId> nodes = g.nodes();
    slots_.resize(nodes.empty() ? 0 : slot(nodes.back()) + 1);

    // Partners: the first node of the other kind with the same scope id.
    std::map<std::pair<NodeKind, std::int32_t>, NodeId> first;
    for (NodeId n : nodes) first.emplace(std::pair{g.node(n).kind, g.node(n).scope_id}, n);
    for (NodeId n : nodes) {
        const NodeKind kind = g.node(n).kind;
        if (kind != NodeKind::MapEntry && kind != NodeKind::MapExit) continue;
        const NodeKind other = kind == NodeKind::MapEntry ? NodeKind::MapExit : NodeKind::MapEntry;
        const auto it = first.find({other, g.node(n).scope_id});
        if (it != first.end()) slots_[slot(n)].partner = it->second;
    }

    // Members: reachable from the entry and reaching its exit, once per scope.
    for (NodeId entry : nodes) {
        const NodeId exit = slots_[slot(entry)].partner;
        if (g.node(entry).kind != NodeKind::MapEntry || exit == graph::kInvalidNode) continue;
        const std::set<NodeId> from = g.reachable_from(entry), to = g.reaching(exit);
        for (NodeId n : from)
            if (n != entry && n != exit && to.count(n)) slots_[slot(entry)].members.push_back(n);
    }

    // Parent: the smallest scope holding a node, ties to the first in node order.
    for (NodeId entry : nodes) {
        for (NodeId n : members(entry)) {
            NodeId& parent = slots_[slot(n)].parent;
            if (parent == graph::kInvalidNode || members(entry).size() < members(parent).size())
                parent = entry;
        }
    }
}

const ScopeTree::Slot& ScopeTree::at(NodeId n) const {
    static const Slot none;
    const auto i = static_cast<std::size_t>(n);
    return n >= 0 && i < slots_.size() ? slots_[i] : none;
}

}  // namespace ff::ir
