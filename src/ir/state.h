// A state: one dataflow multigraph.
//
// States are the inner hierarchy level of the IR (Sec. 2.3): an acyclic
// dataflow graph whose nodes are access nodes, tasklets, map scopes, library
// and communication nodes, and whose edges carry memlets.  Scope structure
// (which nodes live inside which map) is derived from graph connectivity,
// like in DaCe: everything reachable from a MapEntry that can also reach the
// matching MapExit lies inside the scope.  A ScopeTree computes it for a
// whole state at once; nothing caches it, so a caller that changes the graph
// builds a new tree.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "ir/node.h"

namespace ff::ir {

using graph::EdgeId;
using graph::NodeId;

class State {
public:
    using Graph = graph::DiGraph<DataflowNode, MemletEdge>;

    State() = default;
    explicit State(std::string name) : name_(std::move(name)) {}

    const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    Graph& graph() { return graph_; }
    const Graph& graph() const { return graph_; }

    // --- Construction helpers ---

    NodeId add_access(const std::string& data);

    NodeId add_tasklet(const std::string& label, const std::string& code);

    /// Adds a paired MapEntry/MapExit; returns {entry, exit}.
    std::pair<NodeId, NodeId> add_map(const std::string& label, std::vector<std::string> params,
                                      std::vector<Range> ranges,
                                      Schedule schedule = Schedule::Parallel);

    NodeId add_library(LibraryKind kind, const std::string& label = "");

    NodeId add_comm(CommKind kind, std::int32_t root = 0, const std::string& label = "");

    /// Adds a memlet edge. Connector names are "" when not applicable.
    EdgeId add_edge(NodeId src, const std::string& src_conn, NodeId dst,
                    const std::string& dst_conn, Memlet memlet);

    /// All access nodes referring to `data`.
    std::vector<NodeId> access_nodes(const std::string& data) const;

    /// Fresh scope id for transformations that create new maps.
    std::int32_t next_scope_id() { return scope_counter_++; }
    /// After adding nodes that carry their own scope ids up to `max_scope`:
    /// skips the counter past them, as calling next_scope_id() until it
    /// returns more than `max_scope` would.
    void skip_scope_ids(std::int32_t max_scope) {
        scope_counter_ = std::max(scope_counter_, max_scope + 1) + 1;
    }

    std::string to_string() const;

private:
    std::string name_;
    Graph graph_;
    std::int32_t scope_counter_ = 0;
};

/// The map scopes of one state, computed from its graph in one call.  A node
/// lies inside the scope of a MapEntry when it is reachable from the entry
/// and reaches the entry's exit.  Built on any graph (cyclic, with dangling
/// or duplicated map ends) without throwing; validation guarantees that the
/// scopes of a valid state nest.
class ScopeTree {
public:
    explicit ScopeTree(const State& st);

    /// The other end of a MapEntry or MapExit: the first node of the other
    /// kind, in node order, with the same scope id; kInvalidNode if none or
    /// for any other node.
    NodeId partner(NodeId end) const { return at(end).partner; }
    /// Innermost MapEntry whose scope holds `node`: the smallest, ties to the
    /// first in node order; kInvalidNode at top level.
    NodeId parent(NodeId node) const { return at(node).parent; }
    /// Nodes strictly inside the scope of `entry`, nested scopes' included,
    /// in node order; empty unless `entry` is a MapEntry with an exit.
    const std::vector<NodeId>& members(NodeId entry) const { return at(entry).members; }
    /// Whether `node` lies strictly inside the scope of `entry`.
    bool contains(NodeId entry, NodeId node) const {
        return std::binary_search(members(entry).begin(), members(entry).end(), node);
    }

private:
    struct Slot {
        NodeId partner = graph::kInvalidNode;
        NodeId parent = graph::kInvalidNode;
        std::vector<NodeId> members;
    };
    const Slot& at(NodeId n) const;

    std::vector<Slot> slots_;  ///< By node id.
};

}  // namespace ff::ir
