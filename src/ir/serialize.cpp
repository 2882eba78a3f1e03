#include "ir/serialize.h"

#include <algorithm>
#include <map>

#include "common/error.h"
#include "symbolic/parser.h"

namespace ff::ir {

using common::Json;
using common::JsonArray;
using common::JsonObject;

namespace {

Json expr_to_json(const sym::ExprPtr& e) { return Json(e->to_string()); }

sym::ExprPtr expr_from_json(const Json& j) { return sym::parse_expr(j.as_string()); }

/// Scope ids a document may carry: far above any real program's, far
/// below wrapping a state's int32 scope counter.
constexpr std::int64_t kMaxScopeId = std::int64_t{1} << 30;

std::int32_t scope_id_from_json(const Json& j) {
    const std::int64_t id = j.at("scope_id").as_int();
    if (id < 0 || id >= kMaxScopeId)
        throw common::ParseError("scope_id " + std::to_string(id) + " out of range");
    return static_cast<std::int32_t>(id);
}

/// The id `id` was remapped to, or a ParseError naming `what` refers to no
/// such element.
template <typename Id>
Id remapped(const std::map<std::int64_t, Id>& ids, const Json& id, const std::string& what) {
    const auto it = ids.find(id.as_int());
    if (it == ids.end()) throw common::ParseError(what + " " + std::to_string(id.as_int()));
    return it->second;
}

Json range_to_json(const Range& r) {
    Json o = Json::object();
    o["begin"] = expr_to_json(r.begin);
    o["end"] = expr_to_json(r.end);
    o["step"] = expr_to_json(r.step);
    return o;
}

Range range_from_json(const Json& j) {
    return Range{expr_from_json(j.at("begin")), expr_from_json(j.at("end")),
                 expr_from_json(j.at("step"))};
}

Json node_to_json(graph::NodeId id, const DataflowNode& n) {
    Json o = Json::object();
    o["id"] = static_cast<std::int64_t>(id);
    o["kind"] = node_kind_name(n.kind);
    o["label"] = n.label;
    switch (n.kind) {
        case NodeKind::Access: o["data"] = n.data; break;
        case NodeKind::Tasklet: o["code"] = n.code; break;
        case NodeKind::MapEntry: {
            o["scope_id"] = static_cast<std::int64_t>(n.scope_id);
            o["schedule"] = schedule_name(n.schedule);
            Json params = Json::array();
            for (const auto& p : n.params) params.push_back(Json(p));
            o["params"] = std::move(params);
            Json ranges = Json::array();
            for (const auto& r : n.map_ranges) ranges.push_back(range_to_json(r));
            o["ranges"] = std::move(ranges);
            break;
        }
        case NodeKind::MapExit:
            o["scope_id"] = static_cast<std::int64_t>(n.scope_id);
            o["schedule"] = schedule_name(n.schedule);
            break;
        case NodeKind::Library: o["lib"] = library_kind_name(n.lib); break;
        case NodeKind::Comm:
            o["comm"] = comm_kind_name(n.comm);
            o["root"] = static_cast<std::int64_t>(n.comm_root);
            break;
    }
    if (!n.attrs.empty()) {
        Json attrs = Json::object();
        for (const auto& [k, v] : n.attrs) attrs[k] = v;
        o["attrs"] = std::move(attrs);
    }
    return o;
}

DataflowNode node_from_json(const Json& j) {
    DataflowNode n;
    const std::string kind = j.at("kind").as_string();
    n.label = j.at("label").as_string();
    if (kind == "access") {
        n.kind = NodeKind::Access;
        n.data = j.at("data").as_string();
    } else if (kind == "tasklet") {
        n.kind = NodeKind::Tasklet;
        n.code = j.at("code").as_string();
    } else if (kind == "map_entry") {
        n.kind = NodeKind::MapEntry;
        n.scope_id = scope_id_from_json(j);
        n.schedule = schedule_from_name(j.at("schedule").as_string());
        for (const auto& p : j.at("params").as_array()) n.params.push_back(p.as_string());
        for (const auto& r : j.at("ranges").as_array()) n.map_ranges.push_back(range_from_json(r));
    } else if (kind == "map_exit") {
        n.kind = NodeKind::MapExit;
        n.scope_id = scope_id_from_json(j);
        n.schedule = schedule_from_name(j.at("schedule").as_string());
    } else if (kind == "library") {
        n.kind = NodeKind::Library;
        n.lib = library_kind_from_name(j.at("lib").as_string());
    } else if (kind == "comm") {
        n.kind = NodeKind::Comm;
        n.comm = comm_kind_from_name(j.at("comm").as_string());
        n.comm_root = static_cast<std::int32_t>(j.at("root").as_int());
    } else {
        throw common::ParseError("unknown node kind: " + kind);
    }
    if (j.contains("attrs"))
        for (const auto& [k, v] : j.at("attrs").as_object()) n.attrs[k] = v.as_string();
    return n;
}

}  // namespace

Json subset_to_json(const Subset& subset) {
    Json arr = Json::array();
    for (const auto& r : subset.ranges) arr.push_back(range_to_json(r));
    return arr;
}

Subset subset_from_json(const Json& j) {
    Subset s;
    for (const auto& r : j.as_array()) s.ranges.push_back(range_from_json(r));
    return s;
}

Json to_json(const SDFG& sdfg) {
    Json root = Json::object();
    root["name"] = sdfg.name();

    Json symbols = Json::array();
    for (const auto& s : sdfg.symbols()) symbols.push_back(Json(s));
    root["symbols"] = std::move(symbols);

    Json containers = Json::array();
    for (const auto& [name, desc] : sdfg.containers()) {
        Json c = Json::object();
        c["name"] = name;
        c["dtype"] = dtype_name(desc.dtype);
        Json shape = Json::array();
        for (const auto& extent : desc.shape) shape.push_back(expr_to_json(extent));
        c["shape"] = std::move(shape);
        c["transient"] = desc.transient;
        c["storage"] = storage_name(desc.storage);
        containers.push_back(std::move(c));
    }
    root["containers"] = std::move(containers);

    root["start_state"] = static_cast<std::int64_t>(sdfg.start_state());

    Json states = Json::array();
    for (StateId sid : sdfg.states()) {
        const State& st = sdfg.state(sid);
        Json s = Json::object();
        s["id"] = static_cast<std::int64_t>(sid);
        s["name"] = st.name();
        Json nodes = Json::array();
        for (NodeId nid : st.graph().nodes()) nodes.push_back(node_to_json(nid, st.graph().node(nid)));
        s["nodes"] = std::move(nodes);
        Json edges = Json::array();
        for (EdgeId eid : st.graph().edges()) {
            const auto& e = st.graph().edge(eid);
            Json je = Json::object();
            je["src"] = static_cast<std::int64_t>(e.src);
            je["dst"] = static_cast<std::int64_t>(e.dst);
            je["data"] = e.data.memlet.data;
            je["subset"] = subset_to_json(e.data.memlet.subset);
            je["src_conn"] = e.data.src_conn;
            je["dst_conn"] = e.data.dst_conn;
            edges.push_back(std::move(je));
        }
        s["edges"] = std::move(edges);
        states.push_back(std::move(s));
    }
    root["states"] = std::move(states);

    Json isedges = Json::array();
    for (graph::EdgeId eid : sdfg.cfg().edges()) {
        const auto& e = sdfg.cfg().edge(eid);
        Json je = Json::object();
        je["src"] = static_cast<std::int64_t>(e.src);
        je["dst"] = static_cast<std::int64_t>(e.dst);
        if (e.data.condition) je["condition"] = e.data.condition->to_string();
        Json assigns = Json::array();
        for (const auto& [symbol, expr] : e.data.assignments) {
            Json pair = Json::array();
            pair.push_back(Json(symbol));
            pair.push_back(expr_to_json(expr));
            assigns.push_back(std::move(pair));
        }
        je["assignments"] = std::move(assigns);
        isedges.push_back(std::move(je));
    }
    root["interstate_edges"] = std::move(isedges);
    return root;
}

SDFG sdfg_from_json(const Json& j) {
    SDFG sdfg(j.at("name").as_string());
    for (const auto& s : j.at("symbols").as_array()) sdfg.add_symbol(s.as_string());

    for (const auto& c : j.at("containers").as_array()) {
        std::vector<sym::ExprPtr> shape;
        for (const auto& extent : c.at("shape").as_array()) shape.push_back(expr_from_json(extent));
        DataDesc& desc =
            sdfg.add_array(c.at("name").as_string(), dtype_from_name(c.at("dtype").as_string()),
                           std::move(shape), c.at("transient").as_bool(),
                           storage_from_name(c.at("storage").as_string()));
        (void)desc;
    }

    // States: serialized ids may be sparse; remap.
    std::map<std::int64_t, StateId> state_map;
    for (const auto& s : j.at("states").as_array()) {
        const StateId sid = sdfg.add_state(s.at("name").as_string());
        state_map[s.at("id").as_int()] = sid;
        State& st = sdfg.state(sid);
        std::map<std::int64_t, NodeId> node_map;
        std::int32_t max_scope = -1;
        for (const auto& nj : s.at("nodes").as_array()) {
            DataflowNode n = node_from_json(nj);
            max_scope = std::max(max_scope, n.scope_id);
            node_map[nj.at("id").as_int()] = st.graph().add_node(std::move(n));
        }
        st.skip_scope_ids(max_scope);
        const auto& edges = s.at("edges").as_array();
        for (std::size_t k = 0; k < edges.size(); ++k) {
            const Json& ej = edges[k];
            const std::string edge = "state " + std::to_string(sid) + " edge " + std::to_string(k);
            MemletEdge me;
            me.memlet.data = ej.at("data").as_string();
            me.memlet.subset = subset_from_json(ej.at("subset"));
            me.src_conn = ej.at("src_conn").as_string();
            me.dst_conn = ej.at("dst_conn").as_string();
            st.graph().add_edge(remapped(node_map, ej.at("src"), edge + ": no src node"),
                                remapped(node_map, ej.at("dst"), edge + ": no dst node"),
                                std::move(me));
        }
    }

    sdfg.set_start_state(remapped(state_map, j.at("start_state"), "start_state: no state"));

    const auto& isedges = j.at("interstate_edges").as_array();
    for (std::size_t k = 0; k < isedges.size(); ++k) {
        const Json& ej = isedges[k];
        const std::string edge = "interstate edge " + std::to_string(k);
        InterstateEdge e;
        if (ej.contains("condition")) e.condition = sym::parse_bool(ej.at("condition").as_string());
        for (const auto& pair : ej.at("assignments").as_array()) {
            if (pair.as_array().size() != 2)
                throw common::ParseError(edge + ": an assignment is not a [symbol, expr] pair");
            e.assignments.emplace_back(pair.as_array()[0].as_string(),
                                       expr_from_json(pair.as_array()[1]));
        }
        sdfg.add_interstate_edge(remapped(state_map, ej.at("src"), edge + ": no src state"),
                                 remapped(state_map, ej.at("dst"), edge + ": no dst state"),
                                 std::move(e));
    }
    return sdfg;
}

}  // namespace ff::ir
