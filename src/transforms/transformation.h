// Transformation framework.
//
// A transformation matches program patterns and applies a structural rewrite
// (Sec. 2).  Transformations here are *white-box* (Sec. 3, step 2): apply()
// returns the ChangeSet ΔT of graph nodes it touched, so change isolation
// needs no graph diff.  (A black-box diff fallback lives in core/changeset.)
//
// Every pass in this library has a correct mode and, where the paper's
// evaluation calls for it, an injectable bug variant reproducing one of the
// failure classes of Table 2 / Sec. 6.4.  Bug selection is explicit at
// construction; correct-mode passes are property-tested to preserve
// semantics.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/sdfg.h"

namespace ff::xform {

/// A (state, node) pair identifying a dataflow node inside an SDFG.
struct NodeRef {
    ir::StateId state = graph::kInvalidNode;
    ir::NodeId node = graph::kInvalidNode;

    auto operator<=>(const NodeRef&) const = default;
};

/// The set of changes a transformation made (ΔT in Sec. 3).
struct ChangeSet {
    /// Modified / added dataflow nodes.  Nodes incident to changed edges are
    /// included per the paper ("both the edge source and destination nodes
    /// are considered to be modified").
    std::set<NodeRef> nodes;
    /// States whose interstate context changed (conditions/assignments);
    /// cutout extraction promotes these to whole-state granularity.
    std::set<ir::StateId> control_flow_states;

    void add(ir::StateId state, ir::NodeId node) { nodes.insert(NodeRef{state, node}); }
    void merge(const ChangeSet& other);
};

/// One applicable instance of a transformation.
struct Match {
    ir::StateId state = graph::kInvalidNode;
    std::vector<ir::NodeId> nodes;     ///< Pattern nodes (pass-specific meaning).
    graph::EdgeId cfg_edge = -1;       ///< For interstate-level patterns.
    std::string description;
};

class Transformation {
public:
    virtual ~Transformation() = default;

    virtual std::string name() const = 0;

    /// All applicable instances in `sdfg`, deterministic order.  All
    /// preconditions live here; apply() rewrites unconditionally.
    virtual std::vector<Match> find_matches(const ir::SDFG& sdfg) const = 0;

    /// White-box self-report of ΔT *before* applying: the nodes of `sdfg`
    /// this transformation will modify.  Cutouts are extracted from the
    /// original program around exactly these nodes (Sec. 3).  The default
    /// reports the pattern nodes plus the endpoints of their incident edges.
    virtual ChangeSet affected_nodes(const ir::SDFG& sdfg, const Match& match) const;

    /// Applies to one match, mutating `sdfg`, and bumps the SDFG's mutation
    /// epoch so interpreter plan caches keyed on it are invalidated — a warm
    /// interpreter can be reused on the transformed graph.  The epoch is
    /// bumped even when apply_impl throws (the graph may be half-rewritten).
    void apply(ir::SDFG& sdfg, const Match& match) const;

protected:
    /// The rewrite itself.  Must rely only on the pattern structure (so it
    /// can be replayed inside an extracted cutout through the extraction
    /// node mapping).
    virtual void apply_impl(ir::SDFG& sdfg, const Match& match) const = 0;
};

using TransformationPtr = std::unique_ptr<Transformation>;

// --- Shared code-rewriting utilities (textual, token-aware) ---

/// Renames identifier `from` to `to` in tasklet code (whole tokens only;
/// function names followed by '(' are left untouched when `from` collides).
std::string rename_identifier(const std::string& code, const std::string& from,
                              const std::string& to);

/// Rewrites scalar tasklet code into `width`-lane vector code: statements
/// are replicated per lane, and identifiers in `vector_vars` become `x[l]`
/// (other connectors are broadcast scalars and stay unindexed — but then
/// only lane 0 of such an output would be written, so vectorization requires
/// all *outputs* to be vector vars).  Used by Vectorization.
std::string vectorize_tasklet_code(const std::string& code, int width,
                                   const std::set<std::string>& vector_vars);

}  // namespace ff::xform
