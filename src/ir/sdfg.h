// Stateful dataflow multigraph: the outer hierarchy level.
//
// An SDFG is a state machine whose nodes are dataflow states and whose edges
// carry a condition (symbolic boolean) plus symbol assignments, exactly as in
// the DaCe IR (Sec. 2.3).  Execution starts at the start state and follows
// the first outgoing edge whose condition holds, applying its assignments;
// it terminates when no edge matches.
//
// The whole structure has value semantics: copying an SDFG deep-copies the
// graphs (expressions are immutable and shared), which is what cutout
// extraction and black-box change isolation rely on.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "ir/data_desc.h"
#include "ir/state.h"

namespace ff::ir {

/// Condition + symbol assignments on a state machine transition.
struct InterstateEdge {
    sym::BoolExprPtr condition;  ///< nullptr means "always true".
    std::vector<std::pair<std::string, sym::ExprPtr>> assignments;

    std::string to_string() const;
};

using StateId = graph::NodeId;

class SDFG {
public:
    using CFG = graph::DiGraph<State, InterstateEdge>;

    SDFG() : plan_uid_(next_plan_uid()) {}
    explicit SDFG(std::string name) : name_(std::move(name)), plan_uid_(next_plan_uid()) {}

    // Copies get a fresh plan uid (their states are new objects); moves keep
    // it (the state storage — and thus every cached plan's pointers — moves
    // intact).  The moved-from SDFG is re-identified so its reuse can never
    // alias the moved-to graph in a plan cache.
    SDFG(const SDFG& other);
    SDFG(SDFG&& other) noexcept;
    SDFG& operator=(const SDFG& other);
    SDFG& operator=(SDFG&& other) noexcept;

    const std::string& name() const { return name_; }
    void set_name(std::string n) { name_ = std::move(n); }

    // --- Containers ---

    /// Adds an array container; returns its descriptor.
    DataDesc& add_array(const std::string& name, DType dtype, std::vector<sym::ExprPtr> shape,
                        bool transient = false, Storage storage = Storage::Host);

    /// Adds a scalar container.
    DataDesc& add_scalar(const std::string& name, DType dtype, bool transient = false);

    bool has_container(const std::string& name) const { return containers_.count(name) > 0; }
    const DataDesc& container(const std::string& name) const;
    DataDesc& container(const std::string& name);
    const std::map<std::string, DataDesc>& containers() const { return containers_; }
    void remove_container(const std::string& name) { containers_.erase(name); }

    // --- Symbols (free integer parameters) ---

    void add_symbol(const std::string& name) { symbols_.insert(name); }
    const std::set<std::string>& symbols() const { return symbols_; }
    bool has_symbol(const std::string& name) const { return symbols_.count(name) > 0; }
    void remove_symbol(const std::string& name) { symbols_.erase(name); }

    // --- State machine ---

    StateId add_state(const std::string& name, bool is_start = false);

    graph::EdgeId add_interstate_edge(StateId src, StateId dst, InterstateEdge edge = {});

    State& state(StateId id) { return cfg_.node(id); }
    const State& state(StateId id) const { return cfg_.node(id); }

    CFG& cfg() { return cfg_; }
    const CFG& cfg() const { return cfg_; }

    StateId start_state() const { return start_state_; }
    void set_start_state(StateId id) { start_state_ = id; }

    std::vector<StateId> states() const { return cfg_.nodes(); }

    // --- Utilities ---

    /// Unique container name derived from `base`.
    std::string fresh_container_name(const std::string& base) const;

    /// Free symbols used anywhere (shapes, memlets, ranges, conditions)
    /// minus map parameters (which are scope-bound).
    std::set<std::string> used_free_symbols() const;

    /// Structural validation; throws common::ValidationError.
    void validate() const;

    std::string to_string() const;

    // --- Plan-cache identity (interpreter support) ---

    /// Counter the interpreter plan caches key on: bumping it invalidates
    /// every cached plan for this SDFG, so a mutated graph can safely reuse
    /// a warm interpreter instead of requiring a fresh instance.
    ///
    /// Contract: xform::Transformation::apply bumps it automatically.  Code
    /// that mutates the IR *directly* (add_state, State::add_edge, ...)
    /// after an interpreter has already executed this graph must call
    /// bump_mutation_epoch() itself — otherwise warm interpreters keep
    /// serving plans built from the pre-mutation graph.  (Build-then-run
    /// code, which never interleaves mutation with execution, needs no
    /// bumps.)
    std::uint64_t mutation_epoch() const { return mutation_epoch_; }
    void bump_mutation_epoch() { ++mutation_epoch_; }

    /// Process-unique identity of this SDFG object for plan caching.  Fresh
    /// per construction and per copy, so cache entries can never alias a
    /// different graph that reuses the same heap addresses.
    std::uint64_t plan_uid() const { return plan_uid_; }

private:
    static std::uint64_t next_plan_uid();

    std::string name_;
    std::map<std::string, DataDesc> containers_;
    std::set<std::string> symbols_;
    CFG cfg_;
    StateId start_state_ = graph::kInvalidNode;
    std::uint64_t mutation_epoch_ = 0;
    std::uint64_t plan_uid_ = 0;
};

}  // namespace ff::ir
