// The tasklet mini-language.
//
// Tasklets are the leaf computations of the dataflow graph.  Their code is a
// short sequence of assignments over scalar (or short fixed-width vector)
// connectors, e.g.:
//
//     out = cin + a * b
//     v[0] = a[0] * s; v[1] = a[1] * s       (vectorized form)
//     y = x > 0 ? x : 0
//
// Connectors bind to memlets on the enclosing graph edges.  Variables read
// before being assigned are *input* connectors; variables ever assigned are
// *output* connectors (assigned-then-read names are locals and outputs).
//
// Numeric model: a value is either double or int64.  Mixed arithmetic
// promotes to double; integer division/modulo use floor semantics to agree
// with the symbolic layer.  Comparisons and logical operators yield int 0/1.
// Double min/max ignore a NaN operand (like fmin/fmax) and order -0 below
// +0, so every engine gives the same bits for a ±0 pair.
//
// Execution engines (one program; an AST walker and one bytecode VM):
//
//  * Reference: a recursive AST walker (`execute`) over a string-keyed
//    ConnectorEnv.  Kept as the semantic ground truth for differential
//    testing and selectable via ExecConfig::use_compiled_tasklets = false.
//  * Compiled: at parse time every program is lowered to a flat bytecode
//    register program, run by one VM template (`run_vm`).  Lowering
//    constant-folds pure subexpressions, resolves every connector reference
//    to a fixed *slot* index (no string lookups at runtime), lowers
//    short-circuit && / || and ternaries to conditional jumps, and turns
//    statically-detectable unbound-lane reads into trap instructions so both
//    engines fail identically.  The VM runs against caller-provided flat
//    arrays (slots + registers) and performs no heap allocation — this is
//    the innermost loop of every fuzzing trial (one execution per map
//    point).  Its value representation is the tagged Value, or — where a
//    parse-time analysis proves it bit-identical — a raw double;
//    straight-line programs can also run n lanes at once in columns.
//
// Programs are parsed once and cached by the interpreter.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ff::interp {

/// `d` truncated toward zero, defined for every double: NaN and values
/// outside int64 give INT64_MIN, which is what x86-64's cvttsd2si returns
/// for them, so results match a plain cast there.
inline std::int64_t truncate_to_int64(double d) {
    // [-2^63, 2^63) converts exactly; NaN fails both comparisons.
    return d >= -0x1p63 && d < 0x1p63 ? static_cast<std::int64_t>(d)
                                      : std::numeric_limits<std::int64_t>::min();
}

/// A scalar runtime value: double or int64.
struct Value {
    bool is_float = true;
    double f = 0.0;
    std::int64_t i = 0;

    static Value from_double(double d) { return Value{true, d, 0}; }
    static Value from_int(std::int64_t v) { return Value{false, 0.0, v}; }

    double as_double() const { return is_float ? f : static_cast<double>(i); }
    std::int64_t as_int() const { return is_float ? truncate_to_int64(f) : i; }
    bool truthy() const { return is_float ? f != 0.0 : i != 0; }
};

/// Connector storage during one tasklet execution: name -> lane values.
/// Used by the reference engine and by tests; the compiled engine replaces
/// it with a flat slot array.
using ConnectorEnv = std::map<std::string, std::vector<Value>>;

/// One connector (or local) of a compiled program: its contiguous lane
/// range [base, base + width) in the flat slot array.
struct SlotDesc {
    std::string name;
    int base = 0;
    int width = 1;
    bool is_input = false;   ///< Read before ever being assigned.
    bool is_output = false;  ///< Assigned somewhere in the program.
};

/// A parsed, immutable tasklet program.
class TaskletProgram {
public:
    /// Parses `code` and lowers it to bytecode; throws common::ParseError.
    static std::shared_ptr<const TaskletProgram> parse(const std::string& code);

    /// Input connectors: name -> width (1 for scalars).
    const std::map<std::string, int>& reads() const { return reads_; }
    /// Output connectors: name -> width.
    const std::map<std::string, int>& writes() const { return writes_; }

    /// Reference engine: executes the program by walking the AST.  `env`
    /// must contain every input connector with at least the declared width;
    /// outputs are created/overwritten.  Throws common::Error on missing
    /// inputs.
    void execute(ConnectorEnv& env) const;

    // --- Compiled engine ---

    /// Slot layout: every variable (inputs, outputs, locals) occupies a
    /// contiguous lane range in the flat slot array.
    const std::vector<SlotDesc>& slot_table() const { return slot_table_; }
    /// Size of the flat slot array `run_vm` operates on.
    int slot_count() const { return slot_count_; }
    /// Number of scratch registers the VM needs.
    int reg_count() const { return reg_count_; }

    /// Runs the bytecode program.  `T` is the value representation:
    ///  * Value: the tagged VM, valid for every program;
    ///  * double: only when has_f64_variant().
    /// With kBatch = false, `slots` holds slot_count() values with all input
    /// lanes pre-loaded (output/local lanes zeroed), `regs` holds
    /// reg_count() values (contents ignored) and `n` is ignored.  With
    /// kBatch = true (double only, when is_straightline()) both are
    /// arrays of `n`-element columns — slot s occupies slots[s*n .. s*n+n) —
    /// and every instruction runs as one auto-vectorizable loop over the
    /// batch: the inner loop of the segment tier.  Performs no heap
    /// allocation.  Throws common::Error on a trap and on integer
    /// division/modulo by zero.
    template <typename T, bool kBatch = false>
    void run_vm(T* slots, T* regs, std::int64_t n = 1) const;

    /// Convenience wrapper driving the tagged VM from a ConnectorEnv
    /// (marshals in/out; used by tests to compare engines).  Semantics match
    /// `execute`, including missing-input errors.
    void execute_compiled(ConnectorEnv& env) const;

    // --- Untagged variant ---

    /// Whether the untagged double representation (run_vm<double>) exists.
    ///
    /// At parse time an abstract interpretation over the bytecode decides
    /// whether — assuming every input lane arrives as a double, which the
    /// interpreter guarantees by selecting this engine only for tasklets
    /// whose connectors all bind F64 containers — representing every runtime
    /// value as a raw double is bit-identical to the tagged VM.  The checks:
    /// no trap instructions; no Div/Mod whose operands could both be integers
    /// (those take the floor-semantics int path in the tagged VM); no
    /// integer intermediate whose magnitude could exceed 2^50 (doubles
    /// represent such values exactly, so int and double arithmetic agree);
    /// and no Neg of a possible integer nor Mul of two possible integers one
    /// of which could be negative (integer zero has no sign, so the int path
    /// gives +0 where double arithmetic gives -0).
    /// Comparisons, min/max and promotions already evaluate through
    /// as_double() in the tagged VM, so 0/1 booleans and small integer
    /// constants are representation-equivalent.
    bool has_f64_variant() const { return f64_feasible_; }

    /// Whether the bytecode is straight-line: no jump, no conditional jump,
    /// no trap.  Only straight-line programs can execute vertically (one
    /// instruction over a whole lane batch, run_vm<double, true>), so the
    /// interpreter's segment kernels require this in addition to the untagged
    /// variant.
    bool is_straightline() const { return straightline_; }

    /// Connectors for which the compiler emitted unbound-lane traps (a read
    /// of a non-input lane no earlier statement assigns).  The interpreter
    /// falls back to the reference engine when a graph edge binds one of
    /// these at runtime — only then could the reference engine succeed.
    const std::vector<std::string>& trap_connectors() const { return trap_connectors_; }

    const std::string& source() const { return source_; }

private:
    TaskletProgram() = default;

    // Compact AST in an index-based arena (reference engine + compiler input).
    enum class Op : std::uint8_t {
        ConstF, ConstI, Load,              // leaf
        Neg, Not,                          // unary
        Add, Sub, Mul, Div, Mod,           // arithmetic
        Lt, Le, Gt, Ge, Eq, Ne,            // comparison
        And, Or,                           // logical
        Ternary,                           // cond ? a : b
        Min, Max, Abs, Exp, Log, Sqrt,     // functions
        Sin, Cos, Tanh, Pow, Floor, Ceil,
        Select,                            // select(cond, a, b)
    };
    struct Node {
        Op op;
        double fval = 0.0;
        std::int64_t ival = 0;
        int var = -1;   // index into var_names_ for Load
        int lane = 0;   // lane for Load
        int a = -1, b = -1, c = -1;  // child node indices
    };
    struct Stmt {
        int var;   // index into var_names_
        int lane;
        int expr;  // root node index
    };

    // Bytecode: a flat register program.  Operands are register indices
    // except where noted; jump targets are instruction indices.
    enum class BC : std::uint8_t {
        Const,        // regs[dst] = consts[a]
        LoadSlot,     // regs[dst] = slots[a]
        StoreSlot,    // slots[a] = regs[b]
        Bool,         // regs[dst] = truthy(regs[a]) as int 0/1
        Trap,         // throw unbound-connector error for var_names_[a]
        Jump,         // pc = a
        JumpIfFalse,  // if !truthy(regs[a]) pc = b
        JumpIfTrue,   // if truthy(regs[a]) pc = b
        Neg, Not, Abs, Exp, Log, Sqrt, Sin, Cos, Tanh, Floor, Ceil,  // regs[dst] = op(regs[a])
        Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, Eq, Ne,  // regs[dst] = op(regs[a], regs[b])
        Min, Max, Pow,
    };
    struct BCInstr {
        BC op;
        std::int32_t dst = 0;
        std::int32_t a = 0;
        std::int32_t b = 0;
    };

    Value eval(int node, const std::vector<std::vector<Value>*>& slots) const;

    std::string source_;
    std::vector<Node> nodes_;
    std::vector<Stmt> stmts_;
    std::vector<std::string> var_names_;
    std::map<std::string, int> reads_;
    std::map<std::string, int> writes_;

    // Compiled form (built once at parse time by TaskletCompiler).
    std::vector<BCInstr> bytecode_;
    std::vector<Value> consts_;
    std::vector<double> f64consts_;  ///< consts_ as doubles (run_vm<double>).
    bool f64_feasible_ = false;      ///< See has_f64_variant().
    bool straightline_ = false;      ///< See is_straightline().
    std::vector<SlotDesc> slot_table_;  // indexed by var index
    std::vector<std::string> trap_connectors_;
    int slot_count_ = 0;
    int reg_count_ = 0;

    friend class TaskletParser;
    friend class TaskletCompiler;
};

using TaskletProgramPtr = std::shared_ptr<const TaskletProgram>;

}  // namespace ff::interp
