#include "interp/tasklet_lang.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <type_traits>

#include "common/error.h"
#include "symbolic/expr.h"

namespace ff::interp {

using common::ParseError;

/// Recursive-descent parser for the tasklet grammar (see header).
class TaskletParser {
public:
    explicit TaskletParser(const std::string& text) : text_(text) {}

    std::shared_ptr<TaskletProgram> parse() {
        auto prog = std::shared_ptr<TaskletProgram>(new TaskletProgram());
        prog_ = prog.get();
        prog_->source_ = text_;

        while (true) {
            skip_ws();
            if (pos_ >= text_.size()) break;
            statement();
            skip_ws();
            if (pos_ < text_.size()) {
                if (text_[pos_] == ';') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '\n') {
                    ++pos_;
                    continue;
                }
                fail("expected ';' between statements");
            }
        }
        if (prog_->stmts_.empty()) fail("empty tasklet");
        finalize_connectors();
        return prog;
    }

private:
    [[noreturn]] void fail(const std::string& msg) {
        throw ParseError("tasklet '" + text_ + "' at offset " + std::to_string(pos_) + ": " + msg);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool eat(char c) {
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool eat2(const char* two) {
        skip_ws();
        if (pos_ + 1 < text_.size() && text_[pos_] == two[0] && text_[pos_ + 1] == two[1]) {
            pos_ += 2;
            return true;
        }
        return false;
    }

    char peek() {
        skip_ws();
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    std::string ident() {
        skip_ws();
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_'))
            ++pos_;
        if (start == pos_) fail("expected identifier");
        return std::string(text_.substr(start, pos_ - start));
    }

    int var_index(const std::string& name) {
        for (std::size_t i = 0; i < prog_->var_names_.size(); ++i)
            if (prog_->var_names_[i] == name) return static_cast<int>(i);
        prog_->var_names_.push_back(name);
        return static_cast<int>(prog_->var_names_.size() - 1);
    }

    int lane_suffix() {
        // Optional constant [k] lane index.
        if (!eat('[')) return 0;
        skip_ws();
        std::size_t start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
        if (start == pos_) fail("expected constant lane index");
        int lane = 0;
        std::from_chars(text_.data() + start, text_.data() + pos_, lane);
        if (!eat(']')) fail("expected ']'");
        return lane;
    }

    void statement() {
        const std::string name = ident();
        const int lane = peek() == '[' ? lane_suffix() : 0;
        if (!eat('=')) fail("expected '=' in assignment");
        const int root = expr();
        const int vi = var_index(name);
        note_write(vi, lane);
        prog_->stmts_.push_back(TaskletProgram::Stmt{vi, lane, root});
    }

    // --- Expression grammar ---

    int add_node(TaskletProgram::Node n) {
        prog_->nodes_.push_back(n);
        return static_cast<int>(prog_->nodes_.size() - 1);
    }

    int expr() { return ternary(); }

    int ternary() {
        int cond = logical_or();
        if (eat('?')) {
            int a = expr();
            if (!eat(':')) fail("expected ':' in ternary");
            int b = expr();
            TaskletProgram::Node n;
            n.op = TaskletProgram::Op::Ternary;
            n.a = cond; n.b = a; n.c = b;
            return add_node(n);
        }
        return cond;
    }

    int logical_or() {
        int lhs = logical_and();
        while (eat2("||")) lhs = binop(TaskletProgram::Op::Or, lhs, logical_and());
        return lhs;
    }

    int logical_and() {
        int lhs = comparison();
        while (eat2("&&")) lhs = binop(TaskletProgram::Op::And, lhs, comparison());
        return lhs;
    }

    int comparison() {
        int lhs = additive();
        if (eat2("<=")) return binop(TaskletProgram::Op::Le, lhs, additive());
        if (eat2(">=")) return binop(TaskletProgram::Op::Ge, lhs, additive());
        if (eat2("==")) return binop(TaskletProgram::Op::Eq, lhs, additive());
        if (eat2("!=")) return binop(TaskletProgram::Op::Ne, lhs, additive());
        if (peek() == '<') { ++pos_; return binop(TaskletProgram::Op::Lt, lhs, additive()); }
        if (peek() == '>') { ++pos_; return binop(TaskletProgram::Op::Gt, lhs, additive()); }
        return lhs;
    }

    int additive() {
        int lhs = multiplicative();
        while (true) {
            if (eat('+')) lhs = binop(TaskletProgram::Op::Add, lhs, multiplicative());
            else if (peek() == '-') { ++pos_; lhs = binop(TaskletProgram::Op::Sub, lhs, multiplicative()); }
            else break;
        }
        return lhs;
    }

    int multiplicative() {
        int lhs = unary();
        while (true) {
            if (eat('*')) lhs = binop(TaskletProgram::Op::Mul, lhs, unary());
            else if (eat('/')) lhs = binop(TaskletProgram::Op::Div, lhs, unary());
            else if (eat('%')) lhs = binop(TaskletProgram::Op::Mod, lhs, unary());
            else break;
        }
        return lhs;
    }

    int unary() {
        if (peek() == '-') {
            ++pos_;
            TaskletProgram::Node n;
            n.op = TaskletProgram::Op::Neg;
            n.a = unary();
            return add_node(n);
        }
        if (peek() == '!') {
            ++pos_;
            TaskletProgram::Node n;
            n.op = TaskletProgram::Op::Not;
            n.a = unary();
            return add_node(n);
        }
        return primary();
    }

    int binop(TaskletProgram::Op op, int a, int b) {
        TaskletProgram::Node n;
        n.op = op;
        n.a = a;
        n.b = b;
        return add_node(n);
    }

    int primary() {
        skip_ws();
        if (pos_ >= text_.size()) fail("unexpected end of tasklet");
        const char c = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') return number();
        if (c == '(') {
            ++pos_;
            int e = expr();
            if (!eat(')')) fail("expected ')'");
            return e;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const std::string name = ident();
            if (peek() == '(') return function_call(name);
            const int lane = peek() == '[' ? lane_suffix() : 0;
            const int vi = var_index(name);
            note_read(vi, lane);
            TaskletProgram::Node n;
            n.op = TaskletProgram::Op::Load;
            n.var = vi;
            n.lane = lane;
            return add_node(n);
        }
        fail("unexpected character");
    }

    int number() {
        skip_ws();
        std::size_t start = pos_;
        bool is_float = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) { ++pos_; continue; }
            if (c == '.' || c == 'e' || c == 'E') { is_float = true; ++pos_; continue; }
            if ((c == '+' || c == '-') && pos_ > start &&
                (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')) { ++pos_; continue; }
            break;
        }
        const std::string_view tok(text_.data() + start, pos_ - start);
        TaskletProgram::Node n;
        if (is_float) {
            n.op = TaskletProgram::Op::ConstF;
            double d = 0;
            auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
            if (ec != std::errc()) fail("bad number");
            (void)p;
            n.fval = d;
        } else {
            n.op = TaskletProgram::Op::ConstI;
            std::int64_t v = 0;
            auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
            if (ec != std::errc()) fail("bad number");
            (void)p;
            n.ival = v;
        }
        return add_node(n);
    }

    int function_call(const std::string& name) {
        using Op = TaskletProgram::Op;
        struct Fn { const char* name; Op op; int arity; };
        static constexpr Fn kFns[] = {
            {"min", Op::Min, 2},   {"max", Op::Max, 2},   {"abs", Op::Abs, 1},
            {"exp", Op::Exp, 1},   {"log", Op::Log, 1},   {"sqrt", Op::Sqrt, 1},
            {"sin", Op::Sin, 1},   {"cos", Op::Cos, 1},   {"tanh", Op::Tanh, 1},
            {"pow", Op::Pow, 2},   {"floor", Op::Floor, 1}, {"ceil", Op::Ceil, 1},
            {"select", Op::Select, 3},
        };
        const Fn* fn = nullptr;
        for (const Fn& f : kFns)
            if (name == f.name) { fn = &f; break; }
        if (!fn) fail("unknown function: " + name);
        if (!eat('(')) fail("expected '('");
        TaskletProgram::Node n;
        n.op = fn->op;
        n.a = expr();
        if (fn->arity >= 2) {
            if (!eat(',')) fail("expected ','");
            n.b = expr();
        }
        if (fn->arity >= 3) {
            if (!eat(',')) fail("expected ','");
            n.c = expr();
        }
        if (!eat(')')) fail("expected ')'");
        return add_node(n);
    }

    // --- Connector classification ---

    void note_read(int var, int lane) {
        const std::string& name = prog_->var_names_[static_cast<std::size_t>(var)];
        if (assigned_.count(name)) return;  // local: assigned earlier in program order
        auto& width = pending_reads_[name];
        width = std::max(width, lane + 1);
    }

    void note_write(int var, int lane) {
        const std::string& name = prog_->var_names_[static_cast<std::size_t>(var)];
        assigned_.insert(name);
        auto& width = pending_writes_[name];
        width = std::max(width, lane + 1);
    }

    void finalize_connectors() {
        prog_->reads_ = pending_reads_;
        prog_->writes_ = pending_writes_;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    TaskletProgram* prog_ = nullptr;
    std::set<std::string> assigned_;
    std::map<std::string, int> pending_reads_;
    std::map<std::string, int> pending_writes_;
};

// --- Shared scalar operator semantics -------------------------------------
//
// Both engines (AST walker + bytecode VM) call through these helpers so the
// numeric model cannot drift between them.

namespace {

inline Value make_bool(bool b) { return Value::from_int(b ? 1 : 0); }

inline Value op_neg(const Value& a) {
    return a.is_float ? Value::from_double(-a.f) : Value::from_int(-a.i);
}

inline Value op_abs(const Value& a) {
    return a.is_float ? Value::from_double(std::fabs(a.f)) : Value::from_int(a.i < 0 ? -a.i : a.i);
}

inline Value op_add(const Value& a, const Value& b) {
    return (a.is_float || b.is_float) ? Value::from_double(a.as_double() + b.as_double())
                                      : Value::from_int(a.i + b.i);
}

inline Value op_sub(const Value& a, const Value& b) {
    return (a.is_float || b.is_float) ? Value::from_double(a.as_double() - b.as_double())
                                      : Value::from_int(a.i - b.i);
}

inline Value op_mul(const Value& a, const Value& b) {
    return (a.is_float || b.is_float) ? Value::from_double(a.as_double() * b.as_double())
                                      : Value::from_int(a.i * b.i);
}

inline Value op_div(const Value& a, const Value& b) {
    if (a.is_float || b.is_float) return Value::from_double(a.as_double() / b.as_double());
    return Value::from_int(sym::floordiv_i64(a.i, b.i));
}

inline Value op_mod(const Value& a, const Value& b) {
    if (a.is_float || b.is_float)
        return Value::from_double(std::fmod(a.as_double(), b.as_double()));
    return Value::from_int(sym::floormod_i64(a.i, b.i));
}

// Double min/max with one answer on every tier: a NaN operand loses (as in
// fmin/fmax), and -0 orders below +0.  libm's fmin/fmax may return either
// zero of a ±0 pair, and did differ between call sites.
inline double min_f64(double a, double b) {
    if (a < b || std::isnan(b)) return a;
    if (b < a || std::isnan(a)) return b;
    return std::signbit(a) ? a : b;
}

inline double max_f64(double a, double b) {
    if (a > b || std::isnan(b)) return a;
    if (b > a || std::isnan(a)) return b;
    return std::signbit(a) ? b : a;
}

inline Value op_min(const Value& a, const Value& b) {
    return (a.is_float || b.is_float) ? Value::from_double(min_f64(a.as_double(), b.as_double()))
                                      : Value::from_int(std::min(a.i, b.i));
}

inline Value op_max(const Value& a, const Value& b) {
    return (a.is_float || b.is_float) ? Value::from_double(max_f64(a.as_double(), b.as_double()))
                                      : Value::from_int(std::max(a.i, b.i));
}

}  // namespace

Value TaskletProgram::eval(int node, const std::vector<std::vector<Value>*>& slots) const {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    switch (n.op) {
        case Op::ConstF: return Value::from_double(n.fval);
        case Op::ConstI: return Value::from_int(n.ival);
        case Op::Load: {
            const std::vector<Value>* slot = slots[static_cast<std::size_t>(n.var)];
            if (!slot || static_cast<std::size_t>(n.lane) >= slot->size())
                throw common::Error("tasklet: unbound connector '" +
                                    var_names_[static_cast<std::size_t>(n.var)] + "'");
            return (*slot)[static_cast<std::size_t>(n.lane)];
        }
        case Op::Neg: return op_neg(eval(n.a, slots));
        case Op::Not: return make_bool(!eval(n.a, slots).truthy());
        default: break;
    }

    // Binary and ternary operators.
    if (n.op == Op::Ternary)
        return eval(n.a, slots).truthy() ? eval(n.b, slots) : eval(n.c, slots);
    if (n.op == Op::Select)
        return eval(n.a, slots).truthy() ? eval(n.b, slots) : eval(n.c, slots);
    if (n.op == Op::And) {
        // Short-circuiting.
        if (!eval(n.a, slots).truthy()) return make_bool(false);
        return make_bool(eval(n.b, slots).truthy());
    }
    if (n.op == Op::Or) {
        if (eval(n.a, slots).truthy()) return make_bool(true);
        return make_bool(eval(n.b, slots).truthy());
    }

    const Value a = eval(n.a, slots);
    // Unary float functions.
    switch (n.op) {
        case Op::Abs: return op_abs(a);
        case Op::Exp: return Value::from_double(std::exp(a.as_double()));
        case Op::Log: return Value::from_double(std::log(a.as_double()));
        case Op::Sqrt: return Value::from_double(std::sqrt(a.as_double()));
        case Op::Sin: return Value::from_double(std::sin(a.as_double()));
        case Op::Cos: return Value::from_double(std::cos(a.as_double()));
        case Op::Tanh: return Value::from_double(std::tanh(a.as_double()));
        case Op::Floor: return Value::from_double(std::floor(a.as_double()));
        case Op::Ceil: return Value::from_double(std::ceil(a.as_double()));
        default: break;
    }

    const Value b = eval(n.b, slots);
    switch (n.op) {
        case Op::Add: return op_add(a, b);
        case Op::Sub: return op_sub(a, b);
        case Op::Mul: return op_mul(a, b);
        case Op::Div: return op_div(a, b);
        case Op::Mod: return op_mod(a, b);
        case Op::Lt: return make_bool(a.as_double() < b.as_double());
        case Op::Le: return make_bool(a.as_double() <= b.as_double());
        case Op::Gt: return make_bool(a.as_double() > b.as_double());
        case Op::Ge: return make_bool(a.as_double() >= b.as_double());
        case Op::Eq: return make_bool(a.as_double() == b.as_double());
        case Op::Ne: return make_bool(a.as_double() != b.as_double());
        case Op::Min: return op_min(a, b);
        case Op::Max: return op_max(a, b);
        case Op::Pow: return Value::from_double(std::pow(a.as_double(), b.as_double()));
        default: break;
    }
    throw common::Error("tasklet: unhandled op");
}

void TaskletProgram::execute(ConnectorEnv& env) const {
    // Bind variable slots once: var index -> env entry.
    std::vector<std::vector<Value>*> slots(var_names_.size(), nullptr);
    for (std::size_t i = 0; i < var_names_.size(); ++i) {
        auto it = env.find(var_names_[i]);
        if (it != env.end()) slots[i] = &it->second;
    }
    // Check declared inputs.
    for (const auto& [name, width] : reads_) {
        auto it = env.find(name);
        if (it == env.end() || it->second.size() < static_cast<std::size_t>(width))
            throw common::Error("tasklet: missing input connector '" + name + "'");
    }
    for (const Stmt& s : stmts_) {
        const Value v = eval(s.expr, slots);
        const std::string& name = var_names_[static_cast<std::size_t>(s.var)];
        auto& slot = env[name];  // std::map: stable addresses on insert
        if (slot.size() <= static_cast<std::size_t>(s.lane))
            slot.resize(static_cast<std::size_t>(s.lane) + 1);
        slot[static_cast<std::size_t>(s.lane)] = v;
        slots[static_cast<std::size_t>(s.var)] = &slot;
    }
}

// --- Bytecode compiler -----------------------------------------------------
//
// Lowers the AST arena into a flat register program.  Register allocation is
// expression-local (child results live in consecutive registers), so the
// register file is as deep as the deepest expression.  Constant folding
// evaluates pure subtrees at compile time — but never folds an operation
// that could throw at runtime (integer division by a zero constant), so
// compiled and reference engines crash identically.

class TaskletCompiler {
public:
    explicit TaskletCompiler(TaskletProgram& p) : p_(p) { compile(); }

private:
    using Op = TaskletProgram::Op;
    using BC = TaskletProgram::BC;
    using BCInstr = TaskletProgram::BCInstr;

    void compile() {
        build_slot_table();
        folded_.assign(p_.nodes_.size(), std::nullopt);
        folded_known_.assign(p_.nodes_.size(), false);

        for (const TaskletProgram::Stmt& s : p_.stmts_) {
            compile_expr(s.expr, 0);
            const SlotDesc& sd = p_.slot_table_[static_cast<std::size_t>(s.var)];
            emit(BCInstr{BC::StoreSlot, 0, sd.base + s.lane, 0});
            mark_assigned(s.var, s.lane);
        }
        p_.reg_count_ = max_reg_ + 1;
        p_.straightline_ = true;
        for (const BCInstr& in : p_.bytecode_) {
            if (in.op == BC::Jump || in.op == BC::JumpIfFalse || in.op == BC::JumpIfTrue ||
                in.op == BC::Trap)
                p_.straightline_ = false;
        }
        analyze_f64();
    }

    // --- Untagged f64 feasibility (see TaskletProgram::has_f64_variant) ---

    /// Abstract value: which runtime tags a value can carry, plus — while
    /// integer — a bound on its magnitude (so we know doubles represent it
    /// exactly) and whether it can be negative.
    struct AbsVal {
        bool can_int = false;
        bool can_float = false;
        double ibound = 0.0;
        bool ineg = false;

        static AbsVal flt() { return AbsVal{false, true, 0.0, false}; }
        static AbsVal intv(double bound, bool neg = false) {
            return AbsVal{true, false, bound, neg};
        }
        /// A binary int-or-float result: integer only if both operands can be.
        static AbsVal arith(const AbsVal& a, const AbsVal& b, double bound, bool neg) {
            return AbsVal{a.can_int && b.can_int, a.can_float || b.can_float, bound, neg};
        }
        void merge(const AbsVal& o) {
            can_int = can_int || o.can_int;
            can_float = can_float || o.can_float;
            ibound = std::max(ibound, o.ibound);
            ineg = ineg || o.ineg;
        }
    };
    struct AbsState {
        std::vector<AbsVal> slots, regs;
        void merge(const AbsState& o) {
            for (std::size_t i = 0; i < slots.size(); ++i) slots[i].merge(o.slots[i]);
            for (std::size_t i = 0; i < regs.size(); ++i) regs[i].merge(o.regs[i]);
        }
    };

    /// Forward abstract interpretation over the bytecode (all jumps are
    /// forward, so one in-order pass with merges at join points converges).
    /// Assumes every slot starts as a double: input lanes are loaded from F64
    /// containers by construction of the selection rule, and non-input lanes
    /// are zero-initialized to float 0.0 by both engines.
    void analyze_f64() {
        // Integer intermediates beyond 2^50 could round in double
        // representation; products and sums of a few stay well inside 2^53.
        constexpr double kIntBound = 1125899906842624.0;  // 2^50
        const std::size_t n = p_.bytecode_.size();
        std::vector<std::optional<AbsState>> entry(n + 1);
        AbsState init;
        init.slots.assign(static_cast<std::size_t>(p_.slot_count_), AbsVal::flt());
        init.regs.assign(static_cast<std::size_t>(p_.reg_count_), AbsVal{});
        entry[0] = std::move(init);

        auto merge_into = [&](std::size_t pc, const AbsState& s) {
            if (pc > n) return;
            if (!entry[pc]) entry[pc] = s;
            else entry[pc]->merge(s);
        };

        bool feasible = true;
        for (std::size_t pc = 0; pc < n && feasible; ++pc) {
            if (!entry[pc]) continue;  // unreachable
            AbsState s = *entry[pc];
            const BCInstr& in = p_.bytecode_[pc];
            auto out = [&](AbsVal v) {
                if (v.can_int && v.ibound > kIntBound) feasible = false;
                s.regs[static_cast<std::size_t>(in.dst)] = v;
            };
            const auto ra = [&]() -> const AbsVal& {
                return s.regs[static_cast<std::size_t>(in.a)];
            };
            const auto rb = [&]() -> const AbsVal& {
                return s.regs[static_cast<std::size_t>(in.b)];
            };
            bool falls_through = true;
            switch (in.op) {
                case BC::Const: {
                    const Value& c = p_.consts_[static_cast<std::size_t>(in.a)];
                    out(c.is_float ? AbsVal::flt()
                                   : AbsVal::intv(std::fabs(static_cast<double>(c.i)), c.i < 0));
                    break;
                }
                case BC::LoadSlot: out(s.slots[static_cast<std::size_t>(in.a)]); break;
                case BC::StoreSlot:
                    s.slots[static_cast<std::size_t>(in.a)] = rb();
                    break;
                case BC::Bool: out(AbsVal::intv(1.0)); break;
                case BC::Trap: feasible = false; break;
                case BC::Jump:
                    merge_into(static_cast<std::size_t>(in.a), s);
                    falls_through = false;
                    break;
                case BC::JumpIfFalse:
                case BC::JumpIfTrue:
                    merge_into(static_cast<std::size_t>(in.b), s);
                    break;
                case BC::Neg:
                    // The int path negates 0 to +0, double negation to -0.
                    if (ra().can_int) feasible = false;
                    out(ra());
                    break;
                case BC::Abs: out(AbsVal::arith(ra(), ra(), ra().ibound, false)); break;
                case BC::Not: out(AbsVal::intv(1.0)); break;
                case BC::Exp: case BC::Log: case BC::Sqrt: case BC::Sin: case BC::Cos:
                case BC::Tanh: case BC::Floor: case BC::Ceil: case BC::Pow:
                    out(AbsVal::flt());
                    break;
                case BC::Add:
                    out(AbsVal::arith(ra(), rb(), ra().ibound + rb().ibound,
                                      ra().ineg || rb().ineg));
                    break;
                case BC::Sub:
                    out(AbsVal::arith(ra(), rb(), ra().ibound + rb().ibound, true));
                    break;
                case BC::Mul:
                    // int 0 * -n is +0, but 0.0 * -n is -0.0.
                    if (ra().can_int && rb().can_int && (ra().ineg || rb().ineg)) feasible = false;
                    out(AbsVal::arith(ra(), rb(), ra().ibound * rb().ibound,
                                      ra().ineg || rb().ineg));
                    break;
                case BC::Div:
                case BC::Mod:
                    // Both operands integer at runtime would take the tagged
                    // VM's floor-semantics (and zero-throwing) int path.
                    if (ra().can_int && rb().can_int) feasible = false;
                    out(AbsVal::flt());
                    break;
                case BC::Lt: case BC::Le: case BC::Gt: case BC::Ge:
                case BC::Eq: case BC::Ne:
                    out(AbsVal::intv(1.0));
                    break;
                case BC::Min:
                case BC::Max:
                    out(AbsVal::arith(ra(), rb(), std::max(ra().ibound, rb().ibound),
                                      ra().ineg || rb().ineg));
                    break;
            }
            if (falls_through) merge_into(pc + 1, s);
        }

        p_.f64_feasible_ = feasible;
        if (!feasible) return;
        p_.f64consts_.reserve(p_.consts_.size());
        for (const Value& c : p_.consts_) p_.f64consts_.push_back(c.as_double());
    }

    void build_slot_table() {
        const std::size_t nvars = p_.var_names_.size();
        std::vector<int> width(nvars, 1);
        auto widen = [&](int var, int lane) {
            width[static_cast<std::size_t>(var)] =
                std::max(width[static_cast<std::size_t>(var)], lane + 1);
        };
        for (const TaskletProgram::Node& n : p_.nodes_)
            if (n.op == Op::Load) widen(n.var, n.lane);
        for (const TaskletProgram::Stmt& s : p_.stmts_) widen(s.var, s.lane);

        p_.slot_table_.resize(nvars);
        assigned_lanes_.resize(nvars);
        int base = 0;
        for (std::size_t v = 0; v < nvars; ++v) {
            SlotDesc& sd = p_.slot_table_[v];
            sd.name = p_.var_names_[v];
            auto rit = p_.reads_.find(sd.name);
            auto wit = p_.writes_.find(sd.name);
            sd.is_input = rit != p_.reads_.end();
            sd.is_output = wit != p_.writes_.end();
            if (rit != p_.reads_.end()) width[v] = std::max(width[v], rit->second);
            if (wit != p_.writes_.end()) width[v] = std::max(width[v], wit->second);
            sd.width = width[v];
            sd.base = base;
            base += sd.width;
            // Input lanes arrive pre-bound; local/output lanes become
            // available as statements assign them.
            assigned_lanes_[v].assign(static_cast<std::size_t>(sd.width), sd.is_input);
        }
        p_.slot_count_ = base;
    }

    void mark_assigned(int var, int lane) {
        auto& lanes = assigned_lanes_[static_cast<std::size_t>(var)];
        if (static_cast<std::size_t>(lane) < lanes.size())
            lanes[static_cast<std::size_t>(lane)] = true;
    }

    int emit(BCInstr in) {
        p_.bytecode_.push_back(in);
        return static_cast<int>(p_.bytecode_.size() - 1);
    }

    int const_index(const Value& v) {
        p_.consts_.push_back(v);
        return static_cast<int>(p_.consts_.size() - 1);
    }

    void touch_reg(int r) { max_reg_ = std::max(max_reg_, r); }

    /// Compile-time evaluation of pure constant subtrees.  Returns nullopt
    /// when the subtree references a connector or could throw at runtime.
    std::optional<Value> fold(int ni) {
        if (folded_known_[static_cast<std::size_t>(ni)])
            return folded_[static_cast<std::size_t>(ni)];
        folded_known_[static_cast<std::size_t>(ni)] = true;
        auto& out = folded_[static_cast<std::size_t>(ni)];
        const TaskletProgram::Node& n = p_.nodes_[static_cast<std::size_t>(ni)];
        switch (n.op) {
            case Op::ConstF: out = Value::from_double(n.fval); break;
            case Op::ConstI: out = Value::from_int(n.ival); break;
            case Op::Load: break;
            case Op::Neg:
                if (auto a = fold(n.a)) out = op_neg(*a);
                break;
            case Op::Not:
                if (auto a = fold(n.a)) out = make_bool(!a->truthy());
                break;
            case Op::And: {
                auto a = fold(n.a);
                if (a && !a->truthy()) out = make_bool(false);
                else if (a) {
                    if (auto b = fold(n.b)) out = make_bool(b->truthy());
                }
                break;
            }
            case Op::Or: {
                auto a = fold(n.a);
                if (a && a->truthy()) out = make_bool(true);
                else if (a) {
                    if (auto b = fold(n.b)) out = make_bool(b->truthy());
                }
                break;
            }
            case Op::Ternary:
            case Op::Select: {
                if (auto c = fold(n.a)) out = fold(c->truthy() ? n.b : n.c);
                break;
            }
            case Op::Abs:
                if (auto a = fold(n.a)) out = op_abs(*a);
                break;
            case Op::Exp: case Op::Log: case Op::Sqrt: case Op::Sin: case Op::Cos:
            case Op::Tanh: case Op::Floor: case Op::Ceil: {
                if (auto a = fold(n.a)) out = Value::from_double(fold_unary_f(n.op, *a));
                break;
            }
            default: {  // binary arithmetic / comparison
                auto a = fold(n.a);
                auto b = fold(n.b);
                if (!a || !b) break;
                // Integer division/modulo by a zero constant throws at
                // runtime; leave it to the VM so both engines crash alike.
                if ((n.op == Op::Div || n.op == Op::Mod) && !a->is_float && !b->is_float &&
                    b->i == 0)
                    break;
                out = fold_binary(n.op, *a, *b);
                break;
            }
        }
        return out;
    }

    static double fold_unary_f(Op op, const Value& a) {
        const double x = a.as_double();
        switch (op) {
            case Op::Exp: return std::exp(x);
            case Op::Log: return std::log(x);
            case Op::Sqrt: return std::sqrt(x);
            case Op::Sin: return std::sin(x);
            case Op::Cos: return std::cos(x);
            case Op::Tanh: return std::tanh(x);
            case Op::Floor: return std::floor(x);
            case Op::Ceil: return std::ceil(x);
            default: throw common::Error("tasklet compiler: not a unary float op");
        }
    }

    static Value fold_binary(Op op, const Value& a, const Value& b) {
        switch (op) {
            case Op::Add: return op_add(a, b);
            case Op::Sub: return op_sub(a, b);
            case Op::Mul: return op_mul(a, b);
            case Op::Div: return op_div(a, b);
            case Op::Mod: return op_mod(a, b);
            case Op::Lt: return make_bool(a.as_double() < b.as_double());
            case Op::Le: return make_bool(a.as_double() <= b.as_double());
            case Op::Gt: return make_bool(a.as_double() > b.as_double());
            case Op::Ge: return make_bool(a.as_double() >= b.as_double());
            case Op::Eq: return make_bool(a.as_double() == b.as_double());
            case Op::Ne: return make_bool(a.as_double() != b.as_double());
            case Op::Min: return op_min(a, b);
            case Op::Max: return op_max(a, b);
            case Op::Pow: return Value::from_double(std::pow(a.as_double(), b.as_double()));
            default: throw common::Error("tasklet compiler: not a binary op");
        }
    }

    static BC unary_bc(Op op) {
        switch (op) {
            case Op::Neg: return BC::Neg;
            case Op::Not: return BC::Not;
            case Op::Abs: return BC::Abs;
            case Op::Exp: return BC::Exp;
            case Op::Log: return BC::Log;
            case Op::Sqrt: return BC::Sqrt;
            case Op::Sin: return BC::Sin;
            case Op::Cos: return BC::Cos;
            case Op::Tanh: return BC::Tanh;
            case Op::Floor: return BC::Floor;
            case Op::Ceil: return BC::Ceil;
            default: throw common::Error("tasklet compiler: not a unary op");
        }
    }

    static BC binary_bc(Op op) {
        switch (op) {
            case Op::Add: return BC::Add;
            case Op::Sub: return BC::Sub;
            case Op::Mul: return BC::Mul;
            case Op::Div: return BC::Div;
            case Op::Mod: return BC::Mod;
            case Op::Lt: return BC::Lt;
            case Op::Le: return BC::Le;
            case Op::Gt: return BC::Gt;
            case Op::Ge: return BC::Ge;
            case Op::Eq: return BC::Eq;
            case Op::Ne: return BC::Ne;
            case Op::Min: return BC::Min;
            case Op::Max: return BC::Max;
            case Op::Pow: return BC::Pow;
            default: throw common::Error("tasklet compiler: not a binary op");
        }
    }

    int here() const { return static_cast<int>(p_.bytecode_.size()); }

    /// Compiles `ni` so its value lands in regs[dst]; may clobber any
    /// register >= dst.
    void compile_expr(int ni, int dst) {
        touch_reg(dst);
        if (auto v = fold(ni)) {
            emit(BCInstr{BC::Const, dst, const_index(*v), 0});
            return;
        }
        const TaskletProgram::Node& n = p_.nodes_[static_cast<std::size_t>(ni)];
        switch (n.op) {
            case Op::Load: {
                const SlotDesc& sd = p_.slot_table_[static_cast<std::size_t>(n.var)];
                const auto& lanes = assigned_lanes_[static_cast<std::size_t>(n.var)];
                const bool bound = static_cast<std::size_t>(n.lane) < lanes.size() &&
                                   lanes[static_cast<std::size_t>(n.lane)];
                // A lane that is neither an input nor assigned by an earlier
                // statement can never hold a value: trap with the same error
                // the reference engine raises.  (The interpreter falls back
                // to the reference engine if an edge binds such a connector
                // at runtime — see StatePlan.)
                if (!bound) {
                    emit(BCInstr{BC::Trap, 0, n.var, 0});
                    const std::string& name = p_.var_names_[static_cast<std::size_t>(n.var)];
                    bool seen = false;
                    for (const std::string& t : p_.trap_connectors_) seen = seen || t == name;
                    if (!seen) p_.trap_connectors_.push_back(name);
                    return;
                }
                emit(BCInstr{BC::LoadSlot, dst, sd.base + n.lane, 0});
                return;
            }
            case Op::Neg: case Op::Not: case Op::Abs: case Op::Exp: case Op::Log:
            case Op::Sqrt: case Op::Sin: case Op::Cos: case Op::Tanh: case Op::Floor:
            case Op::Ceil: {
                compile_expr(n.a, dst);
                emit(BCInstr{unary_bc(n.op), dst, dst, 0});
                return;
            }
            case Op::And: {
                // fold() already handled a-constant-false / both-constant.
                if (auto a = fold(n.a)) {
                    (void)a;  // constant true: result is bool(b)
                    compile_expr(n.b, dst);
                    emit(BCInstr{BC::Bool, dst, dst, 0});
                    return;
                }
                compile_expr(n.a, dst);
                const int jf = emit(BCInstr{BC::JumpIfFalse, 0, dst, 0});
                compile_expr(n.b, dst);
                emit(BCInstr{BC::Bool, dst, dst, 0});
                const int jend = emit(BCInstr{BC::Jump, 0, 0, 0});
                p_.bytecode_[static_cast<std::size_t>(jf)].b = here();
                emit(BCInstr{BC::Const, dst, const_index(make_bool(false)), 0});
                p_.bytecode_[static_cast<std::size_t>(jend)].a = here();
                return;
            }
            case Op::Or: {
                if (auto a = fold(n.a)) {
                    (void)a;  // constant false: result is bool(b)
                    compile_expr(n.b, dst);
                    emit(BCInstr{BC::Bool, dst, dst, 0});
                    return;
                }
                compile_expr(n.a, dst);
                const int jt = emit(BCInstr{BC::JumpIfTrue, 0, dst, 0});
                compile_expr(n.b, dst);
                emit(BCInstr{BC::Bool, dst, dst, 0});
                const int jend = emit(BCInstr{BC::Jump, 0, 0, 0});
                p_.bytecode_[static_cast<std::size_t>(jt)].b = here();
                emit(BCInstr{BC::Const, dst, const_index(make_bool(true)), 0});
                p_.bytecode_[static_cast<std::size_t>(jend)].a = here();
                return;
            }
            case Op::Ternary:
            case Op::Select: {
                if (auto c = fold(n.a)) {
                    compile_expr(c->truthy() ? n.b : n.c, dst);
                    return;
                }
                compile_expr(n.a, dst);
                const int jf = emit(BCInstr{BC::JumpIfFalse, 0, dst, 0});
                compile_expr(n.b, dst);
                const int jend = emit(BCInstr{BC::Jump, 0, 0, 0});
                p_.bytecode_[static_cast<std::size_t>(jf)].b = here();
                compile_expr(n.c, dst);
                p_.bytecode_[static_cast<std::size_t>(jend)].a = here();
                return;
            }
            default: {  // binary arithmetic / comparison
                compile_expr(n.a, dst);
                compile_expr(n.b, dst + 1);
                emit(BCInstr{binary_bc(n.op), dst, dst, dst + 1});
                return;
            }
        }
    }

    TaskletProgram& p_;
    std::vector<std::optional<Value>> folded_;
    std::vector<bool> folded_known_;
    std::vector<std::vector<bool>> assigned_lanes_;
    int max_reg_ = 0;
};

std::shared_ptr<const TaskletProgram> TaskletProgram::parse(const std::string& code) {
    auto prog = TaskletParser(code).parse();
    // Lower to bytecode once; every later execution reuses the flat program.
    TaskletCompiler compiler(*prog);
    (void)compiler;
    return prog;
}

std::vector<int> TaskletProgram::loaded_lanes(const SlotDesc& sd) const {
    std::vector<bool> loaded(static_cast<std::size_t>(sd.width), false);
    for (const BCInstr& in : bytecode_)
        if (in.op == BC::LoadSlot && in.a >= sd.base && in.a < sd.base + sd.width)
            loaded[static_cast<std::size_t>(in.a - sd.base)] = true;
    std::vector<int> lanes;
    for (int l = 0; l < sd.width; ++l)
        if (loaded[static_cast<std::size_t>(l)]) lanes.push_back(l);
    return lanes;
}

// --- Bytecode VM -------------------------------------------------------------
//
// One executor for every compiled tier, instantiated per value representation
// T and lane mode.  VMRepr<T> holds a representation's operator semantics.
// The untagged double representation is only run where the parse-time
// feasibility analysis (has_f64_variant) proved it bit-identical to the
// tagged one.

namespace {

template <typename T>
struct VMRepr;

/// Tagged values: the op_* helpers the AST walker uses.
template <>
struct VMRepr<Value> {
    static Value boolean(bool b) { return make_bool(b); }
    static bool truthy(const Value& x) { return x.truthy(); }
    static double to_double(const Value& x) { return x.as_double(); }
    static Value from_double(double d) { return Value::from_double(d); }
    static Value neg(const Value& x) { return op_neg(x); }
    static Value abs(const Value& x) { return op_abs(x); }
    static Value add(const Value& x, const Value& y) { return op_add(x, y); }
    static Value sub(const Value& x, const Value& y) { return op_sub(x, y); }
    static Value mul(const Value& x, const Value& y) { return op_mul(x, y); }
    static Value div(const Value& x, const Value& y) { return op_div(x, y); }
    static Value mod(const Value& x, const Value& y) { return op_mod(x, y); }
    static Value min(const Value& x, const Value& y) { return op_min(x, y); }
    static Value max(const Value& x, const Value& y) { return op_max(x, y); }
};

/// Raw doubles: plain IEEE operations.
template <>
struct VMRepr<double> {
    static double boolean(bool b) { return b ? 1.0 : 0.0; }
    static bool truthy(double x) { return x != 0.0; }
    static double to_double(double x) { return x; }
    static double from_double(double d) { return d; }
    static double neg(double x) { return -x; }
    static double abs(double x) { return std::fabs(x); }
    static double add(double x, double y) { return x + y; }
    static double sub(double x, double y) { return x - y; }
    static double mul(double x, double y) { return x * y; }
    static double div(double x, double y) { return x / y; }
    static double mod(double x, double y) { return std::fmod(x, y); }
    static double min(double x, double y) { return min_f64(x, y); }
    static double max(double x, double y) { return max_f64(x, y); }
};

}  // namespace

template <typename T, bool kBatch>
void TaskletProgram::run_vm(T* slots, T* regs, std::int64_t n) const {
    using R = VMRepr<T>;
    const T* consts = [&] {
        if constexpr (std::is_same_v<T, Value>) return consts_.data();
        else return f64consts_.data();
    }();
    // Lanes per column.  In batch mode every instruction is one
    // auto-vectorizable loop over the column (no cross-lane dependency, no
    // branch); the scalar mode's loops are a single lane.
    const std::int64_t w = kBatch ? n : 1;
    const BCInstr* code = bytecode_.data();
    const std::size_t len = bytecode_.size();
    for (std::size_t pc = 0; pc < len;) {
        const BCInstr& in = code[pc++];
        T* d = regs + in.dst * w;
        const auto unary = [&](auto f) {
            const T* a = regs + in.a * w;
            for (std::int64_t j = 0; j < w; ++j) d[j] = f(a[j]);
        };
        const auto binary = [&](auto f) {
            const T* a = regs + in.a * w;
            const T* b = regs + in.b * w;
            for (std::int64_t j = 0; j < w; ++j) d[j] = f(a[j], b[j]);
        };
        const auto compare = [&](auto cmp) {
            binary([&](T x, T y) { return R::boolean(cmp(R::to_double(x), R::to_double(y))); });
        };
        // Float-valued functions evaluate on the double conversion.
        const auto unary_f = [&](auto f) {
            unary([&](T x) { return R::from_double(f(R::to_double(x))); });
        };
        const auto jump_guard = [] {
            if constexpr (kBatch)
                throw common::Error("tasklet: batch engine on non-straight-line program");
        };
        switch (in.op) {
            case BC::Const: {
                const T c = consts[in.a];
                for (std::int64_t j = 0; j < w; ++j) d[j] = c;
                break;
            }
            case BC::LoadSlot: {
                const T* src = slots + in.a * w;
                for (std::int64_t j = 0; j < w; ++j) d[j] = src[j];
                break;
            }
            case BC::StoreSlot: {
                T* dst = slots + in.a * w;
                const T* src = regs + in.b * w;
                for (std::int64_t j = 0; j < w; ++j) dst[j] = src[j];
                break;
            }
            case BC::Bool: unary([](T x) { return R::boolean(R::truthy(x)); }); break;
            case BC::Trap:
                throw common::Error("tasklet: unbound connector '" +
                                    var_names_[static_cast<std::size_t>(in.a)] + "'");
            case BC::Jump:
                jump_guard();
                pc = static_cast<std::size_t>(in.a);
                break;
            case BC::JumpIfFalse:
                jump_guard();
                if (!R::truthy(regs[in.a])) pc = static_cast<std::size_t>(in.b);
                break;
            case BC::JumpIfTrue:
                jump_guard();
                if (R::truthy(regs[in.a])) pc = static_cast<std::size_t>(in.b);
                break;
            case BC::Neg: unary([](T x) { return R::neg(x); }); break;
            case BC::Not: unary([](T x) { return R::boolean(!R::truthy(x)); }); break;
            case BC::Abs: unary([](T x) { return R::abs(x); }); break;
            case BC::Exp: unary_f([](double x) { return std::exp(x); }); break;
            case BC::Log: unary_f([](double x) { return std::log(x); }); break;
            case BC::Sqrt: unary_f([](double x) { return std::sqrt(x); }); break;
            case BC::Sin: unary_f([](double x) { return std::sin(x); }); break;
            case BC::Cos: unary_f([](double x) { return std::cos(x); }); break;
            case BC::Tanh: unary_f([](double x) { return std::tanh(x); }); break;
            case BC::Floor: unary_f([](double x) { return std::floor(x); }); break;
            case BC::Ceil: unary_f([](double x) { return std::ceil(x); }); break;
            case BC::Add: binary([](T x, T y) { return R::add(x, y); }); break;
            case BC::Sub: binary([](T x, T y) { return R::sub(x, y); }); break;
            case BC::Mul: binary([](T x, T y) { return R::mul(x, y); }); break;
            case BC::Div: binary([](T x, T y) { return R::div(x, y); }); break;
            case BC::Mod: binary([](T x, T y) { return R::mod(x, y); }); break;
            case BC::Lt: compare(std::less<>{}); break;
            case BC::Le: compare(std::less_equal<>{}); break;
            case BC::Gt: compare(std::greater<>{}); break;
            case BC::Ge: compare(std::greater_equal<>{}); break;
            case BC::Eq: compare(std::equal_to<>{}); break;
            case BC::Ne: compare(std::not_equal_to<>{}); break;
            case BC::Min: binary([](T x, T y) { return R::min(x, y); }); break;
            case BC::Max: binary([](T x, T y) { return R::max(x, y); }); break;
            case BC::Pow:
                binary([](T x, T y) {
                    return R::from_double(std::pow(R::to_double(x), R::to_double(y)));
                });
                break;
        }
    }
}

template void TaskletProgram::run_vm<Value, false>(Value*, Value*, std::int64_t) const;
template void TaskletProgram::run_vm<double, false>(double*, double*, std::int64_t) const;
template void TaskletProgram::run_vm<double, true>(double*, double*, std::int64_t) const;

void TaskletProgram::execute_compiled(ConnectorEnv& env) const {
    // Same input contract as the reference engine.
    for (const auto& [name, width] : reads_) {
        auto it = env.find(name);
        if (it == env.end() || it->second.size() < static_cast<std::size_t>(width))
            throw common::Error("tasklet: missing input connector '" + name + "'");
    }
    std::vector<Value> slots(static_cast<std::size_t>(slot_count_));
    std::vector<Value> regs(static_cast<std::size_t>(reg_count_));
    for (const SlotDesc& sd : slot_table_) {
        auto it = env.find(sd.name);
        if (it == env.end()) continue;
        const std::size_t lanes =
            std::min(it->second.size(), static_cast<std::size_t>(sd.width));
        for (std::size_t l = 0; l < lanes; ++l)
            slots[static_cast<std::size_t>(sd.base) + l] = it->second[l];
    }
    run_vm(slots.data(), regs.data());
    for (const SlotDesc& sd : slot_table_) {
        if (!sd.is_output) continue;
        auto& vec = env[sd.name];
        const std::size_t width = static_cast<std::size_t>(writes_.at(sd.name));
        if (vec.size() < width) vec.resize(width);
        for (std::size_t l = 0; l < width; ++l)
            vec[l] = slots[static_cast<std::size_t>(sd.base) + l];
    }
}

}  // namespace ff::interp
