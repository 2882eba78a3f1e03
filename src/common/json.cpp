#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.h"

namespace ff::common {

std::int64_t Json::as_int() const {
    if (is_int()) return std::get<std::int64_t>(value_);
    if (!is_double()) wrong_type("a number");
    // [-2^63, 2^63) converts exactly; NaN fails both comparisons.
    const double d = std::get<double>(value_);
    if (d >= -0x1p63 && d < 0x1p63 && std::trunc(d) == d) return static_cast<std::int64_t>(d);
    throw ParseError("json number " + dump() + " is not an integer in int64 range");
}

double Json::as_double() const {
    if (is_double()) return std::get<double>(value_);
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    wrong_type("a number");
}

void Json::wrong_type(const char* expected) const {
    throw ParseError(std::string("json value is not ") + expected + " (got " +
                     json_type_name(*this) + ")");
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = JsonObject{};
    return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
    const auto& obj = as_object();
    auto it = obj.find(key);
    if (it == obj.end()) throw ParseError("missing json key: " + key);
    return it->second;
}

bool Json::contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
}

namespace {

void write_escaped(std::ostringstream& out, const std::string& s) {
    out << '"';
    for (char c : s) {
        switch (c) {
            case '"': out << "\\\""; break;
            case '\\': out << "\\\\"; break;
            case '\n': out << "\\n"; break;
            case '\t': out << "\\t"; break;
            case '\r': out << "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out << buf;
                } else {
                    out << c;
                }
        }
    }
    out << '"';
}

void write_double(std::ostringstream& out, double d) {
    if (std::isnan(d)) {
        out << "\"__nan__\"";  // JSON has no NaN literal; round-trips via parser hook.
        return;
    }
    if (std::isinf(d)) {
        out << (d > 0 ? "\"__inf__\"" : "\"__-inf__\"");
        return;
    }
    if (d == 0.0 && std::signbit(d)) {
        // %.17g prints "-0", which the parser reads back as the *integer*
        // zero, dropping the sign; force a double-typed literal so negative
        // zero survives a round trip (the shard wire format relies on
        // serialization being lossless).
        out << "-0.0";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out << buf;
}

}  // namespace

std::string Json::dump(int indent) const {
    std::ostringstream out;
    // Recursive lambda over the variant.
    auto dump_rec = [&](auto&& self, const Json& v, int depth) -> void {
        const std::string pad = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ') : "";
        const std::string close_pad = indent >= 0 ? std::string(static_cast<std::size_t>(indent) * depth, ' ') : "";
        const char* nl = indent >= 0 ? "\n" : "";
        if (v.is_null()) {
            out << "null";
        } else if (v.is_bool()) {
            out << (v.as_bool() ? "true" : "false");
        } else if (v.is_int()) {
            out << v.as_int();
        } else if (v.is_double()) {
            write_double(out, v.as_double());
        } else if (v.is_string()) {
            write_escaped(out, v.as_string());
        } else if (v.is_array()) {
            const auto& arr = v.as_array();
            if (arr.empty()) { out << "[]"; return; }
            out << '[' << nl;
            for (std::size_t i = 0; i < arr.size(); ++i) {
                out << pad;
                self(self, arr[i], depth + 1);
                if (i + 1 < arr.size()) out << ',';
                out << nl;
            }
            out << close_pad << ']';
        } else {
            const auto& obj = v.as_object();
            if (obj.empty()) { out << "{}"; return; }
            out << '{' << nl;
            std::size_t i = 0;
            for (const auto& [key, val] : obj) {
                out << pad;
                write_escaped(out, key);
                out << (indent >= 0 ? ": " : ":");
                self(self, val, depth + 1);
                if (++i < obj.size()) out << ',';
                out << nl;
            }
            out << close_pad << '}';
        }
    };
    dump_rec(dump_rec, *this, 0);
    return out.str();
}

namespace {

/// Recursive-descent JSON parser over a string_view cursor.
class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json parse() {
        Json v = value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& msg) const {
        // 1-based line/column of the failure point, so file-level readers
        // can report `file, line N` instead of a byte offset.
        int line = 1, column = 1;
        for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                column = 1;
            } else {
                ++column;
            }
        }
        throw JsonParseError(line, column, msg);
    }

    void skip_ws() {
        while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    Json value() {
        skip_ws();
        switch (peek()) {
            case '{': return object();
            case '[': return array();
            case '"': return string_value();
            case 't': literal("true"); return Json(true);
            case 'f': literal("false"); return Json(false);
            case 'n': literal("null"); return Json(nullptr);
            default: return number();
        }
    }

    void literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) fail("bad literal");
        pos_ += lit.size();
    }

    Json string_value() {
        std::string s = raw_string();
        // Round-trip hooks for non-finite doubles (see write_double).
        if (s == "__nan__") return Json(std::nan(""));
        if (s == "__inf__") return Json(HUGE_VAL);
        if (s == "__-inf__") return Json(-HUGE_VAL);
        return Json(std::move(s));
    }

    std::string raw_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"') break;
            if (c == '\\') {
                if (pos_ >= text_.size()) fail("bad escape");
                char e = text_[pos_++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            char h = text_[pos_++];
                            code <<= 4;
                            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
                            else fail("bad hex digit");
                        }
                        // Only BMP code points are emitted by our writer; encode UTF-8.
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xC0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        }
                        break;
                    }
                    default: fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    Json number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
                text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-'))
            ++pos_;
        const std::string_view tok = text_.substr(start, pos_ - start);
        if (tok.empty()) fail("expected number");
        const bool is_float = tok.find_first_of(".eE") != std::string_view::npos;
        if (!is_float) {
            std::int64_t i = 0;
            auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
            if (ec == std::errc() && ptr == tok.data() + tok.size()) return Json(i);
        }
        double d = 0.0;
        auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (ec != std::errc() || ptr != tok.data() + tok.size()) fail("bad number");
        return Json(d);
    }

    Json array() {
        expect('[');
        JsonArray arr;
        skip_ws();
        if (peek() == ']') { ++pos_; return Json(std::move(arr)); }
        while (true) {
            arr.push_back(value());
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            expect(']');
            break;
        }
        return Json(std::move(arr));
    }

    Json object() {
        expect('{');
        JsonObject obj;
        skip_ws();
        if (peek() == '}') { ++pos_; return Json(std::move(obj)); }
        while (true) {
            skip_ws();
            std::string key = raw_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = value();
            skip_ws();
            if (peek() == ',') { ++pos_; continue; }
            expect('}');
            break;
        }
        return Json(std::move(obj));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse(); }

Json Json::parse_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) throw Error("read failed on " + path);
    try {
        return parse(text.str());
    } catch (const JsonParseError& e) {
        throw FileParseError(path, e.line(),
                             e.detail() + " (column " + std::to_string(e.column()) + ")");
    }
}

const char* json_type_name(const Json& j) {
    if (j.is_null()) return "null";
    if (j.is_bool()) return "a boolean";
    if (j.is_int()) return "an integer";
    if (j.is_double()) return "a number";
    if (j.is_string()) return "a string";
    if (j.is_array()) return "an array";
    return "an object";
}

namespace {

const Json& field_or_throw(const Json& j, const std::string& key, const char* expected) {
    if (!j.is_object())
        throw ParseError("expected an object carrying key '" + key + "', got " +
                         json_type_name(j));
    const auto& obj = j.as_object();
    auto it = obj.find(key);
    if (it == obj.end())
        throw ParseError("missing key '" + key + "' (expected " + expected + ")");
    return it->second;
}

[[noreturn]] void wrong_type(const std::string& key, const char* expected, const Json& got) {
    throw ParseError("key '" + key + "': expected " + expected + ", got " + json_type_name(got));
}

}  // namespace

std::int64_t json_int(const Json& j, const std::string& key) {
    const Json& v = field_or_throw(j, key, "an integer");
    if (!v.is_number()) wrong_type(key, "an integer", v);
    try {
        return v.as_int();
    } catch (const ParseError& e) {
        throw ParseError("key '" + key + "': " + error_detail(e));
    }
}

double json_double(const Json& j, const std::string& key) {
    const Json& v = field_or_throw(j, key, "a number");
    if (!v.is_number()) wrong_type(key, "a number", v);
    return v.as_double();
}

bool json_bool(const Json& j, const std::string& key) {
    const Json& v = field_or_throw(j, key, "a boolean");
    if (!v.is_bool()) wrong_type(key, "a boolean", v);
    return v.as_bool();
}

const std::string& json_string(const Json& j, const std::string& key) {
    const Json& v = field_or_throw(j, key, "a string");
    if (!v.is_string()) wrong_type(key, "a string", v);
    return v.as_string();
}

const JsonObject& json_object_field(const Json& j, const std::string& key) {
    const Json& v = field_or_throw(j, key, "an object");
    if (!v.is_object()) wrong_type(key, "an object", v);
    return v.as_object();
}

}  // namespace ff::common
