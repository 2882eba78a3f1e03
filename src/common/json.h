// Minimal self-contained JSON value, writer and parser.
//
// Used for SDFG serialization and for the minimal-reproducer test cases the
// fuzzer emits (Sec. 5.1: "fully reproducible, minimal test case including
// inputs").  No external dependencies; supports the JSON subset we emit
// (objects, arrays, strings, doubles, 64-bit integers, booleans, null).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.h"

namespace ff::common {

/// Syntax error from Json::parse carrying the 1-based source position, so
/// file-level readers can turn it into a `file, line N` diagnostic
/// (FileParseError) instead of a bare parse throw.
class JsonParseError : public ParseError {
public:
    JsonParseError(int line, int column, const std::string& detail)
        : ParseError("json: line " + std::to_string(line) + ", column " +
                     std::to_string(column) + ": " + detail),
          line_(line),
          column_(column),
          detail_(detail) {}
    int line() const { return line_; }
    int column() const { return column_; }
    const std::string& detail() const { return detail_; }

private:
    int line_;
    int column_;
    std::string detail_;
};

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// A JSON value with value semantics.
class Json {
public:
    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(std::int64_t i) : value_(i) {}
    Json(int i) : value_(static_cast<std::int64_t>(i)) {}
    Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
    Json(double d) : value_(d) {}
    Json(const char* s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}
    Json(JsonArray a) : value_(std::move(a)) {}
    Json(JsonObject o) : value_(std::move(o)) {}

    static Json array() { return Json(JsonArray{}); }
    static Json object() { return Json(JsonObject{}); }

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
    bool is_bool() const { return std::holds_alternative<bool>(value_); }
    bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
    bool is_double() const { return std::holds_alternative<double>(value_); }
    bool is_number() const { return is_int() || is_double(); }
    bool is_string() const { return std::holds_alternative<std::string>(value_); }
    bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
    bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

    /// Typed reads.  A value of another type throws ParseError naming the
    /// expected and the actual type — a wrong-typed field is malformed
    /// input, not an internal error.  as_int and as_double accept either
    /// number type, but as_int takes a double only when it is integral and
    /// in int64 range, and throws ParseError otherwise.
    bool as_bool() const { return get<bool>("a boolean"); }
    std::int64_t as_int() const;
    double as_double() const;
    const std::string& as_string() const { return get<std::string>("a string"); }
    const JsonArray& as_array() const { return get<JsonArray>("an array"); }
    JsonArray& as_array() { return get<JsonArray>("an array"); }
    const JsonObject& as_object() const { return get<JsonObject>("an object"); }
    JsonObject& as_object() { return get<JsonObject>("an object"); }

    /// Object member access; inserts null when missing (non-const).
    Json& operator[](const std::string& key);
    /// Const object member access; throws ParseError when missing.
    const Json& at(const std::string& key) const;
    bool contains(const std::string& key) const;

    void push_back(Json v) { as_array().push_back(std::move(v)); }

    /// Serialize.  `indent < 0` means compact single-line output.
    std::string dump(int indent = -1) const;

    /// Parse from text; throws ParseError on malformed input.
    static Json parse(std::string_view text);

    /// Reads and parses a whole file; throws Error when the file cannot be
    /// read, ParseError on malformed JSON.  The one loader path for SDFG
    /// files, shard manifests and reproducer test cases.
    static Json parse_file(const std::string& path);

private:
    template <typename T>
    const T& get(const char* expected) const {
        if (const T* v = std::get_if<T>(&value_)) return *v;
        wrong_type(expected);
    }
    template <typename T>
    T& get(const char* expected) {
        if (T* v = std::get_if<T>(&value_)) return *v;
        wrong_type(expected);
    }
    /// Throws ParseError: "json value is not <expected> (got <actual>)".
    [[noreturn]] void wrong_type(const char* expected) const;

    std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, JsonArray, JsonObject>
        value_;
};

/// Human name of a Json value's runtime type ("object", "integer", ...).
const char* json_type_name(const Json& j);

/// Typed field accessors with self-describing errors.  `json_int(j, "seed")`
/// throws ParseError("key 'seed': expected an integer, got a string")
/// instead of a bare variant access failure — every wire-format reader
/// (shard manifests, record streams) goes through these so malformed input
/// names the offending field and the expected shape.
std::int64_t json_int(const Json& j, const std::string& key);
double json_double(const Json& j, const std::string& key);
bool json_bool(const Json& j, const std::string& key);
const std::string& json_string(const Json& j, const std::string& key);
const JsonObject& json_object_field(const Json& j, const std::string& key);

}  // namespace ff::common
