#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/json.h"

namespace ff::common {
namespace {

TEST(Json, ScalarRoundTrip) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_EQ(Json::parse("42").as_int(), 42);
    EXPECT_EQ(Json::parse("-17").as_int(), -17);
    EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
    EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntegersStayIntegers) {
    const Json j = Json::parse("9007199254740993");  // 2^53 + 1
    ASSERT_TRUE(j.is_int());
    EXPECT_EQ(j.as_int(), 9007199254740993LL);
}

TEST(Json, AsIntRefusesFractionalAndOutOfRangeDoubles) {
    // A plain cast read 3.7 as 3, and 1e308 was undefined behaviour.
    EXPECT_EQ(Json::parse("4.0").as_int(), 4);
    EXPECT_EQ(Json::parse("-4e3").as_int(), -4000);
    EXPECT_EQ(Json(-0x1p63).as_int(), std::numeric_limits<std::int64_t>::min());
    for (const char* bad : {"3.7", "-0.5", "1e308", "-1e308", "9223372036854775808.0"})
        EXPECT_THROW(Json::parse(bad).as_int(), ParseError) << bad;
    EXPECT_THROW(Json(std::nan("")).as_int(), ParseError);
    EXPECT_THROW(Json(0x1p63).as_int(), ParseError);
}

TEST(Json, ContainerRoundTrip) {
    Json obj = Json::object();
    obj["name"] = "cutout";
    obj["count"] = 3;
    obj["ratio"] = 0.25;
    Json arr = Json::array();
    arr.push_back(Json(1));
    arr.push_back(Json("two"));
    arr.push_back(Json(nullptr));
    obj["items"] = std::move(arr);

    for (int indent : {-1, 2}) {
        const Json parsed = Json::parse(obj.dump(indent));
        EXPECT_EQ(parsed.at("name").as_string(), "cutout");
        EXPECT_EQ(parsed.at("count").as_int(), 3);
        EXPECT_DOUBLE_EQ(parsed.at("ratio").as_double(), 0.25);
        EXPECT_EQ(parsed.at("items").as_array().size(), 3u);
        EXPECT_TRUE(parsed.at("items").as_array()[2].is_null());
    }
}

TEST(Json, StringEscapes) {
    const std::string nasty = "line\nbreak\ttab \"quote\" back\\slash";
    const Json parsed = Json::parse(Json(nasty).dump());
    EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(Json, ControlCharacterEscapes) {
    std::string s = "a";
    s += static_cast<char>(1);
    s += "b";
    EXPECT_EQ(Json::parse(Json(s).dump()).as_string(), s);
}

TEST(Json, NonFiniteDoubles) {
    EXPECT_TRUE(std::isnan(Json::parse(Json(std::nan("")).dump()).as_double()));
    EXPECT_TRUE(std::isinf(Json::parse(Json(HUGE_VAL).dump()).as_double()));
    EXPECT_LT(Json::parse(Json(-HUGE_VAL).dump()).as_double(), 0);
}

TEST(Json, DoublePrecisionRoundTrip) {
    const double values[] = {0.1, 1.0 / 3.0, 1e-300, 1e300, -2.2250738585072014e-308};
    for (double v : values)
        EXPECT_DOUBLE_EQ(Json::parse(Json(v).dump()).as_double(), v);
}

TEST(Json, ParseErrors) {
    EXPECT_THROW(Json::parse(""), ParseError);
    EXPECT_THROW(Json::parse("{"), ParseError);
    EXPECT_THROW(Json::parse("[1,]"), ParseError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), ParseError);
    EXPECT_THROW(Json::parse("tru"), ParseError);
    EXPECT_THROW(Json::parse("1 2"), ParseError);
    EXPECT_THROW(Json::parse("\"unterminated"), ParseError);
}

TEST(Json, MissingKeyThrows) {
    const Json obj = Json::parse("{\"a\": 1}");
    EXPECT_EQ(obj.at("a").as_int(), 1);
    EXPECT_THROW(obj.at("b"), ParseError);
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("b"));
}

TEST(Json, WrongTypedAccessThrowsParseErrorNamingTheTypes) {
    // Each typed read of a value of another type is malformed input: a
    // ParseError that names the expected and the actual type, never a bare
    // variant access failure.
    const Json five = Json::parse("5");
    const auto message_of = [](auto&& read) {
        try {
            read();
        } catch (const ParseError& e) {
            return std::string(e.what());
        }
        return std::string("no ParseError");
    };
    EXPECT_EQ(message_of([&] { five.as_string(); }),
              "parse: json value is not a string (got an integer)");
    EXPECT_EQ(message_of([&] { five.as_bool(); }),
              "parse: json value is not a boolean (got an integer)");
    EXPECT_EQ(message_of([&] { five.as_array(); }),
              "parse: json value is not an array (got an integer)");
    EXPECT_EQ(message_of([&] { five.as_object(); }),
              "parse: json value is not an object (got an integer)");
    EXPECT_EQ(message_of([] { Json::parse("\"x\"").as_int(); }),
              "parse: json value is not a number (got a string)");
    EXPECT_EQ(message_of([] { Json::parse("[]").as_double(); }),
              "parse: json value is not a number (got an array)");
    // The mutable accessors and the members built on them check too.
    Json mutable_five = five;
    EXPECT_THROW(mutable_five.as_array(), ParseError);
    EXPECT_THROW(mutable_five.as_object(), ParseError);
    EXPECT_THROW(mutable_five.push_back(Json(1)), ParseError);
    EXPECT_THROW(mutable_five["key"], ParseError);
    EXPECT_THROW(five.at("key"), ParseError);
    // Matching types still read through.
    EXPECT_EQ(Json::parse("\"x\"").as_string(), "x");
    EXPECT_TRUE(Json::parse("true").as_bool());
    EXPECT_EQ(Json::parse("[1]").as_array().size(), 1u);
    EXPECT_EQ(Json::parse("{\"a\": 1}").as_object().size(), 1u);
}

TEST(Json, NestedStructures) {
    const Json j = Json::parse(R"({"a": {"b": [{"c": [1, 2, {"d": true}]}]}})");
    EXPECT_TRUE(j.at("a").at("b").as_array()[0].at("c").as_array()[2].at("d").as_bool());
}

}  // namespace
}  // namespace ff::common
