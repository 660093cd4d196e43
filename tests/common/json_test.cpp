/// Strict-JSON tests for common/json: everything bladed-serve turns into a
/// 400 must throw JsonError here (with a sane byte offset), and everything
/// the repo serializes must round-trip bit-for-bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace bladed {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("3.5e2").as_number(), 350.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("  42  ").as_number(), 42.0);  // outer whitespace ok
}

TEST(Json, ParsesContainers) {
  const Json v = Json::parse(R"({"a":[1,2,3],"b":{"c":"d"},"e":null})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.get("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.get("a").as_array()[2].as_number(), 3.0);
  EXPECT_EQ(v.get("b").get("c").as_string(), "d");
  EXPECT_TRUE(v.get("e").is_null());
  EXPECT_TRUE(v.has("e"));        // present but null
  EXPECT_FALSE(v.has("absent"));  // absent reads as null, has() = false
  EXPECT_TRUE(v.get("absent").is_null());
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_THROW((void)Json::parse("{} x"), JsonError);
  EXPECT_THROW((void)Json::parse("1 2"), JsonError);
  EXPECT_THROW((void)Json::parse("true,"), JsonError);
}

TEST(Json, RejectsMalformedSyntax) {
  for (const char* bad :
       {"", "   ", "{", "[", "\"unterminated", "{\"a\"}", "{\"a\":}",
        "{\"a\":1,}", "[1,]", "[1 2]", "{'a':1}", "nul", "tru", "+1", ".5",
        "01", "1.", "1e", "--1", "NaN", "Infinity", "{\"a\" 1}",
        "[\"\\q\"]"}) {
    EXPECT_THROW((void)Json::parse(bad), JsonError) << "input: " << bad;
  }
}

TEST(Json, ErrorCarriesAByteOffset) {
  try {
    (void)Json::parse("{\"ok\": bogus}");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.offset, 7u);
    EXPECT_NE(std::string(e.what()).find("byte 7"), std::string::npos);
  }
}

TEST(Json, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep), JsonError);       // default cap 64
  EXPECT_NO_THROW((void)Json::parse(deep, 256));          // raised cap fits
  std::string shallow = "[[[[1]]]]";
  EXPECT_NO_THROW((void)Json::parse(shallow));
}

TEST(Json, ControlCharactersInStringsAreRejected) {
  EXPECT_THROW((void)Json::parse("\"a\nb\""), JsonError);
  EXPECT_THROW((void)Json::parse(std::string("\"a\0b\"", 5)), JsonError);
  EXPECT_EQ(Json::parse("\"a\\nb\"").as_string(), "a\nb");  // escaped is fine
}

TEST(Json, UnicodeEscapes) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");  // é
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
  // Lone high surrogate is malformed.
  EXPECT_THROW((void)Json::parse("\"\\ud83d\""), JsonError);
  EXPECT_THROW((void)Json::parse("\"\\uZZZZ\""), JsonError);
}

TEST(Json, DumpRoundTrips) {
  const char* src =
      R"({"a":1,"b":[true,false,null],"c":"x\"y","d":2.5,"big":9007199254740992})";
  const Json v = Json::parse(src);
  const std::string out = v.dump();
  const Json again = Json::parse(out);
  EXPECT_EQ(again.dump(), out);  // fixpoint
  EXPECT_DOUBLE_EQ(again.get("d").as_number(), 2.5);
  EXPECT_EQ(again.get("c").as_string(), "x\"y");
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  Json v = Json::object();
  v.set("n", std::uint64_t{12345}).set("f", 0.5);
  EXPECT_EQ(v.dump(), R"({"n":12345,"f":0.5})");
}

TEST(Json, IntegersDumpTheirExactValue) {
  // 2^53 + 1 has no double; a certified cycle bound built from it must not
  // print as 2^53, which would sit below the true bound.
  EXPECT_EQ(Json(std::uint64_t{(1ULL << 53) + 1}).dump(), "9007199254740993");
  EXPECT_EQ(Json(std::numeric_limits<std::uint64_t>::max()).dump(),
            "18446744073709551615");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json(-7).dump(), "-7");
  // as_number() still answers the nearest double.
  EXPECT_EQ(Json(std::uint64_t{(1ULL << 53) + 1}).as_number(), 0x1p53);
  // Doubles keep %.17g (and integral doubles below 2^53 print bare).
  EXPECT_EQ(Json(1e300).dump(), "1.0000000000000001e+300");
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(Json(12.0).dump(), "12");
  EXPECT_EQ(Json(9007199254740992.0).dump(), "9007199254740992");
}

TEST(Json, SetOverwritesAndPreservesInsertionOrder) {
  Json v = Json::object();
  v.set("z", 1).set("a", 2).set("z", 3);
  EXPECT_EQ(v.dump(), R"({"z":3,"a":2})");
  Json arr = Json::array();
  arr.push(1).push("two").push(Json::object());
  EXPECT_EQ(arr.dump(), R"([1,"two",{}])");
}

TEST(Json, EscapesControlAndQuoteOnDump) {
  Json v = Json(std::string("tab\there\nquote\"back\\slash"));
  EXPECT_EQ(v.dump(), R"("tab\there\nquote\"back\\slash")");
}

TEST(Json, DuplicateKeysLastOneWinsOnGet) {
  // Parser preserves both members; get() answers the first match, which is
  // the documented lookup rule — pin it so it cannot drift silently.
  const Json v = Json::parse(R"({"k":1,"k":2})");
  EXPECT_EQ(v.as_object().size(), 2u);
  EXPECT_DOUBLE_EQ(v.get("k").as_number(), 1.0);
}

}  // namespace
}  // namespace bladed
