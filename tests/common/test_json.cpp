#include "common/json.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace tbi {
namespace {

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_double(), 3.5);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": "x"}], "c": {"d": true}})");
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_EQ(j.at("a").as_array()[2].at("b").as_string(), "x");
  EXPECT_TRUE(j.at("c").at("d").as_bool());
}

TEST(Json, ParseEscapes) {
  const Json j = Json::parse(R"("line\nbreak\t\"q\" \\ A")");
  EXPECT_EQ(j.as_string(), "line\nbreak\t\"q\" \\ A");
}

TEST(Json, ParseWhitespaceTolerant) {
  const Json j = Json::parse(" {\n \"k\" :\t[ 1 ,2 ] }\r\n");
  EXPECT_EQ(j.at("k").as_array().size(), 2u);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("tru"), JsonError);
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  // The parser recurses once per level: uncapped, a 60 KB document of
  // 30,000 nested arrays overflowed the default 8 MiB stack.
  const auto arrays = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const Json at_cap = Json::parse(arrays(Json::kMaxDepth));
  const Json* inner = &at_cap;
  for (int level = 1; level < Json::kMaxDepth; ++level) {
    ASSERT_EQ(inner->as_array().size(), 1u) << level;
    inner = &inner->as_array()[0];
  }
  EXPECT_TRUE(inner->as_array().empty());

  EXPECT_THROW(Json::parse(arrays(Json::kMaxDepth + 1)), JsonError);
  EXPECT_THROW(Json::parse(arrays(100'000)), JsonError);
  // Objects count as levels too.
  std::string objects;
  for (int level = 0; level < Json::kMaxDepth; ++level) objects += "{\"k\":";
  objects += "[]" + std::string(Json::kMaxDepth, '}');
  EXPECT_THROW(Json::parse(objects), JsonError);
}

TEST(Json, TypeErrorsThrow) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.as_array(), JsonError);
  EXPECT_THROW(j.at("missing"), JsonError);
  EXPECT_THROW(j.at("a").as_string(), JsonError);
}

TEST(Json, BuilderInterface) {
  Json j;
  j["name"] = "DDR4";
  j["banks"] = 16;
  Json arr;
  arr.push_back(1);
  arr.push_back("two");
  j["list"] = arr;
  EXPECT_EQ(j.at("name").as_string(), "DDR4");
  EXPECT_EQ(j.at("banks").as_int(), 16);
  EXPECT_EQ(j.at("list").as_array()[1].as_string(), "two");
}

TEST(Json, DumpParseRoundTrip) {
  const std::string src =
      R"({"arr":[1,2.5,"s",null,true],"num":-42,"obj":{"inner":[{"k":"v"}]}})";
  const Json j = Json::parse(src);
  const Json rt = Json::parse(j.dump());
  EXPECT_EQ(rt.at("num").as_int(), -42);
  EXPECT_EQ(rt.at("arr").as_array().size(), 5u);
  EXPECT_EQ(rt.at("obj").at("inner").as_array()[0].at("k").as_string(), "v");
  // Pretty printing parses back too.
  const Json rt2 = Json::parse(j.dump(2));
  EXPECT_EQ(rt2.at("arr").as_array()[2].as_string(), "s");
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json j(std::string("a\nb\x01"));
  const std::string out = j.dump();
  EXPECT_NE(out.find("\\n"), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  EXPECT_EQ(Json::parse(out).as_string(), "a\nb\x01");
}

TEST(Json, IntegersDumpWithoutExponent) {
  EXPECT_EQ(Json(12500000).dump(), "12500000");
  EXPECT_EQ(Json(-3).dump(), "-3");
}

TEST(Json, NonFiniteDumpsAsNullAndRoundTrips) {
  // Regression: "%.17g" used to emit bare nan/inf tokens, which is not
  // JSON — the documents written by the benches were unloadable. Non-
  // finite numbers serialize as null and the result must stay parseable.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");

  Json doc;
  doc["rate"] = Json(0.0 / 0.0);
  doc["ok"] = 1.5;
  const Json back = Json::parse(doc.dump(2));
  EXPECT_TRUE(back.at("rate").is_null());
  EXPECT_DOUBLE_EQ(back.at("ok").as_double(), 1.5);
}

TEST(Json, ParseRejectsNanAndInfWithClearError) {
  for (const char* text : {"nan", "-nan", "NaN", "inf", "-inf", "Infinity"}) {
    try {
      Json::parse(text);
      FAIL() << "parsed '" << text << "'";
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("not valid JSON"), std::string::npos)
          << text << ": " << e.what();
    }
  }
  // strtod saturates overflow to infinity; that must not sneak through.
  EXPECT_THROW(Json::parse("1e999"), JsonError);
  EXPECT_THROW(Json::parse("-1e999"), JsonError);
  EXPECT_THROW(Json::parse("[1, nan]"), JsonError);
}

TEST(Json, WriteFileFailureNeverTouchesExistingTarget) {
  Json doc;
  doc["x"] = 1;
  // Atomic replace: the document lands in a fsynced temp sibling and is
  // renamed over the target, so any failure — here procfs refusing the
  // temp file — must leave the existing target bytes untouched. (Don't
  // use /dev/full for this: rename-over-target would replace the device
  // node itself when running as root.)
  EXPECT_FALSE(Json::write_file("/proc/version", doc));
  std::ifstream in("/proc/version");
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first, "{") << "write_file failure clobbered the target";
  EXPECT_FALSE(Json::write_file("/no/such/dir/out.json", doc));
}

TEST(Json, WriteThenReadFileRoundTrips) {
  Json doc;
  doc["name"] = "round-trip";
  doc["values"].push_back(1);
  doc["values"].push_back(2.5);
  const std::string path = ::testing::TempDir() + "json_roundtrip_test.json";
  ASSERT_TRUE(Json::write_file(path, doc));
  const Json back = Json::read_file(path);
  EXPECT_EQ(back.at("name").as_string(), "round-trip");
  EXPECT_EQ(back.at("values").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(back.at("values").as_array()[1].as_double(), 2.5);
  std::remove(path.c_str());
  EXPECT_THROW(Json::read_file(path), JsonError);
}

TEST(Json, WriteFileIsAtomicNoTempLeftoverAndOverwrites) {
  const std::string path = ::testing::TempDir() + "json_atomic_test.json";
  std::remove(path.c_str());

  Json first;
  first["generation"] = 1;
  ASSERT_TRUE(Json::write_file(path, first));
  Json second;
  second["generation"] = 2;
  ASSERT_TRUE(Json::write_file(path, second));  // replace, not append

  const Json back = Json::read_file(path);
  EXPECT_EQ(back.at("generation").as_double(), 2);

  // The temp file (path + ".<pid>.tmp") must have been renamed away.
  const std::string temp = path + "." + std::to_string(::getpid()) + ".tmp";
  std::ifstream leftover(temp);
  EXPECT_FALSE(leftover.good()) << "temp file left behind: " << temp;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tbi
