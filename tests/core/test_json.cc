#include "core/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/error.h"

namespace ceal::json {
namespace {

TEST(JsonValue, BuildersProduceExpectedKinds) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value::boolean(true).kind(), Value::Kind::kBool);
  EXPECT_EQ(Value::number(1.5).kind(), Value::Kind::kNumber);
  EXPECT_EQ(Value::string("s").kind(), Value::Kind::kString);
  EXPECT_TRUE(Value::array().is_array());
  EXPECT_TRUE(Value::object().is_object());
}

TEST(JsonValue, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(Value::number(1.0).dump(), "1");
  EXPECT_EQ(Value::number(0.1).dump(), "0.1");
  EXPECT_EQ(Value::number(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(Value::number(std::uint64_t{18446744073709551615ULL}).dump(),
            "18446744073709551615");
  const double v = 0.20805078000194044;
  EXPECT_EQ(std::stod(Value::number(v).dump()), v);
}

TEST(JsonValue, NonFiniteNumbersAreRejected) {
  EXPECT_THROW(Value::number(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW(Value::number(std::numeric_limits<double>::quiet_NaN()),
               PreconditionError);
}

TEST(JsonValue, ObjectKeepsInsertionOrderAndSetReplacesInPlace) {
  Value obj = Value::object();
  obj.set("z", Value::number(std::int64_t{1}));
  obj.set("a", Value::number(std::int64_t{2}));
  obj.set("z", Value::number(std::int64_t{3}));  // replaced, stays first
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("b"));
  EXPECT_EQ(obj.at("z").as_int(), 3);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), PreconditionError);
}

TEST(JsonValue, ArrayInterface) {
  Value arr = Value::array();
  arr.push(Value::number(std::int64_t{7}));
  arr.push(Value::string("x"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.at(0).as_int(), 7);
  EXPECT_EQ(arr.at(1).as_string(), "x");
  EXPECT_EQ(arr.dump(), "[7,\"x\"]");
}

TEST(JsonValue, StringEscapingPolicy) {
  EXPECT_EQ(Value::string("a\"b\\c").dump(), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(Value::string("\n\r\t\b\f").dump(), "\"\\n\\r\\t\\b\\f\"");
  EXPECT_EQ(Value::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(JsonValue, ParseRoundTripsWriterOutputByteExactly) {
  const std::string doc =
      "{\"event\":\"measure\",\"seq\":2,\"value\":319.82383270419905,"
      "\"flags\":[true,false,null],\"nested\":{\"k\":-1.5e-3}}";
  EXPECT_EQ(Value::parse(doc).dump(), doc);
}

TEST(JsonValue, ParserKeepsNumberLexemeVerbatim) {
  // 1.50 and 1.5 are the same double but different lexemes — the parser
  // must preserve the source bytes for the determinism comparison.
  EXPECT_EQ(Value::parse("1.50").dump(), "1.50");
  EXPECT_EQ(Value::parse("1e3").number_lexeme(), "1e3");
  EXPECT_DOUBLE_EQ(Value::parse("1e3").as_double(), 1000.0);
}

TEST(JsonValue, ParserDecodesEscapes) {
  const Value v = Value::parse("\"a\\u0041\\n\\/\"");
  EXPECT_EQ(v.as_string(), "aA\n/");
}

TEST(JsonValue, ParserRejectsMalformedInput) {
  EXPECT_THROW(Value::parse(""), PreconditionError);
  EXPECT_THROW(Value::parse("{"), PreconditionError);
  EXPECT_THROW(Value::parse("{\"a\":}"), PreconditionError);
  EXPECT_THROW(Value::parse("[1,]"), PreconditionError);
  EXPECT_THROW(Value::parse("tru"), PreconditionError);
  EXPECT_THROW(Value::parse("1 2"), PreconditionError);  // trailing garbage
  EXPECT_THROW(Value::parse("\"unterminated"), PreconditionError);
  EXPECT_THROW(Value::parse("\"\\u12ZZ\""), PreconditionError);
  EXPECT_THROW(Value::parse("\"\\u1234\""), PreconditionError);  // > 0xFF
  EXPECT_THROW(Value::parse("01x"), PreconditionError);
}

TEST(JsonValue, ParserBoundsNestingDepth) {
  const auto nested = [](std::size_t depth, char open, char close) {
    std::string text(depth, open);
    if (open == '{') {
      // {"k":{"k":...{}...}}: every level but the innermost is a member.
      text.clear();
      for (std::size_t i = 1; i < depth; ++i) text += "{\"k\":";
      text += "{";
    }
    return text + std::string(depth, close);
  };
  EXPECT_NO_THROW(Value::parse(nested(kMaxParseDepth, '[', ']')));
  EXPECT_NO_THROW(Value::parse(nested(kMaxParseDepth, '{', '}')));
  for (const char open : {'[', '{'}) {
    const char close = open == '[' ? ']' : '}';
    try {
      Value::parse(nested(kMaxParseDepth + 1, open, close));
      ADD_FAILURE() << "depth " << kMaxParseDepth + 1 << " parsed";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 128"),
                std::string::npos)
          << e.what();
    }
  }
  // A hostile line far past the bound is rejected the same way, with a
  // fixed stack depth, instead of overflowing the stack.
  try {
    Value::parse(std::string(200000, '['));
    ADD_FAILURE() << "200000 nested arrays parsed";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "malformed JSON at offset 128: nesting deeper than 128"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonValue, TypedAccessorsRejectKindMismatch) {
  EXPECT_THROW(Value::string("x").as_double(), PreconditionError);
  EXPECT_THROW(Value::number(1.0).as_string(), PreconditionError);
  EXPECT_THROW(Value::number(1.5).as_int(), PreconditionError);
  EXPECT_THROW(Value::object().at(std::size_t{0}), PreconditionError);
  EXPECT_THROW(Value::array().members(), PreconditionError);
}

TEST(JsonValue, RemoveRecursiveStripsKeyAtEveryDepth) {
  Value doc = Value::parse(
      "{\"a\":1,\"timing\":{\"x\":2},"
      "\"nested\":{\"timing\":{\"y\":3},\"keep\":4},"
      "\"list\":[{\"timing\":{}},{\"keep\":5}]}");
  doc.remove_recursive("timing");
  EXPECT_EQ(doc.dump(),
            "{\"a\":1,\"nested\":{\"keep\":4},\"list\":[{},{\"keep\":5}]}");
}

TEST(JsonValue, WhitespaceIsAcceptedBetweenTokens) {
  const Value v = Value::parse(" { \"a\" : [ 1 , 2 ] } ");
  EXPECT_EQ(v.dump(), "{\"a\":[1,2]}");
}

}  // namespace
}  // namespace ceal::json
