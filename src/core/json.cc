#include "core/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "core/error.h"

namespace ceal::json {

Value Value::boolean(bool v) {
  Value out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::number(double v) { return number_text(format_number(v)); }
Value Value::number(std::int64_t v) { return number_text(format_number(v)); }
Value Value::number(std::uint64_t v) { return number_text(format_number(v)); }

Value Value::number_text(std::string text) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.text_ = std::move(text);
  return out;
}

Value Value::string(std::string v) {
  Value out;
  out.kind_ = Kind::kString;
  out.text_ = std::move(v);
  return out;
}

Value Value::array() {
  Value out;
  out.kind_ = Kind::kArray;
  return out;
}

Value Value::object() {
  Value out;
  out.kind_ = Kind::kObject;
  return out;
}

bool Value::as_bool() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

double Value::as_double() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return std::strtod(text_.c_str(), nullptr);
}

std::int64_t Value::as_int() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  std::int64_t out = 0;
  const auto res =
      std::from_chars(text_.data(), text_.data() + text_.size(), out);
  CEAL_EXPECT_MSG(res.ec == std::errc() &&
                      res.ptr == text_.data() + text_.size(),
                  "JSON number is not an integer: " + text_);
  return out;
}

const std::string& Value::as_string() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kString, "JSON value is not a string");
  return text_;
}

const std::string& Value::number_lexeme() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kNumber, "JSON value is not a number");
  return text_;
}

std::size_t Value::size() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  return items_.size();
}

const Value& Value::at(std::size_t i) const {
  CEAL_EXPECT_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  CEAL_EXPECT(i < items_.size());
  return items_[i];
}

void Value::push(Value v) {
  CEAL_EXPECT_MSG(kind_ == Kind::kArray, "JSON value is not an array");
  items_.push_back(std::move(v));
}

void Value::set(std::string key, Value v) {
  CEAL_EXPECT_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  CEAL_EXPECT_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  CEAL_EXPECT_MSG(v != nullptr, "missing JSON member: " + std::string(key));
  return *v;
}

void Value::remove_recursive(std::string_view key) {
  if (kind_ == Kind::kArray) {
    for (Value& v : items_) v.remove_recursive(key);
    return;
  }
  if (kind_ != Kind::kObject) return;
  std::erase_if(members_, [&](const auto& m) { return m.first == key; });
  for (auto& [k, v] : members_) v.remove_recursive(key);
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  CEAL_EXPECT_MSG(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

std::string format_number(double v) {
  CEAL_EXPECT_MSG(std::isfinite(v), "JSON numbers must be finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string format_number(std::int64_t v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string format_number(std::uint64_t v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Value::write(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      os << text_;
      break;
    case Kind::kString:
      write_escaped(os, text_);
      break;
    case Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) os << ',';
        items_[i].write(os);
      }
      os << ']';
      break;
    }
    case Kind::kObject: {
      os << '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) os << ',';
        write_escaped(os, members_[i].first);
        os << ':';
        members_[i].second.write(os);
      }
      os << '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    CEAL_EXPECT_MSG(pos_ == text_.size(),
                    "trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("malformed JSON at offset " +
                            std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth_ == kMaxParseDepth) {
        fail("nesting deeper than " + std::to_string(kMaxParseDepth));
      }
      ++depth_;
      Value out = c == '{' ? parse_object() : parse_array();
      --depth_;
      return out;
    }
    if (c == '"') return Value::string(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value::boolean(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value::boolean(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value();
    }
    return parse_number();
  }

  Value parse_object() {
    expect('{');
    Value out = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Value parse_array() {
    expect('[');
    Value out = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape digit");
          }
          // The writer only emits \u00XX for control bytes; decode the
          // Latin-1 range as one byte and reject anything wider (the
          // trace layer never produces it).
          if (code > 0xFF) fail("unsupported \\u escape beyond 0x00ff");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t d0 = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > d0;
    };
    if (!digits()) fail("expected number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("expected fraction digits");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail("expected exponent digits");
    }
    return Value::number_text(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

}  // namespace

Value Value::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace ceal::json
