// Minimal JSON document model used by the telemetry trace layer: an
// ordered-object DOM with a compact writer and a strict parser.
//
// Determinism contract: serialisation is byte-stable. Object members keep
// insertion order, numbers carry their exact source text (the builders
// format via std::to_chars, the parser keeps the input lexeme verbatim),
// and string escaping follows one fixed policy. Parsing a line this
// writer produced and re-serialising it therefore reproduces the input
// bytes — the property the trace determinism checks rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ceal::json {

/// Deepest array/object nesting the parser accepts. The deepest document
/// this code base writes (a server.metrics response) nests about five
/// levels; the bound keeps the recursive parser's stack use fixed, so a
/// hostile line of nested brackets is an error, not a stack overflow.
inline constexpr std::size_t kMaxParseDepth = 128;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructs null.
  Value() = default;

  static Value boolean(bool v);
  static Value number(double v);
  static Value number(std::int64_t v);
  static Value number(std::uint64_t v);
  /// Number from a pre-formatted lexeme (must be a valid JSON number).
  static Value number_text(std::string text);
  static Value string(std::string v);
  static Value array();
  static Value object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; throw PreconditionError on a kind mismatch.
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  /// The exact number lexeme as serialised.
  const std::string& number_lexeme() const;

  // --- Array interface. ---
  std::size_t size() const;
  const Value& at(std::size_t i) const;
  void push(Value v);

  // --- Object interface (insertion-ordered). ---
  /// Appends, or replaces the value of an existing key in place.
  void set(std::string key, Value v);
  /// Null when the key is absent.
  const Value* find(std::string_view key) const;
  /// Member value, or a throw when absent.
  const Value& at(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }
  /// Removes every member (recursively, at any depth) with this key.
  void remove_recursive(std::string_view key);
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Compact serialisation (no whitespace), byte-deterministic.
  void write(std::ostream& os) const;
  std::string dump() const;

  /// Strict parser for one JSON document; rejects trailing garbage and
  /// nesting deeper than kMaxParseDepth. Throws ceal::PreconditionError
  /// on malformed input.
  static Value parse(std::string_view text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;  // number lexeme or string payload
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Writes `s` as a quoted JSON string with the fixed escaping policy
/// (backslash, quote, \n \r \t \b \f, \u00XX for other control bytes).
void write_escaped(std::ostream& os, std::string_view s);

/// Shortest round-trip formatting via std::to_chars.
std::string format_number(double v);
std::string format_number(std::int64_t v);
std::string format_number(std::uint64_t v);

}  // namespace ceal::json
