#pragma once

/// The one JSON module: a tagged value type, a strict recursive-descent
/// parser and the serializer every machine-readable report goes through
/// (bladed-serve bodies, bladed-bench-v1, bladed-prove-v1, bladed-wcet-v1,
/// the commcheck verdict). Strictness is the point — bladed-serve turns any
/// parse failure into a 400 with the offending offset, never a crash: no
/// trailing garbage, no comments, no NaN/Inf literals, bounded nesting
/// depth, UTF-8 passthrough with \uXXXX escapes decoded. Object member
/// order is preserved (insertion order) so serialized reports, responses
/// and config-hash canonicalization are deterministic.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bladed {

/// Thrown on malformed input; `offset` is the byte position in the source.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& msg, std::size_t offset)
      : std::runtime_error(msg + " (at byte " + std::to_string(offset) + ")"),
        offset(offset) {}
  std::size_t offset;
};

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double d) : kind_(Kind::kNumber), num_(d) {}
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i)
      : kind_(Kind::kNumber),
        num_(static_cast<double>(i)),
        exact_(Exact::kSigned),
        bits_(static_cast<std::uint64_t>(i)) {}
  Json(std::uint64_t i)
      : kind_(Kind::kNumber),
        num_(static_cast<double>(i)),
        exact_(Exact::kUnsigned),
        bits_(i) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Json(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return num_; }
  [[nodiscard]] const std::string& as_string() const { return str_; }
  [[nodiscard]] const Array& as_array() const { return arr_; }
  [[nodiscard]] const Object& as_object() const { return obj_; }

  /// Object lookup; null reference when absent (kNull singleton).
  [[nodiscard]] const Json& get(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return !get(key).is_null() || contains_key(key);
  }

  /// Object member append / overwrite (linear scan — objects are small).
  Json& set(std::string key, Json value);
  /// Array append.
  Json& push(Json value);

  /// Compact serialization (no whitespace). A number built from a 64-bit
  /// integer prints its exact decimal value; a double that holds an
  /// integral value within +/-2^53 prints without a fraction, any other
  /// double as %.17g (enough digits to read back the same double).
  [[nodiscard]] std::string dump() const;

  /// Strict parse of the whole input; throws JsonError. `max_depth` bounds
  /// nesting so hostile bodies cannot blow the stack.
  [[nodiscard]] static Json parse(std::string_view text, int max_depth = 64);

 private:
  [[nodiscard]] bool contains_key(std::string_view key) const;
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  /// Set when the number was built from an integer: bits_ holds it (two's
  /// complement for kSigned) so dump() never rounds it through num_.
  enum class Exact : unsigned char { kNo, kSigned, kUnsigned };
  Exact exact_ = Exact::kNo;
  std::uint64_t bits_ = 0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace bladed
