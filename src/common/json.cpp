#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace bladed {

namespace {

const Json kNullJson{};

/// Strict recursive-descent parser over a string_view.
class Parser {
 public:
  Parser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Json run() {
    skip_ws();
    Json v = value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      throw JsonError("trailing characters after JSON value", pos_);
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const char* msg) { throw JsonError(msg, pos_); }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.size() - pos_ < n || text_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  Json value(int depth) {
    if (depth > max_depth_) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return Json(string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return Json(nullptr);
      default:
        return number();
    }
  }

  Json object(int depth) {
    expect('{');
    Json::Object members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated object");
      const char c = take();
      if (c == '}') return Json(std::move(members));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Json array(int depth) {
    expect('[');
    Json::Array items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(value(depth + 1));
      skip_ws();
      if (eof()) fail("unterminated array");
      const char c = take();
      if (c == ']') return Json(std::move(items));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(take());
      if (c == '"') return out;
      if (c < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, hex4()); break;
        default:
          --pos_;
          fail("invalid escape sequence");
      }
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else {
        --pos_;
        fail("invalid \\u escape");
      }
    }
    return v;
  }

  void append_utf8(std::string& out, unsigned cp) {
    // Surrogate pair handling: a high surrogate must be followed by \uDC00-
    // \uDFFF; lone surrogates are rejected (strictness over leniency).
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (eof() || take() != '\\' || eof() || take() != 'u') {
        --pos_;
        fail("high surrogate not followed by low surrogate");
      }
      const unsigned lo = hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) {
        fail("invalid low surrogate");
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("lone low surrogate");
    }
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    // No leading zeros: "0" alone or 1-9 followed by digits.
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
      pos_ = start;
      fail("number out of range");
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

void escape_into(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

const Json& Json::get(std::string_view key) const {
  if (kind_ == Kind::kObject) {
    for (const auto& [k, v] : obj_) {
      if (k == key) return v;
    }
  }
  return kNullJson;
}

bool Json::contains_key(std::string_view key) const {
  if (kind_ != Kind::kObject) return false;
  for (const auto& [k, v] : obj_) {
    if (k == key) return true;
  }
  return false;
}

Json& Json::set(std::string key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  arr_.push_back(std::move(value));
  return *this;
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber: {
      if (exact_ == Exact::kSigned) {
        out += std::to_string(static_cast<std::int64_t>(bits_));
        break;
      }
      if (exact_ == Exact::kUnsigned) {
        out += std::to_string(bits_);
        break;
      }
      char buf[32];
      const double r = std::round(num_);
      if (r == num_ && std::fabs(num_) < 9.007199254740992e15) {
        std::snprintf(buf, sizeof buf, "%.0f", num_);
      } else {
        std::snprintf(buf, sizeof buf, "%.17g", num_);
      }
      out += buf;
      break;
    }
    case Kind::kString:
      escape_into(out, str_);
      break;
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        escape_into(out, k);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

Json Json::parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth).run();
}

}  // namespace bladed
