#include "obs/json.hpp"

#include <cstdlib>
#include <stdexcept>

namespace fvf::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after JSON document");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', found '" + peek() + "'");
    }
    ++pos_;
  }

  /// Enters one array or object level; the recursion is bounded so that
  /// hostile input (a long run of '[') throws instead of overflowing the
  /// stack.
  void enter() {
    if (++depth_ > kJsonMaxDepth) {
      fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
           " levels");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        enter();
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = (c == 't');
        if (!consume_literal(c == 't' ? "true" : "false")) {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) {
          fail("bad literal");
        }
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          u32 code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<u32>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<u32>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<u32>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // Our producers are ASCII; anything wider degrades visibly.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const usize start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const f64 parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.number = parsed;
    return v;
  }

  std::string_view text_;
  usize pos_ = 0;
  usize depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace fvf::obs
