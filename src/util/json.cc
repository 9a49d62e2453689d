#include "util/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <utility>

namespace ovs {

namespace {

/// Recursive-descent parser over the raw buffer. Recursion depth is bounded
/// by kJsonMaxDepth, so no input can exhaust the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue v;
    RETURN_IF_ERROR(ParseValue(&v, 0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  /// The error position is only located (line counted) on failure, so the
  /// success path pays nothing for it.
  Status Err(const std::string& msg) const {
    const char* begin = text_.data();
    const auto line =
        1 + std::count(begin, begin + std::min(pos_, text_.size()), '\n');
    return Status::InvalidArgument(msg + " at offset " + std::to_string(pos_) +
                                   " (line " + std::to_string(line) + ")");
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays/objects enclosing `out`.
  Status ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kJsonMaxDepth) {
      return Err("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        return ParseLiteral("true", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = true;
        });
      case 'f':
        return ParseLiteral("false", [out] {
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = false;
        });
      case 'n':
        return ParseLiteral("null", [out] { out->kind = JsonValue::Kind::kNull; });
      default:
        return ParseNumber(out);
    }
  }

  template <typename Fn>
  Status ParseLiteral(const char* word, Fn apply) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return Err("invalid literal");
    pos_ += len;
    apply();
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      return Err("invalid number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = v;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) return Err("raw control char");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return Err("invalid \\u escape");
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) return Err("surrogates unsupported");
          // UTF-8 encode the BMP codepoint.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return Err("invalid escape");
      }
    }
    return Err("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    if (!Consume('[')) return Err("expected array");
    out->kind = JsonValue::Kind::kArray;
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue elem;
      RETURN_IF_ERROR(ParseValue(&elem, depth + 1));
      out->array.push_back(std::move(elem));
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Err("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    if (!Consume('{')) return Err("expected object");
    out->kind = JsonValue::Kind::kObject;
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWs();
      std::string key;
      RETURN_IF_ERROR(ParseString(&key));
      if (!Consume(':')) return Err("expected ':'");
      JsonValue value;
      RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object[std::move(key)] = std::move(value);
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Err("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream ss;
  ss << std::setprecision(17) << v;
  return ss.str();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace ovs
