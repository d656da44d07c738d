#include "obs/trace_check.h"

#include <cctype>
#include <cstdlib>
#include <vector>

namespace olsq2::obs {

namespace {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Value& out, std::string& error) {
    if (!parse_value(out)) {
      error = error_.empty() ? "parse error" : error_;
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
    }
  }

  bool fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      pos_++;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return fail("bad literal");
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c == '"') {
        pos_++;
        return true;
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= text_.size()) return fail("truncated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            for (int i = 0; i < 4; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
                return fail("bad \\u escape");
              }
            }
            pos_ += 4;
            out += '?';  // code point value is irrelevant for validation
            break;
          }
          default:
            return fail("bad escape character");
        }
        continue;
      }
      out += c;
      pos_++;
    }
    return fail("unterminated string");
  }

  bool parse_number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') pos_++;
    bool digits = false;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_++;
      digits = true;
    }
    if (!digits) return fail("bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      pos_++;
      bool frac = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        pos_++;
        frac = true;
      }
      if (!frac) return fail("bad fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      pos_++;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        pos_++;
      }
      bool exp = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        pos_++;
        exp = true;
      }
      if (!exp) return fail("bad exponent");
    }
    out = std::atof(std::string(text_.substr(start, pos_ - start)).c_str());
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      pos_++;
      out.type = Value::Type::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        pos_++;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (!consume(':')) return false;
        Value value;
        if (!parse_value(value)) return false;
        out.object.emplace_back(std::move(key), std::move(value));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          pos_++;
          continue;
        }
        return consume('}');
      }
    }
    if (c == '[') {
      pos_++;
      out.type = Value::Type::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        pos_++;
        return true;
      }
      while (true) {
        Value value;
        if (!parse_value(value)) return false;
        out.array.push_back(std::move(value));
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          pos_++;
          continue;
        }
        return consume(']');
      }
    }
    if (c == '"') {
      out.type = Value::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.type = Value::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = Value::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.type = Value::Type::kNull;
      return literal("null");
    }
    out.type = Value::Type::kNumber;
    return parse_number(out.number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

CheckResult check_json(std::string_view text) {
  CheckResult result;
  Value root;
  result.ok = Parser(text).parse(root, result.error);
  return result;
}

CheckResult validate_chrome_trace(std::string_view text) {
  CheckResult result;
  Value root;
  if (!Parser(text).parse(root, result.error)) return result;
  if (root.type != Value::Type::kObject) {
    result.error = "root is not an object";
    return result;
  }
  const Value* events = root.find("traceEvents");
  if (events == nullptr || events->type != Value::Type::kArray) {
    result.error = "missing traceEvents array";
    return result;
  }
  for (const Value& e : events->array) {
    if (e.type != Value::Type::kObject) {
      result.error = "traceEvents entry is not an object";
      return result;
    }
    const Value* name = e.find("name");
    const Value* ph = e.find("ph");
    if (name == nullptr || name->type != Value::Type::kString ||
        ph == nullptr || ph->type != Value::Type::kString) {
      result.error = "event missing string name/ph";
      return result;
    }
    result.total_events++;
    if (ph->string == "X") {
      const Value* ts = e.find("ts");
      const Value* dur = e.find("dur");
      if (ts == nullptr || ts->type != Value::Type::kNumber ||
          dur == nullptr || dur->type != Value::Type::kNumber) {
        result.error = "span event '" + name->string + "' missing ts/dur";
        return result;
      }
      if (dur->number < 0) {
        result.error = "span event '" + name->string + "' has negative dur";
        return result;
      }
      result.span_events++;
    } else if (ph->string == "C") {
      // Counter samples (from writers other than obs, which records none)
      // must be attributable to a thread: Chrome keys counter tracks by
      // (pid, name, id), so each sample needs an "id" and a "tid".
      const Value* tid = e.find("tid");
      const Value* id = e.find("id");
      if (tid == nullptr || tid->type != Value::Type::kNumber) {
        result.error =
            "counter event '" + name->string + "' missing numeric tid";
        return result;
      }
      if (id == nullptr || id->type != Value::Type::kString) {
        result.error =
            "counter event '" + name->string + "' missing string id";
        return result;
      }
      result.counter_events++;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace olsq2::obs
