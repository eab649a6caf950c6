#include "obs/json.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace gemsd::obs {

// --- writer ---

namespace {

/// number() into `buf` (at least 32 bytes); returns the end. std::to_chars
/// with chars_format::general and a precision is defined as printf's %.12g.
char* put_number(char* buf, double v) {
  if (!std::isfinite(v)) {
    *buf = '0';
    return buf + 1;
  }
  // Exact small integers print without a fraction (counter values, ids).
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_chars(buf, buf + 32, static_cast<long long>(v)).ptr;
  }
  return std::to_chars(buf, buf + 32, v, std::chars_format::general, 12).ptr;
}

}  // namespace

void JsonWriter::flush() {
  if (!sink_ || out_.empty()) return;
  sink_(out_);
  out_.clear();
}

void JsonWriter::comma() {
  // Every key, value and container opens here, so a streaming writer's
  // buffer never runs far past kFlushBytes.
  if (sink_ && out_.size() >= kFlushBytes) flush();
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_ += ',';
    has_item_.back() = true;
  }
}

void JsonWriter::begin_object() {
  comma();
  out_ += '{';
  has_item_.push_back(false);
}

void JsonWriter::end_object() {
  out_ += '}';
  has_item_.pop_back();
}

void JsonWriter::begin_array() {
  comma();
  out_ += '[';
  has_item_.push_back(false);
}

void JsonWriter::end_array() {
  out_ += ']';
  has_item_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  comma();
  out_ += '"';
  append_escaped(k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view v) {
  comma();
  out_ += '"';
  append_escaped(v);
  out_ += '"';
}

void JsonWriter::value(double v) {
  comma();
  char buf[32];
  out_.append(buf, put_number(buf, v));
}

void JsonWriter::value(std::int64_t v) {
  comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void JsonWriter::value(std::uint64_t v) {
  comma();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
}

void JsonWriter::value_null() {
  comma();
  out_ += "null";
}

void JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
}

void JsonWriter::append_escaped(std::string_view s) {
  for (std::size_t i = 0; i < s.size();) {
    // Copy the longest run that needs no escape in one append.
    std::size_t j = i;
    while (j < s.size() && static_cast<unsigned char>(s[j]) >= 0x20 &&
           s[j] != '"' && s[j] != '\\') {
      ++j;
    }
    out_.append(s, i, j - i);
    if (j == s.size()) return;
    const auto c = static_cast<unsigned char>(s[j]);
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      }
    }
    i = j + 1;
  }
}

std::string JsonWriter::number(double v) {
  char buf[32];
  return std::string(buf, put_number(buf, v));
}

// --- parser ---

namespace {

struct Parser {
  Parser(const std::string& text, std::string& err)
      : p(text.data()), end(text.data() + text.size()), error(&err) {}

  const char* p;
  const char* end;
  std::string* error;

  bool fail(const std::string& msg) {
    if (error->empty()) *error = msg;
    return false;
  }
  /// Set by json_parse_each: the member of the top-level object whose
  /// array elements go to `each` one at a time instead of into the tree.
  std::string_view each_key;
  const std::function<void(const JsonValue&)>* each = nullptr;
  bool at_top = true;  ///< the next value parsed is the document itself

  /// Containers open around the current value. Each level is one
  /// parse_value frame, so a document nested deeper than kMaxDepth fails
  /// with "nesting too deep" instead of overflowing the stack.
  static constexpr int kMaxDepth = 512;
  int depth = 0;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }
  bool parse_value(JsonValue& out);
  /// The members of an object whose '{' was consumed. `top`: the object is
  /// the document itself, whose `each_key` array json_parse_each streams.
  bool parse_members(JsonValue& out, bool top);

  /// The elements of an array whose '[' was consumed, each passed to
  /// `element` as an rvalue once parsed.
  template <typename F>
  bool parse_elements(F&& element) {
    skip_ws();
    if (p < end && *p == ']') { ++p; return true; }
    for (;;) {
      JsonValue v;
      if (!parse_value(v)) return false;
      element(std::move(v));
      skip_ws();
      if (p < end && *p == ',') { ++p; continue; }
      if (p < end && *p == ']') { ++p; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("truncated escape");
        switch (*p) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 5) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
              else return fail("bad \\u escape");
            }
            // UTF-8 encode (surrogate pairs not needed for our documents).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            p += 4;
            break;
          }
          default: return fail("unknown escape");
        }
        ++p;
      } else {
        out += *p++;
      }
    }
    if (p >= end) return fail("unterminated string");
    ++p;  // closing quote
    return true;
  }
};

bool Parser::parse_members(JsonValue& out, bool top) {
  out.kind = JsonValue::Kind::Object;
  skip_ws();
  if (p < end && *p == '}') { ++p; return true; }
  for (;;) {
    skip_ws();
    std::string k;
    if (!parse_string(k)) return false;
    skip_ws();
    if (p >= end || *p != ':') return fail("expected ':'");
    ++p;
    JsonValue v;
    skip_ws();
    if (top && each && k == each_key && p < end && *p == '[') {
      ++p;
      v.kind = JsonValue::Kind::Array;
      ++depth;
      if (!parse_elements(*each)) return false;
      --depth;
    } else if (!parse_value(v)) {
      return false;
    }
    out.obj.emplace(std::move(k), std::move(v));
    skip_ws();
    if (p < end && *p == ',') { ++p; continue; }
    if (p < end && *p == '}') { ++p; return true; }
    return fail("expected ',' or '}'");
  }
}

bool Parser::parse_value(JsonValue& out) {
  const bool top = at_top;
  at_top = false;
  skip_ws();
  if (p >= end) return fail("unexpected end of input");
  const char c = *p;
  if (c == '{' || c == '[') {
    if (depth == kMaxDepth) return fail("nesting too deep");
    ++p;
    ++depth;
    bool ok;
    if (c == '{') {
      ok = parse_members(out, top);
    } else {
      out.kind = JsonValue::Kind::Array;
      ok = parse_elements([&out](JsonValue&& v) {
        out.arr.push_back(std::move(v));
      });
    }
    --depth;
    return ok;
  }
  if (c == '"') {
    out.kind = JsonValue::Kind::String;
    return parse_string(out.str);
  }
  if (std::strncmp(p, "true", 4) == 0 && end - p >= 4) {
    out.kind = JsonValue::Kind::Bool;
    out.b = true;
    p += 4;
    return true;
  }
  if (std::strncmp(p, "false", 5) == 0 && end - p >= 5) {
    out.kind = JsonValue::Kind::Bool;
    out.b = false;
    p += 5;
    return true;
  }
  if (std::strncmp(p, "null", 4) == 0 && end - p >= 4) {
    out.kind = JsonValue::Kind::Null;
    p += 4;
    return true;
  }
  if (c == '-' || (c >= '0' && c <= '9')) {
    char* num_end = nullptr;
    out.kind = JsonValue::Kind::Number;
    out.num = std::strtod(p, &num_end);
    if (num_end == p) return fail("bad number");
    p = num_end;
    return true;
  }
  return fail(std::string("unexpected character '") + c + "'");
}

bool parse_document(Parser& parser, JsonValue& out, std::string& error) {
  error.clear();
  out = JsonValue{};  // parse_value fills containers in place; start fresh
  if (!parser.parse_value(out)) return false;
  parser.skip_ws();
  if (parser.p != parser.end) {
    error = "trailing characters after document";
    return false;
  }
  return true;
}

}  // namespace

bool json_parse(const std::string& text, JsonValue& out, std::string& error) {
  Parser parser(text, error);
  return parse_document(parser, out, error);
}

bool json_parse_each(const std::string& text, std::string_view array_key,
                     const std::function<void(const JsonValue&)>& element,
                     JsonValue& out, std::string& error) {
  Parser parser(text, error);
  parser.each_key = array_key;
  parser.each = &element;
  return parse_document(parser, out, error);
}

// --- schema validation (subset) ---

namespace {

const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::Null: return "null";
    case JsonValue::Kind::Bool: return "boolean";
    case JsonValue::Kind::Number: return "number";
    case JsonValue::Kind::String: return "string";
    case JsonValue::Kind::Array: return "array";
    case JsonValue::Kind::Object: return "object";
  }
  return "?";
}

bool type_matches(const std::string& type, const JsonValue& doc) {
  if (type == "object") return doc.kind == JsonValue::Kind::Object;
  if (type == "array") return doc.kind == JsonValue::Kind::Array;
  if (type == "string") return doc.kind == JsonValue::Kind::String;
  if (type == "boolean") return doc.kind == JsonValue::Kind::Bool;
  if (type == "null") return doc.kind == JsonValue::Kind::Null;
  if (type == "number") return doc.kind == JsonValue::Kind::Number;
  if (type == "integer") {
    return doc.kind == JsonValue::Kind::Number &&
           doc.num == std::floor(doc.num);
  }
  return false;
}

void validate_at(const JsonValue& schema, const JsonValue& doc,
                 const std::string& path, std::vector<std::string>& errors) {
  if (!schema.is_object()) return;  // boolean/empty schema: accept

  if (const JsonValue* type = schema.find("type")) {
    bool ok = false;
    if (type->is_string()) {
      ok = type_matches(type->str, doc);
    } else if (type->is_array()) {
      for (const auto& t : type->arr)
        if (t.is_string() && type_matches(t.str, doc)) ok = true;
    }
    if (!ok) {
      errors.push_back(path + ": expected type " +
                       (type->is_string() ? type->str : "(union)") + ", got " +
                       kind_name(doc.kind));
      return;  // type mismatch makes the remaining keywords meaningless
    }
  }

  if (const JsonValue* en = schema.find("enum")) {
    bool ok = false;
    for (const auto& cand : en->arr) {
      if (cand.kind != doc.kind) continue;
      if (cand.is_string() && cand.str == doc.str) ok = true;
      if (cand.is_number() && cand.num == doc.num) ok = true;
    }
    if (!ok) errors.push_back(path + ": value not in enum");
  }

  if (doc.is_object()) {
    if (const JsonValue* req = schema.find("required")) {
      for (const auto& k : req->arr) {
        if (k.is_string() && doc.find(k.str) == nullptr) {
          errors.push_back(path + ": missing required key '" + k.str + "'");
        }
      }
    }
    const JsonValue* props = schema.find("properties");
    if (props != nullptr && props->is_object()) {
      for (const auto& [k, sub] : props->obj) {
        if (const JsonValue* v = doc.find(k)) {
          validate_at(sub, *v, path + "." + k, errors);
        }
      }
    }
    if (const JsonValue* ap = schema.find("additionalProperties")) {
      if (ap->kind == JsonValue::Kind::Bool && !ap->b) {
        for (const auto& [k, v] : doc.obj) {
          (void)v;
          if (props == nullptr || props->find(k) == nullptr) {
            errors.push_back(path + ": unexpected key '" + k + "'");
          }
        }
      }
    }
  }

  if (doc.is_array()) {
    if (const JsonValue* min_items = schema.find("minItems")) {
      if (min_items->is_number() &&
          doc.arr.size() < static_cast<std::size_t>(min_items->num)) {
        errors.push_back(path + ": fewer than minItems elements");
      }
    }
    if (const JsonValue* items = schema.find("items")) {
      for (std::size_t i = 0; i < doc.arr.size(); ++i) {
        validate_at(*items, doc.arr[i], path + "[" + std::to_string(i) + "]",
                    errors);
      }
    }
  }
}

}  // namespace

bool json_schema_validate(const JsonValue& schema, const JsonValue& doc,
                          std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  validate_at(schema, doc, "$", errors);
  return errors.size() == before;
}

// --- file writer ---

std::string write_file(const std::string& path, const std::string& text) {
  return write_file(path, [&text](const ByteSink& put) { put(text); });
}

std::string write_file(const std::string& path,
                       const std::function<void(const ByteSink&)>& emit) {
  const std::string failed = "cannot write " + path + ": ";
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return failed + ec.message();
  }
  // Renaming over a device, FIFO or symlink would replace the node itself.
  struct stat st;
  const bool in_place =
      ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  const std::string target =
      in_place ? path : path + "." + std::to_string(::getpid()) + ".tmp";
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (!f) return failed + std::strerror(errno);
  int err = 0;
  const ByteSink put = [f, &err](std::string_view chunk) {
    if (err == 0 &&
        std::fwrite(chunk.data(), 1, chunk.size(), f) != chunk.size()) {
      err = errno;
    }
  };
  try {
    emit(put);
  } catch (...) {
    std::fclose(f);
    if (!in_place) std::remove(target.c_str());
    throw;
  }
  if (std::fclose(f) != 0 && err == 0) err = errno;
  if (err == 0 && !in_place &&
      std::rename(target.c_str(), path.c_str()) != 0) {
    err = errno;
  }
  if (err == 0) return "";
  if (!in_place) std::remove(target.c_str());
  return failed + std::strerror(err);
}

}  // namespace gemsd::obs
