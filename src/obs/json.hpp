#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gemsd::obs {

/// Takes a streamed document's bytes, one chunk per call, in order.
using ByteSink = std::function<void(std::string_view)>;

/// Streaming JSON writer. Produces deterministic output (fixed key order —
/// whatever order the caller emits — and fixed number formatting), which the
/// telemetry tests rely on: the same run must serialize to the same bytes at
/// any --jobs value.
///
/// Default-constructed, the document accumulates in memory (str(), take()).
/// Given a sink, the writer hands its buffer over whenever kFlushBytes have
/// accumulated, so a large document (a full trace ring) is never held whole;
/// flush() passes on the rest.
class JsonWriter {
 public:
  static constexpr std::size_t kFlushBytes = std::size_t{1} << 16;

  JsonWriter() = default;
  explicit JsonWriter(ByteSink sink) : sink_(std::move(sink)) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Key inside an object; follow with exactly one value (or container).
  void key(std::string_view k);
  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(bool v);
  void value_null();
  /// Splice a pre-serialized JSON fragment as a value (no validation).
  void raw(std::string_view json);

  // Convenience: key + value in one call.
  template <typename T>
  void kv(std::string_view k, const T& v) {
    key(k);
    value(v);
  }

  /// Hand what is buffered to the sink (streaming writers only).
  void flush();

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

  /// Shortest deterministic representation: integers without exponent where
  /// exact, otherwise %.12g. Non-finite values serialize as 0 (JSON has no
  /// NaN/Inf).
  static std::string number(double v);

 private:
  void comma();
  void append_escaped(std::string_view s);

  std::string out_;
  ByteSink sink_;
  std::vector<char> has_item_;  ///< per open container: item already written
  bool pending_key_ = false;
};

/// Minimal parsed-JSON value (null/bool/number/string/array/object) for the
/// schema validator, tests and tools. Not a general-purpose library: numbers
/// are doubles, object key order is not preserved (std::map — deterministic
/// but sorted).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  const JsonValue* find(const std::string& k) const {
    if (kind != Kind::Object) return nullptr;
    auto it = obj.find(k);
    return it == obj.end() ? nullptr : &it->second;
  }
  /// The number at `k`, or `fallback` when it is missing or not a number.
  double num_or(const std::string& k, double fallback) const {
    const JsonValue* v = find(k);
    return v && v->is_number() ? v->num : fallback;
  }
};

/// Parse a complete JSON document. Returns false (and fills `error`) on
/// malformed input; trailing non-whitespace is an error.
bool json_parse(const std::string& text, JsonValue& out, std::string& error);

/// json_parse for a document whose bulk is one array member of its
/// top-level object: each element of the array at `array_key` goes to
/// `element` as soon as it is parsed and is then dropped, so only one
/// element is held at a time. In `out` that member is an empty array; every
/// other member is parsed as json_parse would. A document that is not an
/// object, or whose `array_key` member is not an array, parses as a whole.
bool json_parse_each(const std::string& text, std::string_view array_key,
                     const std::function<void(const JsonValue&)>& element,
                     JsonValue& out, std::string& error);

/// Validate `doc` against a JSON-Schema subset: type, required, properties,
/// items (single schema), enum (strings/numbers), minItems,
/// additionalProperties (bool only; default true). Returns true when valid;
/// appends human-readable problems ("$.runs[3].metrics: missing required key
/// 'resp_ms'") to `errors` otherwise.
bool json_schema_validate(const JsonValue& schema, const JsonValue& doc,
                          std::vector<std::string>& errors);

/// The one way the tools write a file. Creates the parent directories,
/// writes `<path>.<pid>.tmp` beside the target, checks the stream after
/// close, then renames the temp file over `path`, so concurrent writers and
/// readers never see a torn file (no fsync: this is about atomicity, not
/// crash durability). A target that exists and is not a regular file (a
/// device such as /dev/stdout, a FIFO, a symlink) is written in place and
/// never renamed over. Returns "" on success, else "cannot write <path>:
/// <OS reason>"; a failed write leaves no temp file behind.
std::string write_file(const std::string& path, const std::string& text);

/// The streaming form, with the same guarantees: `emit` produces the
/// content through the sink it is given, a chunk at a time, so the file is
/// never held in memory whole. After the first failed write the remaining
/// chunks are dropped and the error is returned.
std::string write_file(const std::string& path,
                       const std::function<void(const ByteSink&)>& emit);

}  // namespace gemsd::obs
