// Minimal streaming JSON writer for the observability layer.
//
// Every machine-readable artifact the simulator emits (run metrics, counter
// snapshots, Chrome trace events, bench records) goes through this writer so
// escaping, number formatting and nesting bookkeeping live in one place. The
// writer is strictly streaming — no DOM — because trace files can hold
// hundreds of thousands of events.
//
// indent > 0 renders pretty-printed JSON; indent <= 0 renders one compact
// line (the JSONL form the counter snapshots use).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dfly::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes excluded).
std::string json_escape(const std::string& s);

/// Appends `v` in decimal to `out`.
void append_int(std::string& out, std::int64_t v);
/// Appends `v` as JsonWriter::value(double) writes it: "%.12g", or null
/// when it is not finite.
void append_number(std::string& out, double v);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os, int indent = 2);

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object key; the next value()/begin_*() call is its value.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  /// Non-finite doubles are emitted as null (strict JSON has no NaN/Inf).
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(bool v);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  /// Depth of open containers; 0 once the document is complete.
  std::size_t depth() const { return stack_.size(); }

 private:
  struct Level {
    bool array = false;
    bool first = true;
  };

  void before_value();
  void newline();

  std::ostream& os_;
  int indent_;
  std::vector<Level> stack_;
  bool pending_key_ = false;
};

}  // namespace dfly::obs
