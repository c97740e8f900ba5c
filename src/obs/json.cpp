#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace dfly::obs {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch) & 0xFF);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.12g", v)));
}

JsonWriter::JsonWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {}

void JsonWriter::newline() {
  if (indent_ <= 0) return;
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i) os_ << ' ';
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the comma/newline were emitted by key()
  }
  if (stack_.empty()) return;
  Level& top = stack_.back();
  if (!top.first) os_ << ',';
  top.first = false;
  newline();
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back(Level{});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back(Level{true, true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(const std::string& k) {
  Level& top = stack_.back();
  if (!top.first) os_ << ',';
  top.first = false;
  newline();
  os_ << '"' << json_escape(k) << '"' << (indent_ > 0 ? ": " : ":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const std::string& v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string(v)); }

JsonWriter& JsonWriter::value(double v) {
  before_value();
  std::string text;
  append_number(text, v);
  os_ << text;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

}  // namespace dfly::obs
