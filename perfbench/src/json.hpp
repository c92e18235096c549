// perfbench: a minimal JSON value for the benchmark's machine-readable
// output (objects keep insertion order so successive runs diff cleanly).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Json {
 public:
  Json() = default;
  Json(double v) : kind_(Kind::kNumber), num_(v) {}  // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}      // NOLINT
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}  // NOLINT
  Json(bool v) : kind_(Kind::kBool), bool_(v) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}  // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT

  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }

  /// Object member access; inserts a null member on first use.
  Json& operator[](const std::string& key) {
    kind_ = Kind::kObject;
    for (auto& [k, v] : members_) {
      if (k == key) return v;
    }
    members_.emplace_back(key, Json());
    return members_.back().second;
  }
  void push(Json v) {
    kind_ = Kind::kArray;
    items_.push_back(std::move(v));
  }

  [[nodiscard]] std::string dump() const {
    std::string out;
    write(out);
    return out;
  }

 private:
  enum class Kind { kNull, kNumber, kBool, kString, kObject, kArray };

  static void write_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
  }

  void write(std::string& out) const {
    switch (kind_) {
      case Kind::kNull: out += "null"; break;
      case Kind::kBool: out += bool_ ? "true" : "false"; break;
      case Kind::kNumber: {
        if (!std::isfinite(num_)) {
          out += "null";
          break;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        out += buf;
        break;
      }
      case Kind::kString: write_string(out, str_); break;
      case Kind::kObject: {
        out += '{';
        bool first = true;
        for (const auto& [k, v] : members_) {
          if (!first) out += ", ";
          first = false;
          write_string(out, k);
          out += ": ";
          v.write(out);
        }
        out += '}';
        break;
      }
      case Kind::kArray: {
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
          if (i != 0) out += ", ";
          items_[i].write(out);
        }
        out += ']';
        break;
      }
    }
  }

  Kind kind_ = Kind::kNull;
  double num_ = 0.0;
  bool bool_ = false;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

}  // namespace perfbench
