// The snapshot writer and its text-emission helpers, shared by the full
// and the differential snapshot (internal header).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/jsvm/snapshot.h"
#include "src/jsvm/value.h"
#include "src/util/base64.h"

namespace offload::jsvm::detail {

inline std::string escape_string(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Whether `0/0` evaluates to a NaN with its sign bit set on this machine
/// (x86's default NaN is negative, ARM's positive).
inline bool division_nan_is_negative() {
  static const bool negative = [] {
    volatile double zero = 0.0;
    return std::signbit(zero / zero);
  }();
  return negative;
}

/// Restorable text for a non-finite number. MicroJS has no NaN or Infinity
/// literal, and an ambient `NaN` global would not help: values_equal(NaN,
/// NaN) is false, so the writer would emit it into every snapshot. The
/// value is written as the division that makes it, parenthesized so it
/// reads as one operand anywhere. A NaN keeps its sign bit, so capturing
/// the restored realm again gives the same text.
inline const char* non_finite_text(double v) {
  if (std::isnan(v)) {
    return std::signbit(v) == division_nan_is_negative() ? "(0/0)"
                                                         : "(-(0/0))";
  }
  return v > 0 ? "(1/0)" : "(-1/0)";
}

/// Snapshot text for a number value.
inline std::string number_text(double v) {
  return std::isfinite(v) ? number_to_string(v) : non_finite_text(v);
}

/// Appends the restore expression of a Float32Array's contents to `out`:
/// `__f32([...])` with each float's shortest round-trip text, or
/// `__f32b64("...")` when `base64`. Returns the bytes appended (the
/// snapshot's feature-data share).
inline std::size_t append_typed_array(std::string& out,
                                      const std::vector<float>& data,
                                      bool base64) {
  const std::size_t start = out.size();
  if (base64) {
    // The base64 alphabet has nothing escape_string would escape.
    out += "__f32b64(\"";
    out += util::base64_encode(
        std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                  data.size() * sizeof(float)));
    out += "\")";
    return out.size() - start;
  }
  // ~10 bytes per element for typical feature values; append grows past it.
  out.reserve(start + data.size() * 10 + 9);
  out += "__f32([";
  char buf[32];
  for (std::size_t j = 0; j < data.size(); ++j) {
    if (j) out.push_back(',');
    if (std::isfinite(data[j])) {
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), data[j]);
      out.append(buf, ptr);
    } else {
      out += non_finite_text(data[j]);
    }
  }
  out += "])";
  return out.size() - start;
}

/// Attached DOM nodes by depth-first index, body first: the nodes the
/// receiver of a differential snapshot already holds.
using DomIndex = std::unordered_map<const DomNode*, std::size_t>;

/// Discovery-order ids of one kind of heap entity.
template <typename T>
struct IdMap {
  std::unordered_map<const T*, std::size_t> ids;
  std::vector<const T*> list;

  /// Numbers `p` on first sight; false if it already has an id.
  bool add(const T* p) {
    if (!ids.try_emplace(p, list.size()).second) return false;
    list.push_back(p);
    return true;
  }
  bool contains(const T* p) const { return ids.count(p) > 0; }
  bool shares_with(const IdMap& other) const {
    for (const T* p : list) {
      if (other.contains(p)) return true;
    }
    return false;
  }
};

/// The one snapshot writer. Discovery numbers every object, array, typed
/// array, function, environment and DOM node reachable from the roots it is
/// given, in preorder. Emission then writes envs, typed arrays, shells,
/// functions, fills and the DOM, and names every value through value_expr.
///
/// A full snapshot discovers the whole realm, body first. A differential
/// snapshot passes `attached`: those nodes are named `__domByIndex(k)` and
/// are neither walked nor written, because the receiver holds them.
class Writer {
 public:
  Writer(Interpreter& interp, const SnapshotOptions& options,
         const DomIndex* attached = nullptr)
      : interp_(interp), options_(options), attached_(attached) {}

  /// Numbers everything reachable from `root` that has no id yet.
  void discover(const Value& root);
  /// A global the program assigns at its end; its value is discovered.
  void add_global(const std::string& name, const Value& value);
  /// Whether this walk and `other` reached a common heap entity.
  bool shares_heap_with(const Writer& other) const;
  bool discovered(const TypedArray* array) const {
    return typed_.contains(array);
  }

  /// Opens the program and writes the discovered heap.
  void begin();
  /// Writes the globals and pending events, and closes the program.
  SnapshotResult end();

  std::string value_expr(const Value& value) const;
  /// Appends a typed array's contents in the configured encoding and
  /// counts them as feature bytes.
  void append_typed_array(const std::vector<float>& data);
  std::string& out() { return out_; }

 private:
  /// One step of the explicit-stack discovery walk.
  struct Pending {
    enum Kind : std::uint8_t {
      kObject, kArray, kTyped, kFunction, kDom, kEnv, kEnvSlots
    } kind;
    const void* ptr;
  };

  void push(const Value& value);
  void push_env(const Environment* env);
  void visit(const Pending& next);
  void emit_dom();
  std::string env_expr(const Environment* env) const;

  Interpreter& interp_;
  SnapshotOptions options_;
  const DomIndex* attached_;
  SnapshotStats stats_;
  std::string out_;

  std::vector<Pending> stack_;
  std::vector<std::pair<std::string, Value>> globals_;
  IdMap<Object> objects_;
  IdMap<ArrayObj> arrays_;
  IdMap<TypedArray> typed_;
  IdMap<FunctionObj> functions_;
  IdMap<Environment> envs_;
  IdMap<DomNode> dom_;
};

}  // namespace offload::jsvm::detail
