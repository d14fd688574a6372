// Runtime values for MicroJS. Reference types (objects, arrays, functions,
// typed arrays, DOM nodes, host objects) are shared_ptr-backed so the heap
// graph — including cycles — has real identity, which the snapshot writer
// must preserve (two references to one object stay one object after
// restore).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "src/jsvm/ast.h"

namespace offload::jsvm {

class Interpreter;
class Environment;
using EnvPtr = std::shared_ptr<Environment>;

struct Object;
struct ArrayObj;
struct FunctionObj;
struct TypedArray;
struct NativeFunction;
struct HostObject;
struct DomNode;

using ObjectPtr = std::shared_ptr<Object>;
using ArrayPtr = std::shared_ptr<ArrayObj>;
using FunctionPtr = std::shared_ptr<FunctionObj>;
using TypedArrayPtr = std::shared_ptr<TypedArray>;
using NativeFnPtr = std::shared_ptr<NativeFunction>;
using HostObjectPtr = std::shared_ptr<HostObject>;
using DomNodePtr = std::shared_ptr<DomNode>;

struct Undefined {
  bool operator==(const Undefined&) const = default;
};
struct Null {
  bool operator==(const Null&) const = default;
};

using Value = std::variant<Undefined, Null, bool, double, std::string,
                           ObjectPtr, ArrayPtr, FunctionPtr, TypedArrayPtr,
                           NativeFnPtr, HostObjectPtr, DomNodePtr>;

/// Thrown for runtime errors in MicroJS code (our TypeError/ReferenceError).
class JsError : public std::runtime_error {
 public:
  explicit JsError(const std::string& what) : std::runtime_error(what) {}
};

/// Plain object: ordered property list (insertion order is preserved and
/// determines snapshot output order, keeping snapshots deterministic).
struct Object {
  std::vector<std::pair<std::string, Value>> properties;

  Value* find(std::string_view key);
  const Value* find(std::string_view key) const;
  /// Missing keys read as undefined, like JS.
  Value get(std::string_view key) const;
  void set(std::string_view key, Value value);
  bool erase(std::string_view key);
};

struct ArrayObj {
  std::vector<Value> elements;
};

/// Float32Array: the value type for images, feature tensors, and model
/// outputs inside web apps. Backing store is plain float32, matching the
/// byte accounting of the paper's feature-data sizes.
struct TypedArray {
  std::vector<float> data;
};

/// A MicroJS closure: params + body AST + captured environment. `program`
/// keeps the AST (and its source text) alive for as long as the closure
/// exists. `source()` is the exact source slice, which is what snapshots
/// serialize.
struct FunctionObj {
  std::string name;  ///< may be empty
  const FunctionExpr* decl = nullptr;
  ProgramPtr program;
  EnvPtr closure;

  std::string_view source() const {
    return std::string_view(program->source)
        .substr(decl->src_begin, decl->src_end - decl->src_begin);
  }
};

/// Built-in function provided by the browser host. `registry_name` is the
/// stable identifier snapshots use to re-link (e.g. "console.log").
struct NativeFunction {
  std::string registry_name;
  std::function<Value(Interpreter&, const Value& this_value,
                      std::span<Value> args)>
      fn;
};

/// Opaque host-side object exposed to MicroJS (e.g. a loaded DNN model).
/// Snapshots do not embed its state; they emit `restore_expression()`,
/// a MicroJS expression that re-acquires the object on the restoring side —
/// this is precisely how the pre-sent model stays out of the snapshot.
struct HostObject {
  virtual ~HostObject() = default;
  virtual std::string_view class_name() const = 0;
  virtual Value get_property(Interpreter& interp, std::string_view name) = 0;
  virtual void set_property(Interpreter& /*interp*/, std::string_view name,
                            const Value& /*value*/) {
    throw JsError("cannot set property '" + std::string(name) +
                  "' on host object");
  }
  virtual std::string restore_expression() const = 0;
};

/// A DOM element. The tree (plus listeners) is part of the app execution
/// state and is fully serialized into snapshots.
struct DomNode : std::enable_shared_from_this<DomNode> {
  std::string tag;
  std::string id;
  std::string text;  ///< textContent
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<DomNodePtr> children;
  std::weak_ptr<DomNode> parent;
  /// (event type, handler) in registration order; handler is a FunctionPtr
  /// or NativeFnPtr value.
  std::vector<std::pair<std::string, Value>> listeners;
  /// For <canvas> elements: the pixel buffer returned by getImageData().
  /// Part of the app state, so snapshots serialize it.
  TypedArrayPtr canvas_data;

  void append_child(const DomNodePtr& child);
  bool remove_child(const DomNodePtr& child);
  const std::string* get_attribute(std::string_view name) const;
  void set_attribute(std::string_view name, std::string value);
};

// ------------------------------------------------------------ conversions

bool is_undefined(const Value& v);
bool is_null(const Value& v);
bool is_callable(const Value& v);
bool truthy(const Value& v);
/// JS-like typeof: "undefined", "boolean", "number", "string", "function",
/// "object".
std::string_view type_of(const Value& v);

/// Numeric coercion for arithmetic; throws JsError for non-numbers (MicroJS
/// is stricter than JS — no NaN-producing implicit coercions).
double to_number(const Value& v);

/// Human-readable rendering (console.log, string concatenation).
std::string to_display_string(const Value& v);

/// Strict-ish equality: same type and value; reference identity for heap
/// types; null == undefined (for convenient null checks, as the example
/// apps use them).
bool values_equal(const Value& a, const Value& b);

/// Shortest round-trip decimal text for a double (what to_display_string
/// emits, and the snapshot writer for finite values).
std::string number_to_string(double v);

}  // namespace offload::jsvm
