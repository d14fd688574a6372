#include "src/jsvm/snapshot.h"

#include <unordered_map>

#include "src/jsvm/snapshot_text.h"

namespace offload::jsvm {
namespace {

using detail::escape_string;

/// Serializer state: one pass of discovery, then ordered emission.
class Writer {
 public:
  Writer(Interpreter& interp, const SnapshotOptions& options)
      : interp_(interp), options_(options) {}

  SnapshotResult write() {
    discover_roots();
    emit();
    SnapshotResult result;
    result.stats = stats_;
    result.stats.total_bytes = out_.size();
    result.program = std::move(out_);
    return result;
  }

 private:
  // ------------------------------------------------------------ discovery

  void discover_roots() {
    // The DOM is always app state: discover the whole body tree first so
    // tree order determines DOM ids deterministically.
    discover_dom_tree(interp_.document().body());
    for (const auto& [name, value] : interp_.globals()->slots()) {
      if (interp_.is_ambient_binding(name, value)) continue;
      globals_.emplace_back(name, value);
      discover_value(value);
    }
    if (options_.include_events) {
      for (const auto& ev : interp_.event_queue()) {
        discover_value(Value(ev.target));
        discover_value(ev.detail);
      }
    }
  }

  void discover_dom_tree(const DomNodePtr& node) {
    discover_dom_node(node);
    for (const auto& child : node->children) discover_dom_tree(child);
  }

  void discover_dom_node(const DomNodePtr& node) {
    if (dom_ids_.count(node.get())) return;
    dom_ids_[node.get()] = dom_list_.size();
    dom_list_.push_back(node);
    if (node->canvas_data) discover_value(Value(node->canvas_data));
    for (const auto& [type, handler] : node->listeners) {
      discover_value(handler);
    }
    // Children are discovered by the caller (tree walk) or lazily when a
    // detached node is reached through the heap.
    for (const auto& child : node->children) discover_dom_node(child);
  }

  void discover_env(const EnvPtr& env) {
    if (!env || env == interp_.globals()) return;
    if (env_ids_.count(env.get())) return;
    discover_env(env->parent());  // parents first → smaller ids
    env_ids_[env.get()] = env_list_.size();
    env_list_.push_back(env);
    for (const auto& [name, value] : env->slots()) discover_value(value);
  }

  void discover_value(const Value& value) {
    if (const auto* obj = std::get_if<ObjectPtr>(&value)) {
      if (obj_ids_.count(obj->get())) return;
      obj_ids_[obj->get()] = obj_list_.size();
      obj_list_.push_back(*obj);
      for (const auto& [k, v] : (*obj)->properties) discover_value(v);
      return;
    }
    if (const auto* arr = std::get_if<ArrayPtr>(&value)) {
      if (arr_ids_.count(arr->get())) return;
      arr_ids_[arr->get()] = arr_list_.size();
      arr_list_.push_back(*arr);
      for (const auto& v : (*arr)->elements) discover_value(v);
      return;
    }
    if (const auto* ta = std::get_if<TypedArrayPtr>(&value)) {
      if (ta_ids_.count(ta->get())) return;
      ta_ids_[ta->get()] = ta_list_.size();
      ta_list_.push_back(*ta);
      return;
    }
    if (const auto* fn = std::get_if<FunctionPtr>(&value)) {
      if (fn_ids_.count(fn->get())) return;
      fn_ids_[fn->get()] = fn_list_.size();
      fn_list_.push_back(*fn);
      discover_env((*fn)->closure);
      return;
    }
    if (const auto* dom = std::get_if<DomNodePtr>(&value)) {
      discover_dom_node(*dom);
      return;
    }
    // Primitives, natives (by-name), host objects (by restore expression)
    // need no discovery.
  }

  // ------------------------------------------------------------- emission

  void emit() {
    out_ += "(function() {\n";
    out_ += "var __d0 = document.body;\n";
    emit_envs();
    emit_typed_arrays();
    emit_shells();
    emit_functions();
    emit_fills();
    emit_dom();
    emit_globals();
    if (options_.include_events) emit_events();
    out_ += "})();\n";
  }

  void emit_envs() {
    stats_.environments = env_list_.size();
    for (std::size_t i = 0; i < env_list_.size(); ++i) {
      const EnvPtr& env = env_list_[i];
      std::string parent = "null";
      if (env->parent() && env->parent() != interp_.globals()) {
        parent = env_name(env->parent().get());
      }
      out_ += "var __e" + std::to_string(i) + " = __makeEnv(" + parent +
              ");\n";
    }
  }

  void emit_typed_arrays() {
    stats_.typed_arrays = ta_list_.size();
    for (std::size_t i = 0; i < ta_list_.size(); ++i) {
      out_ += "var __t" + std::to_string(i) + " = ";
      stats_.typed_array_bytes += detail::append_typed_array(
          out_, ta_list_[i]->data, options_.base64_typed_arrays);
      out_ += ";\n";
    }
  }

  void emit_shells() {
    stats_.objects = obj_list_.size();
    for (std::size_t i = 0; i < obj_list_.size(); ++i) {
      out_ += "var __o" + std::to_string(i) + " = {};\n";
    }
    stats_.arrays = arr_list_.size();
    for (std::size_t i = 0; i < arr_list_.size(); ++i) {
      out_ += "var __a" + std::to_string(i) + " = [];\n";
    }
    stats_.dom_nodes = dom_list_.size();
    for (std::size_t i = 1; i < dom_list_.size(); ++i) {  // 0 is body
      out_ += "var __d" + std::to_string(i) + " = document.createElement(" +
              escape_string(dom_list_[i]->tag) + ");\n";
    }
  }

  void emit_functions() {
    stats_.functions = fn_list_.size();
    for (std::size_t i = 0; i < fn_list_.size(); ++i) {
      const FunctionPtr& fn = fn_list_[i];
      std::string env = "null";
      if (fn->closure && fn->closure != interp_.globals()) {
        env = env_name(fn->closure.get());
      }
      out_ += "var __f" + std::to_string(i) + " = __closure(" +
              escape_string(fn->source()) + ", " + env + ");\n";
    }
  }

  void emit_fills() {
    for (std::size_t i = 0; i < env_list_.size(); ++i) {
      for (const auto& [name, value] : env_list_[i]->slots()) {
        out_ += "__envSlot(__e" + std::to_string(i) + ", " +
                escape_string(name) + ", " + value_expr(value) + ");\n";
      }
    }
    for (std::size_t i = 0; i < obj_list_.size(); ++i) {
      for (const auto& [key, value] : obj_list_[i]->properties) {
        out_ += "__o" + std::to_string(i) + "[" + escape_string(key) +
                "] = " + value_expr(value) + ";\n";
      }
    }
    for (std::size_t i = 0; i < arr_list_.size(); ++i) {
      const auto& elements = arr_list_[i]->elements;
      for (std::size_t j = 0; j < elements.size(); ++j) {
        out_ += "__a" + std::to_string(i) + "[" + std::to_string(j) +
                "] = " + value_expr(elements[j]) + ";\n";
      }
    }
  }

  void emit_dom() {
    // Attributes/text/canvas for every node (including body), then tree
    // structure, then listeners.
    for (std::size_t i = 0; i < dom_list_.size(); ++i) {
      const DomNodePtr& node = dom_list_[i];
      const std::string name = "__d" + std::to_string(i);
      if (!node->id.empty()) {
        out_ += name + ".id = " + escape_string(node->id) + ";\n";
      }
      if (!node->text.empty()) {
        out_ += name + ".textContent = " + escape_string(node->text) + ";\n";
      }
      for (const auto& [k, v] : node->attributes) {
        out_ += name + ".setAttribute(" + escape_string(k) + ", " +
                escape_string(v) + ");\n";
      }
      if (node->canvas_data) {
        out_ += name + ".setImageData(" +
                value_expr(Value(node->canvas_data)) + ");\n";
      }
    }
    for (std::size_t i = 0; i < dom_list_.size(); ++i) {
      const DomNodePtr& node = dom_list_[i];
      for (const auto& child : node->children) {
        out_ += "__d" + std::to_string(i) + ".appendChild(" +
                dom_name(child.get()) + ");\n";
      }
    }
    for (std::size_t i = 0; i < dom_list_.size(); ++i) {
      const DomNodePtr& node = dom_list_[i];
      for (const auto& [type, handler] : node->listeners) {
        out_ += "__d" + std::to_string(i) + ".addEventListener(" +
                escape_string(type) + ", " + value_expr(handler) + ");\n";
      }
    }
  }

  void emit_globals() {
    stats_.globals = globals_.size();
    for (const auto& [name, value] : globals_) {
      out_ += name + " = " + value_expr(value) + ";\n";
    }
  }

  void emit_events() {
    for (const auto& ev : interp_.event_queue()) {
      ++stats_.events;
      out_ += "__dispatchPending(" + dom_name(ev.target.get()) + ", " +
              escape_string(ev.type) + ", " + value_expr(ev.detail) + ");\n";
    }
  }

  // -------------------------------------------------------------- helpers

  std::string env_name(const Environment* env) const {
    return "__e" + std::to_string(env_ids_.at(env));
  }
  std::string dom_name(const DomNode* node) const {
    return "__d" + std::to_string(dom_ids_.at(node));
  }

  std::string value_expr(const Value& value) const {
    struct Visitor {
      const Writer& w;
      std::string operator()(const Undefined&) { return "undefined"; }
      std::string operator()(const Null&) { return "null"; }
      std::string operator()(bool b) { return b ? "true" : "false"; }
      std::string operator()(double d) {
        // Negative literals are fine as unary expressions.
        return detail::number_text(d);
      }
      std::string operator()(const std::string& s) {
        return escape_string(s);
      }
      std::string operator()(const ObjectPtr& o) {
        return "__o" + std::to_string(w.obj_ids_.at(o.get()));
      }
      std::string operator()(const ArrayPtr& a) {
        return "__a" + std::to_string(w.arr_ids_.at(a.get()));
      }
      std::string operator()(const FunctionPtr& f) {
        return "__f" + std::to_string(w.fn_ids_.at(f.get()));
      }
      std::string operator()(const TypedArrayPtr& t) {
        return "__t" + std::to_string(w.ta_ids_.at(t.get()));
      }
      std::string operator()(const NativeFnPtr& f) {
        return "__native(" + escape_string(f->registry_name) + ")";
      }
      std::string operator()(const HostObjectPtr& h) {
        return h->restore_expression();
      }
      std::string operator()(const DomNodePtr& d) {
        return w.dom_name(d.get());
      }
    };
    return std::visit(Visitor{*this}, value);
  }

  Interpreter& interp_;
  SnapshotOptions options_;
  SnapshotStats stats_;
  std::string out_;

  std::vector<std::pair<std::string, Value>> globals_;
  std::unordered_map<const Object*, std::size_t> obj_ids_;
  std::vector<ObjectPtr> obj_list_;
  std::unordered_map<const ArrayObj*, std::size_t> arr_ids_;
  std::vector<ArrayPtr> arr_list_;
  std::unordered_map<const TypedArray*, std::size_t> ta_ids_;
  std::vector<TypedArrayPtr> ta_list_;
  std::unordered_map<const FunctionObj*, std::size_t> fn_ids_;
  std::vector<FunctionPtr> fn_list_;
  std::unordered_map<const Environment*, std::size_t> env_ids_;
  std::vector<EnvPtr> env_list_;
  std::unordered_map<const DomNode*, std::size_t> dom_ids_;
  std::vector<DomNodePtr> dom_list_;
};

}  // namespace

SnapshotResult capture_snapshot(Interpreter& interp,
                                const SnapshotOptions& options) {
  return Writer(interp, options).write();
}

void restore_snapshot(Interpreter& interp, const std::string& program) {
  interp.eval_program(program, "snapshot");
}

}  // namespace offload::jsvm
