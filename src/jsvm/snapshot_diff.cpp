#include "src/jsvm/snapshot_diff.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "src/jsvm/snapshot_text.h"

namespace offload::jsvm {
namespace {

using detail::escape_string;

/// Collect the heap pointers (objects, arrays, typed arrays, functions,
/// environments, detached DOM nodes) reachable from a value. Attached DOM
/// nodes stop the walk — the server session already has them.
class ReachSet {
 public:
  explicit ReachSet(const Interpreter& interp,
                    const std::unordered_map<const DomNode*, std::size_t>&
                        attached)
      : interp_(interp), attached_(attached) {}

  void add(const Value& value) {
    if (const auto* o = std::get_if<ObjectPtr>(&value)) {
      if (!insert(o->get())) return;
      for (const auto& [k, v] : (*o)->properties) add(v);
    } else if (const auto* a = std::get_if<ArrayPtr>(&value)) {
      if (!insert(a->get())) return;
      for (const auto& v : (*a)->elements) add(v);
    } else if (const auto* t = std::get_if<TypedArrayPtr>(&value)) {
      insert(t->get());
    } else if (const auto* f = std::get_if<FunctionPtr>(&value)) {
      if (!insert(f->get())) return;
      add_env((*f)->closure);
    } else if (const auto* d = std::get_if<DomNodePtr>(&value)) {
      if (attached_.count(d->get())) return;  // server-side node
      if (!insert(d->get())) return;
      if ((*d)->canvas_data) add(Value((*d)->canvas_data));
      for (const auto& [type, handler] : (*d)->listeners) add(handler);
      for (const auto& child : (*d)->children) add(Value(child));
    }
  }

  void add_env(const EnvPtr& env) {
    for (const Environment* e = env.get();
         e && e != interp_.globals().get();
         e = e->parent().get()) {
      if (!insert(e)) return;
      for (const auto& [name, v] : e->slots()) {
        add(v);
      }
    }
  }

  bool intersects(const ReachSet& other) const {
    const auto& small = set_.size() < other.set_.size() ? set_ : other.set_;
    const auto& big = set_.size() < other.set_.size() ? other.set_ : set_;
    for (const void* p : small) {
      if (big.count(p)) return true;
    }
    return false;
  }

  bool contains(const void* p) const { return set_.count(p) > 0; }

 private:
  bool insert(const void* p) { return set_.insert(p).second; }

  const Interpreter& interp_;
  const std::unordered_map<const DomNode*, std::size_t>& attached_;
  std::unordered_set<const void*> set_;
};

/// Emits the "changed subgraph" of a diff. Mirrors the full writer's
/// shells-then-fills scheme, but references attached DOM nodes through
/// __domByIndex(k) instead of recreating them.
class DiffWriter {
 public:
  DiffWriter(Interpreter& interp, const RealmFingerprint& baseline,
             const SnapshotOptions& options)
      : interp_(interp), baseline_(baseline), options_(options) {
    index_attached(interp_.document().body());
  }

  DiffSnapshotResult write() {
    DiffSnapshotResult result;
    result.base_version = baseline_.version;

    RealmFingerprint now = fingerprint_realm(interp_);
    if (now.dom_structure != baseline_.dom_structure ||
        now.dom_content.size() != baseline_.dom_content.size()) {
      return fallback(result);
    }

    // Classify globals.
    std::vector<std::pair<std::string, Value>> changed;
    ReachSet unchanged_reach(interp_, attached_index_);
    std::unordered_set<std::string> present;
    for (const auto& [name, value] : interp_.globals()->slots()) {
      if (interp_.is_ambient_binding(name, value)) continue;
      present.insert(name);
      const std::uint64_t* base_hash = baseline_.find(name);
      const std::uint64_t* now_hash = nullptr;
      for (const auto& [n, h] : now.globals) {
        if (n == name) now_hash = &h;
      }
      if (base_hash && now_hash && *base_hash == *now_hash) {
        unchanged_reach.add(value);
      } else {
        changed.emplace_back(name, value);
      }
    }
    // Listener handlers already live on the server; treat them (and their
    // environments) as unchanged-reachable so sharing falls back safely.
    std::function<void(const DomNodePtr&)> add_listeners =
        [&](const DomNodePtr& node) {
          for (const auto& [type, handler] : node->listeners) {
            unchanged_reach.add(handler);
          }
          for (const auto& child : node->children) add_listeners(child);
        };
    add_listeners(interp_.document().body());

    ReachSet changed_reach(interp_, attached_index_);
    for (const auto& [name, value] : changed) changed_reach.add(value);
    if (options_.include_events) {
      for (const auto& ev : interp_.event_queue()) {
        changed_reach.add(ev.detail);
        changed_reach.add(Value(ev.target));
      }
    }
    if (changed_reach.intersects(unchanged_reach)) {
      return fallback(result);
    }

    // Discover & emit the changed subgraph.
    for (const auto& [name, value] : changed) discover(value);
    if (options_.include_events) {
      for (const auto& ev : interp_.event_queue()) {
        discover(ev.detail);
        discover(Value(ev.target));
      }
    }

    out_ += "(function() {\n";
    emit_heap();
    // DOM content diffs (same structure, changed text/attrs/canvas).
    for (std::size_t i = 0; i < now.dom_content.size(); ++i) {
      if (now.dom_content[i] != baseline_.dom_content[i]) {
        emit_dom_content(i);
      }
    }
    // Global updates and removals.
    for (const auto& [name, h] : baseline_.globals) {
      if (!present.count(name)) out_ += name + " = undefined;\n";
    }
    for (const auto& [name, value] : changed) {
      ++stats_.globals;
      out_ += name + " = " + value_expr(value) + ";\n";
    }
    if (options_.include_events) {
      for (const auto& ev : interp_.event_queue()) {
        ++stats_.events;
        out_ += "__dispatchPending(" + value_expr(Value(ev.target)) + ", " +
                escape_string(ev.type) + ", " + value_expr(ev.detail) +
                ");\n";
      }
    }
    out_ += "})();\n";

    stats_.total_bytes = out_.size();
    result.program = std::move(out_);
    result.stats = stats_;
    return result;
  }

 private:
  DiffSnapshotResult fallback(DiffSnapshotResult result) {
    SnapshotResult full = capture_snapshot(interp_, options_);
    result.program = std::move(full.program);
    result.stats = full.stats;
    result.full_fallback = true;
    return result;
  }

  void index_attached(const DomNodePtr& node) {
    attached_index_.emplace(node.get(), attached_index_.size());
    dfs_nodes_.push_back(node);
    for (const auto& child : node->children) index_attached(child);
  }

  // ----------------------------------------------------------- discovery

  void discover(const Value& value) {
    if (const auto* obj = std::get_if<ObjectPtr>(&value)) {
      if (obj_ids_.count(obj->get())) return;
      obj_ids_[obj->get()] = obj_list_.size();
      obj_list_.push_back(*obj);
      for (const auto& [k, v] : (*obj)->properties) discover(v);
    } else if (const auto* arr = std::get_if<ArrayPtr>(&value)) {
      if (arr_ids_.count(arr->get())) return;
      arr_ids_[arr->get()] = arr_list_.size();
      arr_list_.push_back(*arr);
      for (const auto& v : (*arr)->elements) discover(v);
    } else if (const auto* ta = std::get_if<TypedArrayPtr>(&value)) {
      if (ta_ids_.count(ta->get())) return;
      ta_ids_[ta->get()] = ta_list_.size();
      ta_list_.push_back(*ta);
    } else if (const auto* fn = std::get_if<FunctionPtr>(&value)) {
      if (fn_ids_.count(fn->get())) return;
      fn_ids_[fn->get()] = fn_list_.size();
      fn_list_.push_back(*fn);
      discover_env((*fn)->closure);
    } else if (const auto* dom = std::get_if<DomNodePtr>(&value)) {
      if (attached_index_.count(dom->get())) return;
      if (detached_ids_.count(dom->get())) return;
      detached_ids_[dom->get()] = detached_list_.size();
      detached_list_.push_back(*dom);
      if ((*dom)->canvas_data) discover(Value((*dom)->canvas_data));
      for (const auto& [type, handler] : (*dom)->listeners) discover(handler);
      for (const auto& child : (*dom)->children) discover(Value(child));
    }
  }

  void discover_env(const EnvPtr& env) {
    if (!env || env == interp_.globals()) return;
    if (env_ids_.count(env.get())) return;
    discover_env(env->parent());
    env_ids_[env.get()] = env_list_.size();
    env_list_.push_back(env);
    for (const auto& [name, value] : env->slots()) discover(value);
  }

  // ------------------------------------------------------------ emission

  void emit_heap() {
    stats_.environments = env_list_.size();
    for (std::size_t i = 0; i < env_list_.size(); ++i) {
      const EnvPtr& env = env_list_[i];
      std::string parent = "null";
      if (env->parent() && env->parent() != interp_.globals()) {
        parent = "__e" + std::to_string(env_ids_.at(env->parent().get()));
      }
      out_ += "var __e" + std::to_string(i) + " = __makeEnv(" + parent +
              ");\n";
    }
    stats_.typed_arrays = ta_list_.size();
    for (std::size_t i = 0; i < ta_list_.size(); ++i) {
      out_ += "var __t" + std::to_string(i) + " = ";
      stats_.typed_array_bytes += detail::append_typed_array(
          out_, ta_list_[i]->data, options_.base64_typed_arrays);
      out_ += ";\n";
    }
    stats_.objects = obj_list_.size();
    for (std::size_t i = 0; i < obj_list_.size(); ++i) {
      out_ += "var __o" + std::to_string(i) + " = {};\n";
    }
    stats_.arrays = arr_list_.size();
    for (std::size_t i = 0; i < arr_list_.size(); ++i) {
      out_ += "var __a" + std::to_string(i) + " = [];\n";
    }
    stats_.dom_nodes = detached_list_.size();
    for (std::size_t i = 0; i < detached_list_.size(); ++i) {
      out_ += "var __n" + std::to_string(i) + " = document.createElement(" +
              escape_string(detached_list_[i]->tag) + ");\n";
    }
    stats_.functions = fn_list_.size();
    for (std::size_t i = 0; i < fn_list_.size(); ++i) {
      const FunctionPtr& fn = fn_list_[i];
      std::string env = "null";
      if (fn->closure && fn->closure != interp_.globals()) {
        env = "__e" + std::to_string(env_ids_.at(fn->closure.get()));
      }
      out_ += "var __f" + std::to_string(i) + " = __closure(" +
              escape_string(fn->source()) + ", " + env + ");\n";
    }
    // Fills.
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
    for (std::size_t i = 0; i < detached_list_.size(); ++i) {
      const DomNodePtr& node = detached_list_[i];
      const std::string name = "__n" + std::to_string(i);
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
      for (const auto& child : node->children) {
        out_ += name + ".appendChild(" + value_expr(Value(child)) + ");\n";
      }
      for (const auto& [type, handler] : node->listeners) {
        out_ += name + ".addEventListener(" + escape_string(type) + ", " +
                value_expr(handler) + ");\n";
      }
    }
  }

  void emit_dom_content(std::size_t dfs_index) {
    const DomNodePtr& node = dfs_nodes_.at(dfs_index);
    const std::string ref = "__domByIndex(" + std::to_string(dfs_index) + ")";
    out_ += ref + ".textContent = " + escape_string(node->text) + ";\n";
    for (const auto& [k, v] : node->attributes) {
      out_ += ref + ".setAttribute(" + escape_string(k) + ", " +
              escape_string(v) + ");\n";
    }
    if (node->canvas_data) {
      // Canvas pixels count as feature-class payload. They are always
      // written as text, whatever base64_typed_arrays says.
      out_ += ref + ".setImageData(";
      stats_.typed_array_bytes += detail::append_typed_array(
          out_, node->canvas_data->data, /*base64=*/false);
      out_ += ");\n";
    }
  }

  std::string value_expr(const Value& value) const {
    struct Visitor {
      const DiffWriter& w;
      std::string operator()(const Undefined&) { return "undefined"; }
      std::string operator()(const Null&) { return "null"; }
      std::string operator()(bool b) { return b ? "true" : "false"; }
      std::string operator()(double d) { return detail::number_text(d); }
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
        if (auto it = w.attached_index_.find(d.get());
            it != w.attached_index_.end()) {
          return "__domByIndex(" + std::to_string(it->second) + ")";
        }
        return "__n" + std::to_string(w.detached_ids_.at(d.get()));
      }
    };
    return std::visit(Visitor{*this}, value);
  }

  Interpreter& interp_;
  const RealmFingerprint& baseline_;
  SnapshotOptions options_;
  SnapshotStats stats_;
  std::string out_;

  std::unordered_map<const DomNode*, std::size_t> attached_index_;
  std::vector<DomNodePtr> dfs_nodes_;
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
  std::unordered_map<const DomNode*, std::size_t> detached_ids_;
  std::vector<DomNodePtr> detached_list_;
};

}  // namespace

DiffSnapshotResult capture_snapshot_diff(Interpreter& interp,
                                         const RealmFingerprint& baseline,
                                         const SnapshotOptions& options) {
  return DiffWriter(interp, baseline, options).write();
}

}  // namespace offload::jsvm
