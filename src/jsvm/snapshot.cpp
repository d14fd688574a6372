#include "src/jsvm/snapshot.h"

#include "src/jsvm/snapshot_text.h"

namespace offload::jsvm {
namespace detail {

// ------------------------------------------------------------- discovery

void Writer::discover(const Value& root) {
  // Each pop does what one call of a recursive walk would: an entity gets
  // its id on first visit, and its children are pushed in reverse so they
  // are walked depth-first in forward order. The heap's depth costs
  // vector capacity, not C++ stack.
  push(root);
  while (!stack_.empty()) {
    const Pending next = stack_.back();
    stack_.pop_back();
    visit(next);
  }
}

void Writer::add_global(const std::string& name, const Value& value) {
  globals_.emplace_back(name, value);
  discover(value);
}

void Writer::push(const Value& value) {
  if (const auto* o = std::get_if<ObjectPtr>(&value)) {
    stack_.push_back({Pending::kObject, o->get()});
  } else if (const auto* a = std::get_if<ArrayPtr>(&value)) {
    stack_.push_back({Pending::kArray, a->get()});
  } else if (const auto* t = std::get_if<TypedArrayPtr>(&value)) {
    stack_.push_back({Pending::kTyped, t->get()});
  } else if (const auto* f = std::get_if<FunctionPtr>(&value)) {
    stack_.push_back({Pending::kFunction, f->get()});
  } else if (const auto* d = std::get_if<DomNodePtr>(&value)) {
    stack_.push_back({Pending::kDom, d->get()});
  }
  // Primitives, natives (by name) and host objects (by restore
  // expression) need no discovery.
}

void Writer::push_env(const Environment* env) {
  if (env && env != interp_.globals().get()) {
    stack_.push_back({Pending::kEnv, env});
  }
}

void Writer::visit(const Pending& next) {
  switch (next.kind) {
    case Pending::kObject: {
      const auto* obj = static_cast<const Object*>(next.ptr);
      if (!objects_.add(obj)) return;
      const auto& props = obj->properties;
      for (auto it = props.rbegin(); it != props.rend(); ++it) push(it->second);
      return;
    }
    case Pending::kArray: {
      const auto* arr = static_cast<const ArrayObj*>(next.ptr);
      if (!arrays_.add(arr)) return;
      const auto& elements = arr->elements;
      for (auto it = elements.rbegin(); it != elements.rend(); ++it) push(*it);
      return;
    }
    case Pending::kTyped:
      typed_.add(static_cast<const TypedArray*>(next.ptr));
      return;
    case Pending::kFunction: {
      const auto* fn = static_cast<const FunctionObj*>(next.ptr);
      if (functions_.add(fn)) push_env(fn->closure.get());
      return;
    }
    case Pending::kDom: {
      const auto* node = static_cast<const DomNode*>(next.ptr);
      if (attached_ && attached_->count(node)) return;
      if (!dom_.add(node)) return;
      // Pops canvas data, then listeners, then children.
      const auto& children = node->children;
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack_.push_back({Pending::kDom, it->get()});
      }
      const auto& listeners = node->listeners;
      for (auto it = listeners.rbegin(); it != listeners.rend(); ++it) {
        push(it->second);
      }
      if (node->canvas_data) {
        stack_.push_back({Pending::kTyped, node->canvas_data.get()});
      }
      return;
    }
    case Pending::kEnv: {
      // The parent chain first, so a parent always has the smaller id.
      const auto* env = static_cast<const Environment*>(next.ptr);
      if (envs_.contains(env)) return;
      stack_.push_back({Pending::kEnvSlots, env});
      push_env(env->parent().get());
      return;
    }
    case Pending::kEnvSlots: {
      // The parent chain's slots may have reached and numbered this env.
      const auto* env = static_cast<const Environment*>(next.ptr);
      if (!envs_.add(env)) return;
      const auto& slots = env->slots();
      for (auto it = slots.rbegin(); it != slots.rend(); ++it) push(it->second);
      return;
    }
  }
}

bool Writer::shares_heap_with(const Writer& other) const {
  return objects_.shares_with(other.objects_) ||
         arrays_.shares_with(other.arrays_) ||
         typed_.shares_with(other.typed_) ||
         functions_.shares_with(other.functions_) ||
         envs_.shares_with(other.envs_) || dom_.shares_with(other.dom_);
}

// -------------------------------------------------------------- emission

void Writer::begin() {
  out_ += "(function() {\n";
  // A full snapshot's node 0 is the body, which the receiver has.
  const std::size_t first_created = attached_ ? 0 : 1;
  if (!attached_) out_ += "var __d0 = document.body;\n";

  stats_.environments = envs_.list.size();
  for (std::size_t i = 0; i < envs_.list.size(); ++i) {
    out_ += "var __e" + std::to_string(i) + " = __makeEnv(" +
            env_expr(envs_.list[i]->parent().get()) + ");\n";
  }
  stats_.typed_arrays = typed_.list.size();
  for (std::size_t i = 0; i < typed_.list.size(); ++i) {
    out_ += "var __t" + std::to_string(i) + " = ";
    append_typed_array(typed_.list[i]->data);
    out_ += ";\n";
  }

  // Shells.
  stats_.objects = objects_.list.size();
  for (std::size_t i = 0; i < objects_.list.size(); ++i) {
    out_ += "var __o" + std::to_string(i) + " = {};\n";
  }
  stats_.arrays = arrays_.list.size();
  for (std::size_t i = 0; i < arrays_.list.size(); ++i) {
    out_ += "var __a" + std::to_string(i) + " = [];\n";
  }
  stats_.dom_nodes = dom_.list.size();
  for (std::size_t i = first_created; i < dom_.list.size(); ++i) {
    out_ += "var __d" + std::to_string(i) + " = document.createElement(" +
            escape_string(dom_.list[i]->tag) + ");\n";
  }

  stats_.functions = functions_.list.size();
  for (std::size_t i = 0; i < functions_.list.size(); ++i) {
    const FunctionObj* fn = functions_.list[i];
    out_ += "var __f" + std::to_string(i) + " = __closure(" +
            escape_string(fn->source()) + ", " + env_expr(fn->closure.get()) +
            ");\n";
  }

  // Fills.
  for (std::size_t i = 0; i < envs_.list.size(); ++i) {
    for (const auto& [name, value] : envs_.list[i]->slots()) {
      out_ += "__envSlot(__e" + std::to_string(i) + ", " +
              escape_string(name) + ", " + value_expr(value) + ");\n";
    }
  }
  for (std::size_t i = 0; i < objects_.list.size(); ++i) {
    for (const auto& [key, value] : objects_.list[i]->properties) {
      out_ += "__o" + std::to_string(i) + "[" + escape_string(key) +
              "] = " + value_expr(value) + ";\n";
    }
  }
  for (std::size_t i = 0; i < arrays_.list.size(); ++i) {
    const auto& elements = arrays_.list[i]->elements;
    for (std::size_t j = 0; j < elements.size(); ++j) {
      out_ += "__a" + std::to_string(i) + "[" + std::to_string(j) +
              "] = " + value_expr(elements[j]) + ";\n";
    }
  }
  emit_dom();
}

void Writer::emit_dom() {
  // Attributes/text/canvas for every node, then tree structure, then
  // listeners.
  for (std::size_t i = 0; i < dom_.list.size(); ++i) {
    const DomNode* node = dom_.list[i];
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
      out_ += name + ".setImageData(" + value_expr(node->canvas_data) +
              ");\n";
    }
  }
  for (std::size_t i = 0; i < dom_.list.size(); ++i) {
    for (const auto& child : dom_.list[i]->children) {
      out_ += "__d" + std::to_string(i) + ".appendChild(" +
              value_expr(child) + ");\n";
    }
  }
  for (std::size_t i = 0; i < dom_.list.size(); ++i) {
    for (const auto& [type, handler] : dom_.list[i]->listeners) {
      out_ += "__d" + std::to_string(i) + ".addEventListener(" +
              escape_string(type) + ", " + value_expr(handler) + ");\n";
    }
  }
}

SnapshotResult Writer::end() {
  stats_.globals = globals_.size();
  for (const auto& [name, value] : globals_) {
    out_ += name + " = " + value_expr(value) + ";\n";
  }
  if (options_.include_events) {
    for (const auto& ev : interp_.event_queue()) {
      ++stats_.events;
      out_ += "__dispatchPending(" + value_expr(ev.target) + ", " +
              escape_string(ev.type) + ", " + value_expr(ev.detail) + ");\n";
    }
  }
  out_ += "})();\n";
  SnapshotResult result;
  result.stats = stats_;
  result.stats.total_bytes = out_.size();
  result.program = std::move(out_);
  return result;
}

void Writer::append_typed_array(const std::vector<float>& data) {
  stats_.typed_array_bytes +=
      detail::append_typed_array(out_, data, options_.base64_typed_arrays);
}

std::string Writer::env_expr(const Environment* env) const {
  // The global scope is the receiver's own; `null` stands for it.
  if (!env || env == interp_.globals().get()) return "null";
  return "__e" + std::to_string(envs_.ids.at(env));
}

std::string Writer::value_expr(const Value& value) const {
  struct Visitor {
    const Writer& w;
    std::string operator()(const Undefined&) { return "undefined"; }
    std::string operator()(const Null&) { return "null"; }
    std::string operator()(bool b) { return b ? "true" : "false"; }
    std::string operator()(double d) { return number_text(d); }
    std::string operator()(const std::string& s) { return escape_string(s); }
    std::string operator()(const ObjectPtr& o) {
      return "__o" + std::to_string(w.objects_.ids.at(o.get()));
    }
    std::string operator()(const ArrayPtr& a) {
      return "__a" + std::to_string(w.arrays_.ids.at(a.get()));
    }
    std::string operator()(const FunctionPtr& f) {
      return "__f" + std::to_string(w.functions_.ids.at(f.get()));
    }
    std::string operator()(const TypedArrayPtr& t) {
      return "__t" + std::to_string(w.typed_.ids.at(t.get()));
    }
    std::string operator()(const NativeFnPtr& f) {
      return "__native(" + escape_string(f->registry_name) + ")";
    }
    std::string operator()(const HostObjectPtr& h) {
      return h->restore_expression();
    }
    std::string operator()(const DomNodePtr& d) {
      if (w.attached_) {
        if (auto it = w.attached_->find(d.get()); it != w.attached_->end()) {
          return "__domByIndex(" + std::to_string(it->second) + ")";
        }
      }
      return "__d" + std::to_string(w.dom_.ids.at(d.get()));
    }
  };
  return std::visit(Visitor{*this}, value);
}

}  // namespace detail

SnapshotResult capture_snapshot(Interpreter& interp,
                                const SnapshotOptions& options) {
  detail::Writer writer(interp, options);
  // The DOM is always app state. Discovering the body first makes tree
  // order decide DOM ids.
  writer.discover(interp.document().body());
  for (const auto& [name, value] : interp.globals()->slots()) {
    if (!interp.is_ambient_binding(name, value)) writer.add_global(name, value);
  }
  if (options.include_events) {
    for (const auto& ev : interp.event_queue()) {
      writer.discover(ev.target);
      writer.discover(ev.detail);
    }
  }
  writer.begin();
  return writer.end();
}

void restore_snapshot(Interpreter& interp, const std::string& program) {
  interp.eval_program(program, "snapshot");
}

}  // namespace offload::jsvm
