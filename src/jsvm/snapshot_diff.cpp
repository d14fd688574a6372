#include "src/jsvm/snapshot_diff.h"

#include <unordered_set>

#include "src/jsvm/snapshot_text.h"

namespace offload::jsvm {
namespace {

using detail::escape_string;

/// The body tree in depth-first order, body first: the order of
/// RealmFingerprint::dom_content and of `__domByIndex`.
std::vector<const DomNode*> attached_nodes(Interpreter& interp) {
  std::vector<const DomNode*> order;
  std::vector<const DomNode*> stack{interp.document().body().get()};
  while (!stack.empty()) {
    const DomNode* node = stack.back();
    stack.pop_back();
    order.push_back(node);
    for (auto it = node->children.rbegin(); it != node->children.rend();
         ++it) {
      stack.push_back(it->get());
    }
  }
  return order;
}

/// Text, attributes and canvas pixels of an attached node whose content
/// changed; its structure did not.
void emit_dom_content(detail::Writer& writer, const DomNode& node,
                      std::size_t dfs_index) {
  std::string& out = writer.out();
  const std::string ref = "__domByIndex(" + std::to_string(dfs_index) + ")";
  out += ref + ".textContent = " + escape_string(node.text) + ";\n";
  for (const auto& [k, v] : node.attributes) {
    out += ref + ".setAttribute(" + escape_string(k) + ", " +
           escape_string(v) + ");\n";
  }
  if (node.canvas_data) {
    out += ref + ".setImageData(";
    // A pixel array the changed globals also reach is already __tN; naming
    // it keeps canvas and global one array on the receiver.
    if (writer.discovered(node.canvas_data.get())) {
      out += writer.value_expr(node.canvas_data);
    } else {
      writer.append_typed_array(node.canvas_data->data);
    }
    out += ");\n";
  }
}

}  // namespace

DiffSnapshotResult capture_snapshot_diff(Interpreter& interp,
                                         const RealmFingerprint& baseline,
                                         const SnapshotOptions& options) {
  DiffSnapshotResult result;
  result.base_version = baseline.version;
  auto fallback = [&] {
    SnapshotResult full = capture_snapshot(interp, options);
    result.program = std::move(full.program);
    result.stats = full.stats;
    result.full_fallback = true;
    return result;
  };

  RealmFingerprint now = fingerprint_realm(interp);
  if (now.dom_structure != baseline.dom_structure ||
      now.dom_content.size() != baseline.dom_content.size()) {
    return fallback();
  }
  const std::vector<const DomNode*> nodes = attached_nodes(interp);
  detail::DomIndex attached;
  for (std::size_t i = 0; i < nodes.size(); ++i) attached.emplace(nodes[i], i);

  // `changed` writes the diff. `unchanged` walks what the receiver keeps,
  // only to check that the two share no heap entity: rebuilding a shared
  // one would split its identity on the receiver.
  detail::Writer changed(interp, options, &attached);
  detail::Writer unchanged(interp, options, &attached);
  std::unordered_set<std::string> present;
  for (const auto& [name, value] : interp.globals()->slots()) {
    if (interp.is_ambient_binding(name, value)) continue;
    present.insert(name);
    const std::uint64_t* base_hash = baseline.find(name);
    const std::uint64_t* now_hash = now.find(name);
    if (base_hash && now_hash && *base_hash == *now_hash) {
      unchanged.discover(value);
    } else {
      changed.add_global(name, value);
    }
  }
  // Listener handlers (and their environments) already live on the
  // receiver.
  for (const DomNode* node : nodes) {
    for (const auto& [type, handler] : node->listeners) {
      unchanged.discover(handler);
    }
  }
  if (options.include_events) {
    for (const auto& ev : interp.event_queue()) {
      changed.discover(ev.detail);
      changed.discover(ev.target);
    }
  }
  if (changed.shares_heap_with(unchanged)) return fallback();

  changed.begin();
  for (std::size_t i = 0; i < now.dom_content.size(); ++i) {
    if (now.dom_content[i] != baseline.dom_content[i]) {
      emit_dom_content(changed, *nodes.at(i), i);
    }
  }
  for (const auto& [name, hash] : baseline.globals) {
    if (!present.count(name)) changed.out() += name + " = undefined;\n";
  }
  SnapshotResult diff = changed.end();
  result.program = std::move(diff.program);
  result.stats = diff.stats;
  return result;
}

}  // namespace offload::jsvm
