// Lexical environments. A chain of these is what a closure captures; the
// snapshot writer walks reachable environments to reconstruct closures on
// the restoring side (the paper's reference [11], "closure reconstruction").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/jsvm/value.h"

namespace offload::jsvm {

class Environment : public std::enable_shared_from_this<Environment> {
 public:
  explicit Environment(EnvPtr parent = nullptr) : parent_(std::move(parent)) {}

  const EnvPtr& parent() const { return parent_; }

  /// Slots in declaration order (snapshot determinism).
  const std::vector<std::pair<std::string, Value>>& slots() const {
    return slots_;
  }

  /// `var` semantics: (re)declare in *this* environment.
  void declare(std::string_view name, Value value);

  /// Look up through the chain; nullptr if unbound.
  Value* find(std::string_view name);

 private:
  static std::size_t hash_name(std::string_view name);
  Value* scan(std::string_view name);
  Value* probe(std::string_view name, std::size_t hash);
  void index_slot(std::size_t slot, std::size_t hash);
  void rebuild_index();

  EnvPtr parent_;
  std::vector<std::pair<std::string, Value>> slots_;
  /// Open-addressed name → slot table (slot + 1, 0 = empty; size a power
  /// of two, at most half full). Empty while the scope is small enough for
  /// a linear scan of slots_, which is every function scope in practice;
  /// the global scope and a snapshot's restore scope (one slot per heap
  /// object) get one.
  std::vector<std::uint32_t> index_;
};

}  // namespace offload::jsvm
