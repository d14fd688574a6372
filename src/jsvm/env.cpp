#include "src/jsvm/env.h"

#include <functional>

namespace offload::jsvm {
namespace {

/// Scopes up to this many slots are scanned linearly and carry no index.
constexpr std::size_t kLinearSlots = 8;

}  // namespace

std::size_t Environment::hash_name(std::string_view name) {
  return std::hash<std::string_view>{}(name);
}

Value* Environment::scan(std::string_view name) {
  for (auto& [k, v] : slots_) {
    if (k == name) return &v;
  }
  return nullptr;
}

Value* Environment::probe(std::string_view name, std::size_t hash) {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const std::uint32_t entry = index_[i];
    if (entry == 0) return nullptr;
    auto& [k, v] = slots_[entry - 1];
    if (k == name) return &v;
  }
}

void Environment::index_slot(std::size_t slot, std::size_t hash) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = static_cast<std::uint32_t>(slot + 1);
}

void Environment::rebuild_index() {
  std::size_t size = 16;
  while (size < slots_.size() * 4) size *= 2;
  index_.assign(size, 0);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    index_slot(s, hash_name(slots_[s].first));
  }
}

void Environment::declare(std::string_view name, Value value) {
  const bool indexed = !index_.empty();
  const std::size_t hash = indexed ? hash_name(name) : 0;
  if (Value* v = indexed ? probe(name, hash) : scan(name)) {
    *v = std::move(value);
    return;
  }
  slots_.emplace_back(std::string(name), std::move(value));
  if (indexed ? slots_.size() * 2 > index_.size()
              : slots_.size() > kLinearSlots) {
    rebuild_index();
  } else if (indexed) {
    index_slot(slots_.size() - 1, hash);
  }
}

Value* Environment::find(std::string_view name) {
  // Hash at most once, at the first indexed scope on the way out.
  std::size_t hash = 0;
  bool hashed = false;
  for (Environment* env = this; env; env = env->parent_.get()) {
    Value* v = nullptr;
    if (env->index_.empty()) {
      v = env->scan(name);
    } else {
      if (!hashed) {
        hash = hash_name(name);
        hashed = true;
      }
      v = env->probe(name, hash);
    }
    if (v) return v;
  }
  return nullptr;
}

}  // namespace offload::jsvm
