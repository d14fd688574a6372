#include "src/edge/model_store.h"

#include <stdexcept>

#include "src/util/hash.h"

namespace offload::edge {

void ModelStore::store_file(nn::ModelFile file) {
  cache_.clear();
  for (auto& f : files_) {
    if (f.name == file.name) {
      f = std::move(file);
      return;
    }
  }
  files_.push_back(std::move(file));
}

void ModelStore::store_files(std::vector<nn::ModelFile> files) {
  for (auto& f : files) store_file(std::move(f));
}

void ModelStore::clear() {
  files_.clear();
  cache_.clear();
}

bool ModelStore::has_file(const std::string& name) const {
  return find(name) != nullptr;
}

const nn::ModelFile* ModelStore::find(const std::string& name) const {
  for (const auto& f : files_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::uint64_t ModelStore::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& f : files_) n += f.size();
  return n;
}

bool ModelStore::can_instantiate(const std::string& app) const {
  return has_file(app + ".desc") &&
         (has_file(app + ".weights") || has_file(app + ".rear.weights"));
}

std::shared_ptr<nn::Network> ModelStore::instantiate(
    const std::string& app) const {
  if (auto it = cache_.find(app); it != cache_.end()) return it->second;
  const nn::ModelFile* desc = find(app + ".desc");
  if (!desc) {
    throw std::runtime_error("ModelStore: no description for app '" + app +
                             "' (model not pre-sent?)");
  }
  auto net = std::shared_ptr<nn::Network>(
      nn::parse_description(util::to_string(std::span(desc->content))));
  bool any_weights = false;
  if (const nn::ModelFile* w = find(app + ".weights")) {
    nn::load_weights(*net, std::span(w->content));
    any_weights = true;
  }
  if (const nn::ModelFile* w = find(app + ".rear.weights")) {
    nn::load_weights(*net, std::span(w->content));
    any_weights = true;
  }
  if (!any_weights) {
    throw std::runtime_error("ModelStore: no weights for app '" + app + "'");
  }
  cache_.emplace(app, net);
  return net;
}

void BlobStore::put(const util::Bytes& content) {
  // Bytes already held need no second copy: a server that takes many full
  // uploads of one model keeps one blob, as an eager index would. The
  // equality test is a size check plus memcmp, far cheaper than the hash.
  // A rotted cached copy compares unequal, so the fresh one replaces it.
  for (const util::Bytes& held : pending_) {
    if (held == content) return;
  }
  for (const auto& [digest, held] : blobs_) {
    if (held == content) return;
  }
  pending_.push_back(content);
}

void BlobStore::index_pending() const {
  for (util::Bytes& content : pending_) {
    blobs_[util::fnv1a(std::span(content))] = std::move(content);
  }
  pending_.clear();
}

const util::Bytes* BlobStore::find(std::uint64_t digest, bool* corrupt) {
  if (corrupt) *corrupt = false;
  index_pending();
  auto it = blobs_.find(digest);
  if (it == blobs_.end()) return nullptr;
  if (util::fnv1a(std::span(it->second)) != digest) {
    blobs_.erase(it);
    if (corrupt) *corrupt = true;
    return nullptr;
  }
  return &it->second;
}

bool BlobStore::contains(std::uint64_t digest) const {
  index_pending();
  return blobs_.find(digest) != blobs_.end();
}

void BlobStore::clear() {
  pending_.clear();
  blobs_.clear();
}

std::size_t BlobStore::blob_count() const {
  index_pending();
  return blobs_.size();
}

std::uint64_t BlobStore::total_bytes() const {
  index_pending();
  std::uint64_t n = 0;
  for (const auto& [digest, content] : blobs_) n += content.size();
  return n;
}

bool BlobStore::corrupt_blob(std::uint64_t digest) {
  index_pending();
  auto it = blobs_.find(digest);
  if (it == blobs_.end() || it->second.empty()) return false;
  it->second[0] ^= 0x5a;
  return true;
}

}  // namespace offload::edge
