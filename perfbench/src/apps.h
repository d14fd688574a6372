// The benchmark's apps: the paper's three DNN apps, each as a full-offload
// and a partial-offload (cut at the first pooling layer) MicroJS program
// that carries a class-label table in its heap, plus seeded input-image
// pools with local reference results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/offload.h"

namespace perfbench {

/// One app: a paper model with its label table, both program variants, a
/// seeded image pool and the expected result text for every image.
struct ModelCase {
  std::string app;  ///< network name, e.g. "googlenet"
  std::shared_ptr<offload::nn::Network> net;
  std::size_t cut = 0;  ///< first_pool_cut(net), the partial-offload point
  std::vector<std::string> labels;
  std::string full_source;
  std::string partial_source;
  std::vector<offload::nn::Tensor> images;
  /// Result text the app must show for images[i]: "label <name> score <s>",
  /// from a local Network::forward.
  std::vector<std::string> expected;
};

/// One of the six app × mode pairs.
struct OpKind {
  std::size_t model = 0;
  bool partial = false;
};
inline constexpr std::size_t kOpKinds = 6;
inline OpKind op_kind(std::size_t k) { return {k / 2, (k % 2) == 1}; }
std::string op_kind_name(const std::vector<ModelCase>& models, OpKind kind);

/// Build GoogLeNet, AgeNet and GenderNet, their programs, `images_per_model`
/// seeded input images each, and the reference results. With
/// `corrupt_reference` the expected label of every image but image 0 (the
/// warm-up image) is replaced by a wrong one.
std::vector<ModelCase> build_model_cases(std::uint64_t seed,
                                         std::size_t images_per_model,
                                         bool corrupt_reference);

/// The bundle a session of `kind` runs, showing image `image`.
offload::edge::AppBundle make_bundle(const ModelCase& model, bool partial,
                                     std::size_t image);

/// Runtime configuration for an after-ACK offload of `kind`.
offload::core::RuntimeConfig make_runtime_config(const ModelCase& model,
                                                 bool partial);

/// The event whose handler is offloaded in each program variant.
inline const char* offload_event(bool partial) {
  return partial ? "front_complete" : "classify";
}

}  // namespace perfbench
