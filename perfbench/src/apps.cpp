#include "perfbench/src/apps.h"

#include <cstdio>

#include "perfbench/src/common.h"
#include "src/jsvm/value.h"

namespace perfbench {
namespace {

namespace nn = offload::nn;

/// A realistic label table per app: ImageNet-style synset ids for
/// GoogLeNet's 1000 classes, the Adience age buckets for AgeNet and the two
/// genders for GenderNet.
std::vector<std::string> label_names(const std::string& app,
                                     std::size_t classes) {
  std::vector<std::string> out;
  if (app == "agenet") {
    out = {"0-2", "4-6", "8-12", "15-20", "25-32", "38-43", "48-53", "60-100"};
  } else if (app == "gendernet") {
    out = {"male", "female"};
  } else {
    char buf[48];
    for (std::size_t i = 0; i < classes; ++i) {
      std::snprintf(buf, sizeof buf, "n%08zu synset %zu",
                    1440764 + i * 9973 % 4000000, i);
      out.emplace_back(buf);
    }
  }
  out.resize(classes, "unnamed");
  return out;
}

/// `var labels = [{id: 0, name: '...'}, ...];` — one heap object per class.
std::string label_table_source(const std::vector<std::string>& labels) {
  std::string src = "var labels = [";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) src += ", ";
    src += "{id: " + std::to_string(i) + ", name: '" + labels[i] + "'}";
  }
  return src + "];\n";
}

std::string full_source(const std::string& app, const std::string& labels) {
  // The click handler grabs the picture on the client (the edge server
  // has no camera), then raises 'classify', the offload point, so the
  // pixels ride the snapshot.
  return "var model = loadModel(\"" + app + "\");\n" + labels +
         "var canvas = document.createElement('canvas');\n"
         "canvas.id = 'canvas';\n"
         "document.body.appendChild(canvas);\n"
         "var btn = document.createElement('button');\n"
         "btn.id = 'btn';\n"
         "document.body.appendChild(btn);\n"
         "var result = document.createElement('div');\n"
         "result.id = 'result';\n"
         "document.body.appendChild(result);\n"
         "btn.addEventListener('click', function() {\n"
         "  canvas.setImageData(loadImage('input'));\n"
         "  btn.dispatchEvent('classify');\n"
         "});\n"
         "btn.addEventListener('classify', function() {\n"
         "  var scores = model.inference(canvas.getImageData());\n"
         "  var best = 0;\n"
         "  for (var i = 1; i < scores.length; i++) {\n"
         "    if (scores[i] > scores[best]) { best = i; }\n"
         "  }\n"
         "  result.textContent = 'label ' + labels[best].name + ' score ' +"
         " scores[best];\n"
         "});\n";
}

std::string partial_source(const std::string& app, const std::string& labels) {
  // The paper's Fig. 5 shape: front() runs on the client and raises
  // 'front_complete'; rear() finishes on the server.
  return "var model = loadModel(\"" + app + "\");\n" + labels +
         "var btn = document.createElement('button');\n"
         "btn.id = 'btn';\n"
         "document.body.appendChild(btn);\n"
         "var result = document.createElement('div');\n"
         "result.id = 'result';\n"
         "document.body.appendChild(result);\n"
         "var feature = null;\n"
         "function front() {\n"
         "  var image = loadImage('input');\n"
         "  feature = model.inference_front(image);\n"
         "  btn.dispatchEvent('front_complete');\n"
         "}\n"
         "function rear() {\n"
         "  var scores = model.inference_rear(feature);\n"
         "  feature = null;\n"
         "  var best = 0;\n"
         "  for (var i = 1; i < scores.length; i++) {\n"
         "    if (scores[i] > scores[best]) { best = i; }\n"
         "  }\n"
         "  result.textContent = 'label ' + labels[best].name + ' score ' +"
         " scores[best];\n"
         "}\n"
         "btn.addEventListener('click', front);\n"
         "btn.addEventListener('front_complete', rear);\n";
}

/// The text the app writes for `scores`, computed the way the program
/// does: first maximum wins, the score printed as a JS number.
std::string expected_text(const nn::Tensor& scores,
                          const std::vector<std::string>& labels) {
  const auto& v = scores.data();
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = i;
  }
  return "label " + labels.at(best) + " score " +
         offload::jsvm::number_to_string(static_cast<double>(v[best]));
}

}  // namespace

std::string op_kind_name(const std::vector<ModelCase>& models, OpKind kind) {
  return models.at(kind.model).app + (kind.partial ? "/partial" : "/full");
}

std::vector<ModelCase> build_model_cases(std::uint64_t seed,
                                         std::size_t images_per_model,
                                         bool corrupt_reference) {
  std::vector<ModelCase> out;
  const auto specs = nn::benchmark_models();
  for (std::size_t m = 0; m < specs.size(); ++m) {
    ModelCase mc;
    mc.net = specs[m].build(specs[m].seed);
    mc.app = mc.net->name();
    mc.cut = offload::core::first_pool_cut(*mc.net);
    const std::size_t classes =
        static_cast<std::size_t>(mc.net->analyze().shapes.back().elements());
    mc.labels = label_names(mc.app, classes);
    const std::string table = label_table_source(mc.labels);
    mc.full_source = full_source(mc.app, table);
    mc.partial_source = partial_source(mc.app, table);
    for (std::size_t i = 0; i < images_per_model; ++i) {
      mc.images.push_back(offload::core::make_input_image(
          specs[m].input_hw, mix_seed(seed, m * 1000 + i)));
      std::string text =
          expected_text(mc.net->forward(mc.images.back()).output, mc.labels);
      // Image 0 is the warm-up image warm_stream checks in set-up; leaving
      // it intact lets a corrupted run reach the per-op gates.
      if (corrupt_reference && i > 0) {
        text = "label (deliberately wrong) " + text;
      }
      mc.expected.push_back(std::move(text));
    }
    out.push_back(std::move(mc));
  }
  return out;
}

offload::edge::AppBundle make_bundle(const ModelCase& model, bool partial,
                                     std::size_t image) {
  offload::edge::AppBundle b;
  b.name = model.app;
  b.source = partial ? model.partial_source : model.full_source;
  b.network = model.net;
  b.input_image = model.images.at(image);
  b.click_target = "btn";
  b.result_element = "result";
  return b;
}

offload::core::RuntimeConfig make_runtime_config(const ModelCase& model,
                                                 bool partial) {
  offload::core::RuntimeConfig cfg;
  cfg.client.offload_event = offload_event(partial);
  if (partial) {
    cfg.client.presend_rear_only = true;
    cfg.client.partition_cut = model.cut;
  }
  cfg.click_at = offload::core::after_ack_click_time(
      *model.net, partial, partial ? model.cut : 0,
      cfg.channel.a_to_b.bandwidth_bps);
  return cfg;
}

}  // namespace perfbench
