#include "models/vgg.h"

#include <algorithm>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/init.h"
#include "nn/pooling.h"

namespace cn::models {

nn::Sequential vgg16(const VggConfig& cfg, Rng& rng) {
  using namespace cn::nn;
  Sequential m("vgg16");
  // Base widths per block (slim); the canonical ratios 64..512 preserved as
  // 16..96 with the last block kept flat to bound FC size.
  const std::vector<std::vector<int64_t>> blocks = {
      {16, 16}, {32, 32}, {64, 64, 64}, {96, 96, 96}, {128, 128, 128}};
  int64_t c_in = cfg.in_c;
  int64_t hw = cfg.in_hw;
  int conv_idx = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t l = 0; l < blocks[b].size(); ++l) {
      const int64_t c_out =
          std::max<int64_t>(4, static_cast<int64_t>(static_cast<float>(blocks[b][l]) * cfg.width));
      ++conv_idx;
      const std::string name = "conv" + std::to_string(b + 1) + "_" + std::to_string(l + 1);
      m.emplace<Conv2D>(c_in, c_out, 3, 1, 1, hw, hw, name);
      m.emplace<ReLU>("relu_" + name);
      c_in = c_out;
    }
    m.emplace<MaxPool2D>(2, "pool" + std::to_string(b + 1));
    hw /= 2;
  }
  m.emplace<Flatten>("flatten");
  const int64_t feat = c_in * hw * hw;
  const int64_t fc_w = std::max<int64_t>(32, static_cast<int64_t>(192 * cfg.width));
  m.emplace<Dense>(feat, fc_w, "fc1");
  m.emplace<ReLU>("relu_fc1");
  m.emplace<Dense>(fc_w, fc_w, "fc2");
  m.emplace<ReLU>("relu_fc2");
  m.emplace<Dense>(fc_w, cfg.num_classes, "fc3");
  init_model(m, rng);
  return m;
}

}  // namespace cn::models
