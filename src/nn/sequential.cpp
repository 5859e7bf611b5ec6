#include "nn/sequential.h"

#include <stdexcept>

#include "nn/fusion.h"

namespace cn::nn {

// Out of line: ~FusedPlan must be visible to destroy/move the cached plan.
Sequential::Sequential(std::string label) { label_ = std::move(label); }
Sequential::~Sequential() = default;
Sequential::Sequential(Sequential&&) noexcept = default;
Sequential& Sequential::operator=(Sequential&&) noexcept = default;

Layer& Sequential::add(LayerPtr layer) {
  plan_.reset();  // structural edit: any cached fused plan is stale
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (train) {
    Tensor h = x;
    for (auto& l : layers_) h = l->forward(h, true);
    return h;
  }
  // The plan holds raw pointers into layers_; moving this Sequential keeps
  // them valid (layers_ owns through unique_ptr), structural edits reset it.
  const bool fuse = fusion_enabled();
  if (!plan_ || plan_->fused() != fuse)
    plan_ = std::make_unique<FusedPlan>(*this, fuse);
  return plan_->execute(x);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

void Sequential::collect_analog(std::vector<PerturbableWeight*>& out) {
  for (auto& l : layers_) l->collect_analog(out);
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto c = std::make_unique<Sequential>(label_);
  for (const auto& l : layers_) c->layers_.push_back(l->clone());
  return c;
}

Sequential Sequential::clone_model() const {
  Sequential c(label_);
  for (const auto& l : layers_) c.layers_.push_back(l->clone());
  return c;
}

LayerPtr Sequential::replace_layer(int64_t i, LayerPtr l) {
  if (i < 0 || i >= num_layers())
    throw std::out_of_range("replace_layer: index " + std::to_string(i));
  plan_.reset();  // structural edit: any cached fused plan is stale
  std::swap(layers_[static_cast<size_t>(i)], l);
  return l;
}

std::vector<PerturbableWeight*> Sequential::analog_sites() {
  std::vector<PerturbableWeight*> out;
  collect_analog(out);
  return out;
}

void Sequential::clear_all_variations() {
  for (PerturbableWeight* s : analog_sites()) s->clear_weight_factors();
}

int64_t Sequential::num_params() const {
  int64_t n = 0;
  for (Param* p : const_cast<Sequential*>(this)->params()) n += p->size();
  return n;
}

int64_t Sequential::num_trainable_params() const {
  int64_t n = 0;
  for (Param* p : const_cast<Sequential*>(this)->params())
    if (p->trainable) n += p->size();
  return n;
}

void Sequential::set_trainable(bool trainable) {
  for (Param* p : params()) p->trainable = trainable;
}

}  // namespace cn::nn
