// Models, chip farms and inputs of the three workloads, shared by the
// workload runs and the layer profile so both measure the same objects.
//
// Models are built from fixed seeds and never trained: core::train is not
// bit-reproducible (Conv2D::backward reduces per-thread chunks in
// scheduling order), so a trained model would break the stored digests.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analog/crossbar.h"
#include "data/dataset.h"
#include "nn/sequential.h"
#include "runtime/chip_farm.h"

namespace perfbench {

/// Workload sizes; `tiny` shrinks every one for the self-test.
struct Sizes {
  int64_t mc_chips;         // mc-vgg-xbar: resident VGG chips
  int64_t mc_images;        // test images per MC pass (one batch)
  int64_t campaign_chips;   // chips per campaign cell
  int64_t campaign_images;  // test images per campaign cell
  int64_t serve_pool;       // distinct images requests draw from
};
Sizes sizes(bool tiny);

/// Seed of the reference inputs behind the stored digests.
constexpr uint64_t kReferenceSeed = 0;
/// Input seed a workload derives from the run's --seed (salted per use, so
/// two workloads never share a stream).
uint64_t derive_seed(uint64_t seed, uint64_t salt);

// mc-vgg-xbar: VGG16-slim on 3x32x32 objects, programmed onto crossbars
// (tile 128, program sigma 0.3, read sigma 0.02, 8-bit ADC).
cn::nn::Sequential vgg_model();
cn::analog::RramDeviceParams vgg_device();
/// A crossbar farm with every chip resident and programmed; `program_s`
/// (optional) receives each chip's programming time.
std::unique_ptr<cn::runtime::ChipFarm> vgg_farm(const cn::nn::Sequential& model,
                                                int64_t chips,
                                                std::vector<double>* program_s = nullptr);
cn::data::Dataset objects(uint64_t seed, int64_t n);

// campaign-lenet-faults and serve-lenet-digital: LeNet-5 on 1x28x28 digits.
cn::nn::Sequential lenet_model();
/// The protection variant: compensation on the first conv.
cn::nn::Sequential lenet_compensated(const cn::nn::Sequential& base);
/// Baseline device every campaign scenario starts from.
cn::analog::RramDeviceParams campaign_device();
cn::data::Dataset digits(uint64_t seed, int64_t n);
/// The serving farm: two factor-mode chips (lognormal sigma 0.5), resident.
std::unique_ptr<cn::runtime::ChipFarm> lenet_factor_farm(const cn::nn::Sequential& model);

}  // namespace perfbench
