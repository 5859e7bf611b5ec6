// Load generation and checking for runtime::InferenceServer.
//
// The open loop submits on a seeded Poisson schedule at an absolute rate
// (never scaled by a measured capacity) and times each request from the
// moment it was due, with the benchmark's own clock. The closed loop keeps a
// fixed number of requests outstanding. Every served row is compared
// bitwise with Sequential::forward of the same image on a serving chip.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.h"
#include "data/dataset.h"
#include "runtime/inference_server.h"
#include "tensor/rng.h"

namespace perfbench {

/// The request images and each serving chip's reference output row for
/// every image, computed one image at a time before the server starts.
struct ServeRefs {
  std::vector<cn::Tensor> images;           // (C, H, W)
  std::vector<std::vector<float>> rows[2];  // rows[chip][image]

  /// Whether `y` equals, bit for bit, chip 0's or chip 1's row for `image`
  /// (a request is served by whichever worker's chip picks it up).
  bool matches(int64_t image, const cn::Tensor& y) const;
  std::string digest() const;
};
ServeRefs serve_refs(cn::runtime::ChipFarm& farm, const cn::data::Dataset& pool);

struct Arrival {
  double t_s;     // due time after the phase starts
  int64_t image;  // index into ServeRefs::images
};
std::vector<Arrival> poisson_schedule(uint64_t seed, double rate_per_s,
                                      double seconds, int64_t pool);

struct OpenLoopStats {
  std::vector<double> latency_ms;   // completion - due time, by request
  std::vector<double> lateness_ms;  // submit - due time (generator lateness)
  std::vector<double> submit_us;    // duration of each submit() call
  int64_t attempted = 0;
  int64_t failed = 0;
};
OpenLoopStats open_loop(cn::runtime::InferenceServer& server, const ServeRefs& refs,
                        const std::vector<Arrival>& schedule);

struct ClosedLoopStats {
  int64_t completed = 0;
  int64_t failed = 0;
  double seconds = 0;  // first submit to last completion
  double rps() const { return seconds > 0 ? static_cast<double>(completed) / seconds : 0; }
};
ClosedLoopStats closed_loop(cn::runtime::InferenceServer& server, const ServeRefs& refs,
                            cn::Rng& picks, int64_t outstanding, double seconds);

}  // namespace perfbench
