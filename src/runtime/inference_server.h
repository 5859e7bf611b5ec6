// InferenceServer: a micro-batching request scheduler over a ChipFarm.
//
// Clients submit single inputs and get a std::future for the model output;
// worker threads coalesce queued requests into batches (up to max_batch, or
// whatever arrived within max_wait_us of the oldest pending request) and run
// them through a dedicated chip instance. This is the serving shape of
// graph-level inference runtimes (program once, batch aggressively, schedule
// across a pool) applied to the analog-chip simulator: batching feeds the
// crossbar matmul path whole tile passes instead of per-request MVMs.
//
// Crossbar chips serve through the one simd tile kernel; the scheduler
// never sees it.
//
// Latency/throughput counters are kept per server and snapshot via stats();
// per-request enqueue->complete latency feeds an obs::LatencyHistogram, so
// the snapshot carries exact-rank p50/p99/p999 percentiles. The server also
// publishes process-wide metrics (server.requests / server.batches counters,
// a server.queue_depth gauge, server.latency_us and server.batch_size
// histograms) into obs::MetricsRegistry — see docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/slo.h"
#include "runtime/chip_farm.h"
#include "tensor/tensor.h"

namespace cn::runtime {

struct InferenceServerOptions {
  int64_t max_batch = 32;     // coalesce at most this many requests
  int64_t max_wait_us = 2000; // flush a partial batch after this long
  int workers = 1;            // worker w runs chips on farm slot w (clamped
                              // to the farm's live slots)
  // Latency objective: p99 < slo_p99_ms over a slo_window_s sliding window.
  // 0 = no objective: the server runs without SLO tracking.
  double slo_p99_ms = 0;
  double slo_window_s = 60;
  // Model id for multi-model serving (ModelRouter sets it): labels every
  // server.* metric as {model=<id>} and tags the /statusz section. Empty =
  // unlabeled single-model metrics (the pre-router names).
  std::string model;
  // Admission control. All three gates default off; any non-zero value
  // arms admission and registers a /healthz probe reflecting accepting().
  //  - queue_limit: reject once the queue holds this many requests
  //  - queue_budget_us: reject once estimated queue wait (depth x EWMA
  //    per-request service time / active workers) exceeds this budget
  //  - admission_burn_max: reject while the SLO burn rate exceeds this
  //    (requires an SLO objective; the tracker turns from a read-out into
  //    a control input). Burn is read from the last computed window —
  //    stats()/scrape polls advance it.
  // Rejections resolve the returned future with a typed Overloaded error —
  // fast, never growing the queue.
  int64_t queue_limit = 0;
  int64_t queue_budget_us = 0;
  double admission_burn_max = 0;
};

/// Typed overload rejection: admission control resolves the submitted
/// request's future with this error instead of queueing it.
class Overloaded : public std::runtime_error {
 public:
  Overloaded(std::string model, int64_t queue_depth, double est_wait_us,
             const std::string& reason);
  const std::string& model() const noexcept { return model_; }
  int64_t queue_depth() const noexcept { return queue_depth_; }
  double est_wait_us() const noexcept { return est_wait_us_; }

 private:
  std::string model_;
  int64_t queue_depth_;
  double est_wait_us_;
};

/// A serve-path fault drill: degrade, remap-repair, or evict N of the
/// server's M workers mid-traffic (see InferenceServer::drill). Fault
/// models are shared-owned so drill specs built from faultsim::FaultSpec
/// outlive the spec object.
struct DrillSpec {
  enum class Action {
    kDegrade,  // rebuild the worker's chip with the faults injected
    kRemap,    // kDegrade + run the fault-aware remap repair on the chip
    kEvict,    // take the worker out of rotation (siblings absorb its load)
  };
  Action action = Action::kDegrade;
  std::vector<int> workers;  // worker indices to afflict
  // Fault models stacked onto the farm's own list (required for kDegrade /
  // kRemap; ignored by kEvict). faultsim::FaultSpec::models is this shape.
  std::vector<std::shared_ptr<const analog::FaultModel>> faults;
};

struct ServerStats {
  uint64_t requests = 0;       // completed requests
  uint64_t batches = 0;        // forward passes executed
  uint64_t full_batches = 0;   // batches that hit max_batch
  double total_latency_us = 0; // submit -> completion, summed over requests
  double wall_seconds = 0;     // first submit -> last completion
  // Enqueue->complete latency percentiles from the server's histogram
  // (exact-rank extraction, see obs::LatencyHistogram); 0 until the first
  // request completes.
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  double p999_latency_us = 0;
  double max_latency_us = 0;
  // SLO status (obs::SloTracker over the server's histogram); slo_configured
  // false when no objective is set, and the other slo_ fields stay 0.
  bool slo_configured = false;
  double slo_p99_ms = 0;          // the objective
  double slo_window_p99_us = 0;   // p99 over the sliding window
  double slo_burn_rate = 0;       // error-budget burn (1.0 = at budget)
  // Serving-policy state.
  std::string model;              // "" = single-model server
  bool admission_configured = false;
  bool accepting = true;          // current admission state (healthz input)
  uint64_t rejected = 0;          // Overloaded-rejected submits
  int64_t queue_depth = 0;        // queued requests at snapshot time
  int64_t max_queue_depth = 0;    // deepest the queue has ever been
  double est_wait_us = 0;         // current estimated queue wait
  // Fault-drill state.
  int active_workers = 0;         // workers in rotation (not evicted)
  int drilled_workers = 0;        // workers serving a degraded/remapped chip
  uint64_t drills = 0;            // drill() invocations

  double avg_batch() const {
    return batches ? static_cast<double>(requests) / static_cast<double>(batches) : 0.0;
  }
  double avg_latency_us() const {
    return requests ? total_latency_us / static_cast<double>(requests) : 0.0;
  }
  double throughput_rps() const {
    return wall_seconds > 0 ? static_cast<double>(requests) / wall_seconds : 0.0;
  }

  /// Human-readable multi-line snapshot (requests/batches, throughput, avg
  /// plus percentile latencies) — the one formatting of these numbers, so
  /// demos and benches stop re-deriving them.
  std::string summary() const;
};

class InferenceServer {
 public:
  InferenceServer(ChipFarm& farm, const InferenceServerOptions& opts = {});
  ~InferenceServer();  // drains the queue, then joins the workers

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one input (shape = model input without the batch dimension,
  /// e.g. (C,H,W)); the future resolves to the model output row for it.
  /// Every queued input must share one shape; mismatches and submits after
  /// shutdown() throw.
  std::future<Tensor> submit(Tensor input);

  /// Processes every queued request, then stops the workers. Idempotent;
  /// also called by the destructor. The last live server in the process
  /// clears the global exposition server's readiness — /healthz must stop
  /// saying "ok" once nothing can serve.
  void shutdown();

  /// Applies a fault drill mid-traffic: the afflicted workers rebuild their
  /// chips (with the drill faults injected, and remap repair for kRemap)
  /// between batches on their own threads — in-flight and queued requests
  /// are never failed, siblings keep draining the shared queue meanwhile.
  /// kEvict parks the workers instead. Throws if the drill would leave no
  /// active worker, if a worker index is out of range, or (for fault
  /// actions) if the farm is not a crossbar farm.
  void drill(const DrillSpec& spec);
  /// Lifts every drill: evicted workers rejoin, degraded chips rebuild
  /// clean on their next batch.
  void undrill();

  /// Current admission state: false while admission control is rejecting
  /// (flips back once the queue drains under its limits). Mirrored into the
  /// /healthz probe the server registers when admission is configured.
  bool accepting() const { return accepting_.load(std::memory_order_relaxed); }

  const std::string& model() const { return opts_.model; }

  ServerStats stats() const;

 private:
  struct Request {
    Tensor input;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Per-worker drill control. epoch bumps tell the worker to re-fetch its
  // chip from the farm (rebuilds happen on the worker's own thread, between
  // batches, honoring the farm threading contract); evicted parks it.
  struct WorkerCtl {
    std::atomic<uint64_t> epoch{0};
    std::atomic<bool> evicted{false};
    std::atomic<bool> drilled{false};
  };

  void worker_loop(int worker);
  void run_batch(nn::Sequential& chip, std::vector<Request>& batch);
  // Estimated queue wait for `depth` queued requests, from the EWMA
  // per-request service time and the active worker count.
  double estimate_wait_us(int64_t depth) const;
  // The admission decision for the current queue state; returns the gate
  // that fired (nullptr = admit). Caller holds mu_.
  const char* admission_reject_reason(int64_t depth, double* est_out) const;
  int count_active_workers() const;

  ChipFarm& farm_;
  InferenceServerOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  Shape input_shape_;  // fixed by the first submit
  bool stop_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::chrono::steady_clock::time_point first_submit_;
  std::chrono::steady_clock::time_point last_done_;
  bool saw_submit_ = false;

  // Admission state. accepting_ is the /healthz probe input; the EWMA
  // per-request service time feeds the queue-wait estimate (relaxed atomics:
  // concurrent worker updates may interleave, fine for an estimate).
  std::atomic<bool> accepting_{true};
  std::atomic<double> ewma_req_us_{0};
  int64_t max_queue_depth_ = 0;  // guarded by mu_

  // Drill state: one ctl per worker (unique_ptr: atomics don't move), plus
  // the lifecycle flags for the refcounted exposition readiness and the
  // registered healthz probe.
  std::vector<std::unique_ptr<WorkerCtl>> worker_ctl_;
  std::atomic<uint64_t> drill_count_{0};
  bool lifecycle_released_ = false;  // guarded by mu_
  int healthz_probe_ = 0;            // 0 = none registered

  // Per-server latency histogram backing the stats() percentiles (always
  // recording — it is a product feature, not optional instrumentation), plus
  // cached handles into the process-wide registry (gated by its enabled
  // flag). Instrumentation is timing-only: no rng, no numeric-path effect.
  obs::LatencyHistogram latency_us_;
  obs::Counter& m_requests_;
  obs::Counter& m_batches_;
  obs::Counter& m_rejected_;
  obs::Counter& m_drills_;
  obs::Gauge& m_queue_depth_;
  obs::Gauge& m_workers_active_;
  obs::LatencyHistogram& m_latency_us_;
  obs::LatencyHistogram& m_batch_size_;

  // SLO tracking over latency_us_, when an objective is configured. stats()
  // feeds the tracker (the scrape path calls stats(), so the window advances
  // with every /statusz hit and every explicit stats() poll).
  std::unique_ptr<obs::SloTracker> slo_;
  int statusz_section_ = 0;  // 0 = none registered

  std::vector<std::thread> workers_;
};

}  // namespace cn::runtime
