#include "runtime/inference_server.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/exposition.h"
#include "obs/trace.h"

namespace cn::runtime {

namespace {

// How many InferenceServers are currently alive in the process: the first
// one flips the global exposition server's readiness on, the last one's
// shutdown flips it back off — /healthz must stop answering "ok" once
// nothing can serve (the refcounted-readiness bugfix).
std::atomic<int>& live_server_count() {
  static std::atomic<int> count{0};
  return count;
}

// Monotonic server ordinal for /statusz section disambiguation: two servers
// must not both register "inference server" (the page would show two
// identically-named sections with no way to tell them apart).
int next_server_ordinal() {
  static std::atomic<int> ordinal{0};
  return ++ordinal;
}

// Registry name for a per-server metric: labeled with the model id when one
// is set ("server.requests{model=mnist}"), the classic unlabeled name
// otherwise.
std::string metric_name(const InferenceServerOptions& opts, const char* base) {
  return opts.model.empty() ? std::string(base)
                            : obs::labeled(base, "model", opts.model);
}

}  // namespace

Overloaded::Overloaded(std::string model, int64_t queue_depth,
                       double est_wait_us, const std::string& reason)
    : std::runtime_error(
          "InferenceServer overloaded (" + reason +
          (model.empty() ? std::string() : ", model " + model) + ", " +
          std::to_string(queue_depth) + " queued)"),
      model_(std::move(model)),
      queue_depth_(queue_depth),
      est_wait_us_(est_wait_us) {}

std::string ServerStats::summary() const {
  char buf[512];
  std::string out;
  if (!model.empty()) out += "model: " + model + "\n";
  std::snprintf(buf, sizeof(buf),
                "requests %llu in %llu batches (avg batch %.1f, %llu full)\n"
                "throughput %.0f req/s over %.3fs\n"
                "latency avg %.0fus  p50 %.0fus  p99 %.0fus  p999 %.0fus  "
                "max %.0fus",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(batches), avg_batch(),
                static_cast<unsigned long long>(full_batches),
                throughput_rps(), wall_seconds, avg_latency_us(),
                p50_latency_us, p99_latency_us, p999_latency_us,
                max_latency_us);
  out += buf;
  if (admission_configured) {
    std::snprintf(buf, sizeof(buf),
                  "\nadmission: %s (rejected %llu, queue %lld, "
                  "max depth %lld, est wait %.0fus)",
                  accepting ? "accepting" : "rejecting",
                  static_cast<unsigned long long>(rejected),
                  static_cast<long long>(queue_depth),
                  static_cast<long long>(max_queue_depth), est_wait_us);
    out += buf;
  }
  if (drills > 0 || drilled_workers > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\ndrill: %d degraded, %d active workers (%llu drills)",
                  drilled_workers, active_workers,
                  static_cast<unsigned long long>(drills));
    out += buf;
  }
  if (slo_configured) {
    std::snprintf(buf, sizeof(buf),
                  "\nslo p99 < %.1fms: window p99 %.0fus, burn %.2fx",
                  slo_p99_ms, slo_window_p99_us, slo_burn_rate);
    out += buf;
  }
  return out;
}

InferenceServer::InferenceServer(ChipFarm& farm, const InferenceServerOptions& opts)
    : farm_(farm),
      opts_(opts),
      m_requests_(obs::metrics().counter(metric_name(opts, "server.requests"))),
      m_batches_(obs::metrics().counter(metric_name(opts, "server.batches"))),
      m_rejected_(obs::metrics().counter(metric_name(opts, "server.rejected"))),
      m_drills_(obs::metrics().counter(metric_name(opts, "server.drills"))),
      m_queue_depth_(obs::metrics().gauge(metric_name(opts, "server.queue_depth"))),
      m_workers_active_(
          obs::metrics().gauge(metric_name(opts, "server.workers_active"))),
      m_latency_us_(obs::metrics().histogram(metric_name(opts, "server.latency_us"))),
      m_batch_size_(obs::metrics().histogram(metric_name(opts, "server.batch_size"))) {
  if (opts_.max_batch < 1)
    throw std::invalid_argument("InferenceServer: max_batch must be >= 1");
  if (opts_.queue_limit < 0 || opts_.queue_budget_us < 0 ||
      opts_.admission_burn_max < 0)
    throw std::invalid_argument(
        "InferenceServer: admission thresholds must be >= 0");
  const int workers = static_cast<int>(std::clamp<int64_t>(
      opts_.workers, 1, farm_.num_live()));
  opts_.workers = workers;
  // Materialize each worker's chip up front: farm slots are lazy and
  // worker w exclusively owns chip w from here on.
  for (int w = 0; w < workers; ++w) farm_.chip(w);

  if (opts_.slo_p99_ms > 0) {
    obs::SloConfig cfg;
    cfg.quantile = 0.99;
    cfg.threshold_us = opts_.slo_p99_ms * 1000.0;
    cfg.window_s = opts_.slo_window_s;
    slo_ = std::make_unique<obs::SloTracker>(cfg, "slo");
  }
  if (opts_.admission_burn_max > 0 && !slo_)
    throw std::invalid_argument(
        "InferenceServer: admission_burn_max needs an SLO objective "
        "(slo_p99_ms)");

  worker_ctl_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w)
    worker_ctl_.push_back(std::make_unique<WorkerCtl>());
  m_workers_active_.set(static_cast<double>(workers));

  // Live introspection: the server summary becomes a /statusz section
  // (named per server — ordinal plus model id — so concurrent servers stay
  // tellable apart), an admission probe joins /healthz when admission
  // control is armed, and a running global exposition server flips to
  // ready — the chips are programmed by this point, so the process can
  // serve. Readiness is refcounted across servers via live_server_count().
  std::string title = "inference server #" + std::to_string(next_server_ordinal());
  if (!opts_.model.empty()) title += " [" + opts_.model + "]";
  statusz_section_ =
      obs::statusz_add_section(title, [this] { return stats().summary(); });
  if (admission_armed())
    healthz_probe_ = obs::healthz_add_probe(
        title + " admission", [this] { return accepting(); });
  live_server_count().fetch_add(1, std::memory_order_relaxed);
  if (obs::ExpositionServer* srv = obs::ExpositionServer::global())
    srv->set_ready(true);

  workers_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

InferenceServer::~InferenceServer() {
  // The section's and probe's lambdas capture `this`; unregister before any
  // member dies.
  if (statusz_section_) obs::statusz_remove_section(statusz_section_);
  if (healthz_probe_) obs::healthz_remove_probe(healthz_probe_);
  shutdown();
}

double InferenceServer::estimate_wait_us(int64_t depth) const {
  const double per_req = ewma_req_us_.load(std::memory_order_relaxed);
  const int active = std::max(1, count_active_workers());
  return static_cast<double>(depth) * per_req / static_cast<double>(active);
}

int InferenceServer::count_active_workers() const {
  int active = 0;
  for (const auto& ctl : worker_ctl_)
    if (!ctl->evicted.load(std::memory_order_relaxed)) ++active;
  return active;
}

const char* InferenceServer::admission_reject_reason(int64_t depth,
                                                     double* est_out) const {
  *est_out = 0;
  if (opts_.queue_limit > 0 && depth >= opts_.queue_limit)
    return "queue limit";
  if (opts_.queue_budget_us > 0) {
    *est_out = estimate_wait_us(depth);
    if (*est_out > static_cast<double>(opts_.queue_budget_us))
      return "queue wait budget";
  }
  if (opts_.admission_burn_max > 0 && slo_ &&
      slo_->status().burn_rate > opts_.admission_burn_max)
    return "slo burn rate";
  return nullptr;
}

std::future<Tensor> InferenceServer::submit(Tensor input) {
  // A NaN or infinite element would flow through every layer of the batch
  // it lands in; refuse it before it is queued, counted or fixes the shape.
  // The scan runs on every request, so it is branch-free (it vectorizes):
  // adding 2^23 to the exponent field carries into the top bit only from
  // the all-ones exponent of NaN and inf.
  uint32_t nonfinite = 0;
  for (int64_t i = 0; i < input.size(); ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, input.data() + i, sizeof bits);
    nonfinite |= (bits & 0x7f800000u) + 0x00800000u;
  }
  if (nonfinite >> 31)
    for (int64_t i = 0; i < input.size(); ++i)
      if (!std::isfinite(input[i]))
        throw std::invalid_argument("InferenceServer: input element " +
                                    std::to_string(i) + " is not finite (" +
                                    std::to_string(input[i]) + ")");
  Request req;
  req.input = std::move(input);
  req.enqueued = std::chrono::steady_clock::now();
  std::future<Tensor> fut = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) throw std::logic_error("InferenceServer: submit after shutdown");
    if (input_shape_.empty()) {
      input_shape_ = req.input.shape();
    } else if (req.input.shape() != input_shape_) {
      throw std::invalid_argument("InferenceServer: input shape " +
                                  to_string(req.input.shape()) + " != expected " +
                                  to_string(input_shape_));
    }
    // Admission control: reject fast — the future resolves immediately with
    // a typed Overloaded — instead of growing the queue.
    const int64_t depth = static_cast<int64_t>(queue_.size());
    double est = 0;
    if (const char* reason = admission_reject_reason(depth, &est)) {
      accepting_.store(false, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> slk(stats_mu_);
        stats_.rejected += 1;
      }
      m_rejected_.add(1);
      req.promise.set_exception(std::make_exception_ptr(
          Overloaded(opts_.model, depth, est, reason)));
      return fut;
    }
    // Record the wall-clock start only for admitted requests (and after the
    // checks above — a rejected or malformed first request must not start
    // the throughput clock), before the request becomes visible to the
    // workers so a fast completion can never observe an unset first_submit_.
    // Lock order mu_ -> stats_mu_ matches run_batch's callers (no path takes
    // mu_ while holding stats_mu_).
    {
      std::lock_guard<std::mutex> slk(stats_mu_);
      if (!saw_submit_) {
        first_submit_ = req.enqueued;
        saw_submit_ = true;
      }
    }
    queue_.push_back(std::move(req));
    max_queue_depth_ = std::max<int64_t>(max_queue_depth_,
                                         static_cast<int64_t>(queue_.size()));
    m_queue_depth_.set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return fut;
}

void InferenceServer::worker_loop(int worker) {
  WorkerCtl& ctl = *worker_ctl_[static_cast<size_t>(worker)];
  uint64_t seen_epoch = ctl.epoch.load(std::memory_order_acquire);
  // The chip pointer is re-fetched whenever the epoch bumps (drill/undrill):
  // the rebuild happens here, on the owning worker's thread, between
  // batches — the farm threading contract (chip(s) mutates slot s) holds.
  nn::Sequential* chip = &farm_.chip(worker);
  const auto max_wait = std::chrono::microseconds(std::max<int64_t>(0, opts_.max_wait_us));
  for (;;) {
    const uint64_t cur_epoch = ctl.epoch.load(std::memory_order_acquire);
    if (cur_epoch != seen_epoch &&
        !ctl.evicted.load(std::memory_order_relaxed)) {
      seen_epoch = cur_epoch;
      farm_.invalidate(worker);
      chip = &farm_.chip(worker);
    }
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (;;) {
        if (ctl.evicted.load(std::memory_order_relaxed)) {
          // Parked by a drill: wait out the eviction (or shutdown). Queued
          // work is left for the active siblings.
          if (stop_) return;
          cv_.wait(lk);
          continue;
        }
        if (!queue_.empty()) {
          if (stop_ || static_cast<int64_t>(queue_.size()) >= opts_.max_batch) break;
          // Flush once the oldest pending request has waited long enough;
          // otherwise sleep until that deadline (or new arrivals/shutdown).
          const auto deadline = queue_.front().enqueued + max_wait;
          if (std::chrono::steady_clock::now() >= deadline) break;
          cv_.wait_until(lk, deadline);
          continue;
        }
        if (stop_) return;
        cv_.wait(lk);
      }
      // A drill may have landed while waiting: rebuild before serving the
      // batch so no request runs on a stale chip epoch.
      if (ctl.epoch.load(std::memory_order_acquire) != seen_epoch) continue;
      const int64_t take =
          std::min<int64_t>(opts_.max_batch, static_cast<int64_t>(queue_.size()));
      batch.reserve(static_cast<size_t>(take));
      for (int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      m_queue_depth_.set(static_cast<double>(queue_.size()));
      // Admission recovery on drain: once the queue is back under half its
      // limit and inside the wait budget, start accepting again.
      if (!accepting_.load(std::memory_order_relaxed)) {
        const int64_t depth = static_cast<int64_t>(queue_.size());
        bool recovered = true;
        if (opts_.queue_limit > 0 && depth > opts_.queue_limit / 2)
          recovered = false;
        if (recovered && opts_.queue_budget_us > 0 &&
            estimate_wait_us(depth) > static_cast<double>(opts_.queue_budget_us))
          recovered = false;
        if (recovered && opts_.admission_burn_max > 0 && slo_ &&
            slo_->status().burn_rate > opts_.admission_burn_max)
          recovered = false;
        if (recovered) accepting_.store(true, std::memory_order_relaxed);
      }
    }
    // More work may remain (e.g. during drain); let a sibling grab it while
    // this worker runs the forward pass.
    cv_.notify_one();
    run_batch(*chip, batch);
  }
}

void InferenceServer::run_batch(nn::Sequential& chip, std::vector<Request>& batch) {
  const int64_t b = static_cast<int64_t>(batch.size());
  Shape batch_shape = batch[0].input.shape();
  batch_shape.insert(batch_shape.begin(), b);
  Tensor stacked(batch_shape);
  const int64_t stride = batch[0].input.size();
  for (int64_t i = 0; i < b; ++i)
    std::copy(batch[static_cast<size_t>(i)].input.data(),
              batch[static_cast<size_t>(i)].input.data() + stride,
              stacked.data() + i * stride);
  Tensor out;
  std::exception_ptr err;
  const auto started = std::chrono::steady_clock::now();
  {
    obs::Span span("server.batch", "server");
    try {
      out = chip.forward(stacked, /*train=*/false);
    } catch (...) {
      err = std::current_exception();
    }
  }
  const auto done = std::chrono::steady_clock::now();
  // Per-request service-time EWMA feeding the admission wait estimate
  // (0.7/0.3 blend; first sample seeds it).
  const double svc_us =
      std::chrono::duration<double, std::micro>(done - started).count() /
      static_cast<double>(b);
  const double prev = ewma_req_us_.load(std::memory_order_relaxed);
  ewma_req_us_.store(prev == 0 ? svc_us : 0.7 * prev + 0.3 * svc_us,
                     std::memory_order_relaxed);
  // Record stats before resolving the promises: a client that has seen its
  // future complete must also see itself counted.
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.requests += static_cast<uint64_t>(b);
    stats_.batches += 1;
    if (b >= opts_.max_batch) stats_.full_batches += 1;
    for (const auto& req : batch) {
      const double lat_us =
          std::chrono::duration<double, std::micro>(done - req.enqueued).count();
      latency_us_.record(lat_us);
      m_latency_us_.record(lat_us);
    }
    last_done_ = std::max(last_done_, done);
    stats_.wall_seconds =
        std::chrono::duration<double>(last_done_ - first_submit_).count();
  }
  m_requests_.add(static_cast<uint64_t>(b));
  m_batches_.add(1);
  m_batch_size_.record(static_cast<double>(b));
  if (err) {
    for (auto& req : batch) req.promise.set_exception(err);
    return;
  }
  const int64_t out_stride = out.size() / b;
  Shape row_shape(out.shape().begin() + 1, out.shape().end());
  for (int64_t i = 0; i < b; ++i) {
    Tensor row(row_shape);
    std::copy(out.data() + i * out_stride, out.data() + (i + 1) * out_stride,
              row.data());
    batch[static_cast<size_t>(i)].promise.set_value(std::move(row));
  }
}

void InferenceServer::drill(const DrillSpec& spec) {
  if (spec.workers.empty())
    throw std::invalid_argument("InferenceServer::drill: no workers named");
  for (int w : spec.workers)
    if (w < 0 || w >= opts_.workers)
      throw std::out_of_range("InferenceServer::drill: bad worker index " +
                              std::to_string(w));
  if (spec.action == DrillSpec::Action::kEvict) {
    // The fleet must keep at least one active worker or the queue stalls.
    int active_after = 0;
    for (int w = 0; w < opts_.workers; ++w) {
      const bool evicted =
          worker_ctl_[static_cast<size_t>(w)]->evicted.load(
              std::memory_order_relaxed) ||
          std::find(spec.workers.begin(), spec.workers.end(), w) !=
              spec.workers.end();
      if (!evicted) ++active_after;
    }
    if (active_after == 0)
      throw std::invalid_argument(
          "InferenceServer::drill: eviction would leave no active worker");
  } else {
    if (spec.faults.empty())
      throw std::invalid_argument(
          "InferenceServer::drill: degrade/remap needs fault models");
    std::vector<int64_t> chips(spec.workers.begin(), spec.workers.end());
    farm_.drill(chips, spec.faults,
                spec.action == DrillSpec::Action::kRemap);
  }
  for (int w : spec.workers) {
    WorkerCtl& ctl = *worker_ctl_[static_cast<size_t>(w)];
    if (spec.action == DrillSpec::Action::kEvict)
      ctl.evicted.store(true, std::memory_order_relaxed);
    else
      ctl.drilled.store(true, std::memory_order_relaxed);
    ctl.epoch.fetch_add(1, std::memory_order_release);
  }
  drill_count_.fetch_add(1, std::memory_order_relaxed);
  m_drills_.add(1);
  m_workers_active_.set(static_cast<double>(count_active_workers()));
  cv_.notify_all();
}

void InferenceServer::undrill() {
  farm_.clear_drill();
  for (auto& ctl : worker_ctl_) {
    const bool was_afflicted = ctl->evicted.load(std::memory_order_relaxed) ||
                               ctl->drilled.load(std::memory_order_relaxed);
    ctl->evicted.store(false, std::memory_order_relaxed);
    ctl->drilled.store(false, std::memory_order_relaxed);
    // Only afflicted workers rebuild; clean siblings keep their chips.
    if (was_afflicted) ctl->epoch.fetch_add(1, std::memory_order_release);
  }
  m_workers_active_.set(static_cast<double>(count_active_workers()));
  cv_.notify_all();
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!(stop_ && workers_.empty())) stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Refcounted exposition readiness: the last live server going away flips
  // /healthz back to 503 — a load balancer must stop routing here.
  bool release = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!lifecycle_released_) {
      lifecycle_released_ = true;
      release = true;
    }
  }
  if (release &&
      live_server_count().fetch_sub(1, std::memory_order_relaxed) == 1) {
    if (obs::ExpositionServer* srv = obs::ExpositionServer::global())
      srv->set_ready(false);
  }
}

ServerStats InferenceServer::stats() const {
  int64_t depth = 0;
  int64_t max_depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    depth = static_cast<int64_t>(queue_.size());
    max_depth = max_queue_depth_;
  }
  ServerStats out;
  obs::LatencyHistogram::Snapshot s;
  {
    // run_batch records under this lock too: the sum covers `requests`.
    std::lock_guard<std::mutex> lk(stats_mu_);
    out = stats_;
    s = latency_us_.snapshot();
  }
  out.total_latency_us = static_cast<double>(s.sum_us);
  out.model = opts_.model;
  out.admission_configured = admission_armed();
  out.accepting = accepting_.load(std::memory_order_relaxed);
  out.queue_depth = depth;
  out.max_queue_depth = max_depth;
  out.est_wait_us = estimate_wait_us(depth);
  out.active_workers = count_active_workers();
  out.drilled_workers = 0;
  for (const auto& ctl : worker_ctl_)
    if (ctl->drilled.load(std::memory_order_relaxed)) ++out.drilled_workers;
  out.drills = drill_count_.load(std::memory_order_relaxed);
  // One snapshot: all three quantiles read one coherent set of buckets.
  out.p50_latency_us = s.percentile(0.50);
  out.p99_latency_us = s.percentile(0.99);
  out.p999_latency_us = s.percentile(0.999);
  out.max_latency_us = static_cast<double>(s.max_us);
  if (slo_) {
    const obs::SloTracker::Status st = slo_->update(latency_us_);
    out.slo_configured = true;
    out.slo_p99_ms = opts_.slo_p99_ms;
    out.slo_window_p99_us = st.window_quantile_us;
    out.slo_burn_rate = st.burn_rate;
  }
  return out;
}

}  // namespace cn::runtime
