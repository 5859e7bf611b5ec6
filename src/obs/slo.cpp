#include "obs/slo.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace cn::obs {

std::string SloTracker::Status::summary() const {
  if (!configured) return "slo: not configured";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "slo p%g < %.0fus: window p%g %.0fus, burn %.2fx "
                "(%llu/%llu over, %.1fs)%s",
                100.0 * quantile, threshold_us, 100.0 * quantile,
                window_quantile_us, burn_rate,
                static_cast<unsigned long long>(window_bad),
                static_cast<unsigned long long>(window_count), window_s,
                violating ? "  VIOLATING" : "");
  return buf;
}

SloTracker::SloTracker(SloConfig cfg, std::string metric_prefix) : cfg_(cfg) {
  if (!(cfg_.quantile > 0.0 && cfg_.quantile < 1.0))
    throw std::invalid_argument("SloTracker: quantile must be in (0, 1)");
  if (!(cfg_.threshold_us > 0.0))
    throw std::invalid_argument("SloTracker: threshold_us must be > 0");
  if (!(cfg_.window_s > 0.0))
    throw std::invalid_argument("SloTracker: window_s must be > 0");
  if (!metric_prefix.empty()) {
    g_burn_ = &metrics().gauge(metric_prefix + ".burn_rate");
    g_quantile_ = &metrics().gauge(metric_prefix + ".window_quantile_us");
    g_bad_fraction_ = &metrics().gauge(metric_prefix + ".bad_fraction");
  }
}

uint64_t SloTracker::bad_count(const LatencyHistogram::Snapshot& delta,
                               double threshold_us) {
  // Bucket-edge rule: every sample in a bucket whose lower edge is at or
  // above the threshold is certainly >= threshold. Samples in the bucket
  // straddling the threshold count as good — the threshold rounds down to a
  // sketch boundary (<= 3.1% wide), which keeps the count exact and
  // hand-computable.
  uint64_t bad = 0;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    if (!delta.buckets[i]) continue;
    if (static_cast<double>(
            LatencyHistogram::bucket_lower(static_cast<int>(i))) >=
        threshold_us)
      bad += delta.buckets[i];
  }
  return bad;
}

SloTracker::Status SloTracker::update(const LatencyHistogram::Snapshot& snap,
                                      double now_s) {
  std::lock_guard<std::mutex> lk(mu_);
  // The front entry is the window baseline: the newest snapshot taken at or
  // before (now - window). Keep exactly one entry older than the window so
  // the delta always spans >= window_s once enough history exists.
  ring_.emplace_back(now_s, snap);
  while (ring_.size() >= 2 && ring_[1].first <= now_s - cfg_.window_s)
    ring_.pop_front();

  const LatencyHistogram::Snapshot delta =
      snap.delta_since(ring_.front().second);
  Status st;
  st.configured = true;
  st.quantile = cfg_.quantile;
  st.threshold_us = cfg_.threshold_us;
  st.window_s = now_s - ring_.front().first;
  st.window_count = delta.count;
  st.window_bad = bad_count(delta, cfg_.threshold_us);
  st.window_quantile_us = delta.percentile(cfg_.quantile);
  st.bad_fraction =
      delta.count ? static_cast<double>(st.window_bad) /
                        static_cast<double>(delta.count)
                  : 0.0;
  st.burn_rate = st.bad_fraction / (1.0 - cfg_.quantile);
  st.violating = delta.count > 0 && st.window_quantile_us >= cfg_.threshold_us;
  last_ = st;
  if (g_burn_) {
    g_burn_->set(st.burn_rate);
    g_quantile_->set(st.window_quantile_us);
    g_bad_fraction_->set(st.bad_fraction);
  }
  return st;
}

SloTracker::Status SloTracker::update(const LatencyHistogram& hist) {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return update(hist.snapshot(),
                std::chrono::duration<double>(now).count());
}

SloTracker::Status SloTracker::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_;
}

}  // namespace cn::obs
