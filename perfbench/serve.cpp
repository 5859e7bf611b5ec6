#include "serve.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <thread>

namespace perfbench {

using cn::Tensor;
using std::chrono::duration;

bool ServeRefs::matches(int64_t image, const Tensor& y) const {
  for (const auto& chip_rows : rows) {
    const std::vector<float>& r = chip_rows[static_cast<size_t>(image)];
    if (static_cast<int64_t>(r.size()) == y.size() &&
        std::memcmp(r.data(), y.data(), r.size() * sizeof(float)) == 0)
      return true;
  }
  return false;
}

std::string ServeRefs::digest() const {
  Digest d;
  for (const auto& chip_rows : rows)
    for (const auto& r : chip_rows) d.floats(r.data(), r.size());
  return d.hex();
}

ServeRefs serve_refs(cn::runtime::ChipFarm& farm, const cn::data::Dataset& pool) {
  ServeRefs refs;
  const int64_t n = pool.size();
  for (int64_t i = 0; i < n; ++i) refs.images.push_back(pool.image(i));
  for (int c = 0; c < 2; ++c) {
    cn::nn::Sequential& chip = farm.chip(c);
    for (int64_t i = 0; i < n; ++i) {
      Tensor x = refs.images[static_cast<size_t>(i)].reshaped(
          {1, pool.channels(), pool.height(), pool.width()});
      refs.rows[c].push_back(chip.forward(x, /*train=*/false).vec());
    }
  }
  return refs;
}

std::vector<Arrival> poisson_schedule(uint64_t seed, double rate_per_s,
                                      double seconds, int64_t pool) {
  cn::Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= seconds) break;
    out.push_back({t, rng.uniform_int(pool)});
  }
  return out;
}

OpenLoopStats open_loop(cn::runtime::InferenceServer& server, const ServeRefs& refs,
                        const std::vector<Arrival>& schedule) {
  const int64_t n = static_cast<int64_t>(schedule.size());
  OpenLoopStats st;
  st.attempted = n;
  std::vector<std::future<Tensor>> futs(static_cast<size_t>(n));
  std::vector<Clock::time_point> due(static_cast<size_t>(n));
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  for (int64_t i = 0; i < n; ++i)
    due[static_cast<size_t>(i)] =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 duration<double>(schedule[static_cast<size_t>(i)].t_s));
  std::atomic<int64_t> submitted{0};
  st.latency_ms.resize(static_cast<size_t>(n));

  // The collector resolves futures in submission order, but a later batch
  // may finish first on the other worker: while it waits on the oldest
  // request it sweeps the next ones, so an out-of-order completion is seen
  // within the 100 us poll rather than when the oldest resolves.
  std::thread collector([&] {
    std::vector<char> done(static_cast<size_t>(n), 0);
    auto finish = [&](int64_t i, Clock::time_point now) {
      const size_t k = static_cast<size_t>(i);
      done[k] = 1;
      st.latency_ms[k] = duration<double, std::milli>(now - due[k]).count();
      bool ok = false;
      if (futs[k].valid()) {
        try {
          ok = refs.matches(schedule[k].image, futs[k].get());
        } catch (const std::exception&) {
        }
      }
      if (!ok) ++st.failed;
    };
    int64_t next = 0;
    while (next < n) {
      const int64_t avail = submitted.load(std::memory_order_acquire);
      if (next >= avail) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      auto& head = futs[static_cast<size_t>(next)];
      if (!head.valid() ||
          head.wait_for(std::chrono::microseconds(100)) == std::future_status::ready)
        finish(next, Clock::now());
      const auto now = Clock::now();
      for (int64_t i = next + 1; i < std::min(avail, next + 129); ++i) {
        auto& f = futs[static_cast<size_t>(i)];
        if (!done[static_cast<size_t>(i)] && f.valid() &&
            f.wait_for(std::chrono::seconds(0)) == std::future_status::ready)
          finish(i, now);
      }
      while (next < avail && done[static_cast<size_t>(next)]) ++next;
    }
  });

  try {
    st.lateness_ms.reserve(static_cast<size_t>(n));
    st.submit_us.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const size_t k = static_cast<size_t>(i);
      std::this_thread::sleep_until(due[k]);
      const auto ts = Clock::now();
      try {
        futs[k] = server.submit(refs.images[static_cast<size_t>(schedule[k].image)]);
      } catch (const std::exception&) {
        // Left invalid: the collector counts it as failed.
      }
      const auto te = Clock::now();
      st.lateness_ms.push_back(duration<double, std::milli>(ts - due[k]).count());
      st.submit_us.push_back(duration<double, std::micro>(te - ts).count());
      submitted.store(i + 1, std::memory_order_release);
    }
  } catch (...) {
    // Unsubmitted requests stay invalid futures, which the collector counts
    // as failed; it must finish before the vectors it reads go away.
    submitted.store(n, std::memory_order_release);
    collector.join();
    throw;
  }
  collector.join();
  return st;
}

ClosedLoopStats closed_loop(cn::runtime::InferenceServer& server, const ServeRefs& refs,
                            cn::Rng& picks, int64_t outstanding, double seconds) {
  const int64_t pool = static_cast<int64_t>(refs.images.size());
  std::vector<std::future<Tensor>> ring(static_cast<size_t>(outstanding));
  std::vector<int64_t> image(static_cast<size_t>(outstanding));
  auto submit = [&](size_t slot) {
    image[slot] = picks.uniform_int(pool);
    try {
      ring[slot] = server.submit(refs.images[static_cast<size_t>(image[slot])]);
    } catch (const std::exception&) {
      ring[slot] = {};
    }
  };
  ClosedLoopStats st;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                duration<double>(seconds));
  for (size_t s = 0; s < ring.size(); ++s) submit(s);
  int64_t in_flight = outstanding;
  for (int64_t head = 0; in_flight > 0; ++head) {
    const size_t slot = static_cast<size_t>(head % outstanding);
    bool ok = false;
    if (ring[slot].valid()) {
      try {
        ok = refs.matches(image[slot], ring[slot].get());
      } catch (const std::exception&) {
      }
    }
    ++st.completed;
    if (!ok) ++st.failed;
    --in_flight;
    if (Clock::now() < stop) {
      submit(slot);
      ++in_flight;
    }
  }
  st.seconds = seconds_since(start);
  return st;
}

}  // namespace perfbench
