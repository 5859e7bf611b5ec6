// Deterministic indexed fan-out: the scheduling primitive behind
// campaign-level parallelism (faultsim::Campaign, examples/fault_sweep).
//
// parallel_indexed(n, c, fn) runs fn(0..n-1), every index exactly once, with
// up to c calls in flight. Jobs are handed out dynamically (an atomic
// cursor, not static chunks) so a grid whose cells cost wildly different
// amounts — a fault-free control next to a 50%-stuck scenario — still load
// balances. Determinism is the caller's contract: fn(i) must key every
// output by i (write result[i], derive seeds from i), never by completion
// order; under that contract results are byte-identical for any concurrency.
//
// Worker provisioning: when the shared tensor pool is at least c wide the
// jobs run there; otherwise a dedicated pool of c workers is spun up for the
// call (the knob must mean something on a narrow box: sanitizers need real
// concurrency to see races). Either way, nested parallel_for from inside a
// job runs inline (ThreadPool's any-pool-worker rule), so each job executes
// serially within itself and jobs never funnel through another pool's
// queue.
#pragma once

#include <cstdint>
#include <functional>

namespace cn::runtime {

/// Resolves a concurrency knob against a job count: `requested` <= 0 means
/// auto (the global pool width), and the result is clamped to [1, n].
int64_t effective_concurrency(int64_t requested, int64_t n);

/// Runs fn(i) for every i in [0, n) with up to `concurrency` (resolved via
/// effective_concurrency) calls in flight. concurrency 1 — or a call from
/// inside a pool worker — degenerates to a plain sequential loop in index
/// order. The first exception a job throws is rethrown on the calling
/// thread after in-flight jobs finish; queued jobs after a failure are
/// abandoned.
void parallel_indexed(int64_t n, int64_t concurrency,
                      const std::function<void(int64_t)>& fn);

}  // namespace cn::runtime
