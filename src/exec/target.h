// Pluggable execution targets for the batched crossbar path.
//
// A Target is one way of executing the hot bitline-current kernel: it lowers
// a programmed tile (TileView) into a TileExec, an immutable executable the
// batched matmul dispatches to. Targets self-describe (name, availability on
// this host, whether results are bit-identical to the scalar matvec
// reference) and live in a process-wide registry.
//
// The one built-in registration is "simd": register-blocked kernels at three
// ISA levels (generic/avx2/avx512f), the widest supported level picked per
// call. exec::simd::force_level pins the level for tests that prove every
// level bit-identical.
//
// The lowering seam is deliberately narrow — conductance arrays in, current
// rows out — so an offload target (GPU, accelerator API) can fill it without
// the analog layer changing: implement Target::lower, call register_target.
//
// Bit-exactness contract: a Target reporting bit_exact() must produce
// currents bit-identical to CrossbarTile's per-column scalar reference under
// every fault model and remap setting (per-column accumulation in ascending
// wordline order, double accumulators, a fused multiply-add only where the
// product is exact — see simd_target.cpp and the parity suites in
// tests/test_crossbar_exec.cpp).
//
// The process default target is "simd" unless set_default_target()
// overrides it. Already-constructed arrays keep the target they were lowered
// with.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cn::exec {

/// Read-only view of one programmed tile handed to Target::lower. The
/// conductance arrays are row-major (rows x cols) differential pairs, valid
/// for the lifetime of the returned TileExec (the owning CrossbarTile
/// re-lowers whenever it mutates them).
struct TileView {
  const float* g_pos = nullptr;
  const float* g_neg = nullptr;
  int64_t rows = 0, cols = 0;
  float g_min = 0.0f, g_max = 0.0f;  // device conductance range
};

/// Per-worker state handed to TileExec::currents, one per thread, so that
/// TileExec itself stays stateless across calls. Workers never share one.
struct Scratch {
  /// The simd kernels' voltage block: an item block's inputs widened to
  /// double once per call (v[r * nitems + i] for item i at wordline r), so
  /// the register-blocked kernel broadcasts them from memory. Grows to the
  /// largest wordlines x items block seen, then is reused.
  std::vector<double> voltages;
};

/// One tile lowered for execution. Implementations are immutable after
/// construction and must be safe to call concurrently (matmul workers share
/// one TileExec across row blocks; per-call state goes in Scratch).
class TileExec {
 public:
  virtual ~TileExec() = default;

  /// Differential bitline currents for a block of input vectors: input
  /// element (item i, wordline r) sits at x[i * x_item_stride +
  /// r * x_word_stride]; output current (item i, bitline c) is written to
  /// cur[i * ldcur + c]. nitems never exceeds row_block(). The caller
  /// applies read noise / ADC / weight scaling afterwards (shared periphery
  /// tail — targets only compute raw current sums).
  virtual void currents(const float* x, int64_t nitems, int64_t x_item_stride,
                        int64_t x_word_stride, float* cur, int64_t ldcur,
                        Scratch& scratch) const = 0;

  /// Preferred item-block size for currents() calls, in [1, 8] (the caller's
  /// current scratch holds 8 rows). Blocking never changes results, only
  /// register/cache pressure.
  virtual int64_t row_block() const = 0;
};

/// One execution strategy for the batched crossbar path.
class Target {
 public:
  virtual ~Target() = default;

  /// Registry key ([a-z0-9-], unique).
  virtual std::string name() const = 0;
  /// One-line human description.
  virtual std::string description() const = 0;
  /// Capability probe: can this build + host execute the target?
  virtual bool available() const = 0;
  /// Whether results are bit-identical to the scalar matvec reference (see
  /// the contract in the header comment).
  virtual bool bit_exact() const = 0;
  /// Lowers one programmed tile into an executable. May throw when the tile
  /// shape is outside the target's envelope.
  virtual std::unique_ptr<TileExec> lower(const TileView& tile) const = 0;
};

/// Registers a target under its name(). Throws std::invalid_argument on a
/// duplicate or empty name. The registry owns the target for process
/// lifetime; the returned pointer is stable. Thread-safe.
const Target* register_target(std::unique_ptr<Target> target);

/// Looks up a target by name; nullptr when unknown (the target may still be
/// unavailable on this host — check available()).
const Target* find_target(const std::string& name);

/// Looks up a target by name, throwing std::runtime_error — with the list of
/// registered names — when it is unknown or unavailable on this host.
const Target& get_target(const std::string& name);

/// Every registered target, in registration order (builtins first).
std::vector<const Target*> registered_targets();

/// The target newly constructed CrossbarArrays lower with when no explicit
/// target is passed down (see precedence in the header comment).
const Target& default_target();

/// Overrides the process default. Throws like get_target.
void set_default_target(const std::string& name);

/// Drops the set_default_target override, restoring "simd".
void reset_default_target();

/// Dispatch level of the built-in simd family (0 = generic, 1 = avx2,
/// 2 = avx512f): the "simd" target re-reads the forced level on every call,
/// so forcing works on arrays that were lowered before the flip. Not
/// synchronized with running matmuls; flip only between calls.
namespace simd {
int max_level();              // widest level this build + host can execute
bool force_level(int level);  // false (no change) when unsupported
void reset_level();           // restore auto-selection
int current_level();          // level the next auto-dispatched call uses
}  // namespace simd

}  // namespace cn::exec
