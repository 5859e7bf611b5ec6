// The crossbar tile kernel of the batched path.
//
// The batched matmul executes one kernel, "simd": register-blocked current
// kernels at three ISA levels (generic/avx2/avx512f), the widest supported
// level picked per call. exec::simd::force_level pins the level for tests
// that prove every level bit-identical. CrossbarTile lowers each programmed
// tile (TileView) through default_target() into a TileExec, an immutable
// executable the batched matmul dispatches to.
//
// The Target/TileExec interface and the four lookup functions below are
// kept because the repository benchmark (perfbench/) compiles against
// them; there is no registration and no choice of target. "simd" is the
// only name, and set_default_target changes nothing.
//
// Bit-exactness contract: the kernel reports bit_exact() and produces
// currents bit-identical to CrossbarTile::accumulate_row, the noise-free
// scalar tile read behind CrossbarArray::matvec, under every fault model
// and remap setting (per-column accumulation in ascending wordline order,
// double accumulators, a fused multiply-add only where the product is exact
// — see simd_target.cpp and the parity suites in
// tests/test_crossbar_exec.cpp). Read noise is applied to the currents
// afterwards, from the one per-item stream of CrossbarTile::accumulate_rows.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cn::exec {

/// Read-only view of one programmed tile handed to Target::lower. The
/// conductance arrays are row-major (rows x cols) differential pairs, read
/// only during lowering (the owning CrossbarTile re-lowers whenever it
/// mutates them).
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

/// One tile lowered for execution. Immutable after construction and safe to
/// call concurrently (matmul workers share one TileExec across row blocks;
/// per-call state goes in Scratch).
class TileExec {
 public:
  virtual ~TileExec() = default;

  /// Differential bitline currents for a block of input vectors: input
  /// element (item i, wordline r) sits at x[i * x_item_stride +
  /// r * x_word_stride]; output current (item i, bitline c) is written to
  /// cur[i * ldcur + c]. nitems never exceeds row_block(). The caller
  /// applies read noise / ADC / weight scaling afterwards (the periphery
  /// tail — the kernel only computes raw current sums).
  virtual void currents(const float* x, int64_t nitems, int64_t x_item_stride,
                        int64_t x_word_stride, float* cur, int64_t ldcur,
                        Scratch& scratch) const = 0;

  /// Preferred item-block size for currents() calls, in [1, 8] (the caller's
  /// current scratch holds 8 rows). Blocking never changes results, only
  /// register/cache pressure.
  virtual int64_t row_block() const = 0;
};

/// The tile kernel's lowering entry point.
class Target {
 public:
  virtual ~Target() = default;

  virtual std::string name() const = 0;
  /// Capability probe: can this build + host execute the target?
  virtual bool available() const = 0;
  /// Whether results are bit-identical to the scalar matvec reference (see
  /// the contract in the header comment).
  virtual bool bit_exact() const = 0;
  /// Lowers one programmed tile into an executable.
  virtual std::unique_ptr<TileExec> lower(const TileView& tile) const = 0;
};

/// The "simd" kernel; throws std::runtime_error for any other name.
const Target& get_target(const std::string& name);

/// {the "simd" kernel}.
std::vector<const Target*> registered_targets();

/// The "simd" kernel, which every CrossbarTile lowers through.
const Target& default_target();

/// Accepts "simd" (no effect); throws like get_target for any other name.
void set_default_target(const std::string& name);

/// Dispatch level of the simd kernels (0 = generic, 1 = avx2, 2 = avx512f):
/// the kernel re-reads the forced level on every call, so forcing works on
/// arrays that were lowered before the flip. Not synchronized with running
/// matmuls; flip only between calls.
namespace simd {
int max_level();              // widest level this build + host can execute
bool force_level(int level);  // false (no change) when unsupported
void reset_level();           // restore auto-selection
int current_level();          // level the next auto-dispatched call uses
}  // namespace simd

}  // namespace cn::exec
