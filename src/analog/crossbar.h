// RRAM crossbar simulator (paper §II, Fig. 1).
//
// Weights map to differential conductance pairs: w = s·(G⁺ − G⁻) with both
// conductances in [g_min, g_max]. MAC is Ohm's law + Kirchhoff's current law:
// applying input voltages on wordlines, each bitline accumulates
// I_j = Σ_i V_i · G_ij, and the digital periphery computes s·(I⁺_j − I⁻_j).
//
// Programming variation perturbs each programmed conductance with the
// lognormal model; optional multi-level programming quantizes conductances,
// and optional read noise / ADC quantization model the readout path. At zero
// variation and full precision, crossbar MVM equals the ideal matvec — a
// property test pins this down.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analog/quant.h"
#include "analog/variation.h"
#include "remap/remap.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cn::exec {
class TileExec;
struct Scratch;
}  // namespace cn::exec

namespace cn::analog {

/// Readout-periphery knobs of a crossbar tile: everything that perturbs or
/// quantizes the signal path at read time rather than at programming time.
/// Nested so device specs (and faultsim scenario overrides) can set or copy
/// the whole periphery in one assignment.
struct RramReadout {
  float read_sigma = 0.0f;  // per-read multiplicative Gaussian noise on currents
  int adc_bits = 0;         // >0: quantize accumulated currents
  int dac_bits = 0;         // >0: quantize input voltages
};

/// Physical device / periphery parameters of one crossbar tile.
struct RramDeviceParams {
  float g_min = 1e-6f;        // Siemens; off conductance
  float g_max = 1e-4f;        // Siemens; on conductance
  int conductance_levels = 0; // >0: multi-level cell quantization before variation
  float program_sigma = 0.0f; // lognormal σ applied to programmed conductance
  RramReadout readout;        // read noise / ADC / DAC periphery
};

/// Throws std::invalid_argument unless g_max > g_min and both sigmas are
/// finite and >= 0 (a NaN or negative sigma would otherwise read as "no
/// noise"). Every CrossbarTile checks its device, after prepare_device;
/// faultsim::Campaign checks its base device before any training.
void validate_device(const RramDeviceParams& dev);

/// Injection hook for device-fault and nonideality models (src/faultsim).
/// After a tile is programmed (level quantization + programming variation),
/// every model of a fault list transforms the conductance pair arrays in
/// place, in list order. Implementations must derive all randomness from the
/// passed Rng so chips stay seed-deterministic (runtime::ChipFarm
/// re-materializes chips from chip_seed alone, and bit-identical results
/// across thread/slot counts depend on it). Models with zero severity must
/// be true no-ops: no rng draws, no writes. Conductances are not re-clamped
/// by the caller (matching programming variation, which may also exceed
/// g_max); models are responsible for staying physical.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Placement of one tile inside its CrossbarArray, in the (in, out)
  /// orientation: tile wordline r is array wordline row0 + r, tile bitline c
  /// is array bitline col0 + c.
  struct TileCtx {
    int64_t rows = 0, cols = 0;              // tile extent
    int64_t row0 = 0, col0 = 0;              // offset within the array
    int64_t array_rows = 0, array_cols = 0;  // full array extent
  };

  /// Adjusts device parameters before programming (e.g. temperature-scaled
  /// sigmas). Called once per CrossbarArray on its private copy.
  virtual void prepare_device(RramDeviceParams&) const {}

  /// Transforms the programmed conductances of one tile in place. g_pos and
  /// g_neg are row-major (rows x cols).
  virtual void apply(float* g_pos, float* g_neg, const TileCtx& ctx,
                     const RramDeviceParams& dev, Rng& rng) const = 0;

  /// Like apply(), but additionally records hard-defective devices into
  /// `defects` (nullable) for the fault-aware remapping controller. Models
  /// with a program-time defect map (StuckAtFault) override this; soft
  /// nonidealities have nothing discrete to report and inherit the default,
  /// which forwards to apply(). Overrides MUST draw from `rng` in exactly
  /// the same sequence as apply() so remapped and unremapped chips built
  /// from one seed see identical fault realizations (the campaign's
  /// matched-pair axis depends on it).
  virtual void apply_mapped(float* g_pos, float* g_neg, const TileCtx& ctx,
                            const RramDeviceParams& dev, Rng& rng,
                            remap::DefectMap* defects) const {
    (void)defects;
    apply(g_pos, g_neg, ctx, dev, rng);
  }

  /// Whether this model can report defects via apply_mapped. Soft
  /// nonidealities return false so the remap hook skips the per-model
  /// conductance snapshot for them.
  virtual bool has_defect_map() const { return false; }

  virtual std::string name() const = 0;
};

/// Non-owning fault list, applied in order. Ownership stays with the caller
/// (faultsim::FaultSpec holds shared_ptrs); the pointed-to models must
/// outlive every chip programmed with them.
using FaultList = std::vector<const FaultModel*>;

/// Whether fault-aware remapping can act on chips programmed with `faults`:
/// true iff some model reports a defect map. When false, a remapped chip is
/// the unremapped chip of the same seed bit for bit — every model takes the
/// plain apply() path with the same rng draws, no repair plan runs and the
/// repair accounting is zero — so callers may reuse the remap-off result
/// (faultsim::Campaign does).
inline bool remap_can_act(const FaultList& faults) {
  for (const FaultModel* f : faults)
    if (f->has_defect_map()) return true;
  return false;
}

/// One crossbar tile holding a weight matrix W (rows, cols): rows are inputs
/// (wordlines), cols are outputs (bitlines), i.e. y = W^T x is computed as
/// column current sums. CorrectNet layers store W as (out, in); use
/// CrossbarArray which handles the transpose and tiling.
class CrossbarTile {
 public:
  /// Programs the tile from `w` (rows=in, cols=out), scaling by max |w| of
  /// the whole array (`w_absmax`). Applies level quantization then
  /// programming variation via `rng`. The batched path executes through the
  /// simd tile kernel, lowered from the programmed conductances once at
  /// construction. `defer_lowering` skips that when an apply_faults call is
  /// known to follow immediately (it re-lowers) — callers who defer and then
  /// never apply faults would leave the batched path with no executable.
  CrossbarTile(const Tensor& w, float w_absmax, const RramDeviceParams& dev, Rng& rng,
               bool defer_lowering = false);

  CrossbarTile(CrossbarTile&&) noexcept;
  CrossbarTile& operator=(CrossbarTile&&) noexcept;
  ~CrossbarTile();

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  /// Applies a fault list to the programmed conductances (construction-time
  /// transform; see FaultModel). Both execution paths read the transformed
  /// arrays, so batched matmul stays bit-identical to matvec under every
  /// model. CrossbarArray calls this right after placing each tile.
  ///
  /// With active `remap` params this is also the tile's remap hook: each
  /// model's defect map is collected as it runs (FaultModel::apply_mapped —
  /// same rng draws either way) and a remap::RemapController immediately
  /// plans and applies spare-line/pair-swap repairs against the values that
  /// model disturbed, sharing the tile's spare budget across the list, all
  /// before the batched copies are rebuilt. Soft nonidealities later in the
  /// list age repaired devices like any other. Repair accounting
  /// accumulates into `stats` (nullable). Zero defects -> no plan, no extra
  /// rng draws.
  void apply_faults(const FaultList& faults, const FaultModel::TileCtx& ctx,
                    Rng& rng, const remap::RemapParams* remap = nullptr,
                    remap::RemapStats* stats = nullptr);

  /// y_j += Σ_i x_i · w_eff(i,j), noise-free: the scalar tile read.
  /// Double accumulators per bitline in wordline order, then ADC (if
  /// configured) and the scaled accumulation (read_out).
  void accumulate_row(const float* x, float* y) const;

  /// Batched path: accumulates `nitems` input vectors into y rows (stride
  /// ldy) through the tile's lowered kernel, item-blocked so conductance
  /// loads amortize across the batch. Input element (item i,
  /// wordline r) sits at x[i * x_item_stride + r * x_word_stride], which
  /// covers both row-major batches (item_stride = ld, word_stride = 1) and
  /// column-major ones like im2col outputs (item_stride = 1, word_stride =
  /// ld). With `row_seeds` null each result row is bit-identical to
  /// accumulate_row (same per-column wordline accumulation order).
  /// `row_seeds` (nullable) holds one read-noise seed per item: item i's
  /// noise row is what Rng(row_seeds[i]).fill_normal(row, cols(), 0,
  /// read_sigma) draws, each current scaled by 1 + its noise, drawn for a
  /// whole item block at once (Rng::fill_normal_rows). This is the one
  /// read-noise stream of the simulator.
  /// `cur_scratch` must hold >= 16 * cols() floats (8 current rows, 8 noise
  /// rows), and `scratch` is the calling worker's kernel scratch.
  void accumulate_rows(const float* x, int64_t nitems, int64_t x_item_stride,
                       int64_t x_word_stride, float* y, int64_t ldy,
                       const uint64_t* row_seeds, float* cur_scratch,
                       exec::Scratch& scratch) const;

  /// The effective (perturbed, quantized) weight matrix (rows=in, cols=out).
  Tensor effective_weights() const;

 private:
  /// ADC + scaled accumulation of one (noisy) current row into y: the tail
  /// accumulate_row and accumulate_rows share.
  void read_out(float* currents, float* y) const;

  /// (Re-)lowers the programmed conductances into the simd kernel's padded
  /// copies (after programming or fault injection).
  void lower();

  int64_t rows_, cols_;
  float scale_;                 // weight per Siemens
  RramDeviceParams dev_;
  std::vector<float> g_pos_, g_neg_;  // programmed conductances, row-major
  // The lowered executable the batched path dispatches to: a copy of the g
  // arrays, so any mutation of the arrays must re-lower.
  std::unique_ptr<exec::TileExec> exec_;
};

/// A weight matrix W (out, in) split into tiles of at most `tile` rows/cols,
/// as a real accelerator would. matvec(x) returns W_eff · x.
class CrossbarArray {
 public:
  /// Programs the array; if `faults` is given, each model first adjusts the
  /// array's private device-parameter copy (prepare_device) and then
  /// transforms every tile's conductances in place right after that tile is
  /// programmed, drawing from the same `rng` stream — so a chip remains a
  /// pure function of its seed. Active `remap` params additionally run the
  /// fault-aware remapping controller on every tile (see
  /// CrossbarTile::apply_faults); the summed repair accounting is readable
  /// via remap_stats().
  CrossbarArray(const Tensor& w_out_in, const RramDeviceParams& dev, Rng& rng,
                int64_t tile = 128, const FaultList* faults = nullptr,
                const remap::RemapParams* remap = nullptr);

  int64_t in_dim() const { return in_; }
  int64_t out_dim() const { return out_; }
  int64_t num_tiles() const { return static_cast<int64_t>(tiles_.size()); }

  /// y = W_eff · x, noise-free, one tile at a time (accumulate_row): the
  /// scalar reference matmul / matmul_cols are held to bit for bit with
  /// read noise off.
  Tensor matvec(const Tensor& x) const;

  /// Y = X · W_eff^T for X (batch, in) -> Y (batch, out): every row of X is
  /// one wordline-voltage vector. Tile-blocked and threadpool-parallel over
  /// (output-tile group × row block); with read noise off the result is
  /// bit-identical to matvec row by row (same accumulation order). With read
  /// noise on, one u64 is drawn from `read_rng` and independent per-(tile,
  /// row) streams are derived from it, so the output is deterministic for a
  /// given rng state regardless of thread count or row blocking.
  Tensor matmul(const Tensor& x, Rng* read_rng = nullptr) const;

  /// matmul for a column-major batch: X (in, batch) -> Y (batch, out),
  /// column b of X being one wordline-voltage vector. This is the natural
  /// layout of im2col outputs, so the conv path skips a transpose and the
  /// kernel reads contiguous lanes. Same bit-exactness guarantees as
  /// matmul.
  Tensor matmul_cols(const Tensor& x_cm, Rng* read_rng = nullptr) const;

  /// Reconstructs the full effective weight matrix (out, in) for validation.
  Tensor effective_weights() const;

  /// Repair accounting summed over every tile (all-zero when remapping was
  /// off or no defects occurred).
  const remap::RemapStats& remap_stats() const { return remap_stats_; }

 private:
  Tensor matmul_impl(const float* xd, int64_t n, bool colmajor, Rng* read_rng) const;

  struct Placed {
    int64_t row0, col0;  // offsets in the (in, out) orientation
    CrossbarTile tile;
  };
  int64_t in_, out_;
  int64_t max_tile_cols_ = 0;
  RramDeviceParams dev_;
  remap::RemapStats remap_stats_;
  std::vector<Placed> tiles_;
  // Tile indices grouped by col0 (disjoint output column ranges): the unit
  // of parallelism in matmul. Within a group, tiles stay in construction
  // order (ascending row0) to preserve matvec's accumulation order.
  std::vector<std::vector<size_t>> col_groups_;
};

}  // namespace cn::analog
