// The layer profile of a traced run. Each layer is timed from outside, by
// wrapping calls into its public functions, on the objects the workloads
// use: the VGG crossbar chips of mc-vgg-xbar, the LeNet crossbar chips and
// fault models of campaign-lenet-faults, and the factor-mode LeNet chips and
// server of serve-lenet-digital. Every traced run reports the same metric
// set, whatever its workload.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "analog/crossbar_layers.h"
#include "bench.h"
#include "exec/target.h"
#include "faultsim/campaign.h"
#include "faultsim/fault_models.h"
#include "nn/conv2d.h"
#include "runtime/mc_engine.h"
#include "serve.h"
#include "setup.h"
#include "tensor/ops.h"
#include "tensor/threadpool.h"

namespace perfbench {
namespace {

using cn::Rng;
using cn::Tensor;
using cn::nn::Sequential;
using cn::runtime::ChipFarm;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Median wall time of `reps` calls of fn, in ms.
double median_ms(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

/// The first `n` images of a dataset as one batch.
Tensor first_images(const cn::data::Dataset& d, int64_t n) {
  return d.head(n).images;
}

// ---- nn: per-layer forward loop vs the fused forward ----------------------

/// Runs `model`'s top-level layers one at a time, `reps` times after one
/// untimed warm-up, with a span per layer call named nn.<name>.<kind> under
/// a nn.<name>.layer_loop span. Reports each kind's self time per forward,
/// the fused Sequential::forward time, the saving fusion buys, and the
/// share of the loop the layer spans cover. `inputs` (optional) receives
/// the input of every layer.
void profile_nn(const std::string& name, Sequential& model, const Tensor& batch, int reps,
                SpanRecorder& spans, Outcome& out, std::vector<Tensor>* inputs = nullptr) {
  const std::string p = "nn." + name + ".";
  std::vector<std::string> kinds;
  for (int64_t i = 0; i < model.num_layers(); ++i) {
    const std::string k = model.layer(i).kind();
    if (std::find(kinds.begin(), kinds.end(), k) == kinds.end()) kinds.push_back(k);
  }
  for (int r = -1; r < reps; ++r) {
    SpanRecorder* rec = r >= 0 ? &spans : nullptr;  // rep -1 warms up
    Scoped loop(rec, p + "layer_loop");
    Tensor x = batch;
    for (int64_t i = 0; i < model.num_layers(); ++i) {
      if (inputs && r == 0) inputs->push_back(x);
      cn::nn::Layer& l = model.layer(i);
      Scoped s(rec, p + l.kind());
      x = l.forward(x, /*train=*/false);
    }
  }
  double covered = 0;
  for (const std::string& k : kinds) {
    const double us = spans.self_us(p + k);
    covered += us;
    out.add(p + k + "_ms", "ms", us / reps / 1e3);
  }
  const double loop_ms = spans.total_us(p + "layer_loop") / reps / 1e3;
  model.forward(batch, false);  // builds the fused plan
  double fused_ms = 0;
  {
    Scoped s(&spans, p + "fused_forward");
    fused_ms = median_ms(reps, [&] { model.forward(batch, /*train=*/false); });
  }
  out.add(p + "fused_forward_ms", "ms", fused_ms);
  out.add(p + "fusion_saving_frac", "frac", 1.0 - fused_ms / loop_ms);
  out.add(p + "layer_coverage_frac", "frac", covered / 1e3 / reps / loop_ms);
}

// ---- exec: Target::lower + TileExec::currents ----------------------------

/// One programmed tile with synthetic conductances, lowered per target.
struct Tile {
  int64_t rows, cols;
  std::vector<float> g_pos, g_neg;
};

/// A crossbar matmul of one layer: `items` input vectors against a
/// (rows x cols) array, split into tiles of at most 128 x 128.
struct TiledLayer {
  int64_t rows, cols, items;
  std::vector<std::vector<Tile>> groups;  // tiles by output-column block
  std::vector<float> x;                   // column-major (rows x items)
};

TiledLayer tiled_layer(int64_t rows, int64_t cols, int64_t items, Rng& rng) {
  const cn::analog::RramDeviceParams dev;
  TiledLayer L{rows, cols, items, {}, {}};
  for (int64_t c0 = 0; c0 < cols; c0 += 128) {
    std::vector<Tile> group;
    for (int64_t r0 = 0; r0 < rows; r0 += 128) {
      Tile t{std::min<int64_t>(128, rows - r0), std::min<int64_t>(128, cols - c0), {}, {}};
      for (int64_t i = 0; i < t.rows * t.cols; ++i) {
        t.g_pos.push_back(static_cast<float>(rng.uniform(dev.g_min, dev.g_max)));
        t.g_neg.push_back(static_cast<float>(rng.uniform(dev.g_min, dev.g_max)));
      }
      group.push_back(std::move(t));
    }
    L.groups.push_back(std::move(group));
  }
  for (int64_t i = 0; i < rows * items; ++i) L.x.push_back(static_cast<float>(rng.uniform()));
  return L;
}

/// Lowered executables of a layer's tiles, in TiledLayer::groups order.
using Lowered = std::vector<std::vector<std::unique_ptr<cn::exec::TileExec>>>;

Lowered lower(const TiledLayer& L, const cn::exec::Target& target) {
  const cn::analog::RramDeviceParams dev;
  Lowered out;
  for (const auto& group : L.groups) {
    out.emplace_back();
    for (const Tile& t : group)
      out.back().push_back(target.lower(
          {t.g_pos.data(), t.g_neg.data(), t.rows, t.cols, dev.g_min, dev.g_max}));
  }
  return out;
}

/// Bitline currents of items [i0, i1) through one column group, in the
/// executable's preferred item blocks.
void group_currents(const TiledLayer& L, const std::vector<std::unique_ptr<cn::exec::TileExec>>& execs,
                    size_t g, int64_t i0, int64_t i1, std::vector<float>& cur,
                    cn::exec::Scratch& scratch) {
  int64_t row0 = 0;
  for (size_t t = 0; t < execs.size(); ++t) {
    const Tile& tile = L.groups[g][t];
    const int64_t rb = std::min<int64_t>(8, execs[t]->row_block());
    for (int64_t i = i0; i < i1; i += rb)
      execs[t]->currents(L.x.data() + row0 * L.items + i, std::min(rb, i1 - i), 1, L.items,
                         cur.data(), tile.cols, scratch);
    row0 += tile.rows;
  }
}

double layer_flops(const TiledLayer& L) {
  return 4.0 * static_cast<double>(L.rows * L.cols * L.items);  // 2 products + 2 adds
}

/// Single-threaded currents over every layer; returns seconds.
double serial_currents(const std::vector<TiledLayer>& layers, const std::vector<Lowered>& lowered) {
  std::vector<float> cur(8 * 128);
  cn::exec::Scratch scratch;
  const auto t0 = Clock::now();
  for (size_t l = 0; l < layers.size(); ++l)
    for (size_t g = 0; g < layers[l].groups.size(); ++g)
      group_currents(layers[l], lowered[l][g], g, 0, layers[l].items, cur, scratch);
  return seconds_since(t0);
}

/// The currents of one layer spread over the pool the way a batched
/// crossbar matmul spreads its tile work: (column group x 64-item block)
/// tasks. Returns seconds.
double pooled_currents(const TiledLayer& L, const Lowered& lowered) {
  const int64_t nblocks = (L.items + 63) / 64;
  const int64_t ngroups = static_cast<int64_t>(L.groups.size());
  const auto t0 = Clock::now();
  cn::parallel_for(0, ngroups * nblocks, [&](int64_t lo, int64_t hi) {
    std::vector<float> cur(8 * 128);
    cn::exec::Scratch scratch;
    for (int64_t w = lo; w < hi; ++w) {
      const int64_t i0 = (w % nblocks) * 64;
      group_currents(L, lowered[static_cast<size_t>(w / nblocks)],
                     static_cast<size_t>(w / nblocks), i0, std::min(L.items, i0 + 64), cur,
                     scratch);
    }
  }, 1);
  return seconds_since(t0);
}

/// Conv layers of a base model: (index, geometry, output channels).
struct ConvSite {
  int64_t index;
  cn::ConvGeom geom;
  int64_t out_c;
};
std::vector<ConvSite> conv_sites(const Sequential& base) {
  std::vector<ConvSite> out;
  for (int64_t i = 0; i < base.num_layers(); ++i)
    if (const auto* c = dynamic_cast<const cn::nn::Conv2D*>(&base.layer(i)))
      out.push_back({i, c->geom(), c->out_channels()});
  return out;
}

void profile_exec(const std::vector<ConvSite>& vgg_convs, Rng& rng, Outcome& out) {
  // One image through every VGG conv layer (im2col columns as items), plus
  // a full 128 x 128 tile over 1024 items.
  std::vector<TiledLayer> layers;
  for (const ConvSite& c : vgg_convs)
    layers.push_back(tiled_layer(c.geom.in_c * c.geom.k_h * c.geom.k_w, c.out_c,
                                 c.geom.out_h() * c.geom.out_w(), rng));
  layers.push_back(tiled_layer(128, 128, 1024, rng));
  double flops = 0;
  for (const TiledLayer& L : layers) flops += layer_flops(L);

  for (const cn::exec::Target* t : cn::exec::registered_targets()) {
    if (!t->available()) continue;
    std::vector<Lowered> lowered;
    try {
      for (const TiledLayer& L : layers) lowered.push_back(lower(L, *t));
    } catch (const std::exception& e) {
      std::printf("exec %s: cannot lower the replay tiles (%s)\n", t->name().c_str(), e.what());
      continue;
    }
    serial_currents(layers, lowered);  // warm-up
    std::vector<double> s;
    for (int r = 0; r < 5; ++r) s.push_back(serial_currents(layers, lowered));
    const double sec = median(s);
    std::printf("exec %-13s %8.3f GFLOP/s  %.3f ms per replay (%s)\n", t->name().c_str(),
                flops / sec / 1e9, sec * 1e3, t->bit_exact() ? "bit-exact" : "approximate");
    if (t->name() == "simd") {
      out.add("exec.simd.gflops", "GFLOP/s", flops / sec / 1e9);
      out.add("exec.currents_ms", "ms", sec * 1e3);
    }
  }
}

// ---- analog + tensor: im2col and CrossbarArray::matmul_cols ---------------

/// Replays every crossbar conv of `chip` one image at a time, as
/// CrossbarConv2D::forward does: im2col of the image's recorded input, then
/// matmul_cols on the layer's programmed array. Returns per-image seconds
/// of (im2col, matmul_cols, pooled currents of the same shapes).
struct ConvReplay {
  double im2col_s = 0, matmul_cols_s = 0, currents_s = 0;
};
ConvReplay replay_convs(Sequential& chip, const std::vector<ConvSite>& convs,
                        const std::vector<Tensor>& inputs, int64_t images, Rng& rng,
                        bool with_currents) {
  ConvReplay r;
  Rng noise(rng.next_u64());
  for (const ConvSite& c : convs) {
    const auto* xl = dynamic_cast<const cn::analog::CrossbarConv2D*>(&chip.layer(c.index));
    if (!xl) throw std::logic_error("profile: expected a crossbar conv at layer " +
                                    std::to_string(c.index));
    const int64_t k2 = c.geom.in_c * c.geom.k_h * c.geom.k_w;
    const int64_t p = c.geom.out_h() * c.geom.out_w();
    const int64_t img = c.geom.in_c * c.geom.in_h * c.geom.in_w;
    Tensor cols({k2, p});
    for (int64_t n = 0; n < images; ++n) {
      auto t0 = Clock::now();
      cn::im2col(inputs[static_cast<size_t>(c.index)].data() + n * img, c.geom, cols.data());
      r.im2col_s += seconds_since(t0);
      t0 = Clock::now();
      const Tensor y = xl->array().matmul_cols(cols, &noise);
      r.matmul_cols_s += seconds_since(t0);
    }
    if (with_currents) {
      const TiledLayer L = tiled_layer(k2, c.out_c, p, rng);
      const Lowered lowered = lower(L, cn::exec::get_target("simd"));
      pooled_currents(L, lowered);  // warm-up
      for (int64_t n = 0; n < images; ++n) r.currents_s += pooled_currents(L, lowered);
    }
  }
  r.im2col_s /= static_cast<double>(images);
  r.matmul_cols_s /= static_cast<double>(images);
  r.currents_s /= static_cast<double>(images);
  return r;
}

/// Counts the matmul_cols calls one chip forward of `batch` issues: every
/// call draws exactly one value from the layer's read-noise stream, so with
/// one shared external stream the number of draws is the number of calls.
int64_t count_matmul_cols_calls(Sequential& chip, const std::vector<ConvSite>& convs,
                                const Tensor& batch) {
  const Rng start(12345);
  Rng shared = start;
  std::vector<cn::analog::CrossbarConv2D*> layers;
  for (const ConvSite& c : convs)
    layers.push_back(dynamic_cast<cn::analog::CrossbarConv2D*>(&chip.layer(c.index)));
  for (auto* l : layers) l->set_read_rng(&shared);
  chip.forward(batch, /*train=*/false);
  for (auto* l : layers) l->set_read_rng(nullptr);  // back to the owned stream
  const uint64_t next = shared.next_u64();
  Rng probe = start;
  for (int64_t k = 0; k < (int64_t{1} << 24); ++k)
    if (probe.next_u64() == next) return k;
  throw std::runtime_error("profile: read-noise draw count not found");
}

// ---- faultsim + remap -----------------------------------------------------

double apply_us_per_tile(const cn::analog::FaultModel& model, Rng& rng) {
  cn::analog::RramDeviceParams dev = campaign_device();
  model.prepare_device(dev);
  std::vector<float> gp0, gn0;
  for (int i = 0; i < 128 * 128; ++i) {
    gp0.push_back(static_cast<float>(rng.uniform(dev.g_min, dev.g_max)));
    gn0.push_back(static_cast<float>(rng.uniform(dev.g_min, dev.g_max)));
  }
  cn::analog::FaultModel::TileCtx ctx;
  ctx.rows = ctx.cols = ctx.array_rows = ctx.array_cols = 128;
  std::vector<double> us;
  for (int r = 0; r < 21; ++r) {
    std::vector<float> gp = gp0, gn = gn0;
    const auto t0 = Clock::now();
    model.apply(gp.data(), gn.data(), ctx, dev, rng);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

/// Programs every chip of a LeNet crossbar farm carrying `faults`; returns
/// the farm and the programming time in ms.
std::pair<std::unique_ptr<ChipFarm>, double> programmed_lenet_farm(
    const Sequential& base, int64_t chips, uint64_t seed, const cn::faultsim::FaultSpec& spec,
    bool remap) {
  cn::runtime::ChipFarmOptions o;
  o.instances = chips;
  o.max_live = chips;
  o.seed = seed;
  o.tile = 128;
  o.remap.enabled = remap;
  auto farm = std::make_unique<ChipFarm>(base, campaign_device(), o, spec.list());
  const auto t0 = Clock::now();
  for (int64_t s = 0; s < chips; ++s) farm->chip(s);
  return {std::move(farm), ms_since(t0)};
}

void profile_faultsim(const Sequential& lenet, const cn::data::Dataset& test, int64_t chips,
                      uint64_t seed, Rng& rng, SpanRecorder& spans, Outcome& out) {
  {
    Scoped s(&spans, "faultsim.apply");
    for (const auto& [kind, severity] : std::vector<std::pair<std::string, double>>{
             {"stuck_at", 0.02}, {"drift", 1000.0}, {"ir_drop", 0.1}, {"thermal", 400.0}}) {
      const cn::faultsim::FaultSpec spec = cn::faultsim::make_fault(kind, severity);
      out.add("faultsim." + kind + ".apply_us_per_tile", "us",
              apply_us_per_tile(*spec.models.at(0), rng));
    }
  }
  {
    // One campaign cell per kind, re-run serially: program every chip,
    // then evaluate the test images on each (McEngine's serial path, as a
    // campaign cell runs inside its scenario worker).
    Scoped s(&spans, "faultsim.cells");
    std::vector<double> program_ms, eval_ms;
    for (const auto& [kind, severity] : std::vector<std::pair<std::string, double>>{
             {"none", 0.0}, {"stuck_at", 0.02}, {"drift", 1000.0}, {"ir_drop", 0.1},
             {"thermal", 400.0}}) {
      const cn::faultsim::FaultSpec spec = cn::faultsim::make_fault(kind, severity);
      auto [farm, ms] = programmed_lenet_farm(lenet, chips, seed, spec, false);
      program_ms.push_back(ms);
      cn::runtime::McEngineOptions eo;
      eo.threads = 1;
      cn::runtime::McEngine engine(*farm, eo);
      eval_ms.push_back(median_ms(1, [&] { engine.accuracy(test); }));
    }
    double p = 0, e = 0;
    for (size_t i = 0; i < program_ms.size(); ++i) {
      p += program_ms[i] / static_cast<double>(program_ms.size());
      e += eval_ms[i] / static_cast<double>(eval_ms.size());
    }
    out.add("faultsim.cell_program_ms", "ms", p);
    out.add("faultsim.cell_eval_ms", "ms", e);
  }
  {
    // Repair accounting over the stuck-at severities, remap on.
    Scoped s(&spans, "remap.campaign");
    cn::faultsim::CampaignOptions co;
    co.chips = chips;
    co.seed = seed;
    co.dev = campaign_device();
    co.remap.enabled = true;
    cn::faultsim::Campaign c(co);
    c.add_model("baseline", lenet, false);
    c.add_stuck_at_grid({0.005, 0.02, 0.05});
    const cn::faultsim::CampaignReport r = c.run(test);
    int64_t defects = 0, absorbed = 0, residual = 0;
    for (const auto& row : r.scenarios)
      if (row.remapped) {
        defects += row.defects;
        absorbed += row.absorbed;
        residual += row.residual;
      }
    out.add("remap.defects", "count", static_cast<double>(defects));
    out.add("remap.absorbed", "count", static_cast<double>(absorbed));
    out.add("remap.residual", "count", static_cast<double>(residual));
    out.add("remap.absorbed_frac", "frac",
            defects ? static_cast<double>(absorbed) / static_cast<double>(defects) : 0.0);
  }
  {
    // Programming cost of the remap controller on stuck-at chips.
    Scoped s(&spans, "remap.program");
    const cn::faultsim::FaultSpec spec = cn::faultsim::stuck_at(0.02);
    std::vector<double> on, off;
    for (int r = 0; r < 3; ++r) {
      off.push_back(programmed_lenet_farm(lenet, chips, seed + r, spec, false).second);
      on.push_back(programmed_lenet_farm(lenet, chips, seed + r, spec, true).second);
    }
    out.add("remap.program_overhead_frac", "frac", median(on) / median(off) - 1.0);
  }
}

}  // namespace

void run_layer_profile(const RunConfig& cfg, SpanRecorder& spans, Outcome& out) {
  const Sizes sz = sizes(cfg.tiny);
  const int reps = 3;
  Rng rng(derive_seed(cfg.seed, 0x70726f66));

  // VGG crossbar chips (mc-vgg-xbar).
  const Sequential vgg = vgg_model();
  const std::vector<ConvSite> vgg_convs = conv_sites(vgg);
  {
    Scoped s(&spans, "exec.replay");
    profile_exec(vgg_convs, rng, out);
  }
  const cn::data::Dataset objs = objects(derive_seed(cfg.seed, 0x6f626a), sz.mc_images);
  std::vector<double> program_s;
  std::unique_ptr<ChipFarm> farm;
  {
    Scoped s(&spans, "runtime.program");
    farm = vgg_farm(vgg, sz.mc_chips, &program_s);
  }
  out.add("runtime.program_ms", "ms", median(program_s) * 1e3);
  {
    Scoped s(&spans, "runtime.mc_pass");
    cn::runtime::McEngineOptions eo;
    eo.batch_size = sz.mc_images;
    cn::runtime::McEngine engine(*farm, eo);
    const auto t0 = Clock::now();
    engine.accuracy(objs);
    out.add("runtime.mc_pass_s", "s", seconds_since(t0));
  }
  Sequential& chip = farm->chip(0);
  const int64_t nn_batch = std::min<int64_t>(32, sz.mc_images);
  std::vector<Tensor> vgg_inputs;
  profile_nn("vgg_xbar", chip, first_images(objs, nn_batch), reps, spans, out, &vgg_inputs);
  {
    Scoped s(&spans, "analog.replay");
    const ConvReplay r = replay_convs(chip, vgg_convs, vgg_inputs, std::min<int64_t>(8, nn_batch),
                                      rng, /*with_currents=*/true);
    out.add("tensor.vgg.im2col_ms", "ms", r.im2col_s * 1e3);
    out.add("analog.matmul_cols_ms", "ms", r.matmul_cols_s * 1e3);
    out.add("analog.periphery_dispatch_frac", "frac", 1.0 - r.currents_s / r.matmul_cols_s);
    // One MC pass evaluates every chip on all its images in one batch.
    const int64_t calls = count_matmul_cols_calls(chip, vgg_convs, objs.images);
    out.add("analog.matmul_cols_calls", "count", static_cast<double>(calls * sz.mc_chips));
  }
  farm.reset();

  // LeNet crossbar chips and fault models (campaign-lenet-faults).
  const Sequential lenet = lenet_model();
  const std::vector<ConvSite> lenet_convs = conv_sites(lenet);
  const cn::data::Dataset digs = digits(derive_seed(cfg.seed, 0x646967), sz.campaign_images);
  const uint64_t farm_seed = derive_seed(cfg.seed, 0x6661726d);
  {
    auto [xfarm, ms] = programmed_lenet_farm(lenet, 1, farm_seed, cn::faultsim::fault_free(), false);
    (void)ms;
    Sequential& xchip = xfarm->chip(0);
    const cn::data::Dataset batch = digits(derive_seed(cfg.seed, 0x6c6e), 32);
    std::vector<Tensor> inputs;
    profile_nn("lenet_xbar", xchip, batch.images, reps, spans, out, &inputs);
    Scoped s(&spans, "tensor.lenet_im2col");
    const ConvReplay r = replay_convs(xchip, lenet_convs, inputs, 8, rng, false);
    out.add("tensor.lenet.im2col_ms", "ms", r.im2col_s * 1e3);
  }
  profile_faultsim(lenet, digs, sz.campaign_chips, farm_seed, rng, spans, out);

  // Factor-mode LeNet chips and the server (serve-lenet-digital).
  auto dfarm = lenet_factor_farm(lenet);
  const cn::data::Dataset pool = digits(derive_seed(cfg.seed, 0x706f6f6c), sz.serve_pool);
  {
    Sequential& dchip = dfarm->chip(0);
    profile_nn("lenet_digital", dchip, first_images(pool, std::min<int64_t>(32, pool.size())),
               reps, spans, out);
    Scoped s(&spans, "runtime.forward");
    for (int64_t b : {1, 8, 32}) {
      const Tensor x = first_images(pool, std::min<int64_t>(b, pool.size()));
      dchip.forward(x, false);
      out.add("runtime.forward_ms_b" + std::to_string(b), "ms",
              median_ms(b == 1 ? 101 : 21, [&] { dchip.forward(x, /*train=*/false); }));
    }
  }
  {
    Scoped s(&spans, "runtime.serve_burst");
    const ServeRefs refs = serve_refs(*dfarm, pool);
    cn::runtime::InferenceServerOptions so;
    so.workers = 2;
    so.max_batch = 32;
    so.max_wait_us = 1000;
    cn::runtime::InferenceServer server(*dfarm, so);
    const OpenLoopStats o = open_loop(
        server, refs,
        poisson_schedule(derive_seed(cfg.seed, 0x6275727374), 4000, cfg.tiny ? 0.2 : 1.0,
                         static_cast<int64_t>(refs.images.size())));
    out.attempted += o.attempted;
    out.failed += o.failed;
    const cn::runtime::ServerStats ss = server.stats();
    out.add("runtime.server.avg_batch", "count", ss.avg_batch());
    out.add("runtime.server.full_batch_frac", "frac",
            ss.batches ? static_cast<double>(ss.full_batches) / static_cast<double>(ss.batches)
                       : 0.0);
    out.add("runtime.submit_us", "us", median(o.submit_us));
  }
}

}  // namespace perfbench
