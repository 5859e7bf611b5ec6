// The execution-target registry: the builtin registration, lookup and
// default semantics, registration invariants, and the lowering seam (a
// registered custom target actually executes the batched path).
#include "exec/target.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "analog/crossbar.h"
#include "exec_testutil.h"

namespace cn {
namespace {

analog::RramDeviceParams quiet_dev() {
  analog::RramDeviceParams dev;
  dev.g_min = 1e-6f;
  dev.g_max = 1e-4f;
  return dev;
}

// A minimal target for registration tests: lowers every tile to a TileExec
// that writes zero currents.
class NullExec : public exec::TileExec {
 public:
  explicit NullExec(int64_t cols) : cols_(cols) {}
  void currents(const float*, int64_t nitems, int64_t, int64_t, float* cur,
                int64_t ldcur, exec::Scratch&) const override {
    for (int64_t i = 0; i < nitems; ++i)
      for (int64_t c = 0; c < cols_; ++c) cur[i * ldcur + c] = 0.0f;
  }
  int64_t row_block() const override { return 8; }

 private:
  int64_t cols_;
};

class NullTarget : public exec::Target {
 public:
  explicit NullTarget(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::string description() const override { return "writes zero currents"; }
  bool available() const override { return true; }
  bool bit_exact() const override { return false; }
  std::unique_ptr<exec::TileExec> lower(const exec::TileView& t) const override {
    return std::make_unique<NullExec>(t.cols);
  }

 private:
  std::string name_;
};

// The NullTarget under the name "test-null", registered once per process so
// tests may use it in any order.
const exec::Target* test_null_target() {
  static const exec::Target* t =
      exec::register_target(std::make_unique<NullTarget>("test-null"));
  return t;
}

TEST(ExecRegistry, SimdIsTheOnlyBuiltin) {
  const exec::Target* simd = exec::find_target("simd");
  ASSERT_NE(simd, nullptr);
  EXPECT_EQ(simd->name(), "simd");
  EXPECT_FALSE(simd->description().empty());
  EXPECT_TRUE(simd->available());
  EXPECT_TRUE(simd->bit_exact());
  // Registration order: the builtin first; anything else is a target these
  // tests registered themselves.
  const auto all = exec::registered_targets();
  ASSERT_GE(all.size(), 1u);
  EXPECT_EQ(all[0], simd);
  for (size_t i = 1; i < all.size(); ++i)
    EXPECT_EQ(all[i]->name(), "test-null");
}

TEST(ExecRegistry, UnknownLookupsFailTheRightWay) {
  EXPECT_EQ(exec::find_target("no-such-target"), nullptr);
  try {
    exec::get_target("no-such-target");
    FAIL() << "get_target must throw on an unknown name";
  } catch (const std::runtime_error& e) {
    // The error must teach: it lists what is registered.
    EXPECT_NE(std::string(e.what()).find("simd"), std::string::npos) << e.what();
  }
}

TEST(ExecRegistry, DefaultTargetPrecedenceAndReset) {
  EXPECT_EQ(exec::default_target().name(), "simd");
  test_null_target();
  exec::set_default_target("test-null");
  EXPECT_EQ(exec::default_target().name(), "test-null");
  exec::reset_default_target();
  EXPECT_EQ(exec::default_target().name(), "simd");
  // A bad override throws and leaves the default untouched.
  EXPECT_THROW(exec::set_default_target("no-such-target"), std::runtime_error);
  EXPECT_EQ(exec::default_target().name(), "simd");
}

TEST(ExecRegistry, DuplicateAndEmptyRegistrationThrow) {
  EXPECT_THROW(exec::register_target(std::make_unique<NullTarget>("simd")),
               std::invalid_argument);
  EXPECT_THROW(exec::register_target(std::make_unique<NullTarget>("")),
               std::invalid_argument);
}

TEST(ExecRegistry, RegisteredTargetDrivesTheBatchedPath) {
  // The lowering seam end to end: a target registered at runtime must be
  // what matmul executes through when an array is built on it. Zero
  // currents -> zero outputs, unmistakably distinct from every real kernel.
  const exec::Target* null_t = test_null_target();
  ASSERT_EQ(exec::find_target("test-null"), null_t);
  Rng rng(91);
  Tensor w({5, 9});
  rng.fill_normal(w, 0.0f, 0.5f);
  Rng prog(92);
  analog::CrossbarArray xbar(w, quiet_dev(), prog, /*tile=*/4, nullptr,
                             nullptr, null_t);
  EXPECT_EQ(xbar.target().name(), "test-null");
  Tensor x({3, 9});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = xbar.matmul(x);
  testutil::expect_bitwise_equal(y, Tensor(y.shape()),
                                 "null-target batched output");
  // The scalar reference is target-independent and stays non-zero.
  Tensor xi({9});
  std::memcpy(xi.data(), x.data(), 9 * sizeof(float));
  const Tensor yv = xbar.matvec(xi);
  double mass = 0.0;
  for (int64_t i = 0; i < yv.size(); ++i) mass += std::abs(yv[i]);
  EXPECT_GT(mass, 0.0);
}

}  // namespace
}  // namespace cn
