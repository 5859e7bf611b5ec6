// The tile-kernel lookup surface: "simd" is the one kernel, unknown names
// fail, and the default stays "simd".
#include "exec/target.h"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace cn {
namespace {

TEST(ExecRegistry, SimdIsTheOnlyBuiltin) {
  const auto all = exec::registered_targets();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0]->name(), "simd");
  EXPECT_TRUE(all[0]->available());
  EXPECT_TRUE(all[0]->bit_exact());
  EXPECT_EQ(&exec::get_target("simd"), all[0]);
}

TEST(ExecRegistry, UnknownLookupsFailTheRightWay) {
  try {
    exec::get_target("no-such-target");
    FAIL() << "get_target must throw on an unknown name";
  } catch (const std::runtime_error& e) {
    // The error must teach: it names the kernel there is.
    EXPECT_NE(std::string(e.what()).find("simd"), std::string::npos) << e.what();
  }
  EXPECT_THROW(exec::set_default_target("no-such-target"), std::runtime_error);
}

TEST(ExecRegistry, DefaultTargetPrecedenceAndReset) {
  EXPECT_EQ(exec::default_target().name(), "simd");
  exec::set_default_target("simd");
  EXPECT_EQ(&exec::default_target(), &exec::get_target("simd"));
  // A bad name throws and leaves the default untouched.
  EXPECT_THROW(exec::set_default_target("no-such-target"), std::runtime_error);
  EXPECT_EQ(exec::default_target().name(), "simd");
}

}  // namespace
}  // namespace cn
