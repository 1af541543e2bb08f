#include "gen/multiplier.h"

#include <gtest/gtest.h>

#include "gen/sim.h"
#include "netlist/stats.h"
#include "netlist/validate.h"
#include "util/rng.h"

namespace sfqpart {
namespace {

std::uint64_t run_mult(const Netlist& mult, int width, std::uint64_t a,
                       std::uint64_t b) {
  SignalValues in;
  set_word(in, "a", width, a);
  set_word(in, "b", width, b);
  const auto out = simulate(mult, in);
  return get_word(out, "p", 2 * width);
}

TEST(Multiplier, ExhaustiveWidth4) {
  const Netlist mult = build_multiplier(4);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      ASSERT_EQ(run_mult(mult, 4, a, b), a * b) << a << "*" << b;
    }
  }
}

class MultWidths : public ::testing::TestWithParam<int> {};

TEST_P(MultWidths, RandomVectorsMultiply) {
  const int width = GetParam();
  const Netlist mult = build_multiplier(width);
  const std::uint64_t mask = (1ULL << width) - 1;
  Rng rng(static_cast<std::uint64_t>(width) * 31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::uint64_t a = rng.next_u64() & mask;
    const std::uint64_t b = rng.next_u64() & mask;
    ASSERT_EQ(run_mult(mult, width, a, b), a * b);
  }
}

// At widths 14 and 16 the reduction carries enough out of the top
// product column that those carries would need adders of their own; 13
// is the widest that never does.
INSTANTIATE_TEST_SUITE_P(Widths, MultWidths,
                         ::testing::Values(2, 3, 5, 8, 12, 13, 14, 16),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(Multiplier, EdgeVectors) {
  const Netlist mult = build_multiplier(8);
  EXPECT_EQ(run_mult(mult, 8, 0, 200), 0u);
  EXPECT_EQ(run_mult(mult, 8, 255, 255), 65025u);
  EXPECT_EQ(run_mult(mult, 8, 1, 171), 171u);
  EXPECT_EQ(run_mult(mult, 8, 128, 2), 256u);
}

TEST(Multiplier, StructureIsCleanDag) {
  const Netlist mult = build_multiplier(8);
  ValidateOptions options;
  options.enforce_sfq_fanout = false;
  const auto report = validate(mult, options);
  EXPECT_TRUE(report.ok()) << (report.issues.empty() ? "" : report.issues[0]);
}

TEST(Multiplier, WallaceDepthIsLogarithmic) {
  // An 8x8 ripple array runs ~45 gate levels; Wallace rounds + the prefix
  // adder measure 24.
  const NetlistStats stats = compute_stats(build_multiplier(8));
  EXPECT_LT(stats.logic_depth, 30);
}

}  // namespace
}  // namespace sfqpart
