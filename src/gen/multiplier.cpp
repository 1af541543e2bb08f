#include "gen/multiplier.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "gen/fold.h"
#include "gen/logic_builder.h"
#include "util/strings.h"

namespace sfqpart {

Netlist build_multiplier(int width) {
  assert(width >= 2);
  LogicBuilder b(str_format("mult%d", width));
  FoldingOps ops(b);

  std::vector<CSig> a(static_cast<std::size_t>(width));
  std::vector<CSig> bb(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    a[static_cast<std::size_t>(i)] = CSig::dyn(b.input(str_format("a[%d]", i)));
  }
  for (int i = 0; i < width; ++i) {
    bb[static_cast<std::size_t>(i)] = CSig::dyn(b.input(str_format("b[%d]", i)));
  }

  // Partial products by column: column c holds every a[i]&b[j] with i+j==c.
  const std::size_t num_cols = static_cast<std::size_t>(2 * width);
  std::vector<std::vector<CSig>> col(num_cols);
  for (int j = 0; j < width; ++j) {
    for (int i = 0; i < width; ++i) {
      col[static_cast<std::size_t>(i + j)].push_back(
          ops.and2(a[static_cast<std::size_t>(i)], bb[static_cast<std::size_t>(j)]));
    }
  }

  // Wallace-tree reduction: each round compresses every column with full
  // adders (3->1) and half adders (2->1) *in parallel*, so the tree depth
  // is O(log width) -- crucial for SFQ, where every level of extra depth
  // costs a path-balancing DFF row.
  auto max_height = [&col] {
    std::size_t h = 0;
    for (const auto& bits : col) h = std::max(h, bits.size());
    return h;
  };
  // The product fits 2W bits, so a carry out of the top column 2W-1 is
  // arithmetically zero, though not folded to a constant: it is dropped
  // where it is pushed, and prune_unused removes its logic along with
  // any structurally dangling prefix terms.
  auto push_carry = [num_cols](std::vector<std::vector<CSig>>& next,
                               std::size_t c, const CSig& carry) {
    if (c + 1 < num_cols) {
      next[c + 1].push_back(carry);
      return;
    }
    assert(carry.konst != 1 &&
           "constant-one carry out of the top product column");
  };
  while (max_height() > 2) {
    std::vector<std::vector<CSig>> next(col.size());
    for (std::size_t c = 0; c < col.size(); ++c) {
      const auto& bits = col[c];
      std::size_t i = 0;
      while (bits.size() - i >= 3) {
        const auto fa = ops.full_adder(bits[i], bits[i + 1], bits[i + 2]);
        next[c].push_back(fa.sum);
        push_carry(next, c, fa.carry);
        i += 3;
      }
      if (bits.size() - i == 2) {
        const auto ha = ops.half_adder(bits[i], bits[i + 1]);
        next[c].push_back(ha.sum);
        push_carry(next, c, ha.carry);
      } else if (bits.size() - i == 1) {
        next[c].push_back(bits[i]);
      }
    }
    col = std::move(next);
  }

  // Final carry-propagate addition of the two remaining rows with a
  // Kogge-Stone prefix adder, whose carry out of bit 2W-1 is dropped too.
  std::vector<CSig> row_x(num_cols, CSig::zero());
  std::vector<CSig> row_y(num_cols, CSig::zero());
  for (std::size_t c = 0; c < num_cols; ++c) {
    if (!col[c].empty()) row_x[c] = col[c][0];
    if (col[c].size() > 1) row_y[c] = col[c][1];
    assert(col[c].size() <= 2);
  }
  const std::vector<CSig> sum = ks_prefix_add(ops, row_x, row_y, CSig::zero());

  for (std::size_t c = 0; c < num_cols; ++c) {
    assert(!sum[c].is_const() && "degenerate product bit");
    b.output(str_format("p[%zu]", c), sum[c].sig);
  }
  return prune_unused(b.take());
}

}  // namespace sfqpart
