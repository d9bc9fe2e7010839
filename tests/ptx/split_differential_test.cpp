// Differential check of the symbolic executor's box splitter: the
// closed-form sign cuts must return exactly the box list the row scan
// in split_oracle.hpp returns — same boxes, same truths, same order —
// and fail the 64-mixed-row check on exactly the same inputs.  The
// inputs come from the domain run() reaches: small affine coefficients
// over launch-sized boxes whose whole range passes the overflow check.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "ptx/symexec.hpp"
#include "split_oracle.hpp"

namespace gpuperf::ptx {
namespace {

using detail::AffinePred;
using detail::Box;
using detail::Range1;
using split_oracle::Outcome;
using split_oracle::outcome_of;
using split_oracle::Parts;
using split_oracle::same_parts;
using i64 = std::int64_t;

std::string describe(const AffinePred& p, const Box& b) {
  std::ostringstream os;
  os << "op=" << static_cast<int>(p.op) << " c0=" << p.c0
     << " c_ct=" << p.c_ct << " c_t=" << p.c_t << " ct=[" << b.ct_lo << ","
     << b.ct_hi << ") t=[" << b.t_lo << "," << b.t_hi << ")";
  return os.str();
}

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  i64 operator()(i64 lo, i64 hi) {
    return std::uniform_int_distribution<i64>(lo, hi)(rng_);
  }
  i64 sign() { return (*this)(0, 1) ? 1 : -1; }

 private:
  std::mt19937_64 rng_;
};

/// A predicate whose zero crossing lands in or near a random box, so
/// most draws are mixed and exercise the split.
std::pair<AffinePred, Box> random_case(Draw& draw) {
  Box box;
  box.ct_lo = draw(0, 1) ? 0 : draw(1, 5000);
  const i64 size_class = draw(0, 99);
  const i64 rows = size_class < 80   ? draw(1, 64)
                   : size_class < 99 ? draw(1, 512)
                                     : draw(1, 4096);
  box.ct_hi = box.ct_lo + rows;
  box.t_lo = draw(0, 2) ? 0 : draw(1, 300);
  box.t_hi = box.t_lo + (draw(0, 4) == 0 ? 1 : draw(1, 1024));

  AffinePred p;
  p.op = static_cast<CompareOp>(draw(0, 5));
  switch (draw(0, 3)) {
    case 0:  // gid = ctaid * 256 + tid, either side of the compare
      p.c_ct = 256 * draw.sign();
      p.c_t = draw.sign();
      break;
    case 1:
      p.c_ct = draw(1, 8) * draw.sign();
      p.c_t = draw(1, 8) * draw.sign();
      break;
    case 2:
      p.c_ct = draw(1, 10000) * draw.sign();
      p.c_t = draw(1, 300) * draw.sign();
      break;
    default:  // one coefficient zero: the one-dimensional splits
      (draw(0, 1) ? p.c_ct : p.c_t) = draw(1, 1000) * draw.sign();
      break;
  }
  const i64 ct = draw(box.ct_lo - 2, box.ct_hi + 1);
  const i64 t = draw(box.t_lo - 2, box.t_hi + 1);
  const i64 jitter = draw(-3, 3) * (draw(0, 3) == 0 ? p.c_t : 1);
  p.c0 = -(p.c_ct * ct + p.c_t * t) + jitter;
  return {p, box};
}

TEST(SplitDifferential, RandomAffinePredicatesMatchTheRowScan) {
  constexpr int kCases = 1'000'000;
  Draw draw(20260421);
  Parts buffer;  // reused across cases, as run() reuses its own
  int op_seen[6] = {}, throws = 0, gid = 0, one_thread = 0, offset = 0,
      long_boxes = 0, falling = 0, rising = 0;
  for (int i = 0; i < kCases; ++i) {
    const auto [pred, box] = random_case(draw);
    const Outcome want =
        outcome_of([&] { return split_oracle::split_box(pred, box); });
    const Outcome got = outcome_of([&] {
      detail::split_box(pred, box, buffer);
      return buffer;
    });
    ASSERT_TRUE(got == want) << describe(pred, box);
    ++op_seen[static_cast<int>(pred.op)];
    throws += want.threw;
    gid += std::abs(pred.c_ct) == 256 && std::abs(pred.c_t) == 1;
    one_thread += box.t_hi - box.t_lo == 1;
    offset += box.ct_lo > 0;
    long_boxes += box.ct_hi - box.ct_lo >= 3000;
    falling += pred.c_ct < 0;
    rising += pred.c_ct > 0;
  }
  for (const int n : op_seen) EXPECT_GT(n, 0);
  EXPECT_GT(throws, 0);
  EXPECT_GT(gid, 0);
  EXPECT_GT(one_thread, 0);
  EXPECT_GT(offset, 0);
  EXPECT_GT(long_boxes, 0);
  EXPECT_GT(falling, 0);
  EXPECT_GT(rising, 0);
}

TEST(SplitDifferential, OneDimensionalSplitsMatchTheThresholds) {
  Draw draw(7);
  std::vector<Range1> got;  // reused across cases
  for (int i = 0; i < 1'000'000; ++i) {
    const i64 c1 = draw(0, 9) == 0 ? 0 : draw(1, 1000) * draw.sign();
    const i64 lo = draw(-1000, 5000);
    const i64 hi = lo + draw(0, 5000);
    const i64 x = draw(lo - 2, hi + 1);
    const i64 c0 = -c1 * x + draw(-3, 3);
    const auto op = static_cast<CompareOp>(draw(0, 5));
    const std::vector<Range1> want =
        split_oracle::split_1d(c0, c1, lo, hi, op);
    detail::split_1d(c0, c1, lo, hi, op, got);
    ASSERT_EQ(got.size(), want.size())
        << "c0=" << c0 << " c1=" << c1 << " [" << lo << "," << hi << ")";
    for (std::size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(got[r].lo, want[r].lo) << "c0=" << c0 << " c1=" << c1;
      ASSERT_EQ(got[r].hi, want[r].hi) << "c0=" << c0 << " c1=" << c1;
      ASSERT_EQ(got[r].truth, want[r].truth) << "c0=" << c0 << " c1=" << c1;
    }
  }
}

TEST(SplitDifferential, MixedNeRowNeverMergesIntoTheNextRun) {
  // 2*tid + 4*ctaid - 9 != 0 over ctaid [0, 4), tid [0, 4): rows 1 and
  // 2 are mixed over their range, yet 2*tid + odd never hits zero, so
  // each splits over tid into one full-width true range.  They stay
  // boxes of their own between the uniform rows 0 and 3.
  AffinePred pred;
  pred.op = CompareOp::kNe;
  pred.c0 = -9;
  pred.c_ct = 4;
  pred.c_t = 2;
  const Box box{0, 4, 0, 4};
  Parts got;
  detail::split_box(pred, box, got);
  EXPECT_TRUE(same_parts(got, split_oracle::split_box(pred, box)));
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first.ct_lo, static_cast<i64>(i));
    EXPECT_EQ(got[i].first.ct_hi, static_cast<i64>(i + 1));
    EXPECT_TRUE(got[i].second);
  }
}

TEST(SplitDifferential, TooManyMixedRowsFailAsBefore) {
  // tid spans 1024 values and ctaid moves the form by 1: every row of
  // a 100-row box straddles zero.
  AffinePred pred;
  pred.op = CompareOp::kLt;
  pred.c0 = -512;
  pred.c_ct = 1;
  pred.c_t = 1;
  const Box box{0, 100, 0, 1024};
  Parts parts;
  EXPECT_THROW(split_oracle::split_box(pred, box), CheckError);
  EXPECT_THROW(detail::split_box(pred, box, parts), CheckError);
  const Box fits{0, 64, 0, 1024};
  detail::split_box(pred, fits, parts);
  EXPECT_TRUE(same_parts(parts, split_oracle::split_box(pred, fits)));
}

}  // namespace
}  // namespace gpuperf::ptx
