// Reference box splitter for the symbolic executor's differential
// checks: the row scan that split_box ran before its closed-form sign
// cuts.  It classifies every ctaid row of the box one by one, so it is
// O(rows) where the production splitter is O(cuts + mixed rows); the
// split differential test and fuzz_dca_split compare the two.  Kept
// here, never in src/, so the product cannot call it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "ptx/symexec.hpp"

namespace gpuperf::ptx::split_oracle {

using detail::AffinePred;
using detail::Box;
using detail::Range1;
using i64 = std::int64_t;
using i128 = __int128;

inline i64 div_floor(i64 a, i64 b) {
  i64 q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

inline i64 div_ceil(i64 a, i64 b) { return -div_floor(-a, b); }

/// Min/max of the predicate's form over the box; CheckError when either
/// leaves [INT64_MIN / 2, INT64_MAX / 2] (the domain guard run() applies
/// to the whole launch box before any split).
inline void affine_range(const AffinePred& v, const Box& box, i64& lo,
                         i64& hi) {
  i128 min_v = v.c0, max_v = v.c0;
  auto extend = [&](i64 coef, i64 a_lo, i64 a_hi_inclusive) {
    if (coef == 0) return;
    const i128 x = static_cast<i128>(coef) * a_lo;
    const i128 y = static_cast<i128>(coef) * a_hi_inclusive;
    min_v += x < y ? x : y;
    max_v += x > y ? x : y;
  };
  extend(v.c_ct, box.ct_lo, box.ct_hi - 1);
  extend(v.c_t, box.t_lo, box.t_hi - 1);
  GP_CHECK_MSG(min_v >= INT64_MIN / 2 && max_v <= INT64_MAX / 2,
               "affine range overflow");
  lo = static_cast<i64>(min_v);
  hi = static_cast<i64>(max_v);
}

enum class Tri { kTrue, kFalse, kMixed };

inline Tri eval_pred_range(CompareOp op, i64 dmin, i64 dmax) {
  switch (op) {
    case CompareOp::kLt:
      if (dmax < 0) return Tri::kTrue;
      if (dmin >= 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kLe:
      if (dmax <= 0) return Tri::kTrue;
      if (dmin > 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kGt:
      if (dmin > 0) return Tri::kTrue;
      if (dmax <= 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kGe:
      if (dmin >= 0) return Tri::kTrue;
      if (dmax < 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kEq:
      if (dmin == 0 && dmax == 0) return Tri::kTrue;
      if (dmin > 0 || dmax < 0) return Tri::kFalse;
      return Tri::kMixed;
    case CompareOp::kNe:
      if (dmin > 0 || dmax < 0) return Tri::kTrue;
      if (dmin == 0 && dmax == 0) return Tri::kFalse;
      return Tri::kMixed;
  }
  return Tri::kMixed;
}

/// One-variable split by explicit thresholds: regions of x in [lo, hi)
/// by cmp(c0 + c1*x, 0).
inline std::vector<Range1> split_1d(i64 c0, i64 c1, i64 lo, i64 hi,
                                    CompareOp op) {
  std::vector<Range1> out;
  auto push = [&](i64 a, i64 b, bool truth) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (a < b) out.push_back(Range1{a, b, truth});
  };
  if (c1 == 0) {
    const Tri t = eval_pred_range(op, c0, c0);
    push(lo, hi, t == Tri::kTrue);
    return out;
  }
  // d(x) = c0 + c1*x, strictly monotone over the integers.
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      if (c1 > 0) {
        const i64 x_ge0 = div_ceil(-c0, c1);       // d >= 0 from here
        const i64 x_gt0 = div_floor(-c0, c1) + 1;  // d > 0 from here
        switch (op) {
          case CompareOp::kLt:
            push(lo, x_ge0, true);
            push(x_ge0, hi, false);
            break;
          case CompareOp::kLe:
            push(lo, x_gt0, true);
            push(x_gt0, hi, false);
            break;
          case CompareOp::kGt:
            push(lo, x_gt0, false);
            push(x_gt0, hi, true);
            break;
          case CompareOp::kGe:
            push(lo, x_ge0, false);
            push(x_ge0, hi, true);
            break;
          default:
            break;
        }
      } else {
        // Decreasing d: mirror by substituting x -> -x.
        const std::vector<Range1> mirrored =
            split_1d(c0, -c1, -(hi - 1), -lo + 1, op);
        for (const Range1& r : mirrored)
          push(-(r.hi - 1), -r.lo + 1, r.truth);
        std::sort(out.begin(), out.end(),
                  [](const Range1& a, const Range1& b) { return a.lo < b.lo; });
      }
      break;
    }
    case CompareOp::kEq: {
      if ((-c0) % c1 == 0) {
        const i64 x0 = (-c0) / c1;
        push(lo, x0, false);
        push(x0, x0 + 1, true);
        push(x0 + 1, hi, false);
      } else {
        push(lo, hi, false);
      }
      break;
    }
    case CompareOp::kNe: {
      if ((-c0) % c1 == 0) {
        const i64 x0 = (-c0) / c1;
        push(lo, x0, true);
        push(x0, x0 + 1, false);
        push(x0 + 1, hi, true);
      } else {
        push(lo, hi, true);
      }
      break;
    }
  }
  return out;
}

/// Partition a box by a predicate into homogeneous sub-boxes by
/// classifying every ctaid row: uniform rows group into runs, each
/// mixed row splits over tid, and more than 64 mixed rows fail.
inline std::vector<std::pair<Box, bool>> split_box(const AffinePred& pred,
                                                   const Box& box) {
  std::vector<std::pair<Box, bool>> out;
  if (pred.c_t == 0 || pred.c_ct == 0) {
    const bool on_ct = pred.c_t == 0;
    const std::vector<Range1> runs =
        on_ct ? split_1d(pred.c0, pred.c_ct, box.ct_lo, box.ct_hi, pred.op)
              : split_1d(pred.c0, pred.c_t, box.t_lo, box.t_hi, pred.op);
    for (const Range1& r : runs) {
      Box b = box;
      (on_ct ? b.ct_lo : b.t_lo) = r.lo;
      (on_ct ? b.ct_hi : b.t_hi) = r.hi;
      out.push_back({b, r.truth});
    }
    return out;
  }
  i64 mixed_rows = 0;
  i64 run_lo = box.ct_lo;
  Tri run_tri = Tri::kMixed;
  bool run_open = false;
  auto close_run = [&](i64 end) {
    if (run_open && run_lo < end)
      out.push_back({Box{run_lo, end, box.t_lo, box.t_hi},
                     run_tri == Tri::kTrue});
    run_open = false;
  };
  for (i64 ct = box.ct_lo; ct < box.ct_hi; ++ct) {
    AffinePred row = pred;
    row.c0 += pred.c_ct * ct;
    row.c_ct = 0;
    i64 lo, hi;
    affine_range(row, Box{ct, ct + 1, box.t_lo, box.t_hi}, lo, hi);
    const Tri tri = eval_pred_range(row.op, lo, hi);
    if (tri == Tri::kMixed) {
      close_run(ct);
      GP_CHECK_MSG(++mixed_rows <= 64,
                   "unsupported divergence pattern (too many mixed rows)");
      for (const Range1& r :
           split_1d(row.c0, row.c_t, box.t_lo, box.t_hi, row.op))
        out.push_back({Box{ct, ct + 1, r.lo, r.hi}, r.truth});
    } else if (!run_open || tri != run_tri) {
      close_run(ct);
      run_open = true;
      run_lo = ct;
      run_tri = tri;
    }
  }
  close_run(box.ct_hi);
  return out;
}

using Parts = std::vector<std::pair<Box, bool>>;

/// True when two split results list the same boxes and truths in the
/// same order.
inline bool same_parts(const Parts& a, const Parts& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Box& x = a[i].first;
    const Box& y = b[i].first;
    if (x.ct_lo != y.ct_lo || x.ct_hi != y.ct_hi || x.t_lo != y.t_lo ||
        x.t_hi != y.t_hi || a[i].second != b[i].second)
      return false;
  }
  return true;
}

/// A split's boxes, or that it failed a check.
struct Outcome {
  bool threw = false;
  Parts parts;

  bool operator==(const Outcome& o) const {
    return threw == o.threw && same_parts(parts, o.parts);
  }
};

template <typename Split>
Outcome outcome_of(Split&& split) {
  Outcome out;
  try {
    out.parts = split();
  } catch (const CheckError&) {
    out.threw = true;
  }
  return out;
}

}  // namespace gpuperf::ptx::split_oracle
